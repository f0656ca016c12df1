"""Binomial coefficients modulo a prime.

Two independent routes: Lucas' base-p digit product, and the additive
Pascal recurrence used as an oracle.  Neither ever materializes C(l, j)
as an integer.  Callers that read many coefficients C(i+n, n) take them
from binom_row, one Lucas row per (p, n) built once and then shared.
"""

from .errors import InvalidCharacteristic
from .field import is_prime

_PASCAL_ROWS: dict[int, list[tuple[int, ...]]] = {}
_SMALL_TABLES: dict[int, list[list[int]]] = {}
_ROWS: dict[tuple[int, int], tuple[int, ...]] = {}


def _check_args(l, j, p):
    if not is_prime(p):
        raise InvalidCharacteristic(f"p={p} is not prime")
    if l < 0 or j < 0:
        raise ValueError("binomial arguments must be nonnegative")


def _small_table(p):
    # C(a, b) mod p for 0 <= b <= a < p, via factorials (invertible below p)
    table = _SMALL_TABLES.get(p)
    if table is None:
        fact = [1] * p
        for i in range(1, p):
            fact[i] = fact[i - 1] * i % p
        table = [
            [fact[a] * pow(fact[b] * fact[a - b] % p, p - 2, p) % p for b in range(a + 1)]
            for a in range(p)
        ]
        _SMALL_TABLES[p] = table
    return table


def binom_mod_p(l: int, j: int, p: int) -> int:
    """C(l, j) mod p by Lucas' theorem; 0 when j > l."""
    _check_args(l, j, p)
    if j > l:
        return 0
    small = _small_table(p)
    out = 1
    while l or j:
        ld, jd = l % p, j % p
        if jd > ld:
            return 0
        out = out * small[ld][jd] % p
        l //= p
        j //= p
    return out


def binom_row(p: int, n: int, length: int) -> tuple[int, ...]:
    """(C(n, n), C(n+1, n), C(n+2, n), ...) mod p, at least `length` entries.

    Entry i is C(i+n, n), the factor the n-th hyperderivative puts on t^(i+n).
    Rows are cached per (p, n).  A row that is too short is extended to
    max(length, twice its length) through binom_mod_p, which checks p and n
    whenever a row is built or grown; a cached row only ever exists for valid
    arguments, so a hit is one dict lookup.
    """
    row = _ROWS.get((p, n), ())
    if len(row) < max(length, 1):
        size = max(length, 2 * len(row), 1)
        row += tuple(binom_mod_p(i + n, n, p) for i in range(len(row), size))
        _ROWS[p, n] = row
    return row


def _pascal_rows(p, upto):
    rows = _PASCAL_ROWS.setdefault(p, [(1,)])
    while len(rows) <= upto:
        prev = rows[-1]
        l = len(rows)
        row = [1] * (l + 1)
        for i in range(1, l):
            row[i] = (prev[i - 1] + prev[i]) % p
        rows.append(tuple(row))
    return rows


def binom_pascal_oracle(l: int, j: int, p: int) -> int:
    """C(l, j) mod p from the recurrence C(l,j) = C(l-1,j-1) + C(l-1,j)."""
    _check_args(l, j, p)
    if j > l:
        return 0
    return _pascal_rows(p, l)[l][j]
