"""Binomial coefficients modulo a prime.

Two independent routes: Lucas' base-p digit product, and the additive
Pascal recurrence used as an oracle.  Neither materializes C(l, j) as an
integer: Lucas computes only the digit binomials C(l_d, j_d), both digits
below p, as products of min(j_d, l_d - j_d) factors mod p with one inverse
per call, so a digit costs at most p/2 products and no table is built.
Callers that read many coefficients C(i+n, n) take them from binom_row, one
Lucas row per (p, n) built once and then shared; binom_masks turns the same
row into one byte mask per nonzero value, for the hyperderivative kernel.
"""

from .errors import InvalidCharacteristic
from .field import is_prime

_PASCAL_ROWS: dict[int, list[tuple[int, ...]]] = {}
_ROWS: dict[tuple[int, int], tuple[int, ...]] = {}
_MASKS: dict[tuple[int, int], tuple[int, tuple]] = {}


def _check_args(l, j, p):
    if not is_prime(p):
        raise InvalidCharacteristic(f"p={p} is not prime")
    if l < 0 or j < 0:
        raise ValueError("binomial arguments must be nonnegative")


def binom_mod_p(l: int, j: int, p: int) -> int:
    """C(l, j) mod p by Lucas' theorem; 0 when j > l."""
    _check_args(l, j, p)
    if j > l:
        return 0
    num = den = 1
    while l or j:
        ld, jd = l % p, j % p
        if jd > ld:
            return 0
        if 0 < jd < ld:
            # C(ld, jd) = prod (ld - i) / (i + 1) over i < min(jd, ld - jd);
            # every factor is below p, so den stays a unit
            for i in range(min(jd, ld - jd)):
                num = num * (ld - i) % p
                den = den * (i + 1) % p
        l //= p
        j //= p
    return num if den == 1 else num * pow(den, -1, p) % p


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


def binom_masks(p: int, n: int, length: int) -> tuple[int, tuple]:
    """The row of (p, n) as byte masks: (mask_1, ((c, mask_c), ...)).

    mask_c is a little-endian int whose byte i is 0xff where entry i of
    binom_row(p, n, ...) equals c, and 0 elsewhere.  mask_1 is never empty,
    since entry 0 is C(n, n) = 1; the pairs hold each other nonzero value
    c of the row in increasing order, so there are none for p = 2.  Byte i of

        (ranks & mask_1) | OR over the pairs of ((c * ranks) & mask_c),

    with the ranks r_0, ..., r_(L-1) read as a little-endian int, is the
    rank of C(i+n, n) r_i for every L up to the masks' length; mask bytes
    past L meet zeros.  The masks are cached per (p, n) with the length
    they cover and rebuilt from binom_row when a longer one is asked for,
    so p and n are checked before anything is stored.
    """
    hit = _MASKS.get((p, n))
    if hit is not None and hit[0] >= length:
        return hit[1]
    row = binom_row(p, n, length)
    by_value = {c: int.from_bytes(bytes(0xff * (v == c) for v in row), "little")
                for c in set(row) - {0}}
    masks = (by_value.pop(1), tuple(sorted(by_value.items())))
    _MASKS[p, n] = (len(row), masks)
    return masks


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
