"""Exact arithmetic in the small finite fields F_q, q = p^e.

Elements are stored by their *rank*: the integer sum(c_i * p^i) over the
polynomial-basis coefficients (c_0, ..., c_{e-1}).  Rank 0 is zero, ranks
below p are the prime-field constants, and enumeration order is ascending
rank.  All arithmetic runs through per-spec lookup tables, which keeps the
hot enumeration loops free of object overhead.  Each table is kept once, as
`bytes`: a row of 256 bytes per left operand, which serves as a lookup for
`FqElem` and literal parsing, as a `bytes.translate` table for the rank
kernels of `carlitz.series`, and, viewed as a q x q uint8 array, for the
batched gathers of `carlitz.density`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DivisionByZero,
    InvalidCharacteristic,
    ParseError,
    SpecMismatch,
    UnsupportedOrder,
)

# every rank fits in one byte, which the 256-byte table rows, the packed
# kernels of carlitz.series and the uint8 arrays of carlitz.density rely on
ORDER_BOUND = 256

# Built-in monic irreducible defining polynomials, low-to-high coefficients.
_BUILTIN_POLYS = {
    4: (1, 1, 1),          # x^2 + x + 1
    8: (1, 1, 0, 1),       # x^3 + x + 1
    9: (1, 0, 1),          # x^2 + 1
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1
    25: (2, 0, 1),         # x^2 + 2
    27: (1, 2, 0, 1),      # x^3 + 2x + 1
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p, used only for spec validation and
# one-time table construction
# ---------------------------------------------------------------------------

def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        if c:
            for i, y in enumerate(m):
                a[shift + i] = (a[shift + i] - c * y) % p
        _ptrim(a)
        if not a:
            break
    return a


def _is_irreducible(poly, p):
    """Whether a monic polynomial over F_p is irreducible, by trial division.

    A monic polynomial of degree e is reducible exactly when some monic
    polynomial of degree 1..e/2 divides it.
    """
    e = len(poly) - 1
    return all(
        _pmod(poly, [*low, 1], p)
        for d in range(1, e // 2 + 1)
        for low in itertools.product(range(p), repeat=d)
    )


def _square_view(rows, q):
    """The first q entries of q table rows, as one read-only q x q uint8 array."""
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(q, 256)[:, :q]


# ---------------------------------------------------------------------------
# field spec
# ---------------------------------------------------------------------------

class FieldTables(NamedTuple):
    """Per-field lookup tables, each kept once as `bytes`, indexed by rank.

    Every table row has 256 bytes, so it is both a lookup (`mul[a][b]` is
    the rank of a*b) and a `bytes.translate` table for the rank kernels of
    `carlitz.series`; entries past q are zero.  `add[a]` and `mul[a]` are
    the rows of addition and multiplication by a, `neg` is the row
    `mul[p-1]` and `inv` maps a rank to the rank of its inverse (inv[0] is
    0).  `add_np` and `mul_np` are q x q uint8 views of the same rows,
    joined once into one buffer, for the batched gathers of
    `carlitz.density`.

    `digits[i]` maps a rank to its i-th base-p digit and `mod_p` a byte b
    to b mod p.  A product digit block (d_0, ..., d_{2e-2}) is read in
    chunks of `block_digits` digits, the most whose base-p key fits in a
    byte: `blocks[c]` maps the key sum_i d_{s+i} p^i of the chunk at
    s = c * block_digits to the rank of sum_i d_{s+i} x^(s+i) reduced mod
    the defining polynomial.

    For odd p, e > 1 and (2p-1)^e <= 256, `radix[r]` reads the base-p digits
    of r in radix 2p-1, so two such bytes add without a carry, and `unradix`
    maps a sum to the rank of its digits mod p; otherwise both are None.
    """

    add: tuple
    mul: tuple
    neg: bytes
    inv: bytes
    add_np: np.ndarray
    mul_np: np.ndarray
    digits: tuple
    mod_p: bytes
    block_digits: int
    blocks: tuple
    radix: bytes | None
    unradix: bytes | None


class FqSpec:
    """Description of F_q, q = p^e: characteristic, degree, defining polynomial.

    The defining polynomial must be monic of degree e over F_p and
    irreducible; both are checked at construction.  q is at most
    ORDER_BOUND, so that a rank fits in a byte.
    """

    def __init__(self, p: int, e: int, defining_poly: Sequence[int] | None = None):
        if not is_prime(p):
            raise InvalidCharacteristic(f"p={p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        q = p ** e
        if q > ORDER_BOUND:
            raise UnsupportedOrder(f"q={q} exceeds the bound {ORDER_BOUND}")
        if defining_poly is None:
            if e == 1:
                defining_poly = (0, 1)
            elif q in _BUILTIN_POLYS:
                defining_poly = _BUILTIN_POLYS[q]
            else:
                raise UnsupportedOrder(
                    f"no built-in defining polynomial for q={q}; supply one"
                )
        poly = tuple(c % p for c in defining_poly)
        if len(poly) != e + 1 or poly[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree e")
        if not _is_irreducible(list(poly), p):
            raise ValueError(f"defining polynomial {poly} is reducible over F_{p}")
        self.p = p
        self.e = e
        self.q = q
        self.defining_poly = poly
        self.key = (p, e, poly)
        self._tables = None

    def __eq__(self, other):
        return isinstance(other, FqSpec) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"FqSpec(q={self.q})"

    # -- rank <-> coefficient encoding --------------------------------------

    def decode(self, rank: int):
        p = self.p
        return tuple((rank // p ** i) % p for i in range(self.e))

    def encode(self, coeffs) -> int:
        p = self.p
        r = 0
        for i, c in enumerate(coeffs):
            r += (c % p) * p ** i
        return r

    # -- tables --------------------------------------------------------------

    def _build_tables(self):
        p, e, q, poly = self.p, self.e, self.q, self.defining_poly
        pad = bytes(256 - q)
        add = [[0] * q for _ in range(q)]
        for r1 in range(q):
            a = self.decode(r1)
            for r2 in range(r1, q):
                b = self.decode(r2)
                v = self.encode((x + y) % p for x, y in zip(a, b))
                add[r1][r2] = v
                add[r2][r1] = v
        mul = [[0] * q for _ in range(q)]
        for r1 in range(1, q):
            a = self.decode(r1)
            for r2 in range(r1, q):
                v = self.encode(_pmod(_pmul(a, self.decode(r2), p), poly, p))
                mul[r1][r2] = v
                mul[r2][r1] = v
        add = tuple(bytes(row) + pad for row in add)
        mul = tuple(bytes(row) + pad for row in mul)
        slots = 2 * e - 1
        g = 1
        while g < slots and p ** (g + 1) <= 256:
            g += 1
        blocks = []
        for s in range(0, slots, g):
            n = min(g, slots - s)
            ranks = [
                self.encode(_pmod([0] * s + [key // p ** i % p for i in range(n)], poly, p))
                for key in range(p ** n)
            ]
            blocks.append(bytes(ranks) + bytes(256 - len(ranks)))
        b = 2 * p - 1
        radix = p > 2 and e > 1 and b ** e <= 256
        self._tables = FieldTables(
            add=add, mul=mul, neg=mul[p - 1],
            inv=bytes([0] + [row.index(1) for row in mul[1:]]) + pad,
            add_np=_square_view(add, q), mul_np=_square_view(mul, q),
            digits=tuple(bytes(r // p ** i % p for r in range(q)) + pad
                         for i in range(e)),
            mod_p=bytes(b % p for b in range(256)),
            block_digits=g,
            blocks=tuple(blocks),
            radix=bytes(sum(d * b ** i for i, d in enumerate(self.decode(r)))
                        for r in range(q)) + pad if radix else None,
            unradix=bytes(self.encode(v // b ** i % b for i in range(e))
                          for v in range(256)) if radix else None,
        )
        return self._tables

    @property
    def tables(self) -> FieldTables:
        """The field's lookup tables, built on first use."""
        return self._tables or self._build_tables()

    def inv_rank(self, r):
        if r == 0:
            raise DivisionByZero("inversion of zero")
        return self.tables.inv[r]

    # -- element constructors ------------------------------------------------

    def element(self, value) -> "FqElem":
        """Build an element from an int or a coefficient sequence.

        Ints are residues mod p in prime fields; in extension fields an int
        is taken as a rank and must lie in [0, q).
        """
        if isinstance(value, FqElem):
            if value.spec.key != self.key:
                raise SpecMismatch("element from a different field")
            return value
        if isinstance(value, int):
            if self.e == 1:
                return FqElem(self, value % self.p)
            if not 0 <= value < self.q:
                raise ValueError(f"rank {value} out of range for q={self.q}")
            return FqElem(self, value)
        coeffs = tuple(value)
        if len(coeffs) != self.e:
            raise ValueError(f"expected {self.e} coefficients, got {len(coeffs)}")
        return FqElem(self, self.encode(coeffs))

    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def from_rank(self, rank: int) -> "FqElem":
        if not 0 <= rank < self.q:
            raise ValueError(f"rank {rank} out of range for q={self.q}")
        return FqElem(self, rank)

    def gen(self) -> "FqElem":
        """The class of x in the polynomial-basis presentation (e >= 2)."""
        if self.e < 2:
            raise ValueError("prime fields have no polynomial generator")
        return FqElem(self, self.p)

    def elements(self) -> Iterator["FqElem"]:
        """All q elements in ascending rank order, starting at zero."""
        for r in range(self.q):
            yield FqElem(self, r)


class FqElem:
    """An element of F_q in polynomial-basis representation."""

    __slots__ = ("spec", "rank")

    def __init__(self, spec: FqSpec, rank: int):
        self.spec = spec
        self.rank = rank

    @property
    def coeffs(self):
        return self.spec.decode(self.rank)

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.spec.key != self.spec.key:
                raise SpecMismatch("mixed field specs")
            return other.rank
        if isinstance(other, int):
            return other % self.spec.p
        return NotImplemented

    def __add__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FqElem(self.spec, self.spec.tables.add[self.rank][r])

    __radd__ = __add__

    def __sub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        t = self.spec.tables
        return FqElem(self.spec, t.add[self.rank][t.neg[r]])

    def __rsub__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        t = self.spec.tables
        return FqElem(self.spec, t.add[r][t.neg[self.rank]])

    def __mul__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        return FqElem(self.spec, self.spec.tables.mul[self.rank][r])

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = self._coerce(other)
        if r is NotImplemented:
            return NotImplemented
        inv = self.spec.inv_rank(r)
        return FqElem(self.spec, self.spec.tables.mul[self.rank][inv])

    def __neg__(self):
        return FqElem(self.spec, self.spec.tables.neg[self.rank])

    def __pow__(self, n: int):
        r = self.rank
        if n < 0:
            r = self.spec.inv_rank(r)
            n = -n
        out = 1
        mul = self.spec.tables.mul
        while n:
            if n & 1:
                out = mul[out][r]
            r = mul[r][r]
            n >>= 1
        return FqElem(self.spec, out)

    def inverse(self):
        return FqElem(self.spec, self.spec.inv_rank(self.rank))

    def __bool__(self):
        return self.rank != 0

    def __eq__(self, other):
        if isinstance(other, FqElem):
            return self.spec.key == other.spec.key and self.rank == other.rank
        if isinstance(other, int):
            return self.rank == (other % self.spec.p if self.spec.e == 1 else other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec.key, self.rank))

    def __str__(self):
        if self.spec.e == 1:
            return str(self.rank)
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self):
        return f"Fq{self.spec.q}({self})"


# ---------------------------------------------------------------------------
# spec resolution: built-ins plus a key/value config for custom polynomials
# ---------------------------------------------------------------------------

_SPEC_CACHE: dict = {}


def _factor_prime_power(q):
    if q < 2:
        raise UnsupportedOrder(f"q={q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise UnsupportedOrder(f"q={q} is not a prime power")
    return p, e


def parse_fq_config(path: str) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Read `q=<int> poly=<c0,...,ce>` lines; '#' starts a comment.

    An entry with q past ORDER_BOUND raises ParseError naming the line.
    """
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = dict()
            for tok in line.split():
                if "=" not in tok:
                    raise ParseError(f"{path}:{lineno}: expected key=value, got {tok!r}")
                k, v = tok.split("=", 1)
                fields[k] = v
            try:
                q = int(fields["q"])
                poly = tuple(int(c) for c in fields["poly"].split(","))
            except (KeyError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed entry") from exc
            # checked before factoring, which is trial division up to sqrt(q)
            if q > ORDER_BOUND:
                raise ParseError(f"{path}:{lineno}: q={q} exceeds the bound {ORDER_BOUND}")
            p, _ = _factor_prime_power(q)
            entries[q] = (p, poly)
    return entries


def spec_for_order(q: int, config_path: str | None = None) -> FqSpec:
    """Resolve q to a spec: config entries first, then built-ins and primes.

    A config polynomial that is not monic of degree e or is reducible
    raises ParseError naming the file and q.
    """
    # checked before the config and any factoring, so a huge q fails at once
    if q > ORDER_BOUND:
        raise UnsupportedOrder(f"q={q} exceeds the bound {ORDER_BOUND}")
    custom = None
    if config_path:
        entries = parse_fq_config(config_path)
        if q in entries:
            custom = entries[q][1]
    cache_key = (q, custom)
    if cache_key in _SPEC_CACHE:
        return _SPEC_CACHE[cache_key]
    p, e = _factor_prime_power(q)
    try:
        spec = FqSpec(p, e, custom)
    except ValueError as exc:
        if custom is None:  # UnsupportedOrder: no built-in polynomial
            raise
        raise ParseError(f"{config_path}: q={q}: {exc}") from exc
    _SPEC_CACHE[cache_key] = spec
    return spec
