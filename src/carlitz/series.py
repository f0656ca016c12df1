"""Truncated power series F_q[t]/(t^T) and its unit group.

Coefficients are exact; the only approximation is the truncation order T,
and the precision of any binary operation is the min of the operand
precisions.  A series stores its coefficient ranks as one `bytes` object,
a rank per byte.  Series hash and compare by (spec, precision, ranks),
which is the canonical deduplication key used by the image counting.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import BudgetExceeded, NonUnit, ParseError, SpecMismatch
from .field import FqElem, FqSpec

ENUM_BUDGET_DEFAULT = 10 ** 8


class TruncSeries:
    """A power series in t over F_q, exact modulo t^prec.

    `exhausted` marks the flagged-zero result of differentiating past the
    available precision; it is metadata and takes no part in equality.
    """

    __slots__ = ("spec", "prec", "ranks", "exhausted")

    def __init__(self, spec: FqSpec, coeffs: Iterable, prec: int | None = None,
                 *, exhausted: bool = False):
        ranks = [spec.element(c).rank for c in coeffs]
        if prec is None:
            prec = len(ranks)
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.spec = spec
        self.prec = prec
        self.ranks = bytes(ranks[:prec]).ljust(prec, b"\0")
        self.exhausted = exhausted

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_ranks(cls, spec, ranks, *, exhausted=False):
        """The series of the given ranks, checked: at least one, each below q.

        Results that a kernel made valid are built by `_series` instead.
        """
        # bytes(b) of a bytes object goes through b.__bytes__: slower, same b
        if type(ranks) is not bytes:
            ranks = bytes(ranks)
        if not ranks:
            raise ValueError("precision must be >= 1")
        if max(ranks) >= spec.q:
            raise ValueError(f"rank {max(ranks)} out of range for q={spec.q}")
        obj = _series(spec, ranks)
        obj.exhausted = exhausted
        return obj

    @classmethod
    def zero(cls, spec, prec):
        return cls._constant(spec, 0, prec)

    @classmethod
    def one(cls, spec, prec):
        return cls._constant(spec, 1, prec)

    @classmethod
    def _constant(cls, spec, rank, prec):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        return _series(spec, bytes((rank,)).ljust(prec, b"\0"))

    @classmethod
    def monomial(cls, spec, i, prec, coeff=1):
        if not 0 <= i < prec:
            raise ValueError(f"monomial degree {i} outside [0, {prec})")
        ranks = bytearray(prec)
        ranks[i] = spec.element(coeff).rank
        return _series(spec, bytes(ranks))

    # -- accessors --------------------------------------------------------------

    @property
    def coeffs(self):
        return tuple(FqElem(self.spec, r) for r in self.ranks)

    def coeff(self, i) -> FqElem:
        return FqElem(self.spec, self.ranks[i])

    def eval0(self) -> FqElem:
        """Value at t = 0."""
        return FqElem(self.spec, self.ranks[0])

    @property
    def is_unit(self) -> bool:
        return self.ranks[0] != 0

    def key(self):
        return (self.spec.key, self.prec, self.ranks)

    def truncate(self, prec: int) -> "TruncSeries":
        if prec < 1:
            raise ValueError("precision must be >= 1")
        if prec > self.prec:
            raise ValueError("cannot raise precision by truncation")
        if prec == self.prec:
            return self
        return _series(self.spec, self.ranks[:prec])

    # -- arithmetic ---------------------------------------------------------------

    def _common(self, other):
        if not isinstance(other, TruncSeries):
            raise SpecMismatch(f"expected a series, got {type(other).__name__}")
        if other.spec.key != self.spec.key:
            raise SpecMismatch("mixed field specs")
        return min(self.prec, other.prec)

    def __add__(self, other):
        prec = self._common(other)
        return _series(
            self.spec, add_ranks(self.spec, self.ranks, other.ranks, 0, prec)
        )

    def __sub__(self, other):
        prec = self._common(other)
        neg = neg_ranks(self.spec, other.ranks[:prec])
        return _series(
            self.spec, add_ranks(self.spec, self.ranks, neg, 0, prec)
        )

    def __neg__(self):
        return _series(self.spec, neg_ranks(self.spec, self.ranks))

    def scale(self, c) -> "TruncSeries":
        """Multiply by a scalar (an FqElem, or an int residue mod p)."""
        return _series(
            self.spec, scale_ranks(self.spec, scalar_rank(self.spec, c), self.ranks)
        )

    def __mul__(self, other):
        if isinstance(other, (FqElem, int)):
            return self.scale(other)
        prec = self._common(other)
        return _series(
            self.spec, mul_ranks(self.spec, self.ranks, other.ranks, prec)
        )

    def __rmul__(self, other):
        if isinstance(other, (FqElem, int)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = TruncSeries.one(self.spec, self.prec)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse mod t^prec; requires a unit constant term."""
        if self.ranks[0] == 0:
            raise NonUnit("series has zero constant term")
        return _series(
            self.spec, inv_ranks(self.spec, self.ranks, self.prec)
        )

    # -- comparison -----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        # the fields of key(); prec is len(ranks), so equal ranks share it
        return self.ranks == other.ranks and self.spec.key == other.spec.key

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"TruncSeries({render_series(self)!r}, prec={self.prec}, q={self.spec.q})"


def _series(spec, ranks):
    """The series of rank bytes that a kernel made valid: nothing checked.

    The one unchecked TruncSeries constructor; `ranks` must be `bytes` of
    at least one rank, each below q.
    """
    obj = object.__new__(TruncSeries)
    obj.spec = spec
    obj.prec = len(ranks)
    obj.ranks = ranks
    obj.exhausted = False
    return obj


# Rank-sequence kernels shared by TruncSeries and UInftyElem.  They trust their
# input ranks; the callers own the precision and window bookkeeping.  Each
# takes any sequence of ranks (bytes, tuple or list) and returns `bytes`, the
# one form of a rank sequence in the package; a `bytes` argument is used as
# is, since bytes(b) goes through b.__bytes__ for the same b.
#
# A rank fits in a byte (q <= 256), and the kernels work on rank sequences
# packed into one Python int, one byte-aligned lane per slot (Kronecker
# substitution: Harvey, J. Symb. Comput. 2009), and unpack them with
# `bytes.translate` through the 256-byte rows of the field's FieldTables.

def scalar_rank(spec, c) -> int:
    """The rank of a scalar: an FqElem of `spec`, or an int residue mod p."""
    if isinstance(c, FqElem):
        if c.spec.key != spec.key:
            raise SpecMismatch("scalar from a different field")
        return c.rank
    return c % spec.p


def scale_ranks(spec, c, ranks):
    """Each rank times the field element of rank c."""
    if type(ranks) is not bytes:
        ranks = bytes(ranks)
    return ranks.translate(spec.tables.mul[c])


def neg_ranks(spec, ranks):
    """Each rank negated: times -1, whose rank is p - 1."""
    return scale_ranks(spec, spec.p - 1, ranks)


def add_ranks(spec, xr, yr, shift, width):
    """The first `width` ranks of x + t^shift y, for shift >= 0."""
    if width <= 0:
        return b""
    return _add_bytes(spec, xr[:width], yr[:max(width - shift, 0)], shift, width)


def mul_ranks(spec, xr, yr, width):
    """The first `width` ranks of the product of two rank sequences.

    Past the end of the full product the ranks are zero.  Every product,
    a zero or one-rank operand included, is the one-row case of
    `cauchy_rows`: each operand becomes one int, with 2e-1 slots per
    t-position that hold the e base-p digits of its rank (slot i is the
    coefficient of x^i), and the two ints are multiplied once.  A slot of
    the product sums at most min(len)*e digit products, each at most
    (p-1)^2, so lanes of b bytes hold it exactly while
    min(len)*e*(p-1)^2 < 2^(8b); a sum of j+1 such products, as in
    `cauchy_rows`, needs (j+1)*width*e*(p-1)^2 < 2^(8b).  The product's
    lanes are reduced mod p, and each block of 2e-1 digits to a rank by
    tables of the reductions mod the defining polynomial.
    """
    if width <= 0:
        return b""
    if len(xr) > len(yr):
        xr, yr = yr, xr
    x, y = xr[:width], yr[:width]
    if type(x) is not bytes:
        x = bytes(x)
    if type(y) is not bytes:
        y = bytes(y)
    lane = _lane_bytes(spec, len(x) or 1)  # an empty operand still needs a lane
    prod = _spread(spec, x, lane) * _spread(spec, y, lane)
    size = max(width, len(x) + len(y) - 1) * (2 * spec.e - 1) * lane
    return _reduce_lanes(spec, prod.to_bytes(size, "little"), width, lane)


def cauchy_rows(spec, xs, ys, width, want):
    """For each j in `want`, the first `width` ranks of sum_(i<=j) xs[i]*ys[j-i].

    xs and ys are lists of rank sequences, of any lengths; a term whose
    index falls outside either list is zero.  Each row is spread into one
    lane int as in `mul_ranks`, once, and a sum's products are added
    unreduced: a slot of sum j holds at most (j+1)*width*e digit products
    of at most (p-1)^2, so every lane is sized for
    (max(want)+1)*width*e*(p-1)^2 < 2^(8b).  Each sum is masked to `width`
    positions, the sums are packed side by side into one int, and that int
    is reduced to ranks in one pass.  This is the product of two jets
    (and of any rows multiplied as a Cauchy product) with one reduction.
    """
    want = tuple(want)
    if width <= 0 or not want:
        return [b""] * len(want)
    terms = max(want) + 1
    lane = _lane_bytes(spec, terms * width)
    sx = [_spread(spec, r[:width], lane) for r in xs[:terms]]
    sy = [_spread(spec, r[:width], lane) for r in ys[:terms]]
    size = width * (2 * spec.e - 1) * lane
    mask = (1 << 8 * size) - 1
    packed = 0
    for at, j in enumerate(want):
        acc = 0
        for i in range(max(0, j - len(sy) + 1), min(j, len(sx) - 1) + 1):
            acc += sx[i] * sy[j - i]
        packed |= (acc & mask) << 8 * size * at
    out = _reduce_lanes(spec, packed.to_bytes(size * len(want), "little"),
                        width * len(want), lane)
    return [out[at * width:(at + 1) * width] for at in range(len(want))]


def _lane_bytes(spec, terms):
    """Bytes per lane that hold a sum of `terms`*e digit products exactly."""
    return ((terms * spec.e * (spec.p - 1) ** 2).bit_length() + 7) // 8


def _spread(spec, ranks, lane):
    """The ranks as one int: 2e-1 lanes of `lane` bytes per t-position, the
    first e holding the base-p digits of its rank, lowest first."""
    if type(ranks) is not bytes:
        ranks = bytes(ranks)
    step = (2 * spec.e - 1) * lane
    if step == 1:
        return int.from_bytes(ranks, "little")
    spread = bytearray(len(ranks) * step)
    if spec.e == 1:
        # the one digit of a rank is the rank: a strided copy
        spread[::step] = ranks
    else:
        for i, digit in enumerate(spec.tables.digits):
            spread[i * lane::step] = ranks.translate(digit)
    return int.from_bytes(spread, "little")


def _reduce_lanes(spec, data, width, lane):
    """The first `width` ranks of a spread int's bytes, each lane reduced."""
    tables = spec.tables
    p, e = spec.p, spec.e
    slots = 2 * e - 1
    n = width * slots
    # each lane mod p by Horner's rule from its top byte down, so that every
    # step adds two residues; a residue times 256 is its image under the
    # multiplication row of 256 mod p
    digits = data[lane - 1:n * lane:lane].translate(tables.mod_p)
    for j in reversed(range(lane - 1)):
        digits = _add_mod_p(spec, digits.translate(tables.mul[256 % p]),
                            data[j:n * lane:lane].translate(tables.mod_p), 0, n)
    if e == 1:
        return digits
    # each block of slots maps to a rank chunk by chunk (see FieldTables)
    g, out = tables.block_digits, None
    for c, table in enumerate(tables.blocks):
        key = 0
        for i in reversed(range(c * g, min(c * g + g, slots))):
            key = key * p + int.from_bytes(digits[i::slots], "little")
        part = key.to_bytes(width, "little").translate(table)
        out = part if out is None else _add_bytes(spec, out, part, 0, width)
    return out


def inv_ranks(spec, xr, width):
    """The first `width` ranks of 1/x; the leading rank of x is nonzero.

    Newton's iteration y <- y - y(xy - 1), which doubles the precision of
    y at each step.
    """
    if width < 1:
        return b""
    out = bytes((spec.inv_rank(xr[0]),))
    n = 1
    while n < width:
        n = min(2 * n, width)
        err = b"\0" + mul_ranks(spec, xr, out, n)[1:]
        out = add_ranks(spec, out, neg_ranks(spec, mul_ranks(spec, out, err, n)), 0, n)
    return out


def _add_bytes(spec, x, y, shift, width):
    """Rank bytes of x + t^shift y, `width` of them; x and y fit in that."""
    if type(x) is not bytes:
        x = bytes(x)
    if type(y) is not bytes:
        y = bytes(y)
    if spec.p == 2:
        s = int.from_bytes(x, "little") ^ (int.from_bytes(y, "little") << 8 * shift)
        return s.to_bytes(width, "little")
    if spec.e == 1:
        return _add_mod_p(spec, x, y, shift, width)
    radix, unradix = spec.tables.radix, spec.tables.unradix
    if radix is not None:
        s = (int.from_bytes(x.translate(radix), "little")
             + (int.from_bytes(y.translate(radix), "little") << 8 * shift))
        return s.to_bytes(width, "little").translate(unradix)
    out = 0
    for i, digit in enumerate(spec.tables.digits):
        plane = _add_mod_p(spec, x.translate(digit), y.translate(digit), shift, width)
        out += spec.p ** i * int.from_bytes(plane, "little")
    return out.to_bytes(width, "little")


def _add_mod_p(spec, x, y, shift, width):
    """Bytes of residues mod p: x + t^shift y, reduced lane by lane."""
    p = spec.p
    if 2 * (p - 1) < 256:
        s = int.from_bytes(x, "little") + (int.from_bytes(y, "little") << 8 * shift)
        return s.to_bytes(width, "little").translate(spec.tables.mod_p)
    # a sum of two residues can pass a byte: add in two-byte lanes, where
    # bit 15 of lane + 2^15 - p flags the lanes to take p from
    ones = _two_byte_lanes(b"\1" * width)
    s = _two_byte_lanes(x) + (_two_byte_lanes(y) << 16 * shift)
    s -= p * (((s + (0x8000 - p) * ones) >> 15) & ones)
    return s.to_bytes(2 * width, "little")[::2]


def _two_byte_lanes(data):
    """The bytes as one int, each in the low byte of a two-byte lane."""
    wide = bytearray(2 * len(data))
    wide[::2] = data
    return int.from_bytes(wide, "little")


def unit_count(q: int, prec: int) -> int:
    if prec < 1:
        raise ValueError("precision must be >= 1")
    return (q - 1) * q ** (prec - 1)


def unit_enumerate(spec: FqSpec, prec: int, *,
                   budget: int = ENUM_BUDGET_DEFAULT) -> Iterator[TruncSeries]:
    """All units of F_q[t]/(t^prec), lexicographic in the coefficient ranks.

    The budget is checked at call time, before any unit is produced.
    """
    total = unit_count(spec.q, prec)
    if total > budget:
        raise BudgetExceeded(f"{total} units exceed budget {budget}")
    q = spec.q
    # the ranks of the last r places as one list of at most 4096 strings,
    # so a unit is one concatenation of its head and its tail
    tails, r = [b""], 0
    while r < prec - 1 and len(tails) * q <= 4096:
        tails = [tail + bytes((d,)) for tail in tails for d in range(q)]
        r += 1
    heads = map(bytes, itertools.product(range(1, q), *[range(q)] * (prec - 1 - r)))
    return (_series(spec, head + tail) for head in heads for tail in tails)


# ---------------------------------------------------------------------------
# text literals: c0+c1*t+c2*t^2+..., integer coefficients in prime fields and
# bracketed coefficient vectors [c0,...,c_{e-1}] in extension fields
# ---------------------------------------------------------------------------

def render_series(f: TruncSeries) -> str:
    parts = []
    for i, r in enumerate(f.ranks):
        if r == 0:
            continue
        c = str(FqElem(f.spec, r))
        if i == 0:
            parts.append(c)
        else:
            base = "t" if i == 1 else f"t^{i}"
            parts.append(base if r == 1 else f"{c}*{base}")
    return "+".join(parts) if parts else "0"


def _parse_coeff(spec, text):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"unterminated coefficient vector {text!r}")
        try:
            coeffs = [int(c) for c in text[1:-1].split(",")]
        except ValueError as exc:
            raise ParseError(f"bad coefficient vector {text!r}") from exc
        if len(coeffs) != spec.e:
            raise ParseError(
                f"coefficient vector {text!r} needs exactly {spec.e} entries"
            )
        return spec.encode(coeffs)
    try:
        v = int(text)
    except ValueError as exc:
        raise ParseError(f"bad coefficient {text!r}") from exc
    return v % spec.p


def _parse_term(spec, term):
    if "*" in term:
        coeff_text, _, power_text = term.partition("*")
        rank = _parse_coeff(spec, coeff_text)
    else:
        if term.startswith("t"):
            power_text, rank = term, 1
        else:
            return _parse_coeff(spec, term), 0
        coeff_text = None
    power_text = power_text.strip()
    if power_text == "t":
        return rank, 1
    if power_text.startswith("t^"):
        try:
            power = int(power_text[2:])
        except ValueError as exc:
            raise ParseError(f"bad power in term {term!r}") from exc
        if power < 0:
            raise ParseError(f"negative power in term {term!r}")
        return rank, power
    raise ParseError(f"malformed term {term!r}")


def parse_series(spec: FqSpec, text: str, prec: int) -> TruncSeries:
    """Parse a series literal; terms at or beyond t^prec are discarded."""
    if prec < 1:
        raise ValueError("precision must be >= 1")
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty series literal")
    ranks = [0] * prec
    if s != "0":
        add = spec.tables.add
        for term in s.split("+"):
            if not term:
                raise ParseError(f"empty term in literal {text!r}")
            rank, power = _parse_term(spec, term)
            if power < prec:
                ranks[power] = add[ranks[power]][rank]
    return _series(spec, bytes(ranks))
