"""Truncated power series F_q[t]/(t^T) and its unit group.

Coefficients are exact; the only approximation is the truncation order T,
and the precision of any binary operation is the min of the operand
precisions.  Series hash and compare by (spec, precision, coefficients),
which is the canonical deduplication key used by the image counting.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

import numpy as np

from .errors import BudgetExceeded, NonUnit, ParseError, SpecMismatch
from .field import FqElem, FqSpec

ENUM_BUDGET_DEFAULT = 10 ** 8

_NP_MUL_MIN_PREC = 16


class TruncSeries:
    """A power series in t over F_q, exact modulo t^prec.

    `exhausted` marks the flagged-zero result of differentiating past the
    available precision; it is metadata and takes no part in equality.
    """

    __slots__ = ("spec", "prec", "_ranks", "exhausted")

    def __init__(self, spec: FqSpec, coeffs: Iterable, prec: int | None = None,
                 *, exhausted: bool = False):
        ranks = [spec.element(c).rank for c in coeffs]
        if prec is None:
            prec = len(ranks)
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.spec = spec
        self.prec = prec
        self._ranks = tuple(ranks[:prec]) + (0,) * (prec - len(ranks))
        self.exhausted = exhausted

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_ranks(cls, spec, ranks, *, exhausted=False):
        obj = object.__new__(cls)
        obj.spec = spec
        obj.prec = len(ranks)
        obj._ranks = tuple(ranks)
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
        return cls.from_ranks(spec, (rank,) + (0,) * (prec - 1))

    @classmethod
    def monomial(cls, spec, i, prec, coeff=1):
        if i >= prec:
            raise ValueError("monomial degree beyond precision")
        ranks = [0] * prec
        ranks[i] = spec.element(coeff).rank
        return cls.from_ranks(spec, ranks)

    # -- accessors --------------------------------------------------------------

    @property
    def coeffs(self):
        return tuple(FqElem(self.spec, r) for r in self._ranks)

    @property
    def ranks(self):
        return self._ranks

    def coeff(self, i) -> FqElem:
        return FqElem(self.spec, self._ranks[i])

    def eval0(self) -> FqElem:
        """Value at t = 0."""
        return FqElem(self.spec, self._ranks[0])

    @property
    def is_unit(self) -> bool:
        return self._ranks[0] != 0

    def key(self):
        return (self.spec.key, self.prec, self._ranks)

    def truncate(self, prec: int) -> "TruncSeries":
        if prec > self.prec:
            raise ValueError("cannot raise precision by truncation")
        if prec == self.prec:
            return self
        return TruncSeries.from_ranks(self.spec, self._ranks[:prec])

    # -- arithmetic ---------------------------------------------------------------

    def _common(self, other):
        if not isinstance(other, TruncSeries):
            raise SpecMismatch(f"expected a series, got {type(other).__name__}")
        if other.spec.key != self.spec.key:
            raise SpecMismatch("mixed field specs")
        return min(self.prec, other.prec)

    def __add__(self, other):
        prec = self._common(other)
        add = self.spec.tables.add
        return TruncSeries.from_ranks(
            self.spec, [add[a][b] for a, b in zip(self._ranks[:prec], other._ranks[:prec])]
        )

    def __sub__(self, other):
        prec = self._common(other)
        add, neg = self.spec.tables.add, self.spec.tables.neg
        return TruncSeries.from_ranks(
            self.spec,
            [add[a][neg[b]] for a, b in zip(self._ranks[:prec], other._ranks[:prec])],
        )

    def __neg__(self):
        neg = self.spec.tables.neg
        return TruncSeries.from_ranks(self.spec, [neg[a] for a in self._ranks])

    def scale(self, c) -> "TruncSeries":
        """Multiply by a scalar (an FqElem, or an int residue mod p)."""
        row = self.spec.tables.mul[scalar_rank(self.spec, c)]
        return TruncSeries.from_ranks(self.spec, [row[a] for a in self._ranks])

    def __mul__(self, other):
        if isinstance(other, (FqElem, int)):
            return self.scale(other)
        prec = self._common(other)
        return TruncSeries.from_ranks(
            self.spec, mul_ranks(self.spec, self._ranks, other._ranks, prec)
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
        if self._ranks[0] == 0:
            raise NonUnit("series has zero constant term")
        return TruncSeries.from_ranks(
            self.spec, inv_ranks(self.spec, self._ranks, self.prec)
        )

    # -- comparison -----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"TruncSeries({render_series(self)!r}, prec={self.prec}, q={self.spec.q})"


# Rank-sequence kernels shared by TruncSeries and UInftyElem.  They trust their
# input ranks; the callers own the precision and window bookkeeping.

def scalar_rank(spec, c) -> int:
    """The rank of a scalar: an FqElem of `spec`, or an int residue mod p."""
    if isinstance(c, FqElem):
        if c.spec.key != spec.key:
            raise SpecMismatch("scalar from a different field")
        return c.rank
    return c % spec.p


def mul_ranks(spec, xr, yr, width):
    """The first `width` ranks of the product of two rank sequences.

    Past the end of the full product the ranks are zero.  The numpy
    convolution runs once the shorter operand has _NP_MUL_MIN_PREC ranks;
    below that, a schoolbook loop over the shorter operand's rows.
    """
    if len(xr) > len(yr):
        xr, yr = yr, xr
    if len(xr) >= _NP_MUL_MIN_PREC:
        return _mul_ranks_np(spec, xr, yr, width)
    add, mul = spec.tables.add, spec.tables.mul
    out = [0] * width
    for i, a in enumerate(xr[:width]):
        if a:
            row = mul[a]
            k = i
            for b in yr[:width - i]:
                if b:
                    out[k] = add[out[k]][row[b]]
                k += 1
    return out


def inv_ranks(spec, xr, width):
    """The first `width` ranks of 1/x; the leading rank of x is nonzero."""
    if width < 1:
        return []
    t = spec.tables
    add, mul = t.add, t.mul
    c = spec.inv_rank(xr[0])
    times_minus_c = mul[t.neg[c]]
    out = [c]
    for n in range(1, width):
        acc = 0
        k = n
        for a in xr[1:n + 1]:
            k -= 1
            if a:
                acc = add[acc][mul[a][out[k]]]
        out.append(times_minus_c[acc])
    return out


def _mul_ranks_np(spec, xr, yr, width):
    """Exact truncated product via componentwise integer convolution."""
    p, e = spec.p, spec.e
    a, b = xr[:width], yr[:width]
    n = min(width, len(a) + len(b) - 1)
    pad = [0] * (width - n)
    if e == 1:
        c = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        return (c[:n] % p).tolist() + pad
    t = spec.tables
    X = t.digits[np.asarray(a)]
    Y = t.digits[np.asarray(b)]
    # component d of the product polynomial in the basis variable, d < 2e-1
    comp = [np.zeros(n, dtype=np.int64) for _ in range(2 * e - 1)]
    for i in range(e):
        xi = X[:, i]
        if not xi.any():
            continue
        for j in range(e):
            yj = Y[:, j]
            if yj.any():
                comp[i + j] += np.convolve(xi, yj)[:n]
    res = [comp[m] for m in range(e)]
    for d in range(e, 2 * e - 1):
        row = t.xd[d - e]
        for m in range(e):
            if row[m]:
                res[m] = res[m] + row[m] * comp[d]
    ranks = np.zeros(n, dtype=np.int64)
    for m in range(e):
        ranks += (res[m] % p) * t.weights[m]
    return ranks.tolist() + pad


def unit_count(q: int, prec: int) -> int:
    return (q - 1) * q ** (prec - 1)


def unit_enumerate(spec: FqSpec, prec: int, *,
                   budget: int = ENUM_BUDGET_DEFAULT) -> Iterator[TruncSeries]:
    """All units of F_q[t]/(t^prec), lexicographic in the coefficient ranks.

    The budget is checked at call time, before any unit is produced.
    """
    if prec < 1:
        raise ValueError("precision must be >= 1")
    total = unit_count(spec.q, prec)
    if total > budget:
        raise BudgetExceeded(f"{total} units exceed budget {budget}")
    q = spec.q
    ranks = itertools.product(range(1, q), *[range(q)] * (prec - 1))
    return (TruncSeries.from_ranks(spec, tup) for tup in ranks)


# ---------------------------------------------------------------------------
# text literals: c0+c1*t+c2*t^2+..., integer coefficients in prime fields and
# bracketed coefficient vectors [c0,...,c_{e-1}] in extension fields
# ---------------------------------------------------------------------------

def render_series(f: TruncSeries) -> str:
    parts = []
    for i, r in enumerate(f._ranks):
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
    return TruncSeries.from_ranks(spec, ranks)
