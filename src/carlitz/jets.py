"""Hyperderivatives with respect to t and the upper-triangular Toeplitz jet.

The n-th hyperderivative acts on series by

    D^(n)(sum x_i t^i) = sum C(i, n) x_i t^(i-n),

with binomial coefficients taken mod p; it is the characteristic-p stand-in
for (1/n!)(d/dt)^n.  The order-k jet of f packs (f, D^(1)f, ..., D^(k)f)
into the superdiagonals of a (k+1)x(k+1) upper-triangular Toeplitz matrix;
since the map f -> jet(f) is a ring homomorphism, jets multiply by the
Cauchy product of their defining rows.
"""

from __future__ import annotations

# binom_mod_p is not called here, but stays bound: the benchmark's self-test
# (perfbench/test_perfbench.py) reads carlitz.jets.binom_mod_p by name.
from .binomials import binom_mod_p, binom_masks, binom_row  # noqa: F401
from .errors import InsufficientPrecision, NonUnit, ShapeMismatch, SpecMismatch
from .series import TruncSeries


def hyperderiv(n: int, f: TruncSeries, prec: int | None = None) -> TruncSeries:
    """D^(n) f at output precision `prec`, by default prec(f) - n.

    Coefficient i of the result is C(i+n, n) f_(i+n), so only the ranks
    f_n, ..., f_(n+prec-1) are read; `prec` above prec(f) - n raises
    InsufficientPrecision and `prec` below 1 ValueError.  The result is
    built in one step from the byte masks of `binom_masks`: the ranks ANDed
    with the mask where the binomial row is 1, OR-ed with, for each other
    nonzero value c of the row, the ranks scaled by c (one `translate`)
    ANDed with the mask where the row is c.  For p = 2 that is one AND.

    With the default precision, differentiating past the available
    precision yields the zero series at precision 1 with the `exhausted`
    flag set, not an error.
    """
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if prec is None:
        if n >= f.prec:
            return TruncSeries.from_ranks(f.spec, b"\0", exhausted=True)
        prec = f.prec - n
    elif prec < 1:
        raise ValueError(f"output precision must be >= 1, got {prec}")
    elif f.prec < prec + n:
        raise InsufficientPrecision(
            f"D^({n}) at output precision {prec} needs input precision "
            f">= {prec + n}, got {f.prec}"
        )
    if n == 0:
        return f.truncate(prec)
    spec = f.spec
    src = f.ranks[n:n + prec]
    ones, scaled = binom_masks(spec.p, n, prec)
    out = int.from_bytes(src, "little") & ones
    if scaled:
        mul = spec.tables.mul
        for c, mask in scaled:
            out |= int.from_bytes(src.translate(mul[c]), "little") & mask
    return TruncSeries.from_ranks(spec, out.to_bytes(prec, "little"))


class JetMatrix:
    """Rows (a_0, ..., a_k): entry (i, i+j) of the Toeplitz matrix is a_j."""

    __slots__ = ("spec", "k", "prec", "rows")

    def __init__(self, rows):
        rows = tuple(rows)
        if not rows:
            raise ValueError("a jet needs at least the diagonal row")
        spec = rows[0].spec
        prec = rows[0].prec
        for r in rows:
            if r.spec.key != spec.key:
                raise SpecMismatch("jet rows from different fields")
            if r.prec != prec:
                raise ShapeMismatch("jet rows must share one precision")
        self.spec = spec
        self.k = len(rows) - 1
        self.prec = prec
        self.rows = rows

    @classmethod
    def identity(cls, spec, k, prec):
        one = TruncSeries.one(spec, prec)
        zero = TruncSeries.zero(spec, prec)
        return cls((one,) + (zero,) * k)

    @property
    def is_invertible(self):
        return self.rows[0].is_unit

    def _compatible(self, other):
        if not isinstance(other, JetMatrix):
            raise ShapeMismatch("can only multiply by another jet")
        if (self.spec.key, self.k, self.prec) != (other.spec.key, other.k, other.prec):
            raise ShapeMismatch("jets differ in spec, order, or precision")

    def __mul__(self, other):
        self._compatible(other)
        a, b = self.rows, other.rows
        rows = []
        for j in range(self.k + 1):
            acc = a[0] * b[j]
            for i in range(1, j + 1):
                acc = acc + a[i] * b[j - i]
            rows.append(acc)
        return JetMatrix(rows)

    def inverse(self) -> "JetMatrix":
        """Inverse inside the Toeplitz group; equals the jet of the inverse series."""
        if not self.is_invertible:
            raise NonUnit("jet diagonal is not a unit")
        a = self.rows
        b0 = a[0].inverse()
        rows = [b0]
        for j in range(1, self.k + 1):
            acc = a[1] * rows[j - 1]
            for i in range(2, j + 1):
                acc = acc + a[i] * rows[j - i]
            rows.append(-(b0 * acc))
        return JetMatrix(rows)

    def entries(self):
        """The full (k+1) x (k+1) matrix, row-major."""
        zero = TruncSeries.zero(self.spec, self.prec)
        return [
            [self.rows[c - r] if c >= r else zero for c in range(self.k + 1)]
            for r in range(self.k + 1)
        ]

    def key(self):
        return (self.spec.key, self.k, self.prec, tuple(r.ranks for r in self.rows))

    def __eq__(self, other):
        if not isinstance(other, JetMatrix):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        from .series import render_series

        body = ", ".join(render_series(r) for r in self.rows)
        return f"JetMatrix(k={self.k}, prec={self.prec}, rows=({body}))"


def jet(k: int, f: TruncSeries, prec: int | None = None) -> JetMatrix:
    """The order-k jet of f at uniform output precision.

    All k+1 rows are emitted at one precision T, which costs k orders of
    input: coefficients of D^(j)f below t^T read f below t^(T+j).  The
    default T is prec(f) - k.
    """
    if k < 0:
        raise ValueError("jet order must be nonnegative")
    if prec is None:
        prec = f.prec - k
    if prec < 1 or f.prec < prec + k:
        raise InsufficientPrecision(
            f"jet order {k} at output precision {prec} needs input precision "
            f">= {prec + k}, got {f.prec}"
        )
    rows = [hyperderiv(j, f, prec) for j in range(1, k + 1)]
    return JetMatrix([f.truncate(prec)] + rows)


def verify_leibniz(n: int, f: TruncSeries, g: TruncSeries) -> bool:
    """Check D^(n)(fg) = sum_i D^(i)f * D^(n-i)g as a truncated identity."""
    prec = min(f.prec, g.prec) - n
    if prec < 1:
        raise InsufficientPrecision(f"need precision > {n} to test order {n}")
    lhs = hyperderiv(n, f * g, prec)
    acc = TruncSeries.zero(f.spec, prec)
    for i in range(n + 1):
        acc = acc + hyperderiv(i, f, prec) * hyperderiv(n - i, g, prec)
    return lhs == acc


def verify_iteration(n: int, m: int, f: TruncSeries) -> bool:
    """Check D^(n) o D^(m) = C(n+m, n) D^(n+m) on f."""
    prec = f.prec - n - m
    if prec < 1:
        raise InsufficientPrecision(f"need precision > {n + m}")
    lhs = hyperderiv(n, hyperderiv(m, f))
    rhs = hyperderiv(n + m, f).scale(binom_row(f.spec.p, n, m + 1)[m])
    return lhs == rhs


def verify_taylor(f: TruncSeries) -> bool:
    """Check f = sum_i (D^(i)f)(0) t^i through the truncation order."""
    ranks = [hyperderiv(i, f, 1).ranks[0] for i in range(f.prec)]
    return TruncSeries.from_ranks(f.spec, ranks) == f
