"""Hyperderivatives with respect to t and the upper-triangular Toeplitz jet.

The n-th hyperderivative acts on series by

    D^(n)(sum x_i t^i) = sum C(i, n) x_i t^(i-n),

with binomial coefficients taken mod p; it is the characteristic-p stand-in
for (1/n!)(d/dt)^n.  Every hyperderivative here, of one order or of many,
is one `hyperderiv_ranks` call on rank bytes: `hyperderiv` wraps its one
result in a series, `jet` takes all k+1 rows in one call, and the
Leibniz, iteration and Taylor checks compare rank bytes without building
a series.  The Taylor check reads D^(i) f at precision 1 for every i in
that one call.

The order-k jet of f packs (f, D^(1)f, ..., D^(k)f) into the
superdiagonals of a (k+1)x(k+1) upper-triangular Toeplitz matrix; since
the map f -> jet(f) is a ring homomorphism, jets multiply by the Cauchy
product of their defining rows.  That product is one `series.cauchy_rows`
call: each row is packed into one int once, each product row sums its row
products unreduced, and all k+1 rows are reduced to ranks in one pass.
The inverse and the Leibniz check sum their products of rows through the
same kernel.
"""

from __future__ import annotations

# binom_mod_p is not called here, but stays bound: the benchmark's self-test
# (perfbench/test_perfbench.py) reads carlitz.jets.binom_mod_p by name.
from .binomials import binom_mod_p, binom_masks, binom_row  # noqa: F401
from .errors import InsufficientPrecision, NonUnit, ShapeMismatch, SpecMismatch
from .series import (
    TruncSeries,
    _series,
    cauchy_rows,
    inv_ranks,
    mul_ranks,
    neg_ranks,
    scale_ranks,
)


def hyperderiv_ranks(spec, ranks, orders, prec: int) -> list[bytes]:
    """The ranks of D^(n) f at output precision `prec`, for each n in `orders`.

    `ranks` are the rank bytes of f.  Coefficient i of D^(n) f is
    C(i+n, n) f_(i+n), so order n reads ranks[n:n + prec]; like the series
    rank kernels, this trusts its inputs, and every order must have
    n + prec <= len(ranks).  Order 0 and precision 1 are plain slices,
    since C(i, 0) = C(n, n) = 1.  Any other order is one step from the byte
    masks of `binom_masks`: the ranks ANDed with the mask where the
    binomial row is 1, OR-ed with, for each other nonzero value c of the
    row, the ranks scaled by c (one `translate`) ANDed with the mask where
    the row is c.  For p = 2 that is one AND.
    """
    if prec == 1:
        return [ranks[n:n + 1] for n in orders]
    p, mul = spec.p, spec.tables.mul
    out = []
    for n in orders:
        src = ranks[n:n + prec]
        if n:
            ones, scaled = binom_masks(p, n, prec)
            acc = int.from_bytes(src, "little") & ones
            for c, mask in scaled:
                acc |= int.from_bytes(src.translate(mul[c]), "little") & mask
            src = acc.to_bytes(prec, "little")
        out.append(src)
    return out


def hyperderiv(n: int, f: TruncSeries, prec: int | None = None) -> TruncSeries:
    """D^(n) f at output precision `prec`, by default prec(f) - n.

    Only the ranks f_n, ..., f_(n+prec-1) are read; `prec` above
    prec(f) - n raises InsufficientPrecision and `prec` below 1 ValueError.
    The ranks come from one `hyperderiv_ranks` call.

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
    (ranks,) = hyperderiv_ranks(f.spec, f.ranks, (n,), prec)
    return _series(f.spec, ranks)


class JetMatrix:
    """Rows (a_0, ..., a_k): entry (i, i+j) of the Toeplitz matrix is a_j.

    `JetMatrix(rows)` checks its rows; `_of` trusts rows that jets code made.
    """

    __slots__ = ("spec", "k", "prec", "rows")

    def __init__(self, rows):
        rows = tuple(rows)
        if not rows:
            raise ValueError("a jet needs at least the diagonal row")
        if not all(isinstance(r, TruncSeries) for r in rows):
            raise ShapeMismatch("jet rows must be series")
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
    def _of(cls, spec, rows):
        """The jet of a tuple of rows over `spec` at one precision: nothing checked.

        The one unchecked JetMatrix constructor.
        """
        obj = object.__new__(cls)
        obj.spec = spec
        obj.k = len(rows) - 1
        obj.prec = rows[0].prec
        obj.rows = rows
        return obj

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
        rows = cauchy_rows(self.spec, [r.ranks for r in self.rows],
                           [r.ranks for r in other.rows], self.prec, range(self.k + 1))
        return JetMatrix._of(self.spec, tuple([_series(self.spec, r) for r in rows]))

    def inverse(self) -> "JetMatrix":
        """Inverse inside the Toeplitz group; equals the jet of the inverse series."""
        if not self.is_invertible:
            raise NonUnit("jet diagonal is not a unit")
        spec, prec = self.spec, self.prec
        a = [r.ranks for r in self.rows[1:]]
        b0 = inv_ranks(spec, self.rows[0].ranks, prec)
        rows = [b0]
        for j in range(1, self.k + 1):
            # b_j = -b_0 * sum_(i=1..j) a_i b_(j-i)
            (acc,) = cauchy_rows(spec, a, rows, prec, (j - 1,))
            rows.append(neg_ranks(spec, mul_ranks(spec, b0, acc, prec)))
        return JetMatrix._of(spec, tuple([_series(spec, r) for r in rows]))

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
        # the fields of key(); rows of equal ranks share one precision
        return (self.k == other.k and self.spec.key == other.spec.key
                and all(a.ranks == b.ranks for a, b in zip(self.rows, other.rows)))

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
    rows = hyperderiv_ranks(f.spec, f.ranks, range(k + 1), prec)
    return JetMatrix._of(f.spec, tuple([_series(f.spec, r) for r in rows]))


def verify_leibniz(n: int, f: TruncSeries, g: TruncSeries) -> bool:
    """Check D^(n)(fg) = sum_i D^(i)f * D^(n-i)g as a truncated identity."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    prec = min(f.prec, g.prec) - n
    if prec < 1:
        raise InsufficientPrecision(f"need precision > {n} to test order {n}")
    if f.spec.key != g.spec.key:
        raise SpecMismatch("mixed field specs")
    spec = f.spec
    fg = mul_ranks(spec, f.ranks, g.ranks, prec + n)
    (lhs,) = hyperderiv_ranks(spec, fg, (n,), prec)
    orders = range(n + 1)
    (rhs,) = cauchy_rows(spec, hyperderiv_ranks(spec, f.ranks, orders, prec),
                         hyperderiv_ranks(spec, g.ranks, orders, prec), prec, (n,))
    return lhs == rhs


def verify_iteration(n: int, m: int, f: TruncSeries) -> bool:
    """Check D^(n) o D^(m) = C(n+m, n) D^(n+m) on f."""
    if n < 0 or m < 0:
        raise ValueError("derivative orders must be nonnegative")
    prec = f.prec - n - m
    if prec < 1:
        raise InsufficientPrecision(f"need precision > {n + m}")
    spec = f.spec
    (inner,) = hyperderiv_ranks(spec, f.ranks, (m,), prec + n)
    (lhs,) = hyperderiv_ranks(spec, inner, (n,), prec)
    (rhs,) = hyperderiv_ranks(spec, f.ranks, (n + m,), prec)
    return lhs == scale_ranks(spec, binom_row(spec.p, n, m + 1)[m], rhs)


def verify_taylor(f: TruncSeries) -> bool:
    """Check f = sum_i (D^(i)f)(0) t^i through the truncation order."""
    return b"".join(hyperderiv_ranks(f.spec, f.ranks, range(f.prec), 1)) == f.ranks
