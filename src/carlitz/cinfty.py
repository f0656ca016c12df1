"""A finite slice of C_infinity as truncated Laurent series in a uniformizer u.

Conventions.  Fix zeta = (-theta)^(1/(q-1)) and put u := zeta^(-1), so

    zeta = u^(-1),   theta = -u^(-(q-1)),   zeta^(q-1) = -theta.

Every quantity in scope then has coefficients in F_q itself: no further
field extension is ever taken, and all comparisons are exact on the
intersection of known coefficient windows.  There is no epsilon anywhere.

An element is known on the window [val, uprec): coefficients below val are
exactly zero (val is the true valuation), coefficients at or beyond uprec
are unknown.  uprec=None means the element is known exactly everywhere
(a Laurent polynomial in u).  Windows propagate through arithmetic so that
a declared window is never wider than what the inputs justify:

    add:  [min(val), min(uprec))
    mul:  [val_x + val_y, min(uprec_x + val_y, uprec_y + val_x))
    x^q:  [q*val, q*uprec)

The q-power Frobenius fixes F_q coefficientwise, so x -> x^q just spreads
exponents by a factor of q.
"""

from __future__ import annotations

from typing import Sequence

from .binomials import binom_row
from .errors import (
    DivisionByZero,
    InsufficientPrecision,
    SpecMismatch,
    WindowEmpty,
)
from .field import FqElem, FqSpec
from .series import inv_ranks, mul_ranks, scalar_rank


def _umin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _uadd(a, b):
    if a is None or b is None:
        return None
    return a + b


class UInftyElem:
    """A truncated Laurent series in u over F_q with a known-window bound."""

    __slots__ = ("spec", "val", "ranks", "uprec")

    def __init__(self, spec: FqSpec, val: int, coeffs, uprec: int | None):
        if uprec is not None and uprec < val:
            raise ValueError("window upper bound below valuation")
        e = UInftyElem._normal(spec, val, [spec.element(c).rank for c in coeffs], uprec)
        self.spec, self.val, self.ranks, self.uprec = spec, e.val, e.ranks, uprec

    # -- constructors -----------------------------------------------------------

    @classmethod
    def _make(cls, spec, val, ranks, uprec):
        obj = object.__new__(cls)
        obj.spec = spec
        obj.val = val
        obj.ranks = ranks
        obj.uprec = uprec
        return obj

    @classmethod
    def _normal(cls, spec, val, ranks, uprec):
        """An element from trusted ranks starting at u^val: the ranks are fitted
        to the window [val, uprec), then zero ends are stripped so the leading
        stored rank is nonzero (and, when exact, the last one too)."""
        if uprec is not None:
            width = max(uprec - val, 0)
            ranks = ranks[:width] + [0] * (width - len(ranks))
        lo, hi = 0, len(ranks)
        while lo < hi and not ranks[lo]:
            lo += 1
        if lo == hi:
            return cls._make(spec, 0, (), uprec)
        if uprec is None:
            while not ranks[hi - 1]:
                hi -= 1
        return cls._make(spec, val + lo, tuple(ranks[lo:hi]), uprec)

    @classmethod
    def zero(cls, spec, uprec=None):
        return cls._make(spec, 0, (), uprec)

    @classmethod
    def monomial(cls, spec, exp, coeff=1, uprec=None):
        rank = spec.element(coeff).rank
        if rank == 0:
            return cls.zero(spec, uprec)
        if uprec is not None and exp >= uprec:
            return cls.zero(spec, uprec)
        e = cls._make(spec, exp, (rank,), None)
        return e.truncate_to(uprec) if uprec is not None else e

    # -- structure ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.ranks

    def vbound(self):
        """A lower bound for the true valuation (None means +infinity)."""
        return self.val if self.ranks else self.uprec

    def coeff_rank(self, exp: int) -> int:
        """The coefficient of u^exp, which must lie in the known region."""
        if self.uprec is not None and exp >= self.uprec:
            raise WindowEmpty(f"coefficient of u^{exp} beyond window {self.uprec}")
        if self.is_zero or exp < self.val:
            return 0
        i = exp - self.val
        return self.ranks[i] if i < len(self.ranks) else 0

    def truncate_to(self, new_uprec: int | None) -> "UInftyElem":
        if new_uprec is None:
            if self.uprec is not None:
                raise ValueError("cannot widen a window")
            return self
        if self.uprec is not None and new_uprec > self.uprec:
            raise ValueError("cannot widen a window")
        if self.is_zero:
            return UInftyElem.zero(self.spec, new_uprec)
        if new_uprec <= self.val:
            raise ValueError("truncation would discard the leading term")
        width = new_uprec - self.val
        ranks = self.ranks[:width] + (0,) * (width - len(self.ranks))
        return UInftyElem._make(self.spec, self.val, ranks, new_uprec)

    # -- arithmetic -----------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, UInftyElem):
            raise SpecMismatch(f"expected a u-series, got {type(other).__name__}")
        if other.spec.key != self.spec.key:
            raise SpecMismatch("mixed field specs")

    def __add__(self, other):
        self._check(other)
        uprec = _umin(self.uprec, other.uprec)
        terms = [e for e in (self, other) if not e.is_zero]
        if not terms:
            return UInftyElem.zero(self.spec, uprec)
        lo = min(e.val for e in terms)
        hi = max(e.val + len(e.ranks) for e in terms) if uprec is None else uprec
        add = self.spec.tables.add
        out = [0] * (hi - lo)
        for e in terms:
            for i, r in enumerate(e.ranks[:max(hi - e.val, 0)], e.val - lo):
                if r:
                    out[i] = add[out[i]][r]
        return UInftyElem._normal(self.spec, lo, out, uprec)

    def __neg__(self):
        neg = self.spec.tables.neg
        return UInftyElem._make(
            self.spec, self.val, tuple(neg[r] for r in self.ranks), self.uprec
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (FqElem, int)):
            return self.scale(other)
        self._check(other)
        uprec = _umin(
            _uadd(self.uprec, other.vbound()), _uadd(other.uprec, self.vbound())
        )
        if self.is_zero or other.is_zero:
            return UInftyElem.zero(self.spec, uprec)
        lo = self.val + other.val
        if uprec is None:
            width = len(self.ranks) + len(other.ranks) - 1
        else:
            width = uprec - lo
        out = mul_ranks(self.spec, self.ranks, other.ranks, width)
        return UInftyElem._normal(self.spec, lo, out, uprec)

    __rmul__ = __mul__

    def scale(self, c) -> "UInftyElem":
        """Multiply by a scalar (an FqElem, or an int residue mod p)."""
        rank = scalar_rank(self.spec, c)
        if rank == 0:
            return UInftyElem.zero(self.spec, None)
        row = self.spec.tables.mul[rank]
        return UInftyElem._make(
            self.spec, self.val, tuple(row[r] for r in self.ranks), self.uprec
        )

    def frobenius(self) -> "UInftyElem":
        """The q-power map: exponents stretch by q, coefficients are fixed."""
        q = self.spec.q
        new_uprec = None if self.uprec is None else q * self.uprec
        if self.is_zero:
            return UInftyElem.zero(self.spec, new_uprec)
        out = [0] * ((len(self.ranks) - 1) * q + 1)
        out[::q] = self.ranks
        return UInftyElem._normal(self.spec, q * self.val, out, new_uprec)

    def inverse(self, uprec: int | None = None) -> "UInftyElem":
        if self.is_zero:
            raise DivisionByZero("inversion of a zero element")
        v = self.val
        if self.uprec is None:
            if len(self.ranks) == 1:
                inv = UInftyElem._make(
                    self.spec, -v, (self.spec.inv_rank(self.ranks[0]),), None
                )
                return inv.truncate_to(uprec) if uprec is not None else inv
            if uprec is None:
                raise ValueError(
                    "inverse of an exact non-monomial needs an explicit window"
                )
            out_uprec = uprec
        else:
            out_uprec = _umin(self.uprec - 2 * v, uprec)
        out = inv_ranks(self.spec, self.ranks, out_uprec + v)
        return UInftyElem._normal(self.spec, -v, out, out_uprec)

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, UInftyElem):
            return NotImplemented
        return (
            self.spec.key == other.spec.key
            and self.val == other.val
            and self.ranks == other.ranks
            and self.uprec == other.uprec
        )

    def __hash__(self):
        return hash((self.spec.key, self.val, self.ranks, self.uprec))

    def __repr__(self):
        if self.is_zero:
            body = "0"
        else:
            parts = []
            for i, r in enumerate(self.ranks):
                if r:
                    c = str(FqElem(self.spec, r))
                    exp = self.val + i
                    if exp == 0:
                        parts.append(c)
                    else:
                        base = "u" if exp == 1 else f"u^{exp}"
                        parts.append(base if r == 1 else f"{c}*{base}")
            body = " + ".join(parts) if parts else "0"
        tail = "" if self.uprec is None else f" + O(u^{self.uprec})"
        return f"<{body}{tail}>"


def equal_on_overlap(x: UInftyElem, y: UInftyElem) -> bool:
    """Exact comparison on the intersection of known windows.

    Raises WindowEmpty when the windows stop before either leading term,
    i.e. when there is no coefficient left that could tell the two apart.
    """
    if x.spec.key != y.spec.key:
        raise SpecMismatch("mixed field specs")
    upper = _umin(x.uprec, y.uprec)
    if x.is_zero and y.is_zero:
        return True
    if x.is_zero or y.is_zero:
        nz = y if x.is_zero else x
        if upper is not None and nz.val >= upper:
            raise WindowEmpty("leading term falls outside the comparison window")
        return False
    lo = min(x.val, y.val)
    if upper is None:
        upper = max(x.val + len(x.ranks), y.val + len(y.ranks))
    elif lo >= upper:
        raise WindowEmpty("no known coefficients left to compare")
    width = upper - lo

    def window(e):
        # the ranks of e at u^lo .. u^(upper-1), zero-padded
        head = (0,) * min(e.val - lo, width) + e.ranks[:max(upper - e.val, 0)]
        return head + (0,) * (width - len(head))

    return window(x) == window(y)


def theta(spec: FqSpec) -> UInftyElem:
    """theta = -u^(-(q-1)), exact."""
    return UInftyElem.monomial(spec, -(spec.q - 1), spec.p - 1)


def zeta(spec: FqSpec) -> UInftyElem:
    """zeta = (-theta)^(1/(q-1)) = u^(-1), exact."""
    return UInftyElem.monomial(spec, -1, 1)


# ---------------------------------------------------------------------------
# power series in t with u-side coefficients
# ---------------------------------------------------------------------------

class UPowerSeries:
    """A power series in t, exact mod t^tprec, with UInftyElem coefficients."""

    __slots__ = ("spec", "tprec", "entries")

    def __init__(self, spec: FqSpec, entries: Sequence[UInftyElem]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("t-precision must be >= 1")
        for e in entries:
            if e.spec.key != spec.key:
                raise SpecMismatch("entry from a different field")
        self.spec = spec
        self.tprec = len(entries)
        self.entries = entries

    @classmethod
    def zero(cls, spec, tprec):
        z = UInftyElem.zero(spec)
        return cls(spec, (z,) * tprec)

    def entry(self, n: int) -> UInftyElem:
        if n < 0:
            return UInftyElem.zero(self.spec)
        return self.entries[n]

    def truncate_t(self, tprec: int) -> "UPowerSeries":
        if tprec > self.tprec:
            raise InsufficientPrecision("cannot raise t-precision")
        return UPowerSeries(self.spec, self.entries[:tprec])

    def __add__(self, other):
        n = min(self.tprec, other.tprec)
        return UPowerSeries(
            self.spec, [self.entries[i] + other.entries[i] for i in range(n)]
        )

    def __sub__(self, other):
        n = min(self.tprec, other.tprec)
        return UPowerSeries(
            self.spec, [self.entries[i] - other.entries[i] for i in range(n)]
        )

    def scale_u(self, c: UInftyElem) -> "UPowerSeries":
        return UPowerSeries(self.spec, [c * e for e in self.entries])

    def tshift(self) -> "UPowerSeries":
        """Multiplication by t (mod t^tprec)."""
        z = UInftyElem.zero(self.spec)
        return UPowerSeries(self.spec, (z,) + self.entries[:-1])

    def frobenius(self) -> "UPowerSeries":
        """tau, extended t-linearly: the q-power map on each coefficient."""
        return UPowerSeries(self.spec, [e.frobenius() for e in self.entries])

    def hyperderiv(self, n: int) -> "UPowerSeries":
        if n < 0:
            raise ValueError("derivative order must be nonnegative")
        if n == 0:
            return self
        if n >= self.tprec:
            raise InsufficientPrecision(f"t-precision {self.tprec} too low for D^({n})")
        row = binom_row(self.spec.p, n, self.tprec - n)
        return UPowerSeries(
            self.spec, [e.scale(c) for c, e in zip(row, self.entries[n:])]
        )

    def __repr__(self):
        return f"UPowerSeries(tprec={self.tprec}, q={self.spec.q})"


def useries_equal(a: UPowerSeries, b: UPowerSeries) -> bool:
    """Entrywise window comparison through the common t-precision."""
    n = min(a.tprec, b.tprec)
    return all(equal_on_overlap(a.entries[i], b.entries[i]) for i in range(n))


def _t_conv(a, b, spec, tprec):
    out = []
    for n in range(tprec):
        acc = None
        for i in range(n + 1):
            x, y = a[i], b[n - i]
            if x.is_zero and x.uprec is None:
                continue
            if y.is_zero and y.uprec is None:
                continue
            term = x * y
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else UInftyElem.zero(spec))
    return out


def compute_omega(spec: FqSpec, tprec: int, uprec: int) -> UPowerSeries:
    """The Anderson-Thakur function as a t-expansion over the u-model.

    omega(t) = zeta * prod_{i >= 0} (1 - t/theta^(q^i))^(-1).  Factor i is
    included while (q-1) q^i < uprec; each factor is the geometric series
    sum_m t^m theta^(-m q^i) whose t^m coefficient is the exact monomial
    (-1)^m u^(m (q-1) q^i).  The partial product is therefore exact, and the
    windows are then capped at the first exponent an omitted factor could
    touch: entry n is declared only below (q-1)(q^I + n - 1) - 1, where I is
    the first omitted index.  Entry n has leading valuation (q-1)n - 1.
    """
    if tprec < 1 or uprec < 1:
        raise ValueError("precisions must be >= 1")
    q = spec.q
    count = 0
    while (q - 1) * q ** count < uprec:
        count += 1
    entries = [zeta(spec)] + [UInftyElem.zero(spec)] * (tprec - 1)
    minus_one = spec.p - 1
    for i in range(count):
        step = (q - 1) * q ** i
        factor = [
            UInftyElem.monomial(spec, step * m, 1 if m % 2 == 0 else minus_one)
            for m in range(tprec)
        ]
        entries = _t_conv(entries, factor, spec, tprec)
    capped = []
    for n, e in enumerate(entries):
        vn = (q - 1) * n - 1
        cap = vn + uprec
        if n >= 1:
            # omitted factors first touch t^n at this exponent; t^0 is exact
            cap = min(cap, (q - 1) * (q ** count + n - 1) - 1)
        capped.append(e.truncate_to(cap))
    return UPowerSeries(spec, capped)


def _t_minus_theta_times(s: UPowerSeries) -> UPowerSeries:
    th = theta(s.spec)
    return UPowerSeries(
        s.spec,
        [s.entry(n - 1) - th * s.entries[n] for n in range(s.tprec)],
    )


def verify_carlitz_equation(omega: UPowerSeries) -> bool:
    """Check tau(omega) = (t - theta) * omega coefficientwise in t.

    This is the functional equation pinning omega as the rigid trivializer
    of the Carlitz motive; the comparison is exact on window overlaps.
    """
    return useries_equal(omega.frobenius(), _t_minus_theta_times(omega))


def verify_prolongation_trivialization(omega: UPowerSeries, k: int) -> bool:
    """Check tau(D^(j) omega) = D^(j)((t - theta) omega) for all j <= k.

    Hyperderivatives in t commute with the q-power twist, so these k+1
    identities are exactly the entries of the jet form of the Carlitz
    equation; k = 0 degenerates to verify_carlitz_equation.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= omega.tprec:
        raise InsufficientPrecision("t-precision too low for the requested jet order")
    rhs_base = _t_minus_theta_times(omega)
    for j in range(k + 1):
        lhs = omega.hyperderiv(j).frobenius()
        rhs = rhs_base.hyperderiv(j)
        if not useries_equal(lhs, rhs):
            return False
    return True


class ProlongationAction:
    """The t-action of the order-k prolongation of the Carlitz module.

    On a column h of k+1 coordinates it acts as Theta_k h + tau(h), where
    Theta_k = theta*Id - S and S is the shift (S h)_i = h_{i+1}.  The
    nilpotent part Theta_k - theta*Id has order k+1.
    """

    def __init__(self, spec: FqSpec, k: int):
        if k < 0:
            raise ValueError("prolongation order must be nonnegative")
        self.spec = spec
        self.k = k

    def apply(self, column: Sequence[UPowerSeries]) -> list[UPowerSeries]:
        if len(column) != self.k + 1:
            raise ValueError(f"column must have {self.k + 1} components")
        th = theta(self.spec)
        out = []
        for i, h in enumerate(column):
            comp = h.scale_u(th) + h.frobenius()
            if i < self.k:
                comp = comp - column[i + 1].truncate_t(comp.tprec)
            out.append(comp)
        return out

    def nilpotent_matrix(self) -> list[list[UInftyElem]]:
        """Theta_k - theta*Id: minus one on the superdiagonal."""
        z = UInftyElem.zero(self.spec)
        m1 = UInftyElem.monomial(self.spec, 0, self.spec.p - 1)
        n = self.k + 1
        return [[m1 if c == r + 1 else z for c in range(n)] for r in range(n)]


def verify_hhat_membership(k: int, column: Sequence[UPowerSeries]) -> bool:
    """Check that a column lies in the Tate-module model.

    Membership of h = sum_n e_n t^n amounts to Theta_k h + tau(h) = t h as
    truncated identities: the t-action of the prolongation applied degreewise
    equals the shift by one t-power.
    """
    if not column:
        raise ValueError("empty column")
    spec = column[0].spec
    lhs = ProlongationAction(spec, k).apply(column)
    ok = True
    for i in range(k + 1):
        ok = ok and useries_equal(lhs[i], column[i].tshift())
    return ok


def jet_columns(omega: UPowerSeries, k: int) -> list[list[UPowerSeries]]:
    """The columns of the jet matrix of omega, at uniform t-precision.

    Column j carries (D^(j) omega, D^(j-1) omega, ..., omega, 0, ..., 0);
    these are the basis columns of the Tate-module model.
    """
    if k < 0:
        raise ValueError("jet order must be nonnegative")
    t2 = omega.tprec - k
    if t2 < 1:
        raise InsufficientPrecision("t-precision too low for the requested jet order")
    ds = [omega.hyperderiv(j).truncate_t(t2) for j in range(k + 1)]
    zero = UPowerSeries.zero(omega.spec, t2)
    return [
        [ds[j - i] if i <= j else zero for i in range(k + 1)]
        for j in range(k + 1)
    ]


def torsion_generators(omega: UPowerSeries, n: int, k: int) -> list[list[UInftyElem]]:
    """The (n+1) x (k+1) table of values C(i+j, j) (D^(i+j) omega)(0).

    These generate the torsion extensions of the order-k prolongation level
    by level; entry (i, j) vanishes exactly when C(i+j, j) = 0 mod p.
    """
    if n < 0 or k < 0:
        raise ValueError("torsion level and jet order must be nonnegative")
    if omega.tprec <= n + k:
        raise InsufficientPrecision(
            f"t-precision {omega.tprec} too low for n={n}, k={k}"
        )
    rows = [binom_row(omega.spec.p, j, n + 1) for j in range(k + 1)]
    return [
        [omega.entries[i + j].scale(rows[j][i]) for j in range(k + 1)]
        for i in range(n + 1)
    ]
