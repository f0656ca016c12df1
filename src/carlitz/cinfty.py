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

The coefficient ranks from u^val on are stored as one `bytes` object, a
rank per byte, as in carlitz.series.
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
from .series import (
    _add_bytes, add_lanes, add_ranks, inv_ranks, lane_format, mul_ranks, neg_ranks,
    scale_ranks, scalar_rank,
)


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
        ranks = bytes(ranks)
        if uprec is not None:
            width = max(uprec - val, 0)
            ranks = ranks[:width].ljust(width, b"\0")
        body = ranks.lstrip(b"\0")
        if not body:
            return cls._make(spec, 0, b"", uprec)
        val += len(ranks) - len(body)
        if uprec is None:
            body = body.rstrip(b"\0")
        return cls._make(spec, val, body, uprec)

    @classmethod
    def zero(cls, spec, uprec=None):
        return cls._make(spec, 0, b"", uprec)

    @classmethod
    def monomial(cls, spec, exp, coeff=1, uprec=None):
        rank = spec.element(coeff).rank
        if rank == 0:
            return cls.zero(spec, uprec)
        if uprec is not None and exp >= uprec:
            return cls.zero(spec, uprec)
        e = cls._make(spec, exp, bytes((rank,)), None)
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
        ranks = self.ranks[:width].ljust(width, b"\0")
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
        if self.is_zero or other.is_zero:
            x = other if self.is_zero else self
            if x.is_zero:
                return UInftyElem.zero(self.spec, uprec)
            return UInftyElem._normal(self.spec, x.val, x.ranks, uprec)
        x, y = (self, other) if self.val <= other.val else (other, self)
        if uprec is None:
            hi = max(x.val + len(x.ranks), y.val + len(y.ranks))
        else:
            hi = uprec
        out = add_ranks(self.spec, x.ranks, y.ranks, y.val - x.val, hi - x.val)
        return UInftyElem._normal(self.spec, x.val, out, uprec)

    def __neg__(self):
        return UInftyElem._make(
            self.spec, self.val, neg_ranks(self.spec, self.ranks), self.uprec
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
        # an exact monomial c*u^v times a normal element is one translate
        # through the row of c: with no zero divisors the ends stay nonzero
        for x, y in ((self, other), (other, self)):
            if x.uprec is None and len(x.ranks) == 1:
                return UInftyElem._make(
                    self.spec, lo, y.ranks.translate(self.spec.tables.mul[x.ranks[0]]),
                    uprec,
                )
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
        return UInftyElem._make(
            self.spec, self.val, scale_ranks(self.spec, rank, self.ranks), self.uprec
        )

    def frobenius(self) -> "UInftyElem":
        """The q-power map: exponents stretch by q, coefficients are fixed."""
        q = self.spec.q
        new_uprec = None if self.uprec is None else q * self.uprec
        if self.is_zero:
            return UInftyElem.zero(self.spec, new_uprec)
        out = bytearray((len(self.ranks) - 1) * q + 1)
        out[::q] = self.ranks
        return UInftyElem._normal(self.spec, q * self.val, out, new_uprec)

    def inverse(self, uprec: int | None = None) -> "UInftyElem":
        if self.is_zero:
            raise DivisionByZero("inversion of a zero element")
        v = self.val
        if self.uprec is None:
            if len(self.ranks) == 1:
                inv = UInftyElem._make(
                    self.spec, -v, bytes((self.spec.inv_rank(self.ranks[0]),)), None
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

    def truncate_t(self, tprec: int) -> "UPowerSeries":
        if tprec < 1:
            raise ValueError("t-precision must be >= 1")
        if tprec > self.tprec:
            raise InsufficientPrecision("cannot raise t-precision")
        return UPowerSeries(self.spec, self.entries[:tprec])

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


def compute_omega(spec: FqSpec, tprec: int, uprec: int) -> UPowerSeries:
    """The Anderson-Thakur function as a t-expansion over the u-model.

    omega(t) = zeta * prod_{i >= 0} (1 - t/theta^(q^i))^(-1).  Factor i is
    included while (q-1) q^i < uprec; multiplying by factor i is the
    recurrence new_n = old_n + c new_(n-1) with the exact monomial
    c = theta^(-q^i) = -u^((q-1) q^i).  Entry n has leading valuation
    v_n = (q-1)n - 1.  Entry 0 is zeta, declared below uprec - 1.  Entry
    n >= 1 is declared below cap_n = min(v_n + uprec, (q-1)(q^I + n - 1) - 1),
    where I is the first omitted index: there an omitted factor first
    touches t^n.  That is the window [v_n, v_n + W) with
    W = min(uprec, (q-1)(q^I - 1)) for every n >= 1.

    The loop works with the alternating entries (-1)^n omega_n, for which
    the recurrence is new_n = old_n + u^((q-1) q^i) new_(n-1), with no
    negation.  Each entry is one int in the LaneFormat of carlitz.series,
    rank j of its frame (the coefficient of u^(v_n + j)) in column j, and
    keeps only the W columns of its window.  Factor i adds to entry n the
    columns of entry n-1 below W - s, moved up s = (q-1)(q^i - 1) columns
    into entry n's frame: one add_lanes a factor and entry.  The cap is
    sound: a factor only raises exponents, by (q-1)q^i, and cap_(n-1) =
    cap_n - (q-1) >= cap_n - (q-1)q^i, so a column at or past W in entry
    n-1's frame, or at or past W - s before the move, only ever lands at or
    past cap_n.  No rank past a cap reaches a declared rank, and each entry
    equals the exact product's entry truncated to its window.  At the end
    each entry becomes rank bytes once, and the odd ones are negated.
    """
    if tprec < 1 or uprec < 1:
        raise ValueError("precisions must be >= 1")
    q, p = spec.q, spec.p
    count = 0
    while (q - 1) * q ** count < uprec:
        count += 1
    width = min(uprec, (q - 1) * (q ** count - 1))
    lanes = lane_format(spec)
    ones, flag, col = lanes.ones(width), lanes.flag, lanes.col
    bias = lanes.bias * ones
    packed = [1] + [0] * (tprec - 1)  # zeta's one rank, 1, and zeros
    for i in range(count):
        s = (q - 1) * (q ** i - 1)
        keep, shift = (1 << col * (width - s)) - 1, col * s
        for n in range(1, tprec):
            packed[n] = add_lanes(p, packed[n], (packed[n - 1] & keep) << shift,
                                  ones, bias, flag)
    entries = [zeta(spec).truncate_to(uprec - 1)]
    for n in range(1, tprec):
        vn = (q - 1) * n - 1
        ranks = lanes.ranks(packed[n], width, "little")
        if n % 2:
            ranks = ranks.translate(spec.tables.neg)
        entries.append(UInftyElem._normal(spec, vn, ranks, vn + width))
    return UPowerSeries(spec, entries)


def _twist_sum(spec, x, y, z, lo, hi, tau=True):
    """The ranks at u^lo .. u^(hi-1) of -(theta x + tau(x) - y - z), with
    no tau(x) when not `tau`; None is zero, and no term starts below u^lo.
    theta x is -x moved down by q-1, and only the ranks of x whose tau image
    lands below u^hi are spread, by one strided copy.  The result ends
    early, or is b"", where no term reaches."""
    q, width = spec.q, hi - lo
    terms = [(x.val - q + 1, x.ranks)] + [(e.val, e.ranks) for e in (y, z) if e is not None]
    if tau:
        cut = x.ranks[:max(0, -((q * x.val - hi) // q))]
        spread = bytearray(len(cut) * q)
        spread[::q] = cut.translate(spec.tables.neg)
        terms.append((q * x.val, bytes(spread)))
    acc = b""
    for val, ranks in terms:
        ranks = ranks[:max(width - val + lo, 0)]
        if ranks:
            acc = _add_bytes(spec, acc, ranks, val - lo, width) if acc else bytes(val - lo) + ranks
    return acc


def _twist_holds(spec, x, y, z, membership):
    """One entry of theta x + tau(x) - y = z on rank bytes, decided as the
    window comparison of the two sides' normal forms decides it.

    With `membership` the sides are L = theta x + tau(x) - y and R = z (the
    hhat check), else L = tau(x) and R = y - theta x, z None (the Carlitz
    check); None is an exact zero.  A side is known below the least window
    of its terms: x's less q-1 for theta x, q times x's for tau(x).  The
    sides differ below the least window of all (upper) exactly when L - R
    has a rank there.  If not, the side whose window ends at upper leads
    below it unless it is zero: the entry holds when the one-term side (z,
    or tau(x)) leads below upper or both sides are zero in their windows,
    and raises WindowEmpty otherwise.
    """
    q = spec.q
    theta_top, tau_top = (None, None) if x.uprec is None else (x.uprec - q + 1, q * x.uprec)
    y_top = None if y is None else y.uprec
    if membership:
        left, right = _umin(_umin(theta_top, tau_top), y_top), None if z is None else z.uprec
    else:
        left, right = tau_top, _umin(y_top, theta_top)
    upper = _umin(left, right)
    spans = [(e.val, len(e.ranks)) for e in (y, z) if e is not None and e.ranks]
    if x.ranks:
        spans += [(x.val - q + 1, len(x.ranks)), (q * x.val, q * len(x.ranks))]
    if not spans:
        return True
    lo, end = min(s for s, _ in spans), max(s + n for s, n in spans)
    acc = _twist_sum(spec, x, y, z, lo, end if upper is None else upper)
    if acc.count(0) != len(acc):
        return False
    if upper is None:
        return True
    plain, top = (z, left) if membership else (x, right)
    if plain is not None and plain.ranks:
        if (plain.val if membership else q * plain.val) < upper:
            return True
    else:
        acc = _twist_sum(spec, x, y, None, lo, end if top is None else top,
                         membership)[max(upper - lo, 0):]
        if acc.count(0) == len(acc):
            return True
    raise WindowEmpty("leading term falls outside the comparison window")


def verify_carlitz_equation(omega: UPowerSeries) -> bool:
    """Check tau(omega) = (t - theta) * omega coefficientwise in t.

    This is the functional equation pinning omega as the rigid trivializer
    of the Carlitz motive; the comparison is exact on window overlaps.  Each
    entry is one _twist_holds, up to the first that fails.
    """
    es = omega.entries
    return all(_twist_holds(omega.spec, x, es[m - 1] if m else None, None, False)
               for m, x in enumerate(es))


def verify_prolongation_trivialization(omega: UPowerSeries, k: int) -> bool:
    """Check tau(D^(j) omega) = D^(j)((t - theta) omega) for all j <= k.

    Hyperderivatives in t commute with the q-power twist, so these k+1
    identities are exactly the entries of the jet form of the Carlitz
    equation.  Entry n of order j is, on both sides, C(n+j, j) times entry
    n+j of order 0, the Carlitz equation.  A nonzero constant moves no window
    and no zero rank, and a zero one leaves exact zeros on both sides, so
    every order holds, fails or raises as order 0 does.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= omega.tprec:
        raise InsufficientPrecision("t-precision too low for the requested jet order")
    return verify_carlitz_equation(omega)


def hhat_verdicts(k: int, columns: Sequence[Sequence[UPowerSeries]]) -> list[bool]:
    """verify_hhat_membership of each column in turn.  Component i holds
    when theta h_i + tau(h_i) - h_(i+1) = t h_i entry by entry (no h_(i+1)
    when i = k), which depends on (h_i, h_(i+1)) alone.  The columns of
    jet_columns share their components, so deciding each distinct pair once
    a call takes k+1 pairs for the k+1 columns, not (k+1)(k+2)/2.
    """
    if k < 0:
        raise ValueError("prolongation order must be nonnegative")
    for column in columns:
        if len(column) != k + 1:
            raise ValueError(f"column must have {k + 1} components")
        if any(h.spec.key != column[0].spec.key for h in column):
            raise SpecMismatch("mixed field specs")
        if any(a.tprec > b.tprec for a, b in zip(column, column[1:])):
            raise InsufficientPrecision("cannot raise t-precision")
    memo = {}

    def holds(h, nxt):
        if nxt is not None and all(e.uprec is None and not e.ranks for e in nxt.entries):
            nxt = None  # subtracting an exact zero is no term
        if (h, nxt) not in memo:
            es = h.entries  # entry by entry, up to the first that fails
            memo[h, nxt] = all(
                _twist_holds(h.spec, x, nxt and nxt.entries[n], es[n - 1] if n else None, True)
                for n, x in enumerate(es))
        return memo[h, nxt]

    return [all(holds(h, column[i + 1] if i < k else None) for i, h in enumerate(column))
            for column in columns]


def verify_hhat_membership(k: int, column: Sequence[UPowerSeries]) -> bool:
    """Check that a column lies in the Tate-module model.

    Membership of h = sum_n e_n t^n amounts to Theta_k h + tau(h) = t h as
    truncated identities, where Theta_k = theta*Id - S and (S h)_i = h_(i+1):
    the t-action of the order-k prolongation of the Carlitz module, applied
    degreewise, equals the shift by one t-power.
    """
    return hhat_verdicts(k, [column])[0]


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
    by level; entry (i, j), read as coefficient i of D^(j) omega, vanishes
    exactly when C(i+j, j) = 0 mod p.
    """
    if n < 0 or k < 0:
        raise ValueError("torsion level and jet order must be nonnegative")
    if omega.tprec <= n + k:
        raise InsufficientPrecision(
            f"t-precision {omega.tprec} too low for n={n}, k={k}"
        )
    ds = [omega.hyperderiv(j).entries for j in range(k + 1)]
    return [[ds[j][i] for j in range(k + 1)] for i in range(n + 1)]
