import functools
import itertools
import random

import pytest

import carlitz.cinfty as cinfty
import carlitz.series as series
from carlitz import (
    UInftyElem,
    UPowerSeries,
    compute_omega,
    hhat_verdicts,
    jet_columns,
    spec_for_order,
    theta,
    torsion_generators,
    verify_carlitz_equation,
    verify_hhat_membership,
    verify_prolongation_trivialization,
    zeta,
)
from carlitz.binomials import binom_pascal_oracle
from carlitz.errors import DivisionByZero, InsufficientPrecision, SpecMismatch, WindowEmpty
from carlitz.series import mul_ranks

from conftest import kernel_spec, mutated, omega_for, perturb_entry


def equal_on_overlap(x, y):
    """Exact comparison on the intersection of known windows, the object
    route's comparison and the reference of the omega checks' kernel.

    Raises WindowEmpty when the windows stop before either leading term,
    i.e. when there is no coefficient left that could tell the two apart.
    """
    if x.spec.key != y.spec.key:
        raise SpecMismatch("mixed field specs")
    upper = min((e.uprec for e in (x, y) if e.uprec is not None), default=None)
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
        head = bytes(min(e.val - lo, width)) + e.ranks[:max(upper - e.val, 0)]
        return head.ljust(width, b"\0")

    return window(x) == window(y)


# -- element arithmetic -------------------------------------------------------

def test_theta_inverse(f3):
    th = theta(f3)
    assert (th * th.inverse()) == UInftyElem.monomial(f3, 0, 1)


def test_zeta_power_identity(f2, f3):
    for spec in (f2, f3):
        z = zeta(spec)
        # zeta^(q-1) = -theta, and frobenius(zeta) = u^(-q)
        pw = z
        for _ in range(spec.q - 2):
            pw = pw * z
        assert pw == -theta(spec)
        assert z.frobenius() == UInftyElem.monomial(spec, -spec.q, 1)
        assert equal_on_overlap(z.frobenius() * z.inverse(), -theta(spec))


def test_frobenius_is_ring_hom(f3):
    rng = random.Random(10)
    for _ in range(40):
        x = UInftyElem(f3, rng.randrange(-5, 5),
                       [rng.randrange(3) for _ in range(12)], None)
        y = UInftyElem(f3, rng.randrange(-5, 5),
                       [rng.randrange(3) for _ in range(12)], None)
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()
        assert x * x * x == x.frobenius()  # the map really is the cube here


def test_window_rules():
    f3 = spec_for_order(3)
    x = UInftyElem(f3, 2, [1, 2, 1], 5)
    y = UInftyElem(f3, -1, [2, 0, 1, 1], 3)
    prod = x * y
    assert prod.val == 1
    assert prod.uprec == min(5 + (-1), 3 + 2)  # = 4
    s = x + y
    assert s.uprec == 3 and s.val == -1
    fr = x.frobenius()
    assert fr.val == 6 and fr.uprec == 15


def test_mul_window_honest(f3):
    # coefficients inside the declared product window match the exact product
    rng = random.Random(11)
    for _ in range(60):
        xv, yv = rng.randrange(-4, 4), rng.randrange(-4, 4)
        xr = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(9)]
        yr = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(9)]
        exact = UInftyElem(f3, xv, xr, None) * UInftyElem(f3, yv, yr, None)
        ux, uy = rng.randrange(xv + 1, xv + 11), rng.randrange(yv + 1, yv + 11)
        windowed = UInftyElem(f3, xv, xr, ux) * UInftyElem(f3, yv, yr, uy)
        assert windowed.uprec is not None
        for exp in range(windowed.val, windowed.uprec):
            assert windowed.coeff_rank(exp) == exact.coeff_rank(exp)


def test_inverse_of_flagged_zero_raises(f3):
    with pytest.raises(DivisionByZero):
        UInftyElem.zero(f3, 10).inverse()


def test_equal_on_overlap_semantics(f3):
    a = UInftyElem(f3, 0, [1, 2], 6)
    b = UInftyElem(f3, 0, [1, 2, 0, 0], 4)
    assert equal_on_overlap(a, b)
    c = UInftyElem(f3, 0, [1, 1], 6)
    assert not equal_on_overlap(a, c)
    # valuation mismatch visible inside the window
    assert not equal_on_overlap(UInftyElem(f3, 5, [1], 8), UInftyElem(f3, 7, [2], 8))
    # zero against an element whose leading term is beyond the window
    z = UInftyElem.zero(f3, 4)
    deep = UInftyElem(f3, 9, [1], 12)
    with pytest.raises(WindowEmpty):
        equal_on_overlap(z, deep)
    assert equal_on_overlap(z, UInftyElem.zero(f3, 2))


def _overlap_per_exponent(x, y):
    # equal_on_overlap as one coeff_rank call per exponent, the reference
    # for the slice comparison
    uppers = [e.uprec for e in (x, y) if e.uprec is not None]
    upper = min(uppers) if uppers else None
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
    for exp in range(lo, upper):
        if x.coeff_rank(exp) != y.coeff_rank(exp):
            return False
    return True


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_equal_on_overlap_matches_per_exponent(q):
    spec = spec_for_order(q)
    rng = random.Random(q)

    def element(base):
        val = base + rng.randrange(-3, 8)
        ranks = [rng.randrange(q) if rng.random() < 0.7 else 0
                 for _ in range(rng.randrange(0, 9))]
        uprec = None if rng.random() < 0.3 else val + rng.randrange(0, 12)
        return UInftyElem(spec, val, ranks, uprec)

    outcomes = set()
    for _ in range(4000):
        x = element(0)
        # y is often x with a few changes, so equal pairs are frequent too
        y = x if rng.random() < 0.3 else element(rng.randrange(-2, 3))
        if rng.random() < 0.5 and not x.is_zero:
            y = x + UInftyElem.monomial(spec, x.val + rng.randrange(0, 14), 1)
        try:
            want = _overlap_per_exponent(x, y)
        except WindowEmpty:
            with pytest.raises(WindowEmpty):
                equal_on_overlap(x, y)
            outcomes.add("empty")
            continue
        assert equal_on_overlap(x, y) == want, (x, y)
        outcomes.add(want)
    assert outcomes == {True, False, "empty"}


# -- omega ---------------------------------------------------------------------

def test_omega_entry0_is_zeta(f2, f3):
    for q in (2, 3):
        om = omega_for(q)
        spec = om.spec
        assert equal_on_overlap(om.entries[0], zeta(spec))


def test_omega_entry1_lowest_term():
    # entry 1 = zeta * theta^(-1) + higher = -u^(q-2) + ...
    for q in (2, 3):
        om = omega_for(q)
        e1 = om.entries[1]
        assert e1.val == q - 2
        assert e1.ranks[0] == (1 if q == 2 else q - 1)


def test_omega_valuations():
    for q in (2, 3):
        om = omega_for(q)
        for n, e in enumerate(om.entries):
            assert e.val == (q - 1) * n - 1


def test_omega_higher_precision_agrees():
    for q in (2, 3):
        lo = omega_for(q, 8, 128)
        hi = compute_omega(spec_for_order(q), 8, 192)
        for a, b in zip(lo.entries, hi.entries):
            assert equal_on_overlap(a, b)


def test_carlitz_equation_t0_slice(f3):
    om = omega_for(3)
    lhs = om.entries[0].frobenius()
    rhs = -(theta(f3) * om.entries[0])
    assert equal_on_overlap(lhs, rhs)


@pytest.mark.parametrize("q", [2, 3])
def test_carlitz_equation(q):
    assert verify_carlitz_equation(omega_for(q))


@pytest.mark.parametrize("q", [2, 3])
def test_carlitz_equation_soundness(q):
    om = omega_for(q)
    assert not verify_carlitz_equation(perturb_entry(om, 2))


@pytest.mark.parametrize("q,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
def test_prolongation_trivialization(q, k):
    assert verify_prolongation_trivialization(omega_for(q), k)


def test_prolongation_trivialization_t6():
    om = compute_omega(spec_for_order(2), 6, 128)
    assert verify_prolongation_trivialization(om, 2)


def test_prolongation_k0_equals_carlitz():
    # both checks against (t - theta) omega formed entry by entry, on omega
    # and on omega with entry 1, 2 or 3 perturbed
    for q in (2, 3):
        om = omega_for(q)
        th, zero = theta(om.spec), UInftyElem.zero(om.spec)
        for n in range(4):
            x = perturb_entry(om, n) if n else om
            rhs = [(x.entries[i - 1] if i else zero) - th * x.entries[i]
                   for i in range(x.tprec)]
            lhs = UPowerSeries(om.spec, [e.frobenius() for e in x.entries])
            want = _useries_equal(lhs, UPowerSeries(om.spec, rhs))
            assert want == (n == 0)
            assert verify_prolongation_trivialization(x, 0) == want
            assert verify_carlitz_equation(x) == want


def test_prolongation_soundness():
    om = perturb_entry(omega_for(2), 3)
    assert not verify_prolongation_trivialization(om, 1)


@pytest.mark.parametrize("q,k", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
def test_hhat_membership_columns(q, k):
    om = omega_for(q)
    for col in jet_columns(om, k):
        assert verify_hhat_membership(k, col)


def test_hhat_zero_column(f3):
    zero_col = [UPowerSeries.zero(f3, 5) for _ in range(3)]
    assert verify_hhat_membership(2, zero_col)


def test_hhat_k0_is_carlitz_equation():
    om = omega_for(2)
    assert verify_hhat_membership(0, [om])


def test_hhat_soundness():
    om = omega_for(3)
    cols = jet_columns(perturb_entry(om, 2), 1)
    assert any(not verify_hhat_membership(1, col) for col in cols)


# -- the omega checks against their object-level route -----------------------

def _useries_equal(a, b):
    """Entrywise window comparison through the common t-precision."""
    n = min(a.tprec, b.tprec)
    return all(equal_on_overlap(a.entries[i], b.entries[i]) for i in range(n))


def _tshift(h):
    """Multiplication by t (mod t^tprec)."""
    return UPowerSeries(h.spec, (UInftyElem.zero(h.spec),) + h.entries[:-1])


def _prolongation_by_objects(omega, j):
    """Jet order j of verify_prolongation_trivialization by UInftyElem
    arithmetic: tau(D^(j) omega) against D^(j)(t omega - theta omega), each
    side a UPowerSeries.  The check for k is this for j = 0..k in turn."""
    th = theta(omega.spec)
    rhs = UPowerSeries(omega.spec, [a - th * e for a, e in
                                    zip(_tshift(omega).entries, omega.entries)])
    lhs = UPowerSeries(omega.spec, [e.frobenius() for e in omega.hyperderiv(j).entries])
    return _useries_equal(lhs, rhs.hyperderiv(j))


def _hhat_by_objects(k, column):
    """verify_hhat_membership by UInftyElem arithmetic: Theta_k h + tau(h),
    Theta_k = theta*Id - S with (S h)_i = h_(i+1), every component formed
    first, then each against t h in turn."""
    th = theta(column[0].spec)
    comps = []
    for i, h in enumerate(column):
        comp = [th * e + e.frobenius() for e in h.entries]
        if i < k:
            nxt = column[i + 1].truncate_t(h.tprec).entries
            comp = [c - y for c, y in zip(comp, nxt)]
        comps.append(UPowerSeries(h.spec, comp))
    return all(_useries_equal(a, _tshift(h)) for a, h in zip(comps, column))


def _verdict(fn, *args):
    """fn's result, or the type and message of the WindowEmpty it raises."""
    try:
        return fn(*args)
    except WindowEmpty as exc:
        return WindowEmpty, str(exc)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_twist_kernel_matches_equal_on_overlap(q):
    # the rank-byte kernel against equal_on_overlap of the two sides built
    # by UInftyElem arithmetic, on random x, y, z: exact or windowed, zero
    # or not, y or z absent, and one side often the other's exact value
    spec = spec_for_order(q)
    th, zero = theta(spec), UInftyElem.zero(spec)
    rng = random.Random(q)

    def element():
        val = rng.randrange(-4, 6)
        ranks = [rng.randrange(q) if rng.random() < 0.6 else 0
                 for _ in range(rng.randrange(0, 7))]
        uprec = None if rng.random() < 0.25 else val + rng.randrange(0, 9)
        return UInftyElem(spec, val, ranks, uprec)

    seen = set()
    for _ in range(3000):
        x = element()
        y = element() if rng.random() < 0.85 else None
        membership = rng.random() < 0.5
        if membership:
            z = element() if rng.random() < 0.85 else None
            left = th * x + x.frobenius() - (y or zero)
            if rng.random() < 0.3:
                z = left
                if not left.is_zero and rng.random() < 0.5:
                    top = left.val + 9 if left.uprec is None else left.uprec
                    z = left.truncate_to(rng.randrange(left.val + 1, top + 1))
                elif not left.is_zero and left.uprec is None and rng.random() < 0.5:
                    # the exact left side less its top term, often tau(x)'s
                    z = left - UInftyElem.monomial(spec, left.val + len(left.ranks) - 1,
                                                   left.ranks[-1])
            right = z or zero
        else:
            if rng.random() < 0.3:
                y = x.frobenius() + th * x
            z, left, right = None, x.frobenius(), (y or zero) - th * x
        want = _verdict(equal_on_overlap, left, right)
        assert _verdict(cinfty._twist_holds, spec, x, y, z, membership) == want, \
            (x, y, z, membership)
        seen.add(want if type(want) is bool else want[1])
    # both sides nonzero and past the window cannot happen: the side whose
    # window is the shorter has its leading rank inside it
    assert seen == {True, False, "leading term falls outside the comparison window"}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_omega_checks_match_object_route_on_tiny_windows(q):
    # every tprec <= 6, uprec in {1, 2, 3, 4, 5, 8, 13, q, q^2, 2q^2} and
    # k < tprec, on omega and on omega with one rank of one entry flipped
    # at offset 0, 1 or 3: the same verdict, or the same WindowEmpty
    spec = spec_for_order(q)
    seen = set()
    for tprec in range(1, 7):
        for uprec in sorted({1, 2, 3, 4, 5, 8, 13, q, q * q, 2 * q * q}):
            om = compute_omega(spec, tprec, uprec)
            variants = [om] + [perturb_entry(om, n, offset) for n in range(tprec)
                               for offset in (0, 1, 3) if om.entries[n].ranks]
            for x in variants:
                by_j = [_verdict(_prolongation_by_objects, x, j) for j in range(tprec)]
                assert _verdict(verify_carlitz_equation, x) == by_j[0]
                for k in range(tprec):
                    # the first order that fails or raises decides
                    want = next((v for v in by_j[:k + 1] if v is not True), True)
                    assert _verdict(verify_prolongation_trivialization, x, k) == want
                    cols = jet_columns(x, k)
                    want = [_verdict(_hhat_by_objects, k, col) for col in cols]
                    # one call for all columns raises what the first raising
                    # column raises, or gives every column's verdict
                    raised = [v for v in want if type(v) is not bool]
                    assert _verdict(hhat_verdicts, k, cols) == (raised[0] if raised else want)
                    seen.update(v if type(v) is bool else v[1] for v in want + by_j)
    assert {True, False, "leading term falls outside the comparison window"} <= seen, seen


def test_perturb_entry_names_an_empty_window():
    # at q = 2 and uprec 1 every entry n >= 1 is declared with width 0
    om = compute_omega(spec_for_order(2), 4, 1)
    assert om.entries[0].ranks and not om.entries[2].ranks
    assert perturb_entry(om, 0).entries[0].ranks != om.entries[0].ranks
    with pytest.raises(ValueError, match="entry 2 has an empty window"):
        perturb_entry(om, 2)
    with pytest.raises(ValueError, match="entry 2 has an empty window"):
        perturb_entry(om, 2, offset=0)


def test_hhat_verdicts_key_on_the_component_pair():
    # the same first component over three different second ones: the
    # shared component is decided once per pair, never once for all
    om = omega_for(3, 6, 64)
    d1 = om.hyperderiv(1)
    zero = UPowerSeries.zero(om.spec, 6)
    columns = [[d1, om], [d1, zero], [d1, perturb_entry(om, 2)], [om, zero]]
    want = [_hhat_by_objects(1, col) for col in columns]
    assert want == [True, False, False, True]
    assert hhat_verdicts(1, columns) == want


def test_torsion_generators_table():
    om2 = omega_for(2)
    g = torsion_generators(om2, 2, 2)
    assert equal_on_overlap(g[0][0], zeta(spec_for_order(2)))
    assert g[1][1].is_zero  # C(2,1) even
    om3 = omega_for(3)
    g3 = torsion_generators(om3, 1, 1)
    assert not g3[1][1].is_zero  # 2 * (D^2 omega)(0) != 0 mod 3
    assert g3[1][1] == om3.entries[2].scale(2)
    # every entry is C(i+j, j) times entry i+j of omega, C read through Pascal
    for q in (2, 3, 4, 9):
        om = omega_for(q)
        n, k, p = 4, 3, om.spec.p
        g = torsion_generators(om, n, k)
        assert len(g) == n + 1 and all(len(row) == k + 1 for row in g)
        for i, j in itertools.product(range(n + 1), range(k + 1)):
            want = om.entries[i + j].scale(binom_pascal_oracle(i + j, j, p))
            assert g[i][j] == want, (q, i, j)


def test_torsion_generators_precision_guard():
    om = omega_for(2)
    with pytest.raises(InsufficientPrecision):
        torsion_generators(om, 6, 2)


def test_add_and_frobenius_windows_honest(f3):
    # declared windows of sums and Frobenius images match exact recomputation
    rng = random.Random(13)
    for _ in range(60):
        xv, yv = rng.randrange(-4, 4), rng.randrange(-4, 4)
        xr = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(9)]
        yr = [rng.randrange(1, 3)] + [rng.randrange(3) for _ in range(9)]
        ex, ey = UInftyElem(f3, xv, xr, None), UInftyElem(f3, yv, yr, None)
        ux, uy = rng.randrange(xv + 1, xv + 11), rng.randrange(yv + 1, yv + 11)
        wx, wy = ex.truncate_to(ux), ey.truncate_to(uy)
        ws = wx + wy
        exact = ex + ey
        assert ws.uprec == min(ux, uy)
        for exp in range(min(xv, yv), ws.uprec):
            assert ws.coeff_rank(exp) == exact.coeff_rank(exp)
        wf = wx.frobenius()
        ef = ex.frobenius()
        assert wf.uprec == 3 * ux
        for exp in range(3 * xv, wf.uprec):
            assert wf.coeff_rank(exp) == ef.coeff_rank(exp)


@pytest.mark.parametrize("q", [2, 3])
def test_omega_against_fixed_point_construction(q):
    """Rebuild omega from its functional equation alone and compare.

    tau(omega) = (t - theta) omega pins each t-coefficient implicitly:
    omega_n = theta^(-1) (omega_{n-1} - tau(omega_n)), and since tau
    multiplies valuations by q the map x -> theta^(-1)(omega_{n-1} - tau(x))
    is a u-adic contraction.  Iterating it from zero converges inside any
    finite window, giving a construction of omega wholly independent of the
    truncated product formula.
    """
    spec = spec_for_order(q)
    product_route = omega_for(q, 8, 128)
    th_inv = theta(spec).inverse()  # exact monomial -u^(q-1)
    entries = [zeta(spec).truncate_to(-1 + 128)]
    for n in range(1, 8):
        prev = entries[n - 1]
        x = th_inv * prev  # first iterate from x = 0
        for _ in range(12):
            x = th_inv * (prev - x.frobenius())
        settled = th_inv * (prev - x.frobenius())
        assert equal_on_overlap(settled, x)  # the iteration has converged
        entries.append(x)
    for n in range(8):
        assert equal_on_overlap(entries[n], product_route.entries[n])


def _multiset_counts(q, p, nmax, emax):
    """counts[n][E]: the multisets of n powers of q summing to E, mod p."""
    counts = [[1] + [0] * emax] + [[0] * (emax + 1) for _ in range(nmax)]
    part = 1
    while part <= emax:
        # unbounded use of this part: row n reads row n-1 already updated
        for n in range(1, nmax + 1):
            row, prev = counts[n], counts[n - 1]
            for e in range(part, emax + 1):
                row[e] = (row[e] + prev[e - part]) % p
        part *= q
    return counts


@pytest.mark.parametrize("q, tprec, uprec", [
    (2, 32, 1024), (3, 8, 128), (4, 16, 512), (5, 6, 200), (8, 4, 80), (9, 4, 300),
])
def test_omega_against_closed_form(q, tprec, uprec):
    """Every declared coefficient of omega against the expanded product.

    Expanding zeta * prod_{i >= 0} (1 + u^((q-1) q^i) t)^(-1) termwise, the
    t^n entry is (-1)^n u^(-1) sum_E N_q(n, E) u^((q-1)E), where N_q(n, E)
    counts mod p the multisets of n powers of q that sum to E.  This route
    takes every factor, omitted ones included, so agreement up to each
    entry's declared uprec also proves that entry's window cap sound.
    """
    spec = spec_for_order(q)
    om = compute_omega(spec, tprec, uprec)
    p = spec.p
    emax = max(e.uprec for e in om.entries) // (q - 1) + 1
    counts = _multiset_counts(q, p, tprec - 1, emax)
    for n, entry in enumerate(om.entries):
        sign = 1 if n % 2 == 0 else p - 1
        assert entry.val == (q - 1) * n - 1 < entry.uprec
        for exp in range(-1, entry.uprec):
            big_e, rem = divmod(exp + 1, q - 1)
            want = sign * counts[n][big_e] % p if rem == 0 else 0
            assert entry.coeff_rank(exp) == want, (n, exp)


def _mul_via_ranks(x, y):
    """x * y by the general route: one mul_ranks product, then _normal."""
    uprec = min((e.uprec + f.vbound() for e, f in ((x, y), (y, x))
                 if e.uprec is not None and f.vbound() is not None), default=None)
    if x.is_zero or y.is_zero:
        return UInftyElem.zero(x.spec, uprec)
    lo = x.val + y.val
    width = len(x.ranks) + len(y.ranks) - 1 if uprec is None else uprec - lo
    return UInftyElem._normal(x.spec, lo, mul_ranks(x.spec, x.ranks, y.ranks, width), uprec)


def _omega_by_exact_product(spec, tprec, uprec):
    """omega as an exact product of every included factor, each entry then
    truncated to its cap: the object route, with no cap inside the loop."""
    q = spec.q
    count = 0
    while (q - 1) * q ** count < uprec:
        count += 1
    entries = [zeta(spec)] + [UInftyElem.zero(spec)] * (tprec - 1)
    for i in range(count):
        c = UInftyElem.monomial(spec, (q - 1) * q ** i, spec.p - 1)
        for n in range(1, tprec):
            entries[n] = entries[n] + _mul_via_ranks(c, entries[n - 1])
    capped = []
    for n, e in enumerate(entries):
        cap = (q - 1) * n - 1 + uprec
        if n >= 1:
            cap = min(cap, (q - 1) * (q ** count + n - 1) - 1)
        capped.append(e.truncate_to(cap))
    return capped


# every lane shape of the omega loop: p = 2 with e from 1 to 8, odd p with
# e > 1, and the two-byte lanes of p >= 128
_OMEGA_FIELDS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 131, 251, "2^8", "3^5", "7^2"]


@functools.cache
def _omega_cells(name):
    """(spec, tprec, uprec, exact-product entries) for uprec at 1, at q-1,
    and on either side of each (q-1) q^i, where the number of factors and
    the window cap change."""
    spec = kernel_spec(name)
    q = spec.q
    uprecs = {1, q - 1}
    for i in range(5):
        edge = (q - 1) * q ** i
        if edge > 1000:
            break
        uprecs |= {edge - 1, edge, edge + 1}
    return [(spec, tprec, uprec, _entries(_omega_by_exact_product(spec, tprec, uprec)))
            for uprec in sorted(u for u in uprecs if u >= 1) for tprec in (1, 2, 5, 12)]


def _entries(entries):
    return [(e.val, e.ranks, e.uprec) for e in entries]


@pytest.mark.parametrize("name", _OMEGA_FIELDS)
def test_omega_capped_loop_matches_exact_product(name):
    for spec, tprec, uprec, want in _omega_cells(name):
        assert _entries(compute_omega(spec, tprec, uprec).entries) == want, (uprec, tprec)


# each mutation of the omega loop's lane arithmetic, as (function, old text,
# new text); the function's name in carlitz.cinfty is replaced by the mutant
_OMEGA_MUTATIONS = {
    "lane add without its conditional subtract": (
        series.add_lanes, "return s - p * (((s + bias) >> flag) & ones)", "return s"),
    "8-bit lanes at p >= 128": (
        series.lane_format, "lane = 8 if p < 128 else 16", "lane = 8"),
    "odd entries not negated": (
        cinfty.compute_omega, "ranks = ranks.translate(spec.tables.neg)", "pass"),
}


@pytest.mark.parametrize("mutation", list(_OMEGA_MUTATIONS))
def test_omega_lane_mutations_fail(mutation, monkeypatch):
    func, old, new = _OMEGA_MUTATIONS[mutation]
    monkeypatch.setattr(cinfty, func.__name__, mutated(func, old, new))
    caught = 0
    for name in _OMEGA_FIELDS:
        for spec, tprec, uprec, want in _omega_cells(name):
            try:
                caught += _entries(cinfty.compute_omega(spec, tprec, uprec).entries) != want
            except OverflowError:  # a negative lane int has no bytes
                caught += 1
    assert caught > 0


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25, 256])
def test_monomial_product_matches_general_route(q, monkeypatch):
    spec = kernel_spec("2^8") if q == 256 else spec_for_order(q)
    rng = random.Random(q)

    def ranks(n):
        mid = [rng.randrange(q) for _ in range(n - 2)]
        return [rng.randrange(1, q)] + mid + [rng.randrange(1, q)]

    monos = [UInftyElem(spec, v, [rng.randrange(1, q)], None) for v in (-5, 0, 7)]
    others = monos + [
        UInftyElem(spec, -3, ranks(40), 37),
        UInftyElem(spec, 4, ranks(1), 5),
        UInftyElem(spec, 2, ranks(60), None),
        UInftyElem.zero(spec, 9),
        UInftyElem.zero(spec),
    ]
    calls = []
    general = cinfty.mul_ranks

    def spy(*args):
        calls.append(args)
        return general(*args)

    monkeypatch.setattr(cinfty, "mul_ranks", spy)
    for x in monos:
        assert x.uprec is None and len(x.ranks) == 1
        for y in others:
            want = _mul_via_ranks(x, y)
            for got in (x * y, y * x):
                assert type(got.ranks) is bytes
                assert (got.val, got.ranks, got.uprec) == (want.val, want.ranks, want.uprec)
    assert calls == []
    # an exact two-term element, and a windowed one-rank one, take mul_ranks
    for x in (UInftyElem(spec, -1, [1, rng.randrange(1, q)], None), others[4]):
        for y in others[3:6]:
            got = x * y
            want = _mul_via_ranks(x, y)
            assert (got.val, got.ranks, got.uprec) == (want.val, want.ranks, want.uprec)
    assert len(calls) == 6


def test_omega_extension_fields():
    # e >= 2 exercises the q-power (not p-power) twist for real
    f4 = spec_for_order(4)
    om4 = compute_omega(f4, 6, 100)
    assert [e.val for e in om4.entries] == [3 * n - 1 for n in range(6)]
    assert verify_carlitz_equation(om4)
    assert verify_prolongation_trivialization(om4, 2)
    for k in (0, 1):
        for col in jet_columns(om4, k):
            assert verify_hhat_membership(k, col)
    for q in (8, 9):
        om = compute_omega(spec_for_order(q), 4, 300)
        assert verify_carlitz_equation(om)
        assert verify_prolongation_trivialization(om, 1)


def test_omega_narrow_window_refuses_vacuous_check():
    # at q=8 the q-power stretch pushes late slices past a 80-wide window;
    # the checker must refuse rather than return a vacuous True
    om = compute_omega(spec_for_order(8), 4, 80)
    with pytest.raises(WindowEmpty):
        verify_carlitz_equation(om)


def test_hhat_perturbation_sweep():
    om = omega_for(2)
    for n in (1, 2, 3, 4):
        cols = jet_columns(perturb_entry(om, n), 2)
        assert any(not verify_hhat_membership(2, col) for col in cols)


from hypothesis import assume, given, settings
from hypothesis import strategies as st


@st.composite
def windowed_elems(draw):
    # q = 2 adds by XOR, q = 3 by an add mod p, q = 4 and q = 9 through
    # digit planes in both characteristics
    spec = spec_for_order(draw(st.sampled_from([2, 3, 4, 9])))

    def one():
        val = draw(st.integers(-5, 5))
        n = draw(st.integers(min_value=1, max_value=8))
        ranks = [draw(st.integers(0, spec.q - 1)) for _ in range(n)]
        if draw(st.booleans()):
            return UInftyElem(spec, val, ranks, None)
        width = draw(st.integers(min_value=1, max_value=10))
        return UInftyElem(spec, val, ranks, val + width)

    return one(), one(), one()


def assert_rankwise(result, expected_uprec, coeff, exps):
    """result has window expected_uprec, the coefficient coeff(n) at each
    exponent n in exps and zero elsewhere, and is stored in normal form."""
    assert result.uprec == expected_uprec
    for n in exps:
        assert result.coeff_rank(n) == coeff(n)
    if result.is_zero:
        assert result.val == 0
    else:
        assert result.ranks[0] != 0 and min(exps) <= result.val
        assert expected_uprec is not None or result.ranks[-1] != 0
        assert expected_uprec is None or result.val + len(result.ranks) <= expected_uprec
    assert all(type(r) is int for r in result.ranks)


def window_exps(*elems):
    """Every exponent in which an operand or a result could differ from 0."""
    uprec = min((e.uprec for e in elems if e.uprec is not None), default=None)
    lo = min([e.val for e in elems] + [-1])
    hi = max(e.val + len(e.ranks) for e in elems) + 2 if uprec is None else uprec
    return range(lo, hi)


@settings(max_examples=150, deadline=None)
@given(windowed_elems())
def test_add_neg_scale_match_rankwise_loop(triple):
    # the packed kernels against one table lookup per coefficient
    x, y, _ = triple
    spec = x.spec
    t = spec.tables
    uprec = min((e.uprec for e in (x, y) if e.uprec is not None), default=None)
    exps = window_exps(x, y)
    assert_rankwise(x + y, uprec, lambda n: t.add[x.coeff_rank(n)][y.coeff_rank(n)], exps)
    assert_rankwise(x - y, uprec,
                    lambda n: t.add[x.coeff_rank(n)][t.neg[y.coeff_rank(n)]], exps)
    assert_rankwise(-x, x.uprec, lambda n: t.neg[x.coeff_rank(n)], window_exps(x))
    for c in range(1, spec.q):
        assert_rankwise(x.scale(spec.from_rank(c)), x.uprec,
                        lambda n: t.mul[c][x.coeff_rank(n)], window_exps(x))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_add_window_ending_at_or_below_other_valuation(q):
    spec = spec_for_order(q)
    top = spec.q - 1
    x = UInftyElem(spec, 0, [1, top], 3)
    for y_val in (3, 5):  # the window of x ends at, then below, y's valuation
        y = UInftyElem(spec, y_val, [top, 1], None)
        assert x + y == y + x == x
        assert x - y == x
    # the window ends below the lower term's valuation: nothing is left
    far = UInftyElem(spec, 5, [top], 9)
    for z in (UInftyElem.zero(spec, 2), UInftyElem(spec, 0, [top], 2)):
        s = far + z
        assert s == z + far
        assert s.uprec == 2 and (s.is_zero or s.val < 2)
    assert far + UInftyElem.zero(spec, 2) == UInftyElem.zero(spec, 2)


@settings(max_examples=150, deadline=None)
@given(windowed_elems())
def test_window_algebra_laws(triple):
    # ring laws hold on whatever window overlap survives the propagation
    x, y, z = triple
    try:
        assert equal_on_overlap(x + y, y + x)
        assert equal_on_overlap((x + y) + z, x + (y + z))
        assert equal_on_overlap(x * y, y * x)
        assert equal_on_overlap((x * y) * z, x * (y * z))
        assert equal_on_overlap(x * (y + z), x * y + x * z)
        assert equal_on_overlap((x * y).frobenius(), x.frobenius() * y.frobenius())
    except WindowEmpty:
        assume(False)


def _wide(spec, rng, val, exact, pad=300, body=1024):
    """An element whose given ranks are `pad` zeros, `body` ranks with zero runs
    inside and nonzero ends, then `pad` zeros; exact or windowed to the end."""
    q = spec.q
    mid = [rng.randrange(q) if rng.random() < 0.4 else 0 for _ in range(body - 2)]
    mid[100:400] = [0] * 300
    ranks = [0] * pad + [rng.randrange(1, q)] + mid + [rng.randrange(1, q)] + [0] * pad
    return UInftyElem(spec, val, ranks, None if exact else val + len(ranks)), ranks


def _check_normal(e, uprec, coeff, exps):
    """e has window uprec, coefficient coeff(n) at each n in exps, and is in
    normal form with its ranks stored as bytes."""
    assert type(e.ranks) is bytes and e.uprec == uprec
    for n in exps:
        assert e.coeff_rank(n) == coeff(n), n
    if e.is_zero:
        assert e.val == 0
        return
    assert e.ranks[0] and min(exps) <= e.val
    if uprec is None:
        assert e.ranks[-1]
    else:
        assert e.val + len(e.ranks) == uprec


def _outcome(fn, x, y):
    try:
        return fn(x, y)
    except WindowEmpty:
        return WindowEmpty


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_wide_windows_keep_normal_form(q):
    # windows of 1624 exponents with zero runs of 300 at both ends, against a
    # per-exponent coeff_rank oracle
    spec = spec_for_order(q)
    t = spec.tables
    rng = random.Random(q)
    elems = []
    for val, exact in [(-7, True), (40, True), (-300, False), (5, False)]:
        e, ranks = _wide(spec, rng, val, exact)
        hi = val + len(ranks)
        _check_normal(e, e.uprec, lambda n: ranks[n - val] if val <= n < hi else 0,
                      range(val - 3, hi + (3 if exact else 0)))
        assert e.val == val + 300 and len(e.ranks) == (1024 if exact else 1324)
        elems.append(e)

    def span(*es):
        uprec = min((e.uprec for e in es if e.uprec is not None), default=None)
        lo = min(e.val for e in es) - 3
        return uprec, range(lo, max(e.val + len(e.ranks) for e in es) + 3
                            if uprec is None else uprec)

    for x in elems:
        for y in elems:
            uprec, exps = span(x, y)
            _check_normal(x + y, uprec,
                          lambda n: t.add[x.coeff_rank(n)][y.coeff_rank(n)], exps)
        # the first 700 known ranks cancel, so the sum's valuation moves past them
        head = UInftyElem(spec, x.val, x.ranks[:700], None)
        d = x - head
        uprec, exps = span(x)
        _check_normal(d, uprec, lambda n: x.coeff_rank(n) if n >= x.val + 700 else 0, exps)
        assert d.val >= x.val + 700
        _check_normal(x - x, x.uprec, lambda n: 0, exps)
        # products by a sparse wide factor: three terms over 1000 exponents
        terms = {0: 1, 400: rng.randrange(1, q), 999: rng.randrange(1, q)}
        sparse = UInftyElem(spec, 3, [terms.get(i, 0) for i in range(1000)], None)
        for y in (sparse, UInftyElem(spec, 3, sparse.ranks, 1303)):
            prod = x * y
            ends = [e.uprec + f.val for e, f in ((x, y), (y, x)) if e.uprec is not None]
            uprec = min(ends, default=None)
            hi = x.val + len(x.ranks) + 1002 if uprec is None else uprec

            def coeff(n, x=x):
                acc = 0
                for i, c in terms.items():
                    acc = t.add[acc][t.mul[c][x.coeff_rank(n - 3 - i)]]
                return acc

            _check_normal(prod, uprec, coeff, range(x.val - 3, hi))
        # truncation inside, at the end of, and (exact only) past the ranks
        for width in (1, 700, len(x.ranks), len(x.ranks) + 50):
            if x.uprec is not None and x.val + width > x.uprec:
                continue
            tr = x.truncate_to(x.val + width)
            _check_normal(tr, x.val + width, x.coeff_rank, range(x.val - 3, x.val + width))
        fr = x.frobenius()
        uprec = None if x.uprec is None else q * x.uprec
        hi = q * (x.val + len(x.ranks)) + 3 if uprec is None else uprec
        _check_normal(fr, uprec, lambda n: 0 if n % q else x.coeff_rank(n // q),
                      range(q * x.val - 3, hi))
        # overlap comparisons against one coeff_rank call per exponent
        last = UInftyElem.monomial(spec, x.val + len(x.ranks) - 1, 1)
        for y in [x, x + last, x.truncate_to(x.val + 500), head] + elems:
            assert (_outcome(equal_on_overlap, x, y)
                    == _outcome(_overlap_per_exponent, x, y))
