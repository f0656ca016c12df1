import random

import pytest

from carlitz import (
    ProlongationAction,
    UInftyElem,
    UPowerSeries,
    compute_omega,
    equal_on_overlap,
    jet_columns,
    spec_for_order,
    theta,
    torsion_generators,
    useries_equal,
    verify_carlitz_equation,
    verify_hhat_membership,
    verify_prolongation_trivialization,
    zeta,
)
from carlitz.errors import DivisionByZero, InsufficientPrecision, WindowEmpty

from conftest import omega_for, perturb_entry


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
    for q in (2, 3):
        om = omega_for(q)
        assert verify_prolongation_trivialization(om, 0) == verify_carlitz_equation(om)


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


def test_nilpotent_part():
    f3 = spec_for_order(3)
    for k in (0, 1, 2, 3):
        act = ProlongationAction(f3, k)
        m = act.nilpotent_matrix()
        n = k + 1
        # multiply the matrix by itself k+1 times; everything must vanish
        cur = m
        for _ in range(k):
            nxt = [[UInftyElem.zero(f3) for _ in range(n)] for _ in range(n)]
            for r in range(n):
                for c in range(n):
                    acc = UInftyElem.zero(f3)
                    for s in range(n):
                        acc = acc + cur[r][s] * m[s][c]
                    nxt[r][c] = acc
            cur = nxt
        power = cur
        # one more multiplication kills it
        for r in range(n):
            for c in range(n):
                acc = UInftyElem.zero(f3)
                for s in range(n):
                    acc = acc + power[r][s] * m[s][c]
                assert acc.is_zero


def test_torsion_generators_table():
    om2 = omega_for(2)
    g = torsion_generators(om2, 2, 2)
    assert equal_on_overlap(g[0][0], zeta(spec_for_order(2)))
    assert g[1][1].is_zero  # C(2,1) even
    om3 = omega_for(3)
    g3 = torsion_generators(om3, 1, 1)
    assert not g3[1][1].is_zero  # 2 * (D^2 omega)(0) != 0 mod 3
    assert g3[1][1] == om3.entries[2].scale(2)


def test_torsion_generators_precision_guard():
    om = omega_for(2)
    with pytest.raises(InsufficientPrecision):
        torsion_generators(om, 6, 2)


def test_useries_equal_and_shift(f2):
    om = omega_for(2)
    assert useries_equal(om, om)
    shifted = om.tshift()
    assert shifted.entries[0].is_zero
    assert shifted.entries[1] == om.entries[0]


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
    spec = spec_for_order(3)

    def one():
        val = draw(st.integers(-5, 5))
        n = draw(st.integers(min_value=1, max_value=8))
        ranks = [draw(st.integers(0, 2)) for _ in range(n)]
        if draw(st.booleans()):
            return UInftyElem(spec, val, ranks, None)
        width = draw(st.integers(min_value=1, max_value=10))
        return UInftyElem(spec, val, ranks, val + width)

    return one(), one(), one()


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
