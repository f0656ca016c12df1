import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz import TruncSeries, parse_series, render_series, unit_enumerate
from carlitz import FqSpec, UInftyElem, spec_for_order, unit_count
from carlitz.errors import BudgetExceeded, NonUnit, ParseError, SpecMismatch
from carlitz.series import _NP_MUL_MIN_PREC, _mul_ranks_np, mul_ranks

from conftest import random_series


def lit(q, text, prec):
    return parse_series(spec_for_order(q), text, prec)


def test_mul_example_q3():
    assert lit(3, "1+t", 3) * lit(3, "1+2*t", 3) == lit(3, "1+2*t^2", 3)


def test_mul_identity(f3):
    rng = random.Random(0)
    for _ in range(20):
        f = random_series(rng, f3, 6)
        assert f * TruncSeries.one(f3, 6) == f


def test_mul_example_q2():
    assert lit(2, "1+t", 3) * lit(2, "1+t", 3) == lit(2, "1+t^2", 3)


def test_inverse_geometric(f2):
    assert lit(2, "1+t", 4).inverse() == lit(2, "1+t+t^2+t^3", 4)


def test_inverse_constant(f3):
    c = lit(3, "2", 5)
    assert c.inverse() == lit(3, "2", 5)


def test_inverse_derived_q3(f3):
    inv = lit(3, "1+t", 3).inverse()
    assert inv == lit(3, "1+2*t+t^2", 3)
    assert lit(3, "1+t", 3) * inv == TruncSeries.one(f3, 3)


def test_inverse_requires_unit(f2):
    with pytest.raises(NonUnit):
        lit(2, "t", 3).inverse()


def test_eval0(f3):
    assert lit(3, "1+t", 4).eval0() == f3.one()
    assert lit(3, "t", 4).eval0() == f3.zero()
    assert lit(3, "2+t^2", 4).eval0() == f3.element(2)


def test_precision_is_min(f3):
    a = TruncSeries.one(f3, 5)
    b = TruncSeries.one(f3, 3)
    assert (a * b).prec == 3 and (a + b).prec == 3


def test_spec_mismatch(f2, f3):
    with pytest.raises(SpecMismatch):
        TruncSeries.one(f2, 3) + TruncSeries.one(f3, 3)


def test_unit_counts():
    assert len(list(unit_enumerate(spec_for_order(2), 3))) == 4
    assert [render_series(u) for u in unit_enumerate(spec_for_order(3), 1)] == ["1", "2"]
    assert len(list(unit_enumerate(spec_for_order(3), 2))) == 6


@pytest.mark.parametrize("q,prec", [(2, 6), (3, 6), (4, 6)])
def test_unit_group_closure(q, prec):
    spec = spec_for_order(q)
    units = list(unit_enumerate(spec, prec))
    assert len(units) == unit_count(q, prec)
    keys = {u.ranks for u in units}
    assert len(keys) == len(units)
    rng = random.Random(1)
    for _ in range(200):
        a, b = rng.choice(units), rng.choice(units)
        assert (a * b).ranks in keys
    for u in units:  # inversion is an involution on the whole enumerated set
        inv = u.inverse()
        assert inv.ranks in keys
        assert inv.inverse() == u


def test_unit_products_exhaustive_smallest():
    spec = spec_for_order(2)
    units = list(unit_enumerate(spec, 3))
    keys = {u.ranks for u in units}
    for a in units:
        for b in units:
            assert (a * b).ranks in keys


def test_unit_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        unit_enumerate(spec_for_order(2), 40, budget=10 ** 6)


def test_int_scalars_are_residues_mod_p(f4):
    # in F_4 an int scalar is its residue mod 2, never a rank
    t = TruncSeries.monomial(f4, 1, 4)
    assert t * 3 == t * 5 == 3 * t == t.scale(3) == t
    assert t * 2 == TruncSeries.zero(f4, 4)
    u = UInftyElem.monomial(f4, 1)
    assert u * 3 == u * 5 == 3 * u == u.scale(3) == u
    assert (u * 2).is_zero


def test_literal_roundtrip(f3, f4):
    rng = random.Random(2)
    for spec in (f3, f4):
        for _ in range(30):
            f = random_series(rng, spec, 5)
            assert parse_series(spec, render_series(f), 5) == f


def test_literal_extension_field(f4):
    f = parse_series(f4, "[0,1]+[1,1]*t^2", 3)
    assert f.coeff(0) == f4.gen()
    assert f.coeff(2).coeffs == (1, 1)
    assert render_series(f) == "[0,1]+[1,1]*t^2"


def test_literal_errors(f3):
    for bad in ("", "1+", "x", "t^-1", "[1,2]*t", "1**t"):
        with pytest.raises(ParseError):
            parse_series(f3, bad, 4)


def test_literal_truncates_high_terms(f3):
    assert parse_series(f3, "1+t^9", 3) == lit(3, "1", 3)


@st.composite
def series_pair(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    spec = spec_for_order(q)
    prec = draw(st.integers(min_value=1, max_value=8))
    mk = lambda: TruncSeries.from_ranks(
        spec, [draw(st.integers(0, q - 1)) for _ in range(prec)]
    )
    return mk(), mk(), mk()


@settings(max_examples=60, deadline=None)
@given(series_pair())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == TruncSeries.zero(a.spec, a.prec)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 27])
def test_numpy_mul_matches_scalar_path(q):
    spec = spec_for_order(q)
    add, mul = spec.tables.add, spec.tables.mul

    def schoolbook(xr, yr, width):
        out = [0] * width
        for i, a in enumerate(xr):
            for j, b in enumerate(yr):
                if i + j < width:
                    out[i + j] = add[out[i + j]][mul[a][b]]
        return out

    rng = random.Random(3)
    for _ in range(25):
        prec = rng.randrange(2, 40)
        a = random_series(rng, spec, prec)
        b = random_series(rng, spec, prec)
        slow = schoolbook(a.ranks, b.ranks, prec)
        assert list(_mul_ranks_np(spec, a.ranks, b.ranks, prec)) == slow
        assert (a * b).ranks == tuple(slow)
    # the shared kernel on unequal operands, on both sides of the numpy
    # threshold, and with windows up to and past the full product length
    m = _NP_MUL_MIN_PREC
    for na, nb in [(1, 40), (5, 9), (m - 1, m), (m, m), (m, 2 * m), (3, m + 1)]:
        xr = [rng.randrange(q) for _ in range(na)]
        yr = [rng.randrange(q) for _ in range(nb)]
        for width in (1, min(na, nb), na + nb - 1, na + nb + 3):
            slow = schoolbook(xr, yr, width)
            assert mul_ranks(spec, xr, yr, width) == slow
            assert mul_ranks(spec, yr, xr, width) == slow
            fast = _mul_ranks_np(spec, xr, yr, width)
            assert fast == slow and all(type(v) is int for v in fast)


@pytest.mark.parametrize("q", [3, 4, 9])
def test_inverse_round_trip_both_types(q):
    spec = spec_for_order(q)
    rng = random.Random(q)
    for prec in (1, 2, 7, _NP_MUL_MIN_PREC, 30):
        a = random_series(rng, spec, prec, unit=True)
        assert a * a.inverse() == TruncSeries.one(spec, prec)
    for _ in range(20):
        val = rng.randrange(-6, 6)
        ranks = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(rng.randrange(40))]
        windowed = UInftyElem(spec, val, ranks, val + len(ranks))
        assert windowed * windowed.inverse() == UInftyElem.monomial(
            spec, 0, uprec=len(ranks)
        )
        exact = UInftyElem(spec, val, ranks, None)
        window = rng.randrange(1, 40) - val
        assert exact * exact.inverse(uprec=window) == UInftyElem.monomial(
            spec, 0, uprec=window + val
        )


@pytest.mark.parametrize("q", [2, 3, 9])
def test_pow_matches_repeated_product(q):
    spec = spec_for_order(q)
    rng = random.Random(q)
    a = random_series(rng, spec, 7, unit=True)
    acc = TruncSeries.one(spec, 7)
    for n in range(10):
        assert a ** n == acc
        acc = acc * a
    for n in range(1, 4):
        assert a ** -n == (a ** n).inverse()


def test_arithmetic_does_not_revalidate(monkeypatch):
    # internal results are built from trusted ranks, never coefficient by
    # coefficient through FqSpec.element
    spec = spec_for_order(9)
    s = TruncSeries.from_ranks(spec, [1, 4, 0, 7, 2, 8])
    x = UInftyElem(spec, -2, [3, 0, 5, 1, 0, 2, 7], 6)
    y = UInftyElem(spec, 1, [2, 6, 0, 4], 9)
    exact = UInftyElem(spec, 0, [1, 3, 0, 2], None)
    calls = []
    element = FqSpec.element
    monkeypatch.setattr(
        FqSpec, "element", lambda self, v: calls.append(v) or element(self, v)
    )
    s ** 3
    for e in (x, y):
        e + exact, e * exact, e * y, e.scale(5), e.frobenius(), e.inverse()
    exact.frobenius(), exact.inverse(uprec=12), exact + exact
    assert calls == []
