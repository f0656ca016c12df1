import random

import pytest

import carlitz.jets
from carlitz import (
    JetMatrix,
    TruncSeries,
    hyperderiv,
    jet,
    parse_series,
    spec_for_order,
    verify_iteration,
    verify_leibniz,
    verify_taylor,
)
from carlitz.binomials import binom_pascal_oracle
from carlitz.errors import InsufficientPrecision, NonUnit, ShapeMismatch

from conftest import random_series


def lit(q, text, prec):
    return parse_series(spec_for_order(q), text, prec)


def test_hyperderiv_examples(f2, f3):
    assert hyperderiv(1, TruncSeries.monomial(f3, 2, 4)) == lit(3, "2*t", 3)
    assert hyperderiv(1, TruncSeries.monomial(f2, 2, 4)) == lit(2, "0", 3)
    # C(3,2) = 3 = 1 mod 2, cross-checked against the Pascal oracle
    assert binom_pascal_oracle(3, 2, 2) == 1
    assert hyperderiv(2, TruncSeries.monomial(f2, 3, 5)) == lit(2, "t", 3)


def test_hyperderiv_linearity(f3):
    rng = random.Random(4)
    for _ in range(30):
        f, g = random_series(rng, f3, 10), random_series(rng, f3, 10)
        n = rng.randrange(4)
        c = rng.randrange(3)
        assert hyperderiv(n, f + g) == hyperderiv(n, f) + hyperderiv(n, g)
        assert hyperderiv(n, f.scale(c)) == hyperderiv(n, f).scale(c)


def test_precision_exhausted_flag(f2):
    out = hyperderiv(5, TruncSeries.one(f2, 3))
    assert out.exhausted and out.prec == 1 and out.ranks == b"\0"
    assert hyperderiv(3, TruncSeries.one(f2, 3)).exhausted
    assert not hyperderiv(2, TruncSeries.one(f2, 3)).exhausted
    # an explicit output precision is a request, never a flagged zero
    assert not hyperderiv(2, TruncSeries.one(f2, 3), 1).exhausted
    for n in (3, 5):
        with pytest.raises(InsufficientPrecision):
            hyperderiv(n, TruncSeries.one(f2, 3), 1)


def test_jet_basic_shapes(f3):
    f = random_series(random.Random(5), f3, 6)
    j = jet(2, f)
    assert j.k == 2 and j.prec == 4
    assert jet(0, f).rows == (f,)


def test_jet_of_constant(f3):
    j = jet(2, TruncSeries.one(f3, 5))
    assert j.rows[0] == TruncSeries.one(f3, 3)
    assert j.rows[1] == TruncSeries.zero(f3, 3)
    assert j.rows[2] == TruncSeries.zero(f3, 3)


def test_jet_carlitz_action_matrix(f3):
    # the order-1 jet of t - c for a constant c has rows (t - c, 1)
    f = lit(3, "2+t", 3)  # t - 1 with -1 = 2
    j = jet(1, f)
    assert j.rows == (lit(3, "2+t", 2), lit(3, "1", 2))


def test_jet_insufficient_precision(f3):
    with pytest.raises(InsufficientPrecision):
        jet(3, TruncSeries.one(f3, 3))
    with pytest.raises(InsufficientPrecision):
        jet(1, TruncSeries.one(f3, 3), prec=3)


def test_jet_mul_example(f3):
    a = jet(1, TruncSeries.monomial(f3, 1, 4))  # rows (t, 1) at prec 3
    sq = a * a
    assert sq.rows == (lit(3, "t^2", 3), lit(3, "2*t", 3))
    assert sq == jet(1, TruncSeries.monomial(f3, 2, 4))


def test_jet_mul_identity(f4):
    rng = random.Random(6)
    f = random_series(rng, f4, 7)
    a = jet(2, f)
    ident = JetMatrix.identity(f4, 2, a.prec)
    assert a * ident == a and ident * a == a


def test_jet_hom_derived_example(f3):
    f, g = lit(3, "1+t", 4), lit(3, "1+2*t", 4)
    lhs = jet(2, f * g)
    rhs = jet(2, f) * jet(2, g)
    assert lhs == rhs
    assert lhs.rows == (lit(3, "1", 2), lit(3, "t", 2), lit(3, "2", 2))


def test_jet_mul_shape_mismatch(f2, f3):
    with pytest.raises(ShapeMismatch):
        jet(1, TruncSeries.one(f2, 4)) * jet(2, TruncSeries.one(f2, 5))
    with pytest.raises(ShapeMismatch):
        jet(1, TruncSeries.one(f2, 4)) * jet(1, TruncSeries.one(f3, 4))


def test_jet_inv_matches_series_inverse(f3):
    a = lit(3, "1+t", 5)
    assert jet(1, a).inverse() == jet(1, a.inverse(), prec=4)


def test_jet_inv_identity_and_constant(f3):
    ident = JetMatrix.identity(f3, 2, 4)
    assert ident.inverse() == ident
    c = jet(1, lit(3, "2", 4))
    assert c.inverse().rows == (lit(3, "2", 3), lit(3, "0", 3))


def test_jet_inv_requires_unit(f2):
    with pytest.raises(NonUnit):
        jet(1, TruncSeries.monomial(f2, 1, 4)).inverse()


def test_jet_inv_roundtrip(f4):
    rng = random.Random(7)
    for _ in range(20):
        f = random_series(rng, f4, 8, unit=True)
        a = jet(3, f)
        assert a * a.inverse() == JetMatrix.identity(f4, 3, a.prec)


def test_verify_iteration_char2(f2):
    f = random_series(random.Random(8), f2, 10)
    assert verify_iteration(1, 1, f)  # D1 D1 = C(2,1) D2 = 0
    assert hyperderiv(1, hyperderiv(1, f)) == TruncSeries.zero(f2, 8)


def test_verify_leibniz_with_one(f3):
    rng = random.Random(9)
    for n in range(4):
        f = random_series(rng, f3, 9)
        assert verify_leibniz(n, f, TruncSeries.one(f3, 9))


def test_verify_taylor_polynomial(f3):
    assert verify_taylor(lit(3, "1+t+t^2", 5))


def test_verify_taylor_reads_through_the_operator(f3, monkeypatch):
    # an off-by-one hyperderivative must fail the check: each Taylor
    # coefficient comes from jets.hyperderiv, not from f's ranks directly
    f = lit(3, "1+t+2*t^2+t^4", 6)
    assert verify_taylor(f)
    real = carlitz.jets.hyperderiv
    monkeypatch.setattr(
        carlitz.jets, "hyperderiv",
        lambda n, g, prec=None: real(max(n - 1, 0), g, prec),
    )
    assert not verify_taylor(f)


def _count_series(monkeypatch):
    """Count every TruncSeries built through from_ranks from here on."""
    built = []
    real = TruncSeries.__dict__["from_ranks"].__func__

    def spy(cls, spec, ranks, **kw):
        built.append(len(ranks))
        return real(cls, spec, ranks, **kw)

    monkeypatch.setattr(TruncSeries, "from_ranks", classmethod(spy))
    return built


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jet_builds_one_series_per_row(f3, monkeypatch, k):
    # each row is made at the output precision, never made and then cut
    f = random_series(random.Random(11), f3, 12)
    want = jet(k, f, 5)
    built = _count_series(monkeypatch)
    assert jet(k, f, 5) == want
    assert built == [5] * (k + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_leibniz_builds_one_series_per_factor(f3, monkeypatch, n):
    # f*g, D^(n)(fg), the zero, and per i the two factors, their product
    # and the running sum: each at its final precision
    rng = random.Random(12)
    f, g = random_series(rng, f3, 9), random_series(rng, f3, 9)
    built = _count_series(monkeypatch)
    assert verify_leibniz(n, f, g)
    assert len(built) == 3 + 4 * (n + 1)
    assert built.count(9) == 1 and built.count(9 - n) == len(built) - 1


def test_verify_insufficient_precision(f3):
    with pytest.raises(InsufficientPrecision):
        verify_iteration(2, 2, TruncSeries.one(f3, 3))
    with pytest.raises(InsufficientPrecision):
        verify_leibniz(4, TruncSeries.one(f3, 4), TruncSeries.one(f3, 4))


def test_entries_layout(f3):
    f = lit(3, "1+t", 5)
    j = jet(2, f)
    m = j.entries()
    for r in range(3):
        for c in range(3):
            expected = j.rows[c - r] if c >= r else TruncSeries.zero(f3, j.prec)
            assert m[r][c] == expected
