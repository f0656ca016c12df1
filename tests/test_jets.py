import random
import re

import pytest

import carlitz.jets
import carlitz.series
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
from carlitz.binomials import binom_mod_p, binom_pascal_oracle
from carlitz.errors import InsufficientPrecision, NonUnit, ShapeMismatch
from carlitz.jets import hyperderiv_ranks

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


JET_FIELDS = [2, 3, 4, 9, 25]


def test_jet_inv_matches_series_inverse():
    a = lit(3, "1+t", 5)
    assert jet(1, a).inverse() == jet(1, a.inverse(), prec=4)
    rng = random.Random(7)
    for q in JET_FIELDS:
        spec = spec_for_order(q)
        for k in range(5):
            for _ in range(5):
                f = random_series(rng, spec, 12, unit=True)
                assert jet(k, f).inverse() == jet(k, f.inverse(), prec=12 - k)


def test_jet_inv_identity_and_constant(f3):
    ident = JetMatrix.identity(f3, 2, 4)
    assert ident.inverse() == ident
    c = jet(1, lit(3, "2", 4))
    assert c.inverse().rows == (lit(3, "2", 3), lit(3, "0", 3))


def test_jet_inv_requires_unit(f2):
    with pytest.raises(NonUnit):
        jet(1, TruncSeries.monomial(f2, 1, 4)).inverse()


def test_jet_inv_roundtrip():
    rng = random.Random(7)
    for q in JET_FIELDS:
        spec = spec_for_order(q)
        for k in range(5):
            for _ in range(8):
                f = random_series(rng, spec, 9, unit=True)
                a = jet(k, f)
                ident = JetMatrix.identity(spec, k, a.prec)
                assert a * a.inverse() == ident and a.inverse() * a == ident


def row_products(a, b):
    """The jet product row by row: one series product and add per term."""
    rows = []
    for j in range(a.k + 1):
        acc = a.rows[0] * b.rows[j]
        for i in range(1, j + 1):
            acc = acc + a.rows[i] * b.rows[j - i]
        rows.append(acc)
    return JetMatrix(rows)


@pytest.mark.parametrize("q", JET_FIELDS)
def test_jet_mul_matches_row_products(q):
    spec = spec_for_order(q)
    rng = random.Random(14)
    for k in range(5):
        for prec in (1, 2, 7, 33):
            f, g = (random_series(rng, spec, prec + k) for _ in range(2))
            a, b = jet(k, f), jet(k, g)
            assert a * b == row_products(a, b)
            assert a * b == jet(k, f * g)


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


def test_hyperderiv_one_coefficient_is_the_rank(f3, f4):
    # at output precision 1 the coefficient is C(n, n) f_n = f_n
    rng = random.Random(15)
    for spec in (f3, f4):
        f = random_series(rng, spec, 12)
        for n in range(11):
            one = hyperderiv(n, f, 1)
            assert one == hyperderiv(n, f, 2).truncate(1)
            assert one.ranks == f.ranks[n:n + 1] and not one.exhausted


def test_verify_taylor_reads_no_binomial_masks(f3, monkeypatch):
    f = random_series(random.Random(16), f3, 12)
    calls = []
    real = carlitz.jets.binom_masks
    monkeypatch.setattr(carlitz.jets, "binom_masks",
                        lambda *a: calls.append(a) or real(*a))
    assert verify_taylor(f)
    assert calls == []


def test_verify_taylor_reads_through_the_operator(f3, monkeypatch):
    # an off-by-one hyperderivative must fail the check: each Taylor
    # coefficient comes from jets.hyperderiv_ranks, not from f's ranks directly
    f = lit(3, "1+t+2*t^2+t^4", 6)
    assert verify_taylor(f)
    real = carlitz.jets.hyperderiv_ranks

    def off_by_one(spec, ranks, orders, prec):
        return real(spec, ranks, [max(n - 1, 0) for n in orders], prec)

    monkeypatch.setattr(carlitz.jets, "hyperderiv_ranks", off_by_one)
    assert not verify_taylor(f)


def _count_series(monkeypatch):
    """Count every TruncSeries built through series._series from here on."""
    built = []
    real = carlitz.series._series

    def spy(spec, ranks):
        built.append(len(ranks))
        return real(spec, ranks)

    for module in (carlitz.series, carlitz.jets):
        monkeypatch.setattr(module, "_series", spy)
    return built


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jet_builds_one_series_per_row(f3, monkeypatch, k):
    # each row is made at the output precision, never made and then cut
    f = random_series(random.Random(11), f3, 12)
    want = jet(k, f, 5)
    built = _count_series(monkeypatch)
    assert jet(k, f, 5) == want
    assert built == [5] * (k + 1)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_jet_mul_builds_one_series_per_row(f3, monkeypatch, k):
    # the k+1 rows come from one cauchy_rows call, reduced to ranks once
    rng = random.Random(17)
    a, b = (jet(k, random_series(rng, f3, 12), 5) for _ in range(2))
    want = row_products(a, b)
    reductions = []
    real = carlitz.series._reduce_lanes
    monkeypatch.setattr(carlitz.series, "_reduce_lanes",
                        lambda *args: reductions.append(1) or real(*args))
    built = _count_series(monkeypatch)
    assert a * b == want
    assert built == [5] * (k + 1)
    assert len(reductions) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_verify_checks_build_no_series(f3, monkeypatch, n):
    # the Leibniz, iteration and Taylor checks compare rank bytes from
    # hyperderiv_ranks; of the calculus, only a jet wraps its rows in series
    rng = random.Random(12)
    f, g = random_series(rng, f3, 9), random_series(rng, f3, 9)
    built = _count_series(monkeypatch)
    assert verify_leibniz(n, f, g)
    assert verify_iteration(n, 1, f) and verify_iteration(1, n, f)
    assert verify_taylor(f)
    assert built == []
    jet(n, f)
    assert built == [9 - n] * (n + 1)


def binomial_oracle(spec, ranks, n, prec):
    """The ranks of D^(n) f, C(i+n, n) f_(i+n), by Lucas and the mul rows."""
    mul = spec.tables.mul
    return bytes(mul[binom_mod_p(i + n, n, spec.p)][ranks[i + n]] for i in range(prec))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
def test_hyperderiv_ranks_match_binomial_oracle(q, monkeypatch):
    spec = spec_for_order(q)
    f = random_series(random.Random(20 + q), spec, 16)
    for n in range(8):
        for prec in range(1, f.prec - n + 1):
            want = binomial_oracle(spec, f.ranks, n, prec)
            assert hyperderiv_ranks(spec, f.ranks, (n,), prec) == [want]
            assert hyperderiv(n, f, prec).ranks == want
        assert hyperderiv(n, f).ranks == binomial_oracle(spec, f.ranks, n, f.prec - n)
    # one call over many orders, out of order and repeated
    for prec in (1, 2, f.prec - 7):
        for orders in ((3, 0, 3), (7, 1, 0, 7, 2), ()):
            assert hyperderiv_ranks(spec, f.ranks, orders, prec) == \
                [binomial_oracle(spec, f.ranks, n, prec) for n in orders]
    # hyperderiv's guards, messages and flag, all before the kernel runs
    calls = []
    real = carlitz.jets.hyperderiv_ranks
    monkeypatch.setattr(carlitz.jets, "hyperderiv_ranks",
                        lambda *a: calls.append(a) or real(*a))
    with pytest.raises(InsufficientPrecision, match=re.escape(
            "D^(3) at output precision 14 needs input precision >= 17, got 16")):
        hyperderiv(3, f, 14)
    with pytest.raises(ValueError, match="derivative order must be nonnegative"):
        hyperderiv(-1, f)
    for prec in (0, -1):
        with pytest.raises(ValueError, match=f"output precision must be >= 1, got {prec}"):
            hyperderiv(2, f, prec)
    for n in (16, 17):
        out = hyperderiv(n, f)
        assert out.exhausted and out.ranks == b"\0"
    assert calls == []


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


def _agrees_with_key(x, y):
    same = x.key() == y.key()
    assert (x == y) is same and (x != y) is not same
    assert (hash(x) == hash(y)) is same
    return same


def test_equality_agrees_with_key(f2, f4):
    # == compares the fields directly; key() is the oracle it must match
    rng = random.Random(18)
    r = bytes(rng.randrange(2) for _ in range(8))
    s2, s4 = TruncSeries.from_ranks(f2, r), TruncSeries.from_ranks(f4, r)
    assert not _agrees_with_key(s2, s4)
    assert _agrees_with_key(s2, TruncSeries.from_ranks(f2, list(r)))
    assert not _agrees_with_key(s2, s2.truncate(7))
    # the same rank bytes in every row, over two fields of characteristic 2
    j2, j4 = jet(2, s2), jet(2, s4)
    assert [a.ranks for a in j2.rows] == [a.ranks for a in j4.rows]
    assert not _agrees_with_key(j2, j4)
    assert not _agrees_with_key(JetMatrix(j2.rows), JetMatrix(j4.rows))
    # the same series at another order or another precision
    assert not _agrees_with_key(jet(1, s2, 5), jet(2, s2, 5))
    assert not _agrees_with_key(jet(1, s2, 5), jet(1, s2, 6))
    # one jet from jet(), from checked rows and from a product
    for spec in (f2, f4):
        f, g = random_series(rng, spec, 9), random_series(rng, spec, 9)
        want = jet(2, f * g)
        rows = [TruncSeries.from_ranks(spec, a.ranks) for a in want.rows]
        for other in (JetMatrix(rows), jet(2, f) * jet(2, g),
                      want * JetMatrix.identity(spec, 2, want.prec)):
            assert _agrees_with_key(want, other)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hyperderiv_one_coefficient_guards(q):
    # output precision 1 meets the same guards, errors and messages as any
    # other output precision
    spec = spec_for_order(q)
    f = random_series(random.Random(19), spec, 7)
    last = hyperderiv(6, f, 1)
    assert last.ranks == f.ranks[6:] and last.prec == 1 and not last.exhausted
    with pytest.raises(InsufficientPrecision, match=re.escape(
            "D^(7) at output precision 1 needs input precision >= 8, got 7")):
        hyperderiv(7, f, 1)
    with pytest.raises(ValueError, match="derivative order must be nonnegative"):
        hyperderiv(-1, f, 1)
