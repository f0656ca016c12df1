import random
from fractions import Fraction

import numpy as np
import pytest

import carlitz.density as density_mod

from carlitz import (
    JetMatrix,
    TruncSeries,
    build_density_table,
    build_tensor_table,
    density_bounds,
    density_estimate,
    extra_indices,
    factor_structured_order,
    galois_rep,
    image_order_brute,
    image_order_formula,
    motivic_group_check,
    spec_for_order,
    tensor_decompose,
    tensor_image_order_brute,
    tensor_image_order_formula,
    tensor_unit_part,
    torsion_level_m,
    unit_count,
    unit_enumerate,
    zariski_rank_certificate,
)
from carlitz.errors import (
    BudgetExceeded,
    CrossCheckMismatch,
    InsufficientPrecision,
    MalformedOrder,
    NonUnit,
)

from conftest import random_series


def test_galois_rep_examples(f2):
    from carlitz import parse_series

    u = parse_series(f2, "1+t+t^2", 3)
    m = galois_rep(u, 1, 2)
    assert [r.ranks for r in m.rows] == [(1, 1), (1, 0)]
    # k = 0 is the 1x1 unit itself
    m0 = galois_rep(parse_series(f2, "1+t", 4), 0, 4)
    assert m0.k == 0 and m0.rows[0] == parse_series(f2, "1+t", 4)
    # a = 1 maps to the identity jet
    one = TruncSeries.one(f2, 5)
    assert galois_rep(one, 2, 3) == JetMatrix.identity(f2, 2, 3)


def test_galois_rep_guards(f2):
    with pytest.raises(NonUnit):
        galois_rep(TruncSeries.monomial(f2, 1, 5), 1, 3)
    with pytest.raises(InsufficientPrecision):
        galois_rep(TruncSeries.one(f2, 3), 2, 3)


def test_galois_rep_rejects_zero_series(f2):
    with pytest.raises(NonUnit):
        galois_rep(TruncSeries.zero(f2, 3), 0, 3)


def test_galois_rep_is_multiplicative(f3):
    rng = random.Random(12)
    for _ in range(30):
        a = random_series(rng, f3, 8, unit=True)
        b = random_series(rng, f3, 8, unit=True)
        lhs = galois_rep(a * b, 2, 6)
        rhs = galois_rep(a, 2, 6) * galois_rep(b, 2, 6)
        assert lhs == rhs


def test_image_order_examples(f2, f3):
    assert image_order_brute(f2, 1, 2) == 2
    assert image_order_brute(f3, 1, 2) == 18
    for n in range(1, 7):
        assert image_order_brute(f2, 0, n) == 2 ** (n - 1)


def test_extra_indices_examples():
    assert extra_indices(2, 1, 2) == []
    assert extra_indices(3, 1, 2) == [2]
    for p in (2, 3, 5):
        for n in range(1, 8):
            assert extra_indices(p, 0, n) == []
        # mod t^0 the jet pins nothing, whatever its order
        for k in range(6):
            assert extra_indices(p, k, 0) == []


def test_brute_equals_formula_small_grid(f2, f3):
    for spec in (f2, f3):
        for k in range(3):
            for n in range(1, 6):
                assert image_order_brute(spec, k, n) == image_order_formula(spec, k, n)


def test_enumeration_precision_sufficiency(f2, f3):
    # recomputing with two extra known coefficients cannot change the count
    for spec in (f2, f3):
        for k in (1, 2):
            for n in (2, 3):
                base = image_order_brute(spec, k, n)
                wide = image_order_brute(spec, k, n, enum_precision=n + k + 2)
                assert base == wide


def test_image_order_thread_invariance(f2, f3):
    a = image_order_brute(f3, 2, 5, threads=1, chunk_size=64)
    b = image_order_brute(f3, 2, 5, threads=4, chunk_size=64)
    c = image_order_brute(f3, 2, 5, threads=1, chunk_size=17)
    assert a == b == c == image_order_formula(f3, 2, 5)
    # wide keys: (k+1)*n one-bit jet entries make 72 and 65 bits, two uint64
    # words per key; (4, 13) also has collisions (D < units)
    for k, n in [(7, 9), (4, 13)]:
        expected = image_order_formula(f2, k, n)
        for threads, chunk_size in [(1, 64), (1, 17), (2, 64)]:
            assert image_order_brute(f2, k, n, threads=threads,
                                     chunk_size=chunk_size) == expected


def test_image_order_brute_merge_path(monkeypatch, f2, f3):
    import carlitz.density as density

    monkeypatch.setattr(density, "_MERGE_ROW_LIMIT", 8)
    for spec, k, n in [(f3, 2, 5), (f2, 0, 12), (f2, 7, 9)]:
        expected = image_order_formula(spec, k, n)
        for threads, chunk_size in [(1, 64), (1, 17), (2, 17), (4, 64)]:
            assert image_order_brute(spec, k, n, threads=threads,
                                     chunk_size=chunk_size) == expected


def test_image_order_brute_merge_is_amortised(monkeypatch, f2):
    # 2048 distinct units in chunks of 16: merging the whole distinct set
    # again after every chunk would sort about 130k keys
    import carlitz.density as density

    sorted_rows = []
    unique_keys = density._unique_keys

    def counting(keys):
        sorted_rows.append(keys.shape[1])
        return unique_keys(keys)

    monkeypatch.setattr(density, "_MERGE_ROW_LIMIT", 8)
    monkeypatch.setattr(density, "_unique_keys", counting)
    assert image_order_brute(f2, 0, 12, chunk_size=16) == 2048
    assert sum(sorted_rows) <= 4 * 2048


def test_image_order_budget(f2):
    with pytest.raises(BudgetExceeded):
        image_order_brute(f2, 0, 40, budget=10 ** 6)


def test_structured_factorization():
    assert factor_structured_order(18, 3, 2) == 2
    assert factor_structured_order(1, 2, 1) == 0
    with pytest.raises(MalformedOrder):
        factor_structured_order(12, 3, 2)
    with pytest.raises(MalformedOrder):
        factor_structured_order(0, 3, 2)


def test_density_bounds_example():
    lo, hi = density_bounds(1, 16, 2)
    assert (lo, hi) == (Fraction(15, 32), Fraction(16, 32))


def test_density_estimate_exact_and_real():
    est = density_estimate(q=2, dim=2, n=16, unit=1, exponent=15)
    assert est.rational == Fraction(15, 32)
    assert est.real == 15 / 32
    est3 = density_estimate(q=3, dim=1, n=4, unit=2, exponent=3)
    assert abs(est3.real - (3 + 0.6309297535714574) / 4) < 1e-12


def test_k0_density_tends_to_one(f3):
    table = build_density_table(f3, 0, 60, mode="formula")
    for row in table.rows:
        est = Fraction(row.delta_num, row.delta_den)
        assert abs(est - 1) <= Fraction(1, row.n)


def test_table_cross_check_mismatch_is_detected(f2, monkeypatch):
    import carlitz.density as dmod

    def bad_formula(spec, k, n):
        return image_order_formula(spec, k, n) + (1 if n == 3 else 0)

    monkeypatch.setattr(dmod, "image_order_formula", bad_formula)
    with pytest.raises(CrossCheckMismatch) as info:
        dmod.build_density_table(f2, 1, 4, mode="both")
    assert info.value.n == 3


def test_torsion_level_examples():
    assert torsion_level_m(2, 1, 1) == 1
    assert torsion_level_m(3, 1, 1) == 2
    assert torsion_level_m(5, 3, 0) == 3
    for p in (2, 3, 5):
        for n in range(8):
            assert torsion_level_m(p, n, 0) == n


def test_torsion_level_range():
    for p in (2, 3):
        for n in range(12):
            for k in range(4):
                m = torsion_level_m(p, n, k)
                assert n <= m <= n + k


def test_tensor_decomposition():
    assert tensor_decompose(2, 2) == (1, 1)
    assert tensor_decompose(9, 3) == (2, 1)
    assert tensor_decompose(6, 3) == (1, 2)
    assert tensor_decompose(9, 2) == (0, 9)
    assert tensor_unit_part(3, 2) == 1
    assert tensor_unit_part(3, 1) == 2


def test_tensor_order_examples(f2, f3):
    assert tensor_image_order_brute(f2, 2, 3) == 2
    assert tensor_image_order_brute(f2, 2, 1) == 1
    assert tensor_image_order_formula(f3, 3, 4) == 6
    assert tensor_image_order_brute(f3, 3, 4) == 6


def test_tensor_squares_q2_n3(f2):
    squares = {(u ** 2).ranks for u in unit_enumerate(f2, 3)}
    assert squares == {(1, 0, 0), (1, 0, 1)}  # {1, 1 + t^2}


def test_tensor_brute_equals_formula(f2, f3):
    for spec in (f2, f3):
        for d in (2, 3, 4, 6):
            for n in range(1, 6):
                assert tensor_image_order_brute(spec, d, n) == \
                    tensor_image_order_formula(spec, d, n)


def test_tensor_density_trends(f2, f3):
    # d prime to p: density 1
    t = build_tensor_table(f3, 2, 40, mode="formula")
    last = t.rows[-1]
    est = density_estimate(3, 1, last.n, t.unit, last.delta_num)
    assert abs(est.real - 1.0) < 0.05
    # q=2, d=2: limit 1/2
    t = build_tensor_table(f2, 2, 200, mode="formula")
    for row in t.rows:
        assert abs(Fraction(row.delta_num, row.delta_den) - Fraction(1, 2)) \
            <= Fraction(2, row.n)
    # q=3, d=9: limit 1/9
    t = build_tensor_table(f3, 9, 200, mode="formula")
    last = t.rows[-1]
    assert abs(Fraction(last.delta_num, last.delta_den) - Fraction(1, 9)) \
        <= Fraction(2, last.n)


def test_tensor_exponent_staircase(f2):
    t = build_tensor_table(f2, 4, 12, mode="formula")
    assert [r.delta_num for r in t.rows] == [(n - 1) // 4 for n in range(1, 13)]


def test_motivic_group_check(f2, f3, f4):
    for spec in (f2, f3, f4):
        for k in (0, 1, 2):
            assert motivic_group_check(spec, k, samples=15)


def test_zariski_trivial_full_rank(f3):
    r = zariski_rank_certificate(f3, 0, 1, 0, 3)
    assert r.full_rank and r.rank == 2


def test_zariski_degenerate_single_unit(f3):
    one = TruncSeries.one(f3, 3)
    r = zariski_rank_certificate(f3, 0, 1, 0, 3, units=[one])
    assert not r.full_rank and r.rank < r.n_columns


def test_zariski_k1_full_rank(f2):
    r = zariski_rank_certificate(f2, 1, 2, 1, 4)
    assert r.full_rank and r.rank == r.n_columns == 12


def test_zariski_k2_truncation_artifact(f2):
    """The one genuinely rank-deficient point in the small parameter box.

    Over F_2 with jets mod t^4 one has D^(1)a = a1 + a3 t^2 and
    D^(2)a = a2 + a3 t, so (1+t)(X1 + X1^2) + t(X2 + X2^2) kills every unit
    mod t^4; the kernel vector leaves at N=5, where its exact evaluation has
    t^4 coefficient a3 + a5.
    """
    r4 = zariski_rank_certificate(f2, 2, 2, 1, 4)
    assert not r4.full_rank and r4.rank == r4.n_columns - 1 == 19
    r5 = zariski_rank_certificate(f2, 2, 2, 1, 5)
    assert r5.full_rank and r5.rank == 20
    # the explicit kernel vector really evaluates to zero mod t^4
    from carlitz.jets import hyperderiv

    one = TruncSeries.one(f2, 4)
    tmon = TruncSeries.monomial(f2, 1, 4)
    for u in unit_enumerate(f2, 6):
        x1 = hyperderiv(1, u).truncate(4)
        x2 = hyperderiv(2, u).truncate(4)
        s1 = x1 + x1 * x1
        s2 = x2 + x2 * x2
        assert (one + tmon) * s1 + tmon * s2 == TruncSeries.zero(f2, 4)


def test_zariski_budget(f2):
    with pytest.raises(BudgetExceeded):
        zariski_rank_certificate(f2, 2, 2, 1, 4, budget=10)


@pytest.mark.parametrize("q, k, deg, tdeg, n, rank", [
    (2, 2, 2, 1, 4, 19),    # the criterion-8 truncation artefact
    (2, 3, 3, 2, 7, 99),
    (3, 1, 2, 1, 3, 12),
])
def test_zariski_rank_independent_of_order(q, k, deg, tdeg, n, rank):
    spec = spec_for_order(q)
    lex = zariski_rank_certificate(spec, k, deg, tdeg, n,
                                   units=list(unit_enumerate(spec, n + k)))
    assert lex.rank == rank
    for seed in (1729, 1, 2, 3):
        r = zariski_rank_certificate(spec, k, deg, tdeg, n, seed=seed)
        assert (r.rank, r.full_rank, r.n_columns) == (lex.rank, lex.full_rank, lex.n_columns)
        assert r.n_units == lex.n_units == unit_count(q, n + k) and not r.sampled


def test_zariski_seeded_order_reaches_rank_in_few_units(monkeypatch):
    # lexicographic order evaluates 5104 of the 13122 units before full rank
    import carlitz.density as density

    calls = []
    galois_rep_ = density.galois_rep

    def counting(a, k, n):
        calls.append(a)
        return galois_rep_(a, k, n)

    monkeypatch.setattr(density, "galois_rep", counting)
    r = zariski_rank_certificate(spec_for_order(3), 3, 3, 2, 6, seed=1729)
    assert r.full_rank and r.rank == 105 and r.n_units == 13122
    assert len(calls) < 100
    assert len({u.ranks for u in calls}) == len(calls)


def test_zariski_rank_progression_q2_k3(f2):
    # a relation mod t^7 that the certificate loses one more coefficient at a time
    assert [zariski_rank_certificate(f2, 3, 3, 2, n).rank for n in (7, 8, 9)] == [99, 104, 105]


def test_unit_ranks_follow_enumeration(f2, f3, f4):
    for spec, m in [(f2, 5), (f3, 4), (f4, 3)]:
        decoded = [tuple(density_mod._unit_ranks(spec.q, m, i))
                   for i in range(unit_count(spec.q, m))]
        assert decoded == [u.ranks for u in unit_enumerate(spec, m)]


def _digit_block_divmod(q, m, start, stop):
    r = np.arange(start, stop, dtype=np.int64)
    out = np.empty((m, stop - start), dtype=np.int64)
    for j in range(m - 1, 0, -1):
        r, out[j] = np.divmod(r, q)
    out[0] = r + 1
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9, 257])
def test_digit_block_matches_divmod(q):
    for m in (1, 2, 3, 6):
        total = unit_count(q, m)
        if total > 1 << 18:
            continue
        for size in (17, 1 << 16):
            starts = list(range(0, total, size))[:40] + [1, 5, q + 2, total - 3]
            for start in starts:
                if 0 <= start < total:
                    stop = min(start + size, total)
                    got = density_mod._digit_block(q, m, start, stop)
                    assert np.array_equal(got, _digit_block_divmod(q, m, start, stop)), \
                        (m, size, start)


def test_image_order_past_byte_ranks():
    # ranks of F_257 do not fit in a byte
    spec = spec_for_order(257, order_bound=300)
    assert image_order_brute(spec, 1, 1) == image_order_formula(spec, 1, 1) == 256 * 257


def test_zariski_sampling_is_deterministic(f2):
    a = zariski_rank_certificate(f2, 1, 2, 1, 4, exhaustive_limit=1, sample_count=40)
    b = zariski_rank_certificate(f2, 1, 2, 1, 4, exhaustive_limit=1, sample_count=40)
    assert a.sampled and a == b


def test_density_band_general_q():
    import math

    for q in (3, 4):
        spec = spec_for_order(q)
        for k in (1, 2):
            table = build_density_table(spec, k, 60, mode="formula")
            for row in table.rows:
                est = density_estimate(q, k + 1, row.n, q - 1, row.delta_num).real
                band = (k + math.log(q - 1, q) + 1) / (row.n * (k + 1))
                assert abs(est - 1 / (k + 1)) <= band + 1e-12


def test_table_builders_rows(f2):
    table = build_density_table(f2, 1, 4)
    assert [r.d_formula for r in table.rows] == [2, 2, 8, 8]
    tensor = build_tensor_table(f2, 2, 4, mode="formula")
    assert [r.d_formula for r in tensor.rows] == [1, 1, 2, 2]
    with pytest.raises(ValueError):
        build_tensor_table(f2, 2, 4, mode="bogus")


def test_image_order_brute_matches_object_path(f2, f3):
    # independent route: build every jet through the series/jet machinery
    # and deduplicate by its canonical key
    for spec, k, n in [(f2, 1, 3), (f2, 2, 3), (f3, 1, 3), (f3, 2, 2)]:
        seen = {galois_rep(u, k, n).key() for u in unit_enumerate(spec, n + k)}
        assert len(seen) == image_order_brute(spec, k, n)


def test_extra_indices_form_initial_segment():
    # Empirical: the pinned indices always fill [N, N+m) with no gaps, so the
    # image is literally the unit group mod t^(N+m).  Nothing in the closed
    # form assumes this; the formula only uses the count.
    for p in (2, 3, 5, 7):
        for k in range(7):
            for n in range(1, 65):
                ex = extra_indices(p, k, n)
                assert ex == list(range(n, n + len(ex)))


@pytest.mark.parametrize("q, d", [
    (3, 6), (4, 2), (4, 3), (4, 4), (5, 5), (7, 7), (8, 2), (8, 4), (9, 3),
    (9, 6), (16, 2), (16, 4), (25, 5), (27, 3), (27, 9),
])
def test_tensor_brute_matches_formula(q, d):
    spec = spec_for_order(q)
    n = 1
    while unit_count(q, n) <= 1 << 17:
        assert tensor_image_order_brute(spec, d, n) == tensor_image_order_formula(spec, d, n)
        n += 1
    assert n > 3


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_tensor_brute_matches_object_path(q):
    spec = spec_for_order(q)
    for d in (2, 3, 4, 6):
        n = 1
        while unit_count(q, n) <= 1000:
            powers = {(a ** d).ranks for a in unit_enumerate(spec, n)}
            assert tensor_image_order_brute(spec, d, n) == len(powers), (d, n)
            n += 1


def test_tensor_brute_guards_before_work(monkeypatch, f2):
    import carlitz.density as density

    def no_blocks(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(density, "_digit_block", no_blocks)
    with pytest.raises(BudgetExceeded):
        tensor_image_order_brute(f2, 2, 40, budget=10 ** 6)
    with pytest.raises(ValueError):
        tensor_image_order_brute(f2, 0, 3)


@pytest.mark.parametrize("q", [5, 7, 8, 9, 16, 25, 27])
def test_brute_equals_formula_wider_fields(q):
    # k runs past p at q=5 and q=9, where binomials vanish mod p
    spec = spec_for_order(q)
    for k in range(spec.p + 2):
        n = 1
        while unit_count(q, n + k) <= 1 << 17:
            assert image_order_brute(spec, k, n) == image_order_formula(spec, k, n), (k, n)
            n += 1


def test_high_order_formula_spot_check(f2):
    # beyond the exhaustive acceptance grid
    for k in (4, 5, 6):
        for n in (2, 4, 6):
            assert image_order_brute(f2, k, n) == image_order_formula(f2, k, n)


def test_table_estimate_method(f3):
    table = build_density_table(f3, 1, 4, mode="formula")
    est = table.estimate(table.rows[1])
    assert est.rational == Fraction(2, 4)
    assert est.unit == 2 and est.q == 3
