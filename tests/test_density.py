import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import carlitz.density as density_mod

from carlitz import (
    FqSpec,
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
    assert [r.ranks for r in m.rows] == [bytes((1, 1)), bytes((1, 0))]
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
    assert squares == {bytes((1, 0, 0)), bytes((1, 0, 1))}  # {1, 1 + t^2}


def test_tensor_brute_equals_formula(f2, f3):
    for spec in (f2, f3):
        for d in (2, 3, 4, 6, 9, 12):
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


def test_zariski_budget_before_monomials(f2, monkeypatch):
    # (deg+1)^(k+1) = 9^8 exponent tuples: the check must come first
    def boom(n_vars, deg_bound):
        raise AssertionError("monomials built before the budget check")

    monkeypatch.setattr(density_mod, "_monomials", boom)
    with pytest.raises(BudgetExceeded):
        zariski_rank_certificate(f2, 7, 8, 0, 10 ** 4)


def test_zariski_negative_bounds_rejected(f2):
    for args in [(-1, 2, 1), (1, -1, 1), (1, 2, -1)]:
        with pytest.raises(ValueError):
            zariski_rank_certificate(f2, *args, 4)


def test_monomials_are_the_filtered_product_in_order():
    import itertools

    for v in range(5):
        for d in range(5):
            ref = sorted(
                m for m in itertools.product(range(d + 1), repeat=v) if sum(m) <= d
            )
            assert density_mod._monomials(v, d) == ref
    assert len(density_mod._monomials(21, 2)) == 253
    # one entry per variable, past the interpreter's recursion limit
    wide = density_mod._monomials(1500, 1)
    assert len(wide) == 1501
    assert wide[0] == (0,) * 1500 and wide[1] == (0,) * 1499 + (1,)
    assert wide[-1] == (1,) + (0,) * 1499


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


@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 13122])
def test_shuffled_range_is_a_permutation(n):
    for seed in (0, 1, 7, 1729):
        assert sorted(density_mod._shuffled_range(n, random.Random(seed))) == list(range(n))


def test_shuffled_range_draws_lazily():
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    head = list(itertools.islice(density_mod._shuffled_range(13122, CountingRandom(1729)), 40))
    assert len(set(head)) == 40 and len(draws) == 40


def test_zariski_rank_progression_q2_k3(f2):
    # a relation mod t^7 that the certificate loses one more coefficient at a time
    assert [zariski_rank_certificate(f2, 3, 3, 2, n).rank for n in (7, 8, 9)] == [99, 104, 105]


def _zariski_rank_by_entries(spec, k, deg, tdeg, n, units):
    """Rank of the certificate's rows by one table lookup per matrix entry.

    The monomials come in the order of the filtered product and each is a
    power product of the jet rows; the row of unit a at t^i holds, in
    column (m, s), the t^(i-s) coefficient of monomial m at a.  Column
    order does not change the rank.
    """
    monos = [m for m in itertools.product(range(deg + 1), repeat=k + 1) if sum(m) <= deg]
    n_cols = len(monos) * (tdeg + 1)
    t = spec.tables
    pivots, rank = {}, 0
    for a in units:
        rows_jet = galois_rep(a, k, n).rows
        evals = []
        for m in monos:
            acc = TruncSeries.one(spec, n)
            for v, mj in zip(rows_jet, m):
                acc = acc * v ** mj
            evals.append(acc.ranks)
        for i in range(n):
            row = [evals[c // (tdeg + 1)][i - c % (tdeg + 1)] if i >= c % (tdeg + 1) else 0
                   for c in range(n_cols)]
            lead = None
            for col in range(n_cols):
                if row[col]:
                    if col not in pivots:
                        lead = col
                        break
                    f, prow = t.neg[row[col]], pivots[col]
                    for cc in range(col, n_cols):
                        row[cc] = t.add[row[cc]][t.mul[f][prow[cc]]]
            if lead is not None:
                pivots[lead] = [t.mul[t.inv[row[lead]]][x] for x in row]
                rank += 1
                if rank == n_cols:
                    return rank, n_cols
    return rank, n_cols


@pytest.mark.parametrize("q, k, deg, tdeg, n, how", [
    (2, 2, 2, 1, 4, "exhaustive"),   # rank 19 of 20
    (3, 1, 2, 1, 3, "exhaustive"),
    (4, 0, 3, 2, 3, "exhaustive"),   # rank 11 of 12
    (4, 1, 3, 2, 3, "exhaustive"),   # rank 28 of 30
    (8, 1, 2, 1, 2, "exhaustive"),
    (8, 0, 3, 2, 2, "exhaustive"),   # rank 8 of 12: the t^2 columns vanish
    (9, 0, 2, 2, 2, "exhaustive"),   # rank 6 of 9, likewise
    (9, 1, 2, 1, 2, "exhaustive"),
    (4, 1, 3, 2, 3, "sampled"),      # rank 24 of 30 from 12 units
    (8, 1, 2, 1, 2, "sampled"),
    (9, 1, 2, 1, 2, "sampled"),
    (4, 1, 3, 2, 3, "lex"),
    (9, 1, 2, 1, 2, "lex"),
])
def test_zariski_rank_matches_entrywise_elimination(q, k, deg, tdeg, n, how, monkeypatch):
    # the byte-row elimination against one table lookup per entry, on
    # prime and extension fields, full-rank and rank-deficient cells
    spec = spec_for_order(q)
    if how == "exhaustive":
        report = zariski_rank_certificate(spec, k, deg, tdeg, n)
        units = unit_enumerate(spec, n + k)
    elif how == "lex":
        units = list(unit_enumerate(spec, n + k))
        report = zariski_rank_certificate(spec, k, deg, tdeg, n, units=units)
    else:
        units = []
        galois_rep_ = density_mod.galois_rep

        def recording(a, k, n):
            units.append(a)
            return galois_rep_(a, k, n)

        monkeypatch.setattr(density_mod, "galois_rep", recording)
        report = zariski_rank_certificate(spec, k, deg, tdeg, n,
                                          exhaustive_limit=1, sample_count=12)
        monkeypatch.undo()
        assert report.sampled
    rank, n_cols = _zariski_rank_by_entries(spec, k, deg, tdeg, n, units)
    assert (report.rank, report.full_rank, report.n_columns) == (rank, rank == n_cols, n_cols)


def test_digit_block_columns_follow_enumeration(f2, f3, f4):
    # the order both brute counts and the rank certificate rely on
    for spec, m in [(f2, 5), (f3, 4), (f4, 3)]:
        block = density_mod._digit_block(spec.q, m, 0, unit_count(spec.q, m))
        assert [bytes(col) for col in block.T.tolist()] == \
            [u.ranks for u in unit_enumerate(spec, m)]


def _digit_block_divmod(q, m, start, stop):
    r = np.arange(start, stop, dtype=np.int64)
    out = np.empty((m, stop - start), dtype=np.int64)
    for j in range(m - 1, 0, -1):
        r, out[j] = np.divmod(r, q)
    out[0] = r + 1
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9, 256])
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
    # the ranks of F_256 fill a byte, and the order D = 255 * 256 passes it
    spec = FqSpec(2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))  # x^8+x^4+x^3+x+1
    assert image_order_brute(spec, 1, 1) == image_order_formula(spec, 1, 1) == 255 * 256


def test_zariski_sampling_is_deterministic(f2):
    a = zariski_rank_certificate(f2, 1, 2, 1, 4, exhaustive_limit=1, sample_count=40)
    b = zariski_rank_certificate(f2, 1, 2, 1, 4, exhaustive_limit=1, sample_count=40)
    assert a.sampled and a == b


def test_zariski_draws_sampled_units_lazily(f2, monkeypatch):
    # one column reaches full rank on the first unit, so only that unit's
    # 50 coefficients are drawn, not all 512 units'
    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(random, "Random", CountingRandom)
    report = zariski_rank_certificate(f2, 0, 0, 0, 50, exhaustive_limit=1)
    assert report.sampled and report.full_rank and report.n_units == 512
    assert len(draws) == 50


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
    for d in (2, 3, 4, 6, 9, 12):
        n = 1
        while unit_count(q, n) <= 1000:
            powers = {(a ** d).ranks for a in unit_enumerate(spec, n)}
            assert tensor_image_order_brute(spec, d, n) == len(powers), (d, n)
            n += 1


def _power_block_by_products(tables, block, d):
    """Column c of block to the d-th power by binary powering with _mul_block alone."""
    power = None
    while True:
        if d & 1:
            power = block if power is None else density_mod._mul_block(tables, power, block)
        d >>= 1
        if not d:
            return power
        block = density_mod._mul_block(tables, block, block)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27])
def test_power_block_matches_products(q):
    # d = 6, 10, 12, 18 put a p-part P > 1 beside a d' > 1; in the
    # extension fields f mod e runs over every Frobenius x -> x^(p^g)
    spec = spec_for_order(q)
    for n in range(1, 11):
        total = unit_count(q, n)
        if total > 1 << 15:
            break
        block = density_mod._digit_block(q, n, 0, total)
        assert density_mod._power_block(spec, block, 1) is block
        for d in (1, 2, 3, 4, 6, 9, 10, 12, 18, 25, 27):
            got = density_mod._power_block(spec, block, d)
            want = _power_block_by_products(spec.tables, block, d)
            assert got.dtype == want.dtype and np.array_equal(got, want), (d, n)
    assert n > 3


def test_tensor_brute_takes_the_p_part_by_frobenius(f3, monkeypatch):
    rows = []
    mul_block = density_mod._mul_block

    def spy(tables, x, y):
        rows.append((len(x), len(y)))
        return mul_block(tables, x, y)

    monkeypatch.setattr(density_mod, "_mul_block", spy)
    assert tensor_image_order_brute(f3, 3, 10) == tensor_image_order_formula(f3, 3, 10)
    assert rows == []
    # d = 3 * 2: only the first ceil(10/3) = 4 coefficients are squared
    assert tensor_image_order_brute(f3, 6, 10) == tensor_image_order_formula(f3, 6, 10)
    assert rows and set(rows) == {(4, 4)}


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
