import itertools
import math
import random
from fractions import Fraction
from functools import reduce
from operator import or_

import numpy as np
import pytest

import carlitz.density as density_mod
from carlitz.binomials import binom_row

from carlitz import (
    DensityEstimate,
    FqSpec,
    JetMatrix,
    TruncSeries,
    build_density_table,
    build_tensor_table,
    density_bounds,
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
    SpecMismatch,
)

from conftest import kernel_spec, mutated, random_series


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


def test_image_order_thread_invariance(f2, f3):
    for threads in (1, 2, 4):
        assert image_order_brute(f3, 2, 5, threads=threads) == image_order_formula(f3, 2, 5)
    # wide keys: (k+1)*n one-bit jet entries make 72 and 65 bits, two uint64
    # words per key; (4, 13) also has collisions (D < units)
    for k, n in [(7, 9), (4, 13)]:
        expected = image_order_formula(f2, k, n)
        for threads in (1, 2):
            assert image_order_brute(f2, k, n, threads=threads) == expected


def test_image_order_brute_merge_path(monkeypatch, f2, f3, f4):
    # the tensor count at d' > 1 marks unit numbers chunk by chunk: chunks
    # of 64 and 17 units; F_3 squares and F_4 cubes collide (D < units),
    # F_2 cubes do not
    for spec, d, n in [(f3, 2, 6), (f4, 3, 5), (f2, 3, 10)]:
        expected = tensor_image_order_formula(spec, d, n)
        for chunk_size in (64, 17):
            monkeypatch.setattr(density_mod, "_TENSOR_CHUNK", chunk_size)
            assert tensor_image_order_brute(spec, d, n) == expected, (spec.q, d, n, chunk_size)


@pytest.mark.parametrize("width", [8, None])
@pytest.mark.parametrize("words", [1, 2, 3])
def test_count_distinct_keys_matches_set(words, width):
    # one table's distinct count against a set of the same int keys of
    # 64*words bits: repeated from a pool of eight values (width 8) or from
    # a wide pool (None: half the keys plus two), with 0 and the all-ones
    # key in both.  Column 0 of table 0 holds a key outside the pool, which
    # the count must not read.
    rng = random.Random(words)
    top = (1 << 64 * words) - 1
    for total in (1, 2, 15, 16, 17, 83, 640):
        pool_width = width or total // 2 + 2
        pool = [0, top, *(rng.getrandbits(64 * words) for _ in range(pool_width - 2))]
        keys = [rng.choice(pool) for _ in range(total)]
        assert density_mod._distinct_ors([[top + 1, *keys]]) == len(set(keys)), \
            (total, pool_width)


def test_one_chunk_count_takes_one_set_per_table(monkeypatch, f4):
    # q=4, k=3, N=7: the count is the product of the distinct columns of
    # the ten coefficient tables (table 0 at ranks 1..3), so the only sets
    # are their ten, with no set of the 49,152 unit keys, whatever the
    # thread count.  D = 3 * 4^7: coefficient 0 gives 3, coefficients 1..7
    # give 4 each, and 8 and 9, which the jet mod t^7 cannot see
    # (extra_indices pins only 7), give 1.
    widths, sizes = [], []

    def spy(items):
        items = list(items)
        out = set(items)
        widths.append(len(items))
        sizes.append(len(out))
        return out

    monkeypatch.setattr(density_mod, "set", spy, raising=False)
    assert extra_indices(2, 3, 7) == [7]
    for threads in (1, 2):
        widths.clear()
        sizes.clear()
        assert image_order_brute(f4, 3, 7, threads=threads) == image_order_formula(f4, 3, 7)
        assert widths == [3] + [4] * 9
        assert sizes == [3] + [4] * 7 + [1] * 2


def test_image_order_budget(f2):
    with pytest.raises(BudgetExceeded):
        image_order_brute(f2, 0, 40, budget=10 ** 6)


def test_brute_budgets_fail_before_any_table(monkeypatch, f2):
    # the work scales with the distinct keys, not the units, so the unit
    # budget must still fail first: no table is built, deduplicated or OR-ed
    def no_work(*args):
        raise AssertionError("tables were built before the budget check")

    for name in ("binom_row", "_distinct_ors"):
        monkeypatch.setattr(density_mod, name, no_work)
    with pytest.raises(BudgetExceeded):
        image_order_brute(f2, 0, 40, budget=10 ** 6)
    # d = 2 = p over F_2 goes through the per-coefficient tables too
    with pytest.raises(BudgetExceeded):
        tensor_image_order_brute(f2, 2, 40, budget=10 ** 6)


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
    est = DensityEstimate(q=2, unit=1, exponent=15, denominator=16 * 2)
    assert est.rational == Fraction(15, 32)
    assert est.real == 15 / 32
    est3 = DensityEstimate(q=3, unit=2, exponent=3, denominator=4)
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
    est = DensityEstimate(q=3, unit=t.unit, exponent=last.delta_num, denominator=last.n)
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
    for args in [(-1, 2, 1, 4), (1, -1, 1, 4), (1, 2, -1, 4), (1, 2, 1, 0), (1, 2, 1, -1)]:
        with pytest.raises(ValueError):
            zariski_rank_certificate(f2, *args)
    # n < 1 is an argument error, found before the budget check: n = 0
    # needs 0 rows, over a budget of -1
    with pytest.raises(ValueError):
        zariski_rank_certificate(f2, 1, 2, 1, 0, budget=-1)


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
    # lexicographic order evaluates 5104 of the 13122 units before full rank;
    # the seeded order reaches it after 19, inside the blocks 18 and 36
    drawn = []
    shuffled_range = density_mod._shuffled_range

    def recording(n, rng):
        for i in shuffled_range(n, rng):
            drawn.append(i)
            yield i

    monkeypatch.setattr(density_mod, "_shuffled_range", recording)
    r = zariski_rank_certificate(spec_for_order(3), 3, 3, 2, 6, seed=1729)
    assert r.full_rank and r.rank == 105 and r.n_units == 13122
    assert 0 < len(drawn) < 100
    assert len(set(drawn)) == len(drawn)


def _certificate_blocks(monkeypatch, *args, **kwargs):
    """The report and the units in each block _certificate_rows is given."""
    blocks, rows = [], density_mod._certificate_rows

    def spy(spec, k, n, monos, tdeg_bound, chunk):
        blocks.append(len(chunk) // (n + k))
        return rows(spec, k, n, monos, tdeg_bound, chunk)

    monkeypatch.setattr(density_mod, "_certificate_rows", spy)
    return zariski_rank_certificate(*args, **kwargs), blocks


def test_certificate_blocks_start_at_the_rank_bound(monkeypatch, f2):
    # 105 columns and 6 rows a unit: fewer than 18 units never reach full rank
    r, blocks = _certificate_blocks(monkeypatch, spec_for_order(3), 3, 3, 2, 6)
    assert r.full_rank and blocks == [18, 36]
    # the criterion-8 cell, 20 columns and 4 rows a unit, never reaches full
    # rank: blocks from 5 units, doubled, then the rest of its 32 units
    r, blocks = _certificate_blocks(monkeypatch, f2, 2, 2, 1, 4)
    assert (r.rank, r.full_rank) == (19, False) and blocks == [5, 10, 17]
    # 264 columns and one row a unit: the bound is past _CERT_BLOCK, so the
    # blocks hold 256 units from the start; rank 46 of 264 over 512 units
    r, blocks = _certificate_blocks(monkeypatch, f2, 9, 2, 3, 1)
    assert (r.rank, r.n_columns, r.n_units) == (46, 264, 512)
    assert density_mod._CERT_BLOCK == 256 and blocks == [256, 256]
    # explicit units fewer than the bound are evaluated in one block
    units = list(unit_enumerate(spec_for_order(3), 9))[::997]
    r, blocks = _certificate_blocks(monkeypatch, spec_for_order(3), 3, 3, 2, 6,
                                    units=units)
    assert len(units) == 14 and blocks == [14] and not r.full_rank


def test_certificate_decodes_only_the_units_it_draws(monkeypatch, f2):
    # the exhaustive source decodes each block's unit numbers when the
    # block is built: 54 of the 13122 units of the certify cell, where
    # decoding every unit up front took all of them; a cell that never
    # reaches full rank decodes every unit once
    decoded, unit_digits = [], density_mod._unit_digits

    def spy(q, m, numbers):
        decoded.extend(np.asarray(numbers).tolist())
        return unit_digits(q, m, numbers)

    monkeypatch.setattr(density_mod, "_unit_digits", spy)
    r, blocks = _certificate_blocks(monkeypatch, spec_for_order(3), 3, 3, 2, 6)
    assert r.full_rank and r.n_units == 13122 and sum(blocks) == 54
    assert len(decoded) == len(set(decoded)) == 54
    for spec, cell, rank in [(f2, (2, 2, 1, 4), (19, 20)),
                             (spec_for_order(3), (2, 4, 2, 5), (101, 105))]:
        decoded.clear()
        r = zariski_rank_certificate(spec, *cell)
        assert (r.rank, r.n_columns) == rank and not r.full_rank
        assert sorted(decoded) == list(range(r.n_units)), cell


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
    # one-byte lanes past F_4 and F_9, two-byte lanes from p = 131, and
    # extension fields of one to eight digits a column
    (5, 1, 2, 1, 2, "exhaustive"),
    (7, 0, 3, 2, 2, "exhaustive"),   # rank 8 of 12
    (25, 0, 2, 1, 2, "exhaustive"),
    (27, 1, 2, 1, 1, "exhaustive"),  # rank 6 of 12: the t^1 columns vanish
    (127, 0, 3, 1, 1, "exhaustive"),  # rank 4 of 8, likewise
    (131, 0, 2, 0, 2, "exhaustive"),
    (251, 0, 2, 1, 1, "exhaustive"),  # rank 3 of 6
    ("2^8", 0, 3, 1, 1, "exhaustive"),  # rank 4 of 8
    ("3^5", 0, 2, 1, 1, "exhaustive"),  # rank 3 of 6
    ("7^2", 0, 2, 1, 2, "exhaustive"),
    (5, 1, 3, 2, 3, "sampled"),
    (7, 1, 3, 2, 3, "sampled"),
    (25, 1, 3, 2, 3, "sampled"),
    (27, 1, 3, 2, 3, "sampled"),
    (127, 1, 2, 1, 3, "sampled"),
    (131, 1, 2, 1, 2, "sampled"),
    (251, 1, 3, 1, 3, "sampled"),
    ("2^8", 1, 2, 1, 3, "sampled"),
    ("3^5", 1, 3, 2, 3, "sampled"),
    ("7^2", 1, 3, 2, 3, "sampled"),
    (131, 0, 3, 1, 2, "lex"),
])
def test_zariski_rank_matches_entrywise_elimination(q, k, deg, tdeg, n, how, monkeypatch):
    # the lane-packed elimination against one table lookup per entry, on
    # prime and extension fields, full-rank and rank-deficient cells
    spec = kernel_spec(q)
    if how == "exhaustive":
        report = zariski_rank_certificate(spec, k, deg, tdeg, n)
        units = unit_enumerate(spec, n + k)
    elif how == "lex":
        units = list(unit_enumerate(spec, n + k))
        report = zariski_rank_certificate(spec, k, deg, tdeg, n, units=units)
    else:
        # the sampled units are the seeded generator's draws, n+k per unit
        draws = []

        class Recording(random.Random):
            def randrange(self, *args):
                draws.append(super().randrange(*args))
                return draws[-1]

        monkeypatch.setattr(density_mod.random, "Random", Recording)
        report = zariski_rank_certificate(spec, k, deg, tdeg, n,
                                          exhaustive_limit=1, sample_count=12)
        monkeypatch.undo()
        assert report.sampled and draws and len(draws) % (n + k) == 0
        units = [TruncSeries.from_ranks(spec, draws[i:i + n + k])
                 for i in range(0, len(draws), n + k)]
        assert len(units) == 12 or report.full_rank
    rank, n_cols = _zariski_rank_by_entries(spec, k, deg, tdeg, n, units)
    assert (report.rank, report.full_rank, report.n_columns) == (rank, rank == n_cols, n_cols)


# each mutation of _row_rank's source, as (old text, new text); the
# lead's lane and the multiples' key only matter past one digit and past
# lead 1, so the cells span extension fields and two-byte lanes.  A mutant
# that never clears its lead raises ArithmeticError, as _row_rank does on
# any step that leaves the row as wide, instead of spinning
_ROW_RANK_MUTATIONS = {
    "no lane reduction": ("s -= p * (((s + bias[width]) >> flag) & ones[width])", "pass"),
    "flag bit off by one": ("col, flag = lanes.col, lanes.flag",
                            "col, flag = lanes.col, lanes.flag - 1"),
    "lead from the wrong lane": ("top = s >> col * (width - 1)",
                                 "top = s >> col * (width - 1) & (1 << lanes.lane) - 1"),
    "multiples cached without the lead": (
        "m = pivot[1].get(top)\n                if m is None:\n                    m = pivot[1][top]",
        "m = pivot[1].get(0)\n                if m is None:\n                    m = pivot[1][0]"),
}


@pytest.mark.parametrize("mutation", list(_ROW_RANK_MUTATIONS))
def test_certificate_elimination_mutations_fail(mutation, monkeypatch):
    # 12 seeded units on each field against the entrywise elimination: a
    # copy of the real source agrees on every cell, each mutant differs or
    # raises on at least one
    rng = random.Random(31)
    cells = []
    for name in (2, 3, 5, 9, 27, 131, 251, "2^8", "7^2"):
        spec = kernel_spec(name)
        for k, deg, tdeg, n in [(1, 2, 1, 3), (0, 3, 2, 2)]:
            units = [random_series(rng, spec, n + k, unit=True) for _ in range(12)]
            cells.append((spec, k, deg, tdeg, n, units,
                          _zariski_rank_by_entries(spec, k, deg, tdeg, n, units)[0]))

    def caught():
        out = 0
        for spec, k, deg, tdeg, n, units, rank in cells:
            try:
                out += zariski_rank_certificate(spec, k, deg, tdeg, n, units=units).rank != rank
            except (KeyError, ArithmeticError):
                out += 1
        return out

    old, new = _ROW_RANK_MUTATIONS[mutation]
    real = density_mod._row_rank
    copy, mutant = mutated(real, old, old), mutated(real, old, new)
    monkeypatch.setattr(density_mod, "_row_rank", copy)
    assert caught() == 0
    monkeypatch.setattr(density_mod, "_row_rank", mutant)
    assert caught() > 0


@pytest.mark.parametrize("name", [3, 131, "7^2"])
def test_row_rank_raises_on_a_step_that_keeps_the_lead(name):
    # with every inverse read as 0 each pivot is scaled to zero, so no step
    # clears a lead: the elimination must raise, not spin.  An alarm in this
    # process turns a spin into a failure after one second.
    import signal

    spec = kernel_spec(name)
    broken = FqSpec(spec.p, spec.e, spec.defining_poly)
    broken._tables = spec.tables._replace(inv=bytes(256))
    rows = np.array([[1, 2, 0], [2, 1, 1]], dtype=np.uint8)

    def spin(signum, frame):
        raise TimeoutError("_row_rank still running after one second")

    previous = signal.signal(signal.SIGALRM, spin)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ArithmeticError, match="elimination step"):
            density_mod._row_rank(broken, [rows], 3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert density_mod._row_rank(spec, [rows], 3) == 2


def test_zariski_explicit_units(f2, f3):
    k, deg, tdeg, n = 2, 2, 1, 4
    # every other unit of the criterion-8 cell: 16 units, one more than the
    # blocks 5 and 10 hold, and never full rank, so every block is drawn
    units = list(unit_enumerate(f2, n + k))[::2]
    report = zariski_rank_certificate(f2, k, deg, tdeg, n, units=units)
    rank, n_cols = _zariski_rank_by_entries(f2, k, deg, tdeg, n, units)
    assert (report.rank, report.n_columns, report.n_units) == (rank, n_cols, 16)
    assert not report.full_rank and not report.sampled
    # a generator of the same units gives the same report
    gen = zariski_rank_certificate(f2, k, deg, tdeg, n, units=(u for u in units))
    assert gen == report
    # units known past n+k give the report of their truncations
    longer = [TruncSeries.from_ranks(f2, u.ranks + bytes([1, 1])) for u in units]
    assert zariski_rank_certificate(f2, k, deg, tdeg, n, units=longer) == report
    with pytest.raises(NonUnit):
        zariski_rank_certificate(f2, k, deg, tdeg, n,
                                 units=units[:3] + [TruncSeries.monomial(f2, 1, n + k)])
    with pytest.raises(InsufficientPrecision):
        zariski_rank_certificate(f2, k, deg, tdeg, n,
                                 units=units[:3] + [TruncSeries.one(f2, n + k - 1)])
    with pytest.raises(SpecMismatch):
        zariski_rank_certificate(f2, k, deg, tdeg, n, units=[TruncSeries.one(f3, n + k)])


def test_zariski_exhaustive_run_uses_no_series_kernels(monkeypatch):
    # the block rows come from the numpy field tables alone: no series
    # product and no hyperderivative, even when every unit is evaluated
    import carlitz.jets as jets_mod
    import carlitz.series as series_mod

    calls = []
    for mod, name in [(series_mod, "mul_ranks"), (jets_mod, "hyperderiv"),
                      (jets_mod, "hyperderiv_ranks")]:
        def spy(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    spec = spec_for_order(2)
    r = zariski_rank_certificate(spec, 2, 2, 1, 4)
    assert (r.rank, r.n_columns, r.sampled) == (19, 20, False)
    assert calls == []
    # the spies do see the object path
    galois_rep(TruncSeries.one(spec, 6), 2, 4).rows[1] * TruncSeries.one(spec, 4)
    assert set(calls) == {"mul_ranks", "hyperderiv_ranks"}


def _object_rows(spec, k, n, monos, tdeg, units):
    """The certificate's rows through series objects, unit by unit.

    The jet comes from galois_rep, each monomial is a TruncSeries product of
    powers of its rows, and row i of a unit joins, for s from tdeg down to
    0, each monomial's coefficient at t^(i-s) (zero below t^0).
    """
    pad, one, out = bytes(tdeg), TruncSeries.one(spec, n), []
    for a in units:
        rows_jet = galois_rep(a, k, n).rows
        evals = []
        for m in monos:
            acc = one
            for v, mj in zip(rows_jet, m):
                acc = acc * v ** mj
            evals.append(pad + acc.ranks)
        out += [bytes(e[i + tdeg - s] for s in range(tdeg, -1, -1) for e in evals)
                for i in range(n)]
    return out


def _certificate_rows_by_monomial(spec, k, n, monos, tdeg, chunk):
    """_certificate_rows with one _mul_block product per monomial: the
    monomial one lower in its last nonzero variable j times jet row j."""
    block = np.frombuffer(chunk, dtype=np.uint8).reshape(-1, n + k).T
    tables, units = spec.tables, block.shape[1]
    jets = [tables.mul_np[np.array(binom_row(spec.p, j, n)[:n])[:, None], block[j:j + n]]
            for j in range(k + 1)]
    at = {m: c for c, m in enumerate(monos)}
    evals = np.zeros((len(monos), n, units), dtype=np.uint8)
    evals[0, 0] = 1
    for c, m in enumerate(monos[1:], 1):
        j = max(i for i, mj in enumerate(m) if mj)
        evals[c] = density_mod._mul_block(tables, evals[at[m[:j] + (m[j] - 1,) + m[j + 1:]]],
                                          jets[j])
    rows = np.zeros((units, n, tdeg + 1, len(monos)), dtype=np.uint8)
    for s in range(min(tdeg + 1, n)):
        rows[:, s:, tdeg - s] = evals[:, :n - s].transpose(2, 1, 0)
    return rows.reshape(units * n, -1)


@pytest.mark.parametrize("name", [2, 3, 4, 5, 8, 9, 27, "7^2", 131])
def test_certificate_rows_match_object_rows(name):
    # the batched block rows against the object path, row for row, and
    # against one product per monomial, byte for byte, for every unit: all
    # units where there are at most 200, else 40 seeded ones
    spec = kernel_spec(name)
    rng = random.Random(17)
    for k, deg, tdeg, n in [(0, 3, 2, 3), (1, 2, 1, 3), (2, 2, 2, 2), (1, 3, 3, 2),
                            (2, 0, 1, 2), (0, 1, 0, 1)]:
        monos = density_mod._monomials(k + 1, deg)
        if unit_count(spec.q, n + k) <= 200:
            units = list(unit_enumerate(spec, n + k))
        else:
            units = [random_series(rng, spec, n + k, unit=True) for _ in range(40)]
        chunk = b"".join(u.ranks for u in units)
        rows = density_mod._certificate_rows(spec, k, n, monos, tdeg, chunk)
        assert rows.shape == (len(units) * n, len(monos) * (tdeg + 1))
        assert [r.tobytes() for r in rows] == _object_rows(spec, k, n, monos, tdeg, units)
        by_monomial = _certificate_rows_by_monomial(spec, k, n, monos, tdeg, chunk)
        assert rows.dtype == by_monomial.dtype and rows.tobytes() == by_monomial.tobytes()


def test_certificate_rows_match_per_monomial_rows_on_the_certify_cell(f3):
    # q=3, k=3, deg 3, tdeg 2, N=6 over all 13122 units mod t^9, in one block
    monos = density_mod._monomials(4, 3)
    chunk = density_mod._unit_digits(3, 9, np.arange(unit_count(3, 9))).T.tobytes()
    rows = density_mod._certificate_rows(f3, 3, 6, monos, 2, chunk)
    assert rows.shape == (13122 * 6, 105)
    assert rows.tobytes() == _certificate_rows_by_monomial(f3, 3, 6, monos, 2, chunk).tobytes()


@pytest.mark.parametrize("old, new", [("js.append(j)", "js.append(j - 1)"),
                                      ("rows[:, s:, tdeg_bound - s]", "rows[:, s:, s]")],
                         ids=["jet-row-j-1", "shifts-ascending"])
def test_certificate_rows_mutants_fail_the_object_oracle(old, new, monkeypatch):
    # a monomial paired with the jet row below its own, and the shifts
    # written lowest first, each fail the object-row comparison
    real = density_mod._certificate_rows
    for rows, fails in [(mutated(real, old, old), False), (mutated(real, old, new), True)]:
        monkeypatch.setattr(density_mod, "_certificate_rows", rows)
        for name in (2, 3):
            try:
                test_certificate_rows_match_object_rows(name)
            except AssertionError:
                assert fails, name
            else:
                assert not fails, name


@pytest.mark.parametrize("name", [2, 3, 4, 9, 131, "7^2"])
def test_mul_block_with_stacked_factors_matches_layer_products(name):
    # one product of (layers, n, units) operands, each layer of x times its
    # own layer of y, against one call per layer with a 2-D y, byte for byte
    spec = kernel_spec(name)
    tables, rng = spec.tables, np.random.default_rng(11)
    for layers, n, units in [(1, 1, 5), (3, 4, 7), (5, 6, 1), (2, 9, 30)]:
        x, y = (rng.integers(0, spec.q, (layers, n, units), dtype=np.uint8) for _ in range(2))
        got = density_mod._mul_block(tables, x, y)
        want = np.stack([density_mod._mul_block(tables, x[i], y[i]) for i in range(layers)])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (layers, n)
        # a 2-D y multiplies every layer of x
        got = density_mod._mul_block(tables, x, y[0])
        want = np.stack([density_mod._mul_block(tables, x[i], y[0]) for i in range(layers)])
        assert got.tobytes() == want.tobytes(), (layers, n)


def test_certificate_block_makes_one_product_per_degree(f3, monkeypatch):
    # the certify cell's 35 monomials are the constant and one batch for
    # each total degree 1..3, with a jet row per monomial: 3 batched
    # products a block, where one product per monomial made 34
    products, rows = [], density_mod._certificate_rows
    mul_block = density_mod._mul_block

    def spy(tables, x, y):
        assert y.shape == x.shape
        products[-1].append(x.shape[0])
        return mul_block(tables, x, y)

    def block(*args):
        products.append([])
        return rows(*args)

    monkeypatch.setattr(density_mod, "_mul_block", spy)
    monkeypatch.setattr(density_mod, "_certificate_rows", block)
    r = zariski_rank_certificate(f3, 3, 3, 2, 6)
    assert r.full_rank and len(products) == 2
    for batches in products:
        assert batches == [4, 10, 20] and sum(batches) == 34


def test_certificate_rows_put_high_shifts_first(f2, f3, monkeypatch):
    # a unit's row at t^i is zero in every shift s > i, and those columns
    # come first: the row's lead is the constant monomial at shift i while
    # i <= tdeg, so a t^0 row leads in the last (shift-0) block
    blocks, rows = [], density_mod._certificate_rows

    def spy(*args):
        blocks.append(rows(*args))
        return blocks[-1]

    monkeypatch.setattr(density_mod, "_certificate_rows", spy)
    for spec, k, deg, tdeg, n in [(f3, 3, 3, 2, 6), (f2, 2, 2, 1, 4)]:
        blocks.clear()
        zariski_rank_certificate(spec, k, deg, tdeg, n)
        width = math.comb(k + 1 + deg, deg)
        assert blocks
        for block in blocks:
            by_shift = block.reshape(-1, n, tdeg + 1, width)
            for i in range(n):
                assert not by_shift[:, i, :max(tdeg - i, 0)].any(), i
                if i <= tdeg:
                    assert (by_shift[:, i, tdeg - i, 0] == 1).all(), i
                    lead = (block[i::n] != 0).argmax(axis=1)
                    assert (lead == (tdeg - i) * width).all(), i


def test_unit_digits_columns_follow_enumeration(f2, f3, f4):
    # the order both brute counts and the rank certificate rely on
    for spec, m in [(f2, 5), (f3, 4), (f4, 3)]:
        block = density_mod._unit_digits(spec.q, m, np.arange(unit_count(spec.q, m)))
        assert [bytes(col) for col in block.T.tolist()] == \
            [u.ranks for u in unit_enumerate(spec, m)]


def _check_unit_digits(q, m, numbers, want):
    got = density_mod._unit_digits(q, m, numbers)
    assert got.dtype == np.uint8 and got.shape == (m, len(want)), (q, m)
    assert [bytes(col) for col in got.T.tolist()] == want, (q, m)


@pytest.mark.parametrize("name", [2, 3, 4, 9, 256, "7^2"])
def test_unit_digits_match_enumeration(name):
    # consecutive ranges of two sizes at many starts, then unsorted, sparse
    # and repeated numbers, as numpy arrays and as lists of ints, against
    # the units in enumeration order
    spec, rng = kernel_spec({256: "2^8"}.get(name, name)), random.Random(5)
    q = spec.q
    for m in (1, 2, 3, 6):
        total = unit_count(q, m)
        if total > 1 << 16:
            continue
        units = [u.ranks for u in unit_enumerate(spec, m)]
        for size in (17, 1 << 16):
            starts = list(range(0, total, size))[:40] + [1, 5, q + 2, total - 3]
            for start in (s for s in starts if 0 <= s < total):
                stop = min(start + size, total)
                _check_unit_digits(q, m, np.arange(start, stop), units[start:stop])
        shuffled = rng.sample(range(total), total)
        sparse = sorted(rng.sample(range(total), min(total, 9)))
        repeated = rng.choices(range(total), k=50) + [total - 1] * 3 + [0] * 2
        for numbers in (shuffled, sparse, repeated, []):
            want = [units[i] for i in numbers]
            _check_unit_digits(q, m, numbers, want)
            _check_unit_digits(q, m, np.array(numbers, dtype=np.int64), want)


def _python_digits(q, m, number):
    """The ranks of unit `number` mod t^m by Python int divmod."""
    head, tail = divmod(number, q ** (m - 1))
    digits = []
    for _ in range(m - 1):
        tail, digit = divmod(tail, q)
        digits.append(digit)
    return bytes([head + 1, *digits[::-1]])


def test_unit_digits_past_32_bits():
    # 2^32 units at (2, 33) still fit uint32; 2^39 at (2, 40), 2*3^21 at
    # (3, 22) and 255*256^4 at (256, 5) take uint64, with numbers >= 2^32
    rng = random.Random(3)
    for q, m in [(2, 33), (2, 40), (3, 22), (256, 5)]:
        total = unit_count(q, m)
        numbers = [0, 1, total - 1, total - 2, (1 << 32) - 1]
        numbers += [rng.randrange(total // 2, total) for _ in range(20)]
        _check_unit_digits(q, m, numbers, [_python_digits(q, m, u) for u in numbers])


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
                est = DensityEstimate(q=q, unit=q - 1, exponent=row.delta_num,
                                      denominator=row.n * (k + 1)).real
                band = (k + math.log(q - 1, q) + 1) / (row.n * (k + 1))
                assert abs(est - 1 / (k + 1)) <= band + 1e-12


def test_table_builders_rows(f2):
    table = build_density_table(f2, 1, 4)
    assert [r.d_formula for r in table.rows] == [2, 2, 8, 8]
    tensor = build_tensor_table(f2, 2, 4, mode="formula")
    assert [r.d_formula for r in tensor.rows] == [1, 1, 2, 2]
    with pytest.raises(ValueError):
        build_tensor_table(f2, 2, 4, mode="bogus")


def test_image_order_brute_matches_object_path(f2, f3, f4):
    # independent route: build every jet through the series/jet machinery
    # and deduplicate by its canonical key; at (F_3, 3, 2) k >= p, so some
    # binomials vanish mod p
    for spec, k, n in [(f2, 1, 3), (f2, 2, 3), (f3, 1, 3), (f3, 2, 2),
                       (f4, 1, 3), (f4, 2, 2), (f3, 3, 2)]:
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
        block = density_mod._unit_digits(q, n, np.arange(total))
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


def test_tensor_brute_guards_before_work(monkeypatch, f2, f3):
    # d = 2 over F_2 is d' = 1, over F_3 d' = 2: either way the budget
    # fails before any block is decoded or powered and before any table,
    # of keys or of unit numbers, is allocated
    def no_work(*args, **kwargs):
        raise AssertionError("work was done before the budget check")

    for name in ("_unit_digits", "_power_block"):
        monkeypatch.setattr(density_mod, name, no_work)
    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", no_work)
        for spec in (f2, f3):
            with pytest.raises(BudgetExceeded):
                tensor_image_order_brute(spec, 2, 40, budget=10 ** 6)
    with pytest.raises(ValueError):
        tensor_image_order_brute(f2, 0, 3)


def test_tensor_brute_unit_numbers(monkeypatch, f2, f3, f4):
    # with the power replaced by the identity, each unit marks its own unit
    # number, so every cell of the table is set once; a power whose constant
    # term is zero has no unit number and must raise, not mark the last cell
    power_block = density_mod._power_block
    for spec, d in [(f2, 3), (f3, 2), (f4, 3), (spec_for_order(5), 2)]:
        for n in (1, 2, 5):
            monkeypatch.setattr(density_mod, "_power_block", lambda spec, block, d: block)
            assert tensor_image_order_brute(spec, d, n) == unit_count(spec.q, n)

            def zero_row_0(spec, block, d):
                out = power_block(spec, block, d)
                out[0] = 0
                return out

            monkeypatch.setattr(density_mod, "_power_block", zero_row_0)
            with pytest.raises(MalformedOrder):
                tensor_image_order_brute(spec, d, n)


def _inverse_power(spec, d):
    """The rank table of the inverse of x -> x^d, a permutation of F_q when
    d is a power of p, by repeated multiplication."""
    mul, inverse = spec.tables.mul, [0] * spec.q
    for r in range(spec.q):
        x = r
        for _ in range(d - 1):
            x = mul[x][r]
        inverse[x] = r
    assert sorted(inverse) == list(range(spec.q))
    return np.array(inverse, dtype=np.uint8)


def _block_keys(spec, k, d, n, m, start, stop):
    """Keys of units start..stop-1 mod t^m by decoding, powering and gathers.

    The units are decoded by _unit_digits and raised to the d-th power by
    _power_block, and the powers are mapped back through the inverse of
    x -> x^d: at d = p^f each coefficient a_l of a lands in a^d as a_l^d,
    and the count reads a_l itself.  Then each jet entry (j, i), C(i+j, j)
    times coefficient i+j, is gathered from the field's mul table at every
    unit and OR-ed into its int key at bits [(j*n+i)*bits, (j*n+i+1)*bits).
    """
    q, mul = spec.q, spec.tables.mul_np
    bits = (q - 1).bit_length()
    numbers = np.arange(start, stop)
    block = density_mod._power_block(spec, density_mod._unit_digits(q, m, numbers), d)
    block = _inverse_power(spec, d)[block]
    key = np.zeros(stop - start, dtype=object)
    for j in range(k + 1):
        row = binom_row(spec.p, j, n)
        for i in range(n):
            key |= mul[row[i]][block[i + j]].astype(object) << (j * n + i) * bits
    return key.tolist()


def _count_tables(monkeypatch, spec, k, d, n, image_count=density_mod._image_count):
    """The per-coefficient key tables image_count hands to _distinct_ors,
    with its count; image_count may be a mutant of _image_count."""
    seen, distinct_ors = [], image_count.__globals__["_distinct_ors"]

    def recording(tables):
        seen.append([list(table) for table in tables])
        return distinct_ors(tables)

    with monkeypatch.context() as patch:
        patch.setitem(image_count.__globals__, "_distinct_ors", recording)
        count = image_count(spec, k, d, n, 1 << 20)
    assert len(seen) == 1
    return count, seen[0]


def _unit_ors(spec, m, tables):
    """Each unit's OR of one column per table, table 0 at ranks 1..q-1 and
    the coefficients past the tables at none, in unit-number order."""
    columns = [tables[0][1:], *tables[1:], *[[0] * spec.q] * (m - len(tables))]
    return [reduce(or_, choice) for choice in itertools.product(*columns)]


def _key_cases(spec, limit=1 << 12):
    """(k, d, n): k <= 3, d in {1, p, p^2}, few units mod t^(n+k)."""
    for k, d in itertools.product(range(4), (1, spec.p, spec.p ** 2)):
        for n in (1, 3):
            if unit_count(spec.q, n + k) <= limit:
                yield k, d, n


def _check_keys(monkeypatch, spec, k, d, n):
    # (a) every unit's key, as the OR of one column per table the count
    # reads, against the decode route key for key
    m = n + k
    want = _block_keys(spec, k, d, n, m, 0, unit_count(spec.q, m))
    count, tables = _count_tables(monkeypatch, spec, k, d, n)
    case = (spec.q, k, d, n)
    assert 1 <= len(tables) <= m and {len(t) for t in tables} == {spec.q}, case
    assert _unit_ors(spec, m, tables) == want, case
    # (b) the count is the number of distinct unit keys
    assert count == len(set(want)), case


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27, "7^2"])
def test_unit_keys_match_block_gathers(q, monkeypatch):
    # the per-coefficient tables of p-power degrees (d' = 1) against
    # decoding, powering and a gather per jet entry, and the count the
    # tables give against the distinct keys
    spec = kernel_spec(q)
    cases = list(_key_cases(spec))
    assert cases
    for k, d, n in cases:
        _check_keys(monkeypatch, spec, k, d, n)


def test_unit_keys_match_block_gathers_wide(monkeypatch, f2):
    # (k+1)*n one-bit entries make 72 and 65 bits: keys past one machine word
    for k, n in [(7, 9), (4, 13)]:
        _check_keys(monkeypatch, f2, k, 1, n)


# each mutation of the key tables of _image_count, as (old text, new text)
_KEY_MUTATIONS = {
    "bit position without its j*n term": (
        "shift = (j * n + i) * bits", "shift = i * bits"),
}


@pytest.mark.parametrize("mutation", list(_KEY_MUTATIONS))
def test_key_table_mutations_fail(mutation, monkeypatch):
    # each mutant of the table build must give some unit a key other than
    # the decode route's, or raise, on the key cases of prime and extension
    # fields; a copy of the real source agrees on all of them
    cases = [(spec, k, d, n) for spec in map(kernel_spec, (2, 3, 4, 9, "7^2"))
             for k, d, n in _key_cases(spec, 1 << 10)]
    wants = [_block_keys(spec, k, d, n, n + k, 0, unit_count(spec.q, n + k))
             for spec, k, d, n in cases]

    def caught(image_count):
        out = 0
        for (spec, k, d, n), want in zip(cases, wants):
            try:
                _, tables = _count_tables(monkeypatch, spec, k, d, n, image_count)
            except MalformedOrder:
                out += 1
                continue
            out += _unit_ors(spec, n + k, tables) != want
        return out

    old, new = _KEY_MUTATIONS[mutation]
    real = density_mod._image_count
    assert caught(mutated(real, old, old)) == 0
    assert caught(mutated(real, old, new)) > 0


def test_counts_reading_table_0_at_rank_0_fail(monkeypatch):
    # the count with table 0 taken over ranks 0..q-1 must differ from the
    # closed form: a unit's constant term is never 0
    real = density_mod._distinct_ors
    old = "for table in (tables[0][1:], *tables[1:]):"
    mutant = mutated(real, old, "for table in tables:")
    cases = [(kernel_spec(q), k, n) for q in (2, 3, 4, 9) for k in range(3) for n in (1, 3)]
    for distinct_ors, wrong in [(mutated(real, old, old), 0), (mutant, len(cases))]:
        monkeypatch.setattr(density_mod, "_distinct_ors", distinct_ors)
        assert sum(image_order_brute(spec, k, n) != image_order_formula(spec, k, n)
                   for spec, k, n in cases) == wrong


def _random_tables(rng, m, q, width):
    """m random lists of q int keys of width bits, with pairwise disjoint
    supports.

    Each table owns four bits of the key and draws its q columns from a
    pool of three values on those bits, so columns repeat.
    """
    groups = rng.sample(range(width), 4 * m)
    tables = []
    for l in range(m):
        pool = [sum(rng.getrandbits(1) << bit for bit in groups[4 * l:4 * l + 4])
                for _ in range(3)]
        tables.append([rng.choice(pool) for _ in range(q)])
    return tables


@pytest.mark.parametrize("words", [1, 2])
def test_unit_keys_count_the_set_of_ors(words):
    # tables with disjoint supports and repeated columns, in keys of
    # 64*words bits: the product route gives the number of distinct ORs of
    # one column per table, table 0 at ranks 1..q-1, and leaves the tables
    # as they were
    rng = random.Random(words)
    overcounts = 0
    for trial in range(40):
        m, q = rng.randint(1, 5), rng.randint(2, 4)
        tables = _random_tables(rng, m, q, 64 * words)
        choices = list(itertools.product(range(1, q), *[range(q)] * (m - 1)))

        def ors():
            return {reduce(or_, (t[c] for t, c in zip(tables, choice))) for choice in choices}

        before = [list(t) for t in tables]
        assert density_mod._distinct_ors(tables) == len(ors()), (trial, m, q)
        assert tables == before
        if m == 1:
            continue
        # a bit of a column the count reads in an earlier table, set in a
        # column of a later one: the supports meet, and a product taken
        # over these tables could overcount, so the route must raise
        first = rng.randrange(m - 1)
        later = rng.randrange(first + 1, m)
        bit = 1 << rng.randrange(64 * words)
        tables[first][rng.randrange(1 if first == 0 else 0, q)] |= bit
        tables[later][rng.randrange(q)] |= bit
        with pytest.raises(MalformedOrder):
            density_mod._distinct_ors(tables)
        overcounts += len(ors()) < math.prod(
            len(set(t)) for t in (tables[0][1:], *tables[1:]))
    # the shared bits do collapse some ORs: a product would overcount there
    assert overcounts


def test_p_power_counts_skip_decoding(monkeypatch, f3):
    # d' = 1 counts by the product over its tables alone; d = 2 over F_3 still
    # decodes and squares its units
    calls = []
    for name in ("_unit_digits", "_power_block"):
        def spy(*args, _real=getattr(density_mod, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(density_mod, name, spy)
    assert image_order_brute(f3, 2, 4) == image_order_formula(f3, 2, 4)
    for d in (3, 9):
        assert tensor_image_order_brute(f3, d, 7) == tensor_image_order_formula(f3, d, 7)
    assert calls == []
    assert tensor_image_order_brute(f3, 2, 4) == tensor_image_order_formula(f3, 2, 4)
    assert set(calls) == {"_unit_digits", "_power_block"}


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


def test_table_row_density_estimate(f3):
    table = build_density_table(f3, 1, 4, mode="formula")
    row = table.rows[1]
    est = DensityEstimate(q=table.q, unit=table.unit, exponent=row.delta_num,
                          denominator=row.n * table.dim)
    assert est.rational == Fraction(2, 4) == Fraction(row.delta_num, row.delta_den)
    assert est.unit == 2 and est.q == 3 and est.real == row.delta_real
