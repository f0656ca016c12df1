import math
import random
import tracemalloc

import numpy as np
import pytest

import carlitz.binomials as binomials
from carlitz import (
    TruncSeries,
    UInftyElem,
    UPowerSeries,
    binom_mod_p,
    binom_pascal_oracle,
    binom_row,
    hyperderiv,
    spec_for_order,
    torsion_level_m,
)
from carlitz.binomials import binom_masks
from carlitz.errors import InvalidCharacteristic

from conftest import KERNEL_FIELDS, kernel_spec


def test_frozen_values():
    assert binom_mod_p(5, 2, 2) == 0          # 10 even
    assert binom_pascal_oracle(4, 2, 2) == 0  # 6 even
    assert binom_pascal_oracle(4, 2, 7) == 6
    assert binom_pascal_oracle(0, 0, 5) == 1
    assert binom_mod_p(2, 1, 3) == 2


def test_left_edge():
    for l in (0, 1, 5, 100, 511):
        for p in (2, 3, 5, 7):
            assert binom_mod_p(l, 0, p) == 1


def test_above_diagonal_is_zero():
    assert binom_mod_p(3, 5, 2) == 0
    assert binom_pascal_oracle(3, 5, 3) == 0


def test_large_prime_builds_no_digit_table():
    # a prime of four digits: the Lucas digits must not cost p^2 memory
    p = 4001
    rng = random.Random(p)
    cases = [(p - 1, (p - 1) // 2), (p, 1), (p + 3, 2), (3 * p + 7, p + 2),
             (5, 9), (p * p + 1, p * p)]
    cases += [(l, rng.randrange(l + 2)) for l in
              (rng.randrange(4 * p) for _ in range(40))]
    # three base-p digits, with j or l - j small enough for math.comb
    cases += [(l, j) for l in (rng.randrange(p ** 3) for _ in range(10))
              for j in (1, 3, l - 2)]
    tracemalloc.start()
    try:
        got = [binom_mod_p(l, j, p) for l, j in cases]
        m = torsion_level_m(p, 3, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == [math.comb(l, j) % p for l, j in cases]
    assert m == 5
    assert peak < 1 << 20
    # a seven-digit prime, one base-p digit: C(p-1, j) = (-1)^j mod p, and
    # j = (p-1)/2 costs (p-1)/2 factors, not an exact binomial of p digits
    p = 1000003
    js = [0, 1, 2, (p - 1) // 2, (p + 1) // 2, p - 2, p - 1]
    js += [rng.randrange(p) for _ in range(3)]
    assert [binom_mod_p(p - 1, j, p) for j in js] == [(-1) ** j % p for j in js]


def test_nonprime_rejected():
    with pytest.raises(InvalidCharacteristic):
        binom_mod_p(4, 2, 6)
    with pytest.raises(InvalidCharacteristic):
        binom_pascal_oracle(4, 2, 1)


def test_negative_rejected():
    with pytest.raises(ValueError):
        binom_mod_p(-1, 0, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lucas_equals_pascal_to_128(p):
    for l in range(129):
        for j in range(l + 1):
            assert binom_mod_p(l, j, p) == binom_pascal_oracle(l, j, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vandermonde_convolution(p):
    # row_a conv row_b == row_{a+b} mod p, i.e.
    # sum_i C(a,i) C(b,n-i) = C(a+b,n); exhaustive for a, b <= 64
    rows = [
        np.array([binom_pascal_oracle(l, j, p) for j in range(l + 1)], dtype=np.int64)
        for l in range(129)
    ]
    for a in range(65):
        for b in range(65):
            conv = np.convolve(rows[a], rows[b]) % p
            assert np.array_equal(conv, rows[a + b])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_row_equals_pascal(p):
    for n in range(65):
        for length in (1, 7, 64, 256):
            row = binom_row(p, n, length)
            assert isinstance(row, tuple) and len(row) >= length
            assert all(row[i] == binom_pascal_oracle(i + n, n, p) for i in range(length))


def test_row_grows_after_a_short_request(monkeypatch):
    class Rows(dict):
        stores = 0

        def __setitem__(self, key, value):
            Rows.stores += 1
            super().__setitem__(key, value)

    monkeypatch.setattr(binomials, "_ROWS", Rows())
    short = binom_row(5, 3, 2)
    assert short == (1, 4)
    longer = binom_row(5, 3, 40)
    assert len(longer) >= 40 and longer[:2] == short
    assert list(longer) == [binom_pascal_oracle(i + 3, 3, 5) for i in range(len(longer))]
    # a request the stored row covers is answered from the cache
    assert binom_row(5, 3, 10) is longer
    # growth at least doubles the row, so rising requests rebuild it rarely
    Rows.stores = 0
    for length in range(41, 1000):
        assert len(binom_row(5, 3, length)) >= length
    assert Rows.stores <= 5


def test_row_guards():
    with pytest.raises(InvalidCharacteristic):
        binom_row(6, 2, 4)
    with pytest.raises(InvalidCharacteristic):
        binom_row(1, 0, 0)
    with pytest.raises(ValueError):
        binom_row(3, -1, 4)
    with pytest.raises(InvalidCharacteristic):
        binom_masks(6, 2, 4)
    with pytest.raises(ValueError):
        binom_masks(3, -1, 4)
    for key in ((6, 2), (3, -1)):
        assert key not in binomials._ROWS and key not in binomials._MASKS


def hyperderiv_by_rank(spec, n, ranks, prec):
    """D^(n) by the formula, one Pascal binomial and one product per rank."""
    p, mul = spec.p, spec.tables.mul
    return bytes(mul[binom_pascal_oracle(i + n, n, p)][ranks[i + n]]
                 for i in range(prec))


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_hyperderivs_match_per_coefficient_formula(q):
    # the formula as it stood before rows: one Pascal binomial per
    # coefficient, at every order below the precision and every output
    # precision the order leaves
    spec = kernel_spec(q)
    q, p = spec.q, spec.p
    rng = random.Random(q)
    for prec in (1, 2, 9, 33, 64):
        f = TruncSeries.from_ranks(spec, [rng.randrange(q) for _ in range(prec)])
        for n in range(prec):
            want = hyperderiv_by_rank(spec, n, f.ranks, prec - n)
            assert hyperderiv(n, f).ranks == want
            for out in range(1, prec - n + 1):
                got = hyperderiv(n, f, out)
                assert got.prec == out and got.ranks == want[:out]
    entries = [UInftyElem(spec, v, [rng.randrange(q) for _ in range(4)], v + 6)
               for v in range(12)]
    s = UPowerSeries(spec, entries)
    for n in range(1, 12):
        want = [entries[i + n].scale(binom_pascal_oracle(i + n, n, p))
                for i in range(12 - n)]
        assert s.hyperderiv(n).entries == tuple(want)


def test_masks_grow_with_the_row(monkeypatch):
    monkeypatch.setattr(binomials, "_ROWS", {})
    monkeypatch.setattr(binomials, "_MASKS", {})
    short = binom_masks(5, 3, 2)
    assert binomials._MASKS[5, 3][0] == 2
    # a shorter request is answered from the cache, a longer one rebuilds
    assert binom_masks(5, 3, 1) is short
    longer = binom_masks(5, 3, 40)
    assert binomials._MASKS[5, 3][0] == len(binom_row(5, 3, 40)) >= 40
    row = binom_row(5, 3, 40)
    ones, scaled = longer
    assert [c for c, _ in scaled] == sorted(set(row) - {0, 1})
    for c, m in ((1, ones),) + scaled:
        assert [i for i in range(len(row)) if m >> (8 * i) & 0xff] == \
            [i for i, v in enumerate(row) if v == c]
        assert m < 1 << (8 * len(row))
    # p = 2: one mask, the parity of C(i+n, n), odd exactly when i & n == 0
    ones, scaled = binom_masks(2, 5, 40)
    assert scaled == ()
    assert [i for i in range(40) if ones >> (8 * i) & 0xff] == \
        [i for i in range(40) if not i & 5]
