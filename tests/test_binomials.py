import random

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
)
from carlitz.errors import InvalidCharacteristic


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
    assert (6, 2) not in binomials._ROWS and (3, -1) not in binomials._ROWS


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_hyperderivs_match_per_coefficient_formula(q):
    # the formula as it stood before rows: one Pascal binomial per coefficient
    spec = spec_for_order(q)
    p, mul = spec.p, spec.tables.mul
    rng = random.Random(q)
    for prec in (1, 2, 9, 33):
        f = TruncSeries.from_ranks(spec, [rng.randrange(q) for _ in range(prec)])
        for n in range(1, prec):
            want = [mul[binom_pascal_oracle(i + n, n, p)][f.ranks[i + n]]
                    for i in range(prec - n)]
            assert hyperderiv(n, f).ranks == tuple(want)
    entries = [UInftyElem(spec, v, [rng.randrange(q) for _ in range(4)], v + 6)
               for v in range(12)]
    s = UPowerSeries(spec, entries)
    for n in range(1, 12):
        want = [entries[i + n].scale(binom_pascal_oracle(i + n, n, p))
                for i in range(12 - n)]
        assert s.hyperderiv(n).entries == tuple(want)
