import itertools

import pytest

from carlitz import FqElem, FqSpec, spec_for_order
from carlitz.errors import (
    DivisionByZero,
    InvalidCharacteristic,
    SpecMismatch,
    UnsupportedOrder,
)
from carlitz.field import parse_fq_config

ALL_Q = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]


def test_char2_addition(f2):
    assert (f2.one() + f2.one()).rank == 0


def test_f3_inverse(f3):
    assert f3.element(2).inverse() == f3.element(2)


def test_f4_generator_square(f4):
    x = f4.gen()
    assert (x * x).coeffs == (1, 1)  # x^2 = x + 1 under x^2 + x + 1


def test_enumeration_small():
    assert [e.rank for e in spec_for_order(2).elements()] == [0, 1]
    assert [e.rank for e in spec_for_order(3).elements()] == [0, 1, 2]
    elems = list(spec_for_order(4).elements())
    assert len(elems) == len(set(elems)) == 4
    assert elems[0].rank == 0


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive(q):
    spec = spec_for_order(q)
    elems = list(spec.elements())
    one, zero = spec.one(), spec.zero()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a ** q == a  # Frobenius fixes F_q
        if a:
            assert a * a.inverse() == one
    # closure under add/mul
    universe = set(elems)
    for a, b in itertools.product(elems, repeat=2):
        assert a + b in universe and a * b in universe
        assert a + b == b + a and a * b == b * a


@pytest.mark.parametrize("q", [4, 8, 9])
def test_distributivity_exhaustive(q):
    spec = spec_for_order(q)
    elems = list(spec.elements())
    for a, b, c in itertools.product(elems, repeat=3):
        assert a * (b + c) == a * b + a * c


def test_mul_against_log_table_oracle(f4):
    # independent discrete-log oracle: find a generator by brute force,
    # build exp/log tables, compare the full multiplication table
    q = f4.q
    gen = None
    for r in range(2, q):
        g = f4.from_rank(r)
        seen, cur = set(), f4.one()
        for _ in range(q - 1):
            cur = cur * g
            seen.add(cur.rank)
        if len(seen) == q - 1:
            gen = f4.from_rank(r)
            break
    assert gen is not None
    exp = [f4.one()]
    for _ in range(q - 2):
        exp.append(exp[-1] * gen)
    log = {e.rank: i for i, e in enumerate(exp)}
    for a in f4.elements():
        for b in f4.elements():
            want = (
                f4.zero()
                if not (a and b)
                else exp[(log[a.rank] + log[b.rank]) % (q - 1)]
            )
            assert a * b == want


def test_user_supplied_polynomial_q64():
    spec = FqSpec(2, 6, [1, 1, 0, 0, 0, 0, 1])  # x^6 + x + 1
    assert spec.q == 64
    one = spec.one()
    for a in spec.elements():
        assert a ** 64 == a
        if a:
            assert a * a.inverse() == one


def test_reducible_polynomial_rejected():
    with pytest.raises(ValueError):
        FqSpec(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2


def _monics(p, e):
    """Every monic polynomial of degree e over F_p, low-to-high coefficients."""
    return [(*low, 1) for low in itertools.product(range(p), repeat=e)]


def _product(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


@pytest.mark.parametrize("p, e", [
    (p, e) for p in (2, 3, 5, 7) for e in range(2, 7) if p ** e <= 64
])
def test_reducible_monics_are_exactly_the_products(p, e):
    # the oracle multiplies: a monic of degree e is reducible exactly when
    # it is a product of two monics of lower positive degree
    reducible = {_product(a, b, p)
                 for i in range(1, e) for a in _monics(p, i) for b in _monics(p, e - i)}
    for poly in _monics(p, e):
        if poly in reducible:
            with pytest.raises(ValueError):
                FqSpec(p, e, poly)
        else:
            assert FqSpec(p, e, poly).defining_poly == poly


def test_nonprime_characteristic_rejected():
    with pytest.raises(InvalidCharacteristic):
        FqSpec(4, 1)


def test_order_bound():
    with pytest.raises(UnsupportedOrder):
        FqSpec(2, 9)  # q = 512 > 256


def test_q_257_is_rejected():
    # a rank must fit in a byte, and no keyword lifts the bound
    with pytest.raises(UnsupportedOrder):
        FqSpec(257, 1)
    with pytest.raises(UnsupportedOrder):
        spec_for_order(257)
    with pytest.raises(TypeError):
        spec_for_order(257, order_bound=300)


def test_spec_key_is_stored_once():
    a, b = FqSpec(3, 2, (2, 2, 1)), FqSpec(3, 2, [5, -1, 1])  # x^2+2x+2 both
    assert a.key is a.key and a.key == (3, 2, (2, 2, 1))
    assert a == b and hash(a) == hash(b) == hash((3, 2, (2, 2, 1)))
    assert a != FqSpec(3, 2, (1, 0, 1)) and a != spec_for_order(3)
    assert (a == (3, 2, (2, 2, 1))) is False


def test_zero_inverse_raises(f3):
    with pytest.raises(DivisionByZero):
        f3.zero().inverse()


def test_spec_mismatch(f2, f3):
    with pytest.raises(SpecMismatch):
        f2.one() + f3.one()


def test_config_resolution(tmp_path):
    cfg = tmp_path / "fields.cfg"
    cfg.write_text("# custom fields\nq=32 poly=1,0,1,0,0,1\n")
    spec = spec_for_order(32, str(cfg))
    assert spec.q == 32 and spec.e == 5
    assert (spec.gen() ** 32) == spec.gen()
    with pytest.raises(UnsupportedOrder):
        spec_for_order(64, str(cfg))  # not in config, no built-in


def test_literal_rendering(f3, f4):
    assert str(f3.element(2)) == "2"
    assert str(f4.gen()) == "[0,1]"


def test_order_bound_edge_q256():
    spec = FqSpec(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])  # x^8+x^4+x^3+x^2+1
    one = spec.one()
    for r in (1, 7, 100, 255):
        x = spec.from_rank(r)
        assert x * x.inverse() == one
        assert x ** 256 == x


def test_non_monic_polynomial_rejected():
    with pytest.raises(ValueError):
        FqSpec(3, 2, [1, 0, 2])
