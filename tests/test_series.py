import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carlitz.series
from carlitz import TruncSeries, parse_series, render_series, unit_enumerate
from carlitz import FqSpec, UInftyElem, spec_for_order, unit_count
from carlitz.errors import BudgetExceeded, NonUnit, ParseError, SpecMismatch
from carlitz.series import (
    _add_bytes, add_lanes, add_ranks, cauchy_rows, inv_ranks, lane_format, mul_ranks,
    neg_ranks, scale_ranks,
)

from conftest import KERNEL_FIELDS, kernel_spec, mutated, random_series


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


@pytest.mark.parametrize("name, prec", [(2, 14), (3, 9), (4, 7), ("2^8", 2), (5, 1)])
def test_unit_enumerate_is_lexicographic(name, prec):
    # past 4096 units each rank string is a head joined to a listed tail
    spec = kernel_spec(name)
    q = spec.q
    want = [bytes(t) for t in itertools.product(range(1, q), *[range(q)] * (prec - 1))]
    assert [u.ranks for u in unit_enumerate(spec, prec)] == want


def test_from_ranks_copies_mutable_ranks(f3):
    ranks = bytearray([1, 2, 0])
    f = TruncSeries.from_ranks(f3, ranks)
    ranks[0] = 2
    assert f.ranks == bytes([1, 2, 0]) and type(f.ranks) is bytes


def test_from_ranks_checks_its_input(f3, monkeypatch):
    # no precision-0 series and no rank at or above q, rejected before any
    # series is made; the kernels' own results go through _series unchecked
    made = []
    real = carlitz.series._series
    monkeypatch.setattr(carlitz.series, "_series",
                        lambda *args: made.append(args) or real(*args))
    for bad in (b"", [], [1, 5, 0], b"\1\3", bytearray([3]), [256], [-1]):
        with pytest.raises(ValueError):
            TruncSeries.from_ranks(f3, bad)
    assert made == []
    f = TruncSeries.from_ranks(f3, [1, 2, 0])
    assert f * TruncSeries.one(f3, 3) == f and len(made) == 3
    top = spec_for_order(251)
    assert TruncSeries.from_ranks(top, [250, 0]).ranks == b"\xfa\0"
    with pytest.raises(ValueError):
        TruncSeries.from_ranks(top, [251])


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


def schoolbook(spec, xr, yr, width):
    """The product's first `width` ranks, one table lookup per rank pair."""
    add, mul = spec.tables.add, spec.tables.mul
    out = [0] * width
    for i, a in enumerate(xr[:width]):
        for k, b in enumerate(yr[:width - i], i):
            out[k] = add[out[k]][mul[a][b]]
    return tuple(out)


def slot_edges(spec, longest=1100, terms=1):
    """Operand lengths on both sides of each change in the kernels' lane width.

    A product slot sums at most min(len)*e digit products of at most
    (p-1)^2, and a sum of `terms` products `terms` times that; lanes grow
    by a byte when that bound reaches 2^(8b).
    """
    per_rank = terms * spec.e * (spec.p - 1) ** 2
    edges = set()
    for bits in (8, 16, 24):
        first = -(-2 ** bits // per_rank)  # the first length at the bound
        edges |= {first - 1, first, first + 1}
    return sorted(n for n in edges if 1 <= n <= longest)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_mul_ranks_matches_schoolbook(q):
    """mul_ranks, the one series product kernel, against a schoolbook oracle."""
    spec = kernel_spec(q)
    rng = random.Random(3)
    for _ in range(25):
        prec = rng.randrange(2, 40)
        a = random_series(rng, spec, prec)
        b = random_series(rng, spec, prec)
        assert (a * b).ranks == bytes(schoolbook(spec, a.ranks, b.ranks, prec))
    # unequal operands in both orders, with windows of nothing, one rank, the
    # shorter length, the full product length and past it
    for na, nb in [(1, 1), (1, 40), (5, 9), (15, 16), (16, 16), (16, 33),
                   (3, 64), (40, 64), (64, 64)]:
        xr = [rng.randrange(spec.q) for _ in range(na)]
        yr = [rng.randrange(spec.q) for _ in range(nb)]
        for width in (0, 1, min(na, nb), na + nb - 1, na + nb + 3):
            slow = bytes(schoolbook(spec, xr, yr, width))
            for fast in (mul_ranks(spec, xr, yr, width), mul_ranks(spec, yr, xr, width)):
                assert fast == slow and type(fast) is bytes
    # zero and one-rank operands (the rank at every position, coefficients
    # 1 and q-1; an empty one too), against a random operand in both orders,
    # with windows of nothing, the rank's position and one past it, the full
    # product and past it
    yr = [rng.randrange(spec.q) for _ in range(5)]
    cases = [((), 0)]
    for n in (1, 2, 7, 40):
        cases.append(((0,) * n, n - 1))
        for i, c in itertools.product(range(n), {1, spec.q - 1}):
            cases.append(((0,) * i + (c,) + (0,) * (n - 1 - i), i))
    for xr, at in cases:
        for width in (0, at, at + 1, len(xr) + 4, len(xr) + 7):
            slow = bytes(schoolbook(spec, xr, yr, width))
            assert mul_ranks(spec, xr, yr, width) == slow, (xr, width)
            assert mul_ranks(spec, yr, xr, width) == slow, (xr, width)
    # all-(q-1) operands fill every slot to its bound: lengths on both sides
    # of each lane boundary, at the operands' length and the full product
    top = spec.q - 1
    for n in slot_edges(spec):
        xr, yr = (top,) * n, (top,) * (n + 3)
        for width in (n, 2 * n + 2) if n <= 300 else (n,):
            slow = bytes(schoolbook(spec, xr, yr, width))
            assert mul_ranks(spec, xr, yr, width) == slow
            assert mul_ranks(spec, yr, xr, width) == slow


def test_slot_edges_cover_the_named_boundaries():
    assert slot_edges(spec_for_order(2)) == [255, 256, 257]
    assert slot_edges(spec_for_order(3)) == [63, 64, 65]
    assert slot_edges(spec_for_order(9)) == [31, 32, 33]
    assert 1057 in slot_edges(spec_for_order(127))  # three-byte lanes
    assert slot_edges(spec_for_order(2), terms=2) == [127, 128, 129]
    assert slot_edges(spec_for_order(3), terms=4) == [15, 16, 17]


def cauchy_oracle(spec, xs, ys, width, j):
    """sum_(i<=j) xs[i]*ys[j-i] to `width` ranks, by schoolbook products."""
    add = spec.tables.add
    out = (0,) * width
    for i in range(j + 1):
        if i < len(xs) and j - i < len(ys):
            term = schoolbook(spec, xs[i], ys[j - i], width)
            out = tuple(add[a][b] for a, b in zip(out, term))
    return bytes(out)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_cauchy_rows_matches_schoolbook_sums(q):
    """cauchy_rows, the jet product kernel, against sums of schoolbook products."""
    spec = kernel_spec(q)
    rng = random.Random(13)

    def rows(count, longest):
        return [bytes(rng.randrange(spec.q) for _ in range(rng.randrange(longest + 1)))
                for _ in range(count)]

    # rows of unequal lengths and unequal counts, widths from nothing and
    # one rank past the longest product, every sum or a subset such as (n,)
    for _ in range(30):
        xs, ys = rows(rng.randrange(1, 6), 20), rows(rng.randrange(1, 6), 20)
        width = rng.choice([0, 1, 2, rng.randrange(3, 45)])
        j_max = len(xs) + len(ys)
        for want in (range(j_max), (rng.randrange(j_max),),
                     sorted(rng.sample(range(j_max), 2)) if j_max > 1 else (0,)):
            got = cauchy_rows(spec, xs, ys, width, want)
            assert got == [cauchy_oracle(spec, xs, ys, width, j) for j in want]
            assert all(type(r) is bytes for r in got)
    # a jet's rows, as bytes, tuples and lists, against the row products
    xs = [bytes(rng.randrange(spec.q) for _ in range(9)) for _ in range(4)]
    ys = [[rng.randrange(spec.q) for _ in range(9)] for _ in range(4)]
    want = [cauchy_oracle(spec, xs, ys, 9, j) for j in range(4)]
    assert cauchy_rows(spec, xs, [tuple(y) for y in ys], 9, range(4)) == want
    assert cauchy_rows(spec, xs, ys, 9, range(4)) == want
    # all-(q-1) rows fill every slot of sum j to (j+1)*width*e*(p-1)^2:
    # widths on both sides of each lane boundary of that bound.  The j+1
    # products are equal, so sum j is one schoolbook product added j+1 times
    top = spec.q - 1
    for terms in (2, 3, 4):
        for n in slot_edges(spec, 600, terms):
            full = (top,) * n
            product = schoolbook(spec, full, full, n)
            expect = []
            for j in range(terms):
                out = (0,) * n
                for _ in range(j + 1):
                    out = tuple(spec.tables.add[a][b] for a, b in zip(out, product))
                expect.append(bytes(out))
            got = cauchy_rows(spec, [full] * terms, [full] * terms, n, range(terms))
            assert got == expect
            assert cauchy_rows(spec, [full] * terms, [full] * terms, n,
                               (terms - 1,)) == expect[-1:]


def rankwise_add(spec, xr, yr, shift, width):
    """x + t^shift y, one add-table lookup per rank."""
    add = spec.tables.add
    out = list(xr[:width]) + [0] * (width - len(xr[:width]))
    for i, r in enumerate(yr[:max(width - shift, 0)], shift):
        out[i] = add[out[i]][r]
    return tuple(out)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_add_neg_scale_match_rankwise_loop(q):
    """The packed add, neg and scale kernels against per-rank table loops."""
    spec = kernel_spec(q)
    t = spec.tables
    rng = random.Random(5)
    top = spec.q - 1
    for prec in (1, 2, 7, 33, 300):
        for a, b in [(random_series(rng, spec, prec), random_series(rng, spec, prec)),
                     (TruncSeries.from_ranks(spec, (top,) * prec),) * 2]:
            ar, br = a.ranks, b.ranks
            assert (a + b).ranks == bytes(rankwise_add(spec, ar, br, 0, prec))
            assert (a - b).ranks == bytes(t.add[x][t.neg[y]] for x, y in zip(ar, br))
            assert (-a).ranks == bytes(t.neg[x] for x in ar)
            c = rng.randrange(spec.q)
            assert a.scale(spec.from_rank(c)).ranks == bytes(t.mul[c][x] for x in ar)
            assert type((a + b).ranks) is bytes
    # unequal lengths, offsets inside, at and past the window
    for na, nb in [(0, 3), (5, 9), (40, 7), (300, 300)]:
        xr = [rng.randrange(spec.q) for _ in range(na)]
        yr = [rng.randrange(spec.q) for _ in range(nb)]
        for shift in (0, 1, 4, na, na + nb):
            for width in (0, 1, na, na + nb, na + nb + 5):
                assert (add_ranks(spec, xr, yr, shift, width)
                        == bytes(rankwise_add(spec, xr, yr, shift, width)))
    # precision is the smaller one
    a, b = random_series(rng, spec, 9), random_series(rng, spec, 4)
    assert (a + b).ranks == bytes(rankwise_add(spec, a.ranks, b.ranks, 0, 4))
    assert (b - a).prec == 4


def rankwise_inverse(spec, xr, width):
    """The first `width` ranks of 1/x by long division, one lookup per product."""
    t = spec.tables
    c = spec.inv_rank(xr[0])
    out = []
    for n in range(width):
        acc = 1 if n == 0 else 0
        for i in range(1, min(n, len(xr) - 1) + 1):
            acc = t.add[acc][t.neg[t.mul[xr[i]][out[n - i]]]]
        out.append(t.mul[c][acc])
    return tuple(out)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_kernels_return_bytes_for_every_input_form(q):
    """Each kernel takes ranks as a tuple, a list or bytes and returns bytes."""
    spec = kernel_spec(q)
    t = spec.tables
    rng = random.Random(7)
    for na, nb in [(1, 1), (3, 8), (17, 17), (40, 65)]:
        xr = [rng.randrange(1, spec.q)] + [rng.randrange(spec.q) for _ in range(na - 1)]
        yr = [rng.randrange(spec.q) for _ in range(nb)]
        c = rng.randrange(spec.q)
        shift, width = min(2, na), na + nb
        want = {
            "scale": bytes(t.mul[c][r] for r in xr),
            "neg": bytes(t.neg[r] for r in xr),
            "add": bytes(rankwise_add(spec, xr, yr, shift, width)),
            "add_bytes": bytes(rankwise_add(spec, xr, yr, shift, width)),
            "mul": bytes(schoolbook(spec, xr, yr, width)),
            "inv": bytes(rankwise_inverse(spec, xr, width)),
        }
        for form in (tuple, list, bytes):
            x, y = form(xr), form(yr)
            got = {
                "scale": scale_ranks(spec, c, x),
                "neg": neg_ranks(spec, x),
                "add": add_ranks(spec, x, y, shift, width),
                "add_bytes": _add_bytes(spec, x, y, shift, width),
                "mul": mul_ranks(spec, x, y, width),
                "inv": inv_ranks(spec, x, width),
            }
            for name, out in got.items():
                assert type(out) is bytes and out == want[name], (name, form)
            for empty in (add_ranks(spec, x, y, 0, 0), mul_ranks(spec, x, y, 0),
                          inv_ranks(spec, x, 0)):
                assert empty == b"" and type(empty) is bytes


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_kernels_give_other_rank_forms_the_bytes_result(q):
    """A tuple, list or bytearray gives what the same ranks as bytes give,
    and changing a bytearray after the call leaves the result as it was."""
    spec = kernel_spec(q)
    rng = random.Random(11)
    for na, nb in [(1, 1), (4, 9), (33, 20)]:
        xr = bytes([rng.randrange(1, spec.q)] + [rng.randrange(spec.q) for _ in range(na - 1)])
        yr = bytes(rng.randrange(spec.q) for _ in range(nb))
        c, shift, width = rng.randrange(spec.q), min(2, na), na + nb

        def calls(x, y):
            return {"scale": scale_ranks(spec, c, x),
                    "mul": mul_ranks(spec, x, y, width),
                    "mul_short": mul_ranks(spec, x, y, 1),
                    "add_bytes": _add_bytes(spec, x, y, shift, width)}

        want = calls(xr, yr)
        for form in (tuple, list, bytearray):
            got = calls(form(xr), form(yr))
            assert got == want and {type(v) for v in got.values()} == {bytes}, form
        x, y = bytearray(xr), bytearray(yr)
        got = calls(x, y)
        x[:] = bytes(len(x))
        y[:] = bytes([spec.q - 1]) * len(y)
        assert got == want


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_series_from_every_constructor_compare_and_hash_equal(q):
    spec = spec_for_order(q)
    prec = 3
    for u in unit_enumerate(spec, prec):
        r = tuple(u.ranks)
        elems = [spec.from_rank(x) for x in r]
        built = [
            TruncSeries(spec, elems),
            TruncSeries(spec, elems + [spec.one()] * 2, prec),
            # padded by __init__ to prec, then added
            TruncSeries(spec, elems[:1], prec) + TruncSeries(spec, [0] + elems[1:]),
            TruncSeries.from_ranks(spec, r),
            TruncSeries.from_ranks(spec, list(r)),
            TruncSeries.from_ranks(spec, bytes(r)),
            parse_series(spec, render_series(u), prec),
            u * TruncSeries.one(spec, prec),
        ]
        for s in built:
            assert type(s.ranks) is bytes and s.ranks is s.ranks
            assert s == u and hash(s) == hash(u) and s.key() == u.key()
        assert len(set(built) | {u}) == 1
        # the same ranks at another precision are another series
        assert TruncSeries.from_ranks(spec, r + (0,)) != u


@pytest.mark.parametrize("q", [3, 4, 9, 2, 131, 251])
def test_inverse_round_trip_both_types(q):
    spec = spec_for_order(q)
    rng = random.Random(q)
    for prec in (1, 2, 7, 16, 30):
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


@st.composite
def radix_adds(draw):
    q = draw(st.sampled_from([9, 25, 27]))
    width = draw(st.integers(1, 80))
    shift = draw(st.integers(0, width))
    ranks = st.integers(0, q - 1)
    x = bytes(draw(st.lists(ranks, max_size=width)))
    y = bytes(draw(st.lists(ranks, max_size=width - shift)))
    return q, x, y, shift, width


@settings(max_examples=300, deadline=None)
@given(radix_adds())
def test_radix_add_matches_digit_planes(case):
    # odd extension fields with (2p-1)^e <= 256 add in radix 2p-1, one int
    # add; the same field with those tables taken away adds digit plane by
    # digit plane
    q, x, y, shift, width = case
    spec = spec_for_order(q)
    assert spec.tables.radix is not None
    assert kernel_spec("3^5").tables.radix is None  # 5^5 > 256: planes
    planes = FqSpec(spec.p, spec.e)
    planes._tables = spec.tables._replace(radix=None, unradix=None)
    assert _add_bytes(spec, x, y, shift, width) == _add_bytes(planes, x, y, shift, width)


def _lane_digits(lanes, x, n):
    """The base-p digits in each lane of the first n columns of the lane
    int x, read off its bits, one tuple per column."""
    mask = (1 << lanes.lane) - 1
    return [tuple(x >> c * lanes.col + i * lanes.lane & mask for i in range(lanes.e))
            for c in range(n)]


@pytest.mark.parametrize("name", [2, 3, 5, 7, 9, 25, 27, 131, 251, "2^8", "3^5", "7^2"])
def test_add_lanes_matches_per_digit_addition(name):
    # random rank sequences, encoded column by column by LaneFormat.column,
    # added by add_lanes against the field's add table rank by rank, read
    # back lane by lane.  ones may span more columns than x and y fill.
    # The top rank q-1 (every digit p-1, sum 2p-2) is always present, so a
    # lane add without its conditional subtract leaves a digit >= p in some
    # lane on every odd-p field.
    spec = kernel_spec(name)
    lanes = lane_format(spec)
    rng = random.Random(str(name))
    no_subtract = mutated(add_lanes, "return s - p * (((s + bias) >> flag) & ones)", "return s")

    def encode(ranks):
        return sum(lanes.column(r) << lanes.col * c for c, r in enumerate(ranks))

    for n in (1, 2, 7, 64, 300):
        x = [spec.q - 1] + [rng.randrange(spec.q) for _ in range(n - 1)]
        y = [spec.q - 1] + [rng.randrange(spec.q) for _ in range(n - 1)]
        want = _lane_digits(lanes, encode([spec.tables.add[a][b] for a, b in zip(x, y)]), n)
        for extra in (0, 3):
            ones = lanes.ones(n + extra)
            args = (spec.p, encode(x), encode(y), ones, lanes.bias * ones, lanes.flag)
            out = add_lanes(*args)
            assert _lane_digits(lanes, out, n) == want and out >> n * lanes.col == 0, (n, extra)
            if spec.p > 2:
                assert _lane_digits(lanes, no_subtract(*args), n) != want, (n, extra)
