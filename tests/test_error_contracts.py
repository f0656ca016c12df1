"""Error-path contracts across the modules, one place to see them all."""

import re

import pytest

import carlitz.binomials as binomials
from carlitz import (
    FqSpec,
    JetMatrix,
    TruncSeries,
    UInftyElem,
    UPowerSeries,
    build_density_table,
    build_tensor_table,
    compute_omega,
    density_bounds,
    extra_indices,
    hyperderiv,
    image_order_brute,
    jet,
    parse_series,
    jet_columns,
    motivic_group_check,
    spec_for_order,
    tensor_image_order_formula,
    theta,
    torsion_generators,
    torsion_level_m,
    unit_count,
    unit_enumerate,
    verify_hhat_membership,
    verify_iteration,
    verify_leibniz,
)
from carlitz.errors import (
    InsufficientPrecision,
    ParseError,
    SpecMismatch,
    UnsupportedOrder,
)
from carlitz.field import parse_fq_config


def test_field_constructor_guards(f3, f4):
    with pytest.raises(ValueError):
        FqSpec(2, 0)
    with pytest.raises(UnsupportedOrder):
        FqSpec(3, 5)  # no built-in polynomial for q = 243
    with pytest.raises(ValueError):
        f4.element([1, 2, 3])  # wrong coefficient count
    with pytest.raises(ValueError):
        f4.element(7)  # rank out of range for q = 4
    with pytest.raises(ValueError):
        f3.from_rank(3)
    with pytest.raises(ValueError):
        f3.gen()


def test_field_negative_power(f3):
    a = f3.element(2)
    assert a ** -1 == a.inverse()
    assert a ** -2 == (a * a).inverse()


def test_config_parse_errors(tmp_path):
    bad1 = tmp_path / "b1.cfg"
    bad1.write_text("q=9 48\n")
    with pytest.raises(ParseError):
        parse_fq_config(str(bad1))
    bad2 = tmp_path / "b2.cfg"
    bad2.write_text("poly=1,0,1\n")
    with pytest.raises(ParseError):
        parse_fq_config(str(bad2))
    bad3 = tmp_path / "b3.cfg"
    bad3.write_text("q=12 poly=1,0,1\n")  # 12 is not a prime power
    with pytest.raises(UnsupportedOrder):
        parse_fq_config(str(bad3))
    bad4 = tmp_path / "b4.cfg"
    bad4.write_text("q=9 poly=2,0,1\n")  # reducible over F_3
    with pytest.raises(ParseError, match="b4.cfg: q=9"):
        spec_for_order(9, str(bad4))
    bad5 = tmp_path / "b5.cfg"
    bad5.write_text("q=9 poly=1,0,1\nq=65537 poly=1,1\n")  # a prime past 256
    with pytest.raises(ParseError, match="b5.cfg:2: q=65537"):
        parse_fq_config(str(bad5))


def test_series_constructor_guards(f3):
    with pytest.raises(ValueError):
        TruncSeries(f3, [1], 0)
    with pytest.raises(ValueError):
        TruncSeries.monomial(f3, 5, 3)
    with pytest.raises(ValueError):
        TruncSeries.monomial(f3, -1, 4)
    with pytest.raises(ValueError):
        TruncSeries.one(f3, 3).truncate(5)
    # a precision below 1 is rejected before it reaches a slice
    for prec in (0, -2):
        with pytest.raises(ValueError):
            TruncSeries.one(f3, 4).truncate(prec)


def test_unit_count_precision_below_one_rejected(f3):
    # as in unit_enumerate: no fractional count (unit_count(2, 0) was 0.5)
    for prec in (0, -1):
        for q in (2, 3):
            with pytest.raises(ValueError, match="precision must be >= 1"):
                unit_count(q, prec)
        with pytest.raises(ValueError, match="precision must be >= 1"):
            unit_enumerate(f3, prec)
    assert unit_count(2, 1) == 1 and unit_count(3, 2) == 6


def test_series_scale_spec_mismatch(f2, f3, f4):
    for build in (
        lambda: TruncSeries.one(f2, 3).scale(f3.one()),
        lambda: UInftyElem.monomial(f3, 0).scale(f4.gen()),
        lambda: UInftyElem.monomial(f3, 0, f4.gen()),
    ):
        with pytest.raises(SpecMismatch):
            build()


def test_literal_unterminated_bracket(f4):
    with pytest.raises(ParseError):
        parse_series(f4, "[1,0+t", 3)


def test_literal_precision_below_one_rejected(f3):
    # as in TruncSeries(...): no series of precision 0 to fail later
    for prec in (0, -1):
        with pytest.raises(ValueError):
            parse_series(f3, "1+t", prec)
        with pytest.raises(ValueError):
            parse_series(f3, "0", prec)


def test_jet_guards(f3):
    with pytest.raises(ValueError):
        hyperderiv(-1, TruncSeries.one(f3, 3))
    with pytest.raises(ValueError):
        hyperderiv(-1, TruncSeries.one(f3, 3), 1)
    with pytest.raises(ValueError):
        jet(-1, TruncSeries.one(f3, 3))
    with pytest.raises(ValueError):
        JetMatrix(())
    from carlitz.errors import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        JetMatrix((TruncSeries.one(f3, 3), TruncSeries.one(f3, 4)))
    with pytest.raises(ShapeMismatch, match="jet rows must be series"):
        JetMatrix([1, 2])
    with pytest.raises(ShapeMismatch, match="jet rows must be series"):
        JetMatrix((TruncSeries.one(f3, 3), b"\0\0\0"))


def test_hyperderiv_output_precision_guards(f3):
    # both guards fire before the binomial row or its masks are built: the
    # order 97 is used nowhere else, so no cache may hold it afterwards
    f = TruncSeries.one(f3, 100)
    with pytest.raises(InsufficientPrecision,
                       match=r"D\^\(97\) at output precision 4 needs input precision >= 101, got 100"):
        hyperderiv(97, f, 4)
    for prec in (0, -1):
        with pytest.raises(ValueError):
            hyperderiv(97, f, prec)
    with pytest.raises(ValueError):
        hyperderiv(0, f, 0)
    assert (3, 97) not in binomials._ROWS and (3, 97) not in binomials._MASKS
    assert hyperderiv(97, f, 3).ranks == b"\0\0\0"


@pytest.mark.parametrize("other", [5, 9])
def test_verify_leibniz_rejects_mixed_fields(f3, other):
    # F_9 shares F_3's characteristic; the field, not p, must match
    f = TruncSeries.from_ranks(f3, [1, 2, 0, 1, 1, 2])
    g = TruncSeries.one(spec_for_order(other), 6)
    for n in range(3):
        with pytest.raises(SpecMismatch, match="mixed field specs"):
            verify_leibniz(n, f, g)
        with pytest.raises(SpecMismatch, match="mixed field specs"):
            verify_leibniz(n, g, f)


def test_verify_leibniz_precision_guard(f3):
    f = TruncSeries.from_ranks(f3, [1, 2, 0, 1])
    for n, g in ((4, f), (5, f), (3, f.truncate(3)), (1, f.truncate(1))):
        with pytest.raises(InsufficientPrecision,
                           match=re.escape(f"need precision > {n} to test order {n}")):
            verify_leibniz(n, f, g)
    assert verify_leibniz(3, f, f)


def test_uinfty_constructor_guards(f3):
    with pytest.raises(ValueError):
        UInftyElem(f3, 5, [1], 3)  # upper bound below valuation
    x = UInftyElem(f3, 0, [1, 2], 4)
    with pytest.raises(ValueError):
        x.truncate_to(6)  # cannot widen
    with pytest.raises(ValueError):
        x.truncate_to(None)
    with pytest.raises(ValueError):
        x.truncate_to(0)  # would discard the leading term


def test_uinfty_exact_inverse_needs_window(f3):
    x = UInftyElem(f3, 0, [1, 1], None)  # exact binomial 1 + u
    with pytest.raises(ValueError):
        x.inverse()
    assert x.inverse(uprec=0) == UInftyElem.zero(f3, 0)  # window below u^0
    inv = x.inverse(uprec=6)
    prod = x * inv
    assert prod.coeff_rank(0) == 1
    assert all(prod.coeff_rank(i) == 0 for i in range(1, prod.uprec))


def test_upower_series_guards(f3):
    with pytest.raises(ValueError):
        UPowerSeries(f3, ())
    s = UPowerSeries.zero(f3, 3)
    with pytest.raises(InsufficientPrecision):
        s.hyperderiv(3)
    with pytest.raises(ValueError):
        s.hyperderiv(-1)
    with pytest.raises(InsufficientPrecision):
        s.truncate_t(4)
    omega = compute_omega(f3, 4, 32)
    for tprec in (0, -1):
        with pytest.raises(ValueError):
            omega.truncate_t(tprec)
    with pytest.raises(ValueError, match="column must have 2 components"):
        verify_hhat_membership(1, [s])


def test_compute_omega_guards(f3):
    with pytest.raises(ValueError):
        compute_omega(f3, 0, 16)
    with pytest.raises(ValueError):
        compute_omega(f3, 4, 0)


def test_density_arg_guards(f2, f3, monkeypatch):
    with pytest.raises(ValueError):
        image_order_brute(f2, -1, 3)
    with pytest.raises(ValueError):
        image_order_brute(f2, 1, 0)
    with pytest.raises(ValueError):
        tensor_image_order_formula(f3, 2, 0)
    with pytest.raises(ValueError):
        build_density_table(f2, 1, 3, mode="bogus")
    # an empty table would pass for a checked one
    for mode in ("formula", "brute", "both"):
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="n_max >= 1"):
                build_density_table(f2, 1, n_max, mode=mode)
            with pytest.raises(ValueError, match="n_max >= 1"):
                build_tensor_table(f3, 2, n_max, mode=mode)
    # samples < 3 never checks associativity, and samples = 0 checks
    # nothing at all; k < 0 has no jet.  Each is rejected before a jet
    # is built.
    import carlitz.density as density

    def no_jets(*args):
        raise AssertionError("a jet was built")

    monkeypatch.setattr(density.JetMatrix, "identity", no_jets)
    for k, samples in [(1, 0), (1, 1), (1, 2), (-1, 25), (-1, 0)]:
        with pytest.raises(ValueError):
            motivic_group_check(f3, k, samples=samples)
    monkeypatch.undo()
    assert motivic_group_check(f3, 1, samples=3)


def test_image_order_chunk_and_thread_guards(f3, monkeypatch):
    # threads < 1 once ran on one thread; it is rejected before any unit
    # is counted
    import carlitz.density as density

    def no_count(*args):
        raise AssertionError("units were counted")

    monkeypatch.setattr(density, "_image_count", no_count)
    for threads in (0, -3):
        with pytest.raises(ValueError):
            image_order_brute(f3, 1, 3, threads=threads)
        with pytest.raises(ValueError):
            density.build_density_table(f3, 1, 3, threads=threads)
    monkeypatch.undo()
    assert image_order_brute(f3, 1, 3, threads=2) == 18


def test_negative_orders_rejected_up_front(f3, monkeypatch):
    omega = compute_omega(f3, 4, 32)
    with pytest.raises(ValueError):
        jet_columns(omega, -1)
    for n, k in [(1, -2), (-1, 1), (-1, -1)]:
        with pytest.raises(ValueError):
            torsion_generators(omega, n, k)
    with pytest.raises(ValueError):
        extra_indices(3, 2, -1)
    with pytest.raises(ValueError):
        extra_indices(3, -1, 2)
    with pytest.raises(ValueError, match="torsion level and jet order must be nonnegative"):
        torsion_level_m(3, -1, 2)
    with pytest.raises(ValueError):
        torsion_level_m(3, 2, -1)
    for k, n in [(1, 0), (0, 0), (1, -1), (-1, 3)]:
        with pytest.raises(ValueError, match="need n >= 1 and k >= 0"):
            density_bounds(k, n, 3)
    # the iteration and Leibniz checks reject them before any kernel runs
    import carlitz.jets as jets

    def no_kernel(*args):
        raise AssertionError("a kernel ran")

    for name in ("hyperderiv_ranks", "mul_ranks", "cauchy_rows", "scale_ranks"):
        monkeypatch.setattr(jets, name, no_kernel)
    f = TruncSeries.from_ranks(f3, [1, 2, 0, 1, 1, 2, 0, 1, 2, 2, 1, 0])
    for n, m in [(-10, 9), (-1, 9), (-1, 0), (2, -1), (-1, -1)]:
        with pytest.raises(ValueError, match="derivative orders must be nonnegative"):
            verify_iteration(n, m, f)
    for n in (-1, -5):
        with pytest.raises(ValueError, match="derivative order must be nonnegative"):
            verify_leibniz(n, f, f)


def test_prolongation_action_guards(f3):
    # the order-k prolongation's t-action needs k >= 0, checked before any
    # column is read
    s = UPowerSeries.zero(f3, 3)
    for column in ([s], [s, s], ["not a series"]):
        with pytest.raises(ValueError, match="prolongation order must be nonnegative"):
            verify_hhat_membership(-1, column)


def test_theta_scale_matches_element_mul(f3):
    # the omega checks' kernel takes theta * x as x moved down by q-1 and
    # negated; alone in a window it gives -(theta * x), rank for rank
    import carlitz.cinfty as cinfty

    om = compute_omega(f3, 4, 64)
    th = theta(f3)
    for x in om.entries:
        want = th * x
        lo, hi = want.val - 2, want.uprec
        got = cinfty._twist_sum(f3, x, None, None, lo, hi, tau=False)
        assert got.ljust(hi - lo, b"\0") == bytes(2) + (-want).ranks
