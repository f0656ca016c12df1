"""The benchmark's tracer names functions of the package by string.

It skips a name it cannot resolve, so a rename in the package would
silently zero a per-layer figure; these checks fail instead.
"""

import importlib.util
import sys
from pathlib import Path

import carlitz
import carlitz.binomials
import carlitz.jets
import carlitz.series

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_name(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    resolved = {(span, attr) for span, _, attr, _ in tracing.targets()}
    for layer, name in tracing.FUNCTIONS:
        assert (f"{layer}.{name}", name) in resolved, f"{layer}.{name}"
    for layer, cls_name, meth, span in tracing.METHODS:
        assert (f"{layer}.{span}", meth) in resolved, f"{layer}.{cls_name}.{meth}"
    assert hasattr(carlitz.series, "_NP_MUL_MIN_PREC")
    # the benchmark's self-test reads the binomial through this module
    assert carlitz.jets.binom_mod_p is carlitz.binomials.binom_mod_p


def test_counter_sees_the_certify_stages(monkeypatch):
    # the per-layer counts of the certify workload come from the arguments
    # and results of these two functions
    import carlitz.density as density

    tracing = _load_tracing(monkeypatch)
    spec = carlitz.spec_for_order(3)
    with tracing.Counter() as counter:
        density.build_tensor_table(spec, 3, 6, mode="brute")
        report = density.zariski_rank_certificate(spec, 1, 2, 1, 3)
    assert counter.counts["density.tensor_image_order_brute.units"] == \
        sum(carlitz.unit_count(3, n) for n in range(1, 7))
    assert counter.calls["density.tensor_image_order_brute"] == 6
    assert counter.counts["density.zariski_rank_certificate.rank"] == report.rank == 12
    assert counter.counts["density.zariski_rank_certificate.columns"] == report.n_columns


def test_seen_hyperderivative_makes_no_binomial_calls(monkeypatch):
    # the calculus workload's binomials.binom_mod_p count: once a (p, n) row
    # is built, hyperderivatives of that order read it without a call
    tracing = _load_tracing(monkeypatch)
    spec = carlitz.spec_for_order(3)
    f = carlitz.TruncSeries.from_ranks(spec, [1, 2, 0, 1, 1, 2, 2, 0, 1, 1])
    first = carlitz.hyperderiv(4, f)
    with tracing.Counter() as counter:
        again = carlitz.hyperderiv(4, f)
    assert again == first
    assert counter.calls["jets.hyperderiv"] == 1
    assert counter.calls["binomials.binom_mod_p"] == 0
