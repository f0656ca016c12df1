"""Self-test of the benchmark's checks and its output contract.

Run with: python3 -m pytest perfbench/test_perfbench.py
None of these tests runs a workload; the CLI is replaced by canned output.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _measure_with_canned_cli(monkeypatch, wl, outputs):
    """One pass of wl whose CLI calls return `outputs` in turn."""
    replies = iter(outputs)
    monkeypatch.setattr(workloads, "run_cli", lambda argv: next(replies))
    wl.prepare(seed=1, tmpdir=".")
    return run.measure(wl.run_pass, 0.0, run.Tally())


def test_recorded_output_passes(monkeypatch):
    wl = workloads.JetImage()
    expected = (workloads.EXPECTED / "density_q4_k3_n7.csv").read_text()
    tally = _measure_with_canned_cli(monkeypatch, wl, [(0, expected)])
    assert tally.attempted == 3 and tally.fail_frac == 0


def test_corrupted_output_counts_as_failure(monkeypatch):
    wl = workloads.JetImage()
    expected = (workloads.EXPECTED / "density_q4_k3_n7.csv").read_text()
    corrupted = expected.replace("49152,49152", "49152,49153", 1)
    assert corrupted != expected
    tally = _measure_with_canned_cli(monkeypatch, wl, [(0, corrupted)])
    assert tally.fail_frac > 0
    assert "density: bytes" in tally.failures
    assert "density: brute == formula" in tally.failures


def test_raised_step_fails_every_check_it_owns(monkeypatch):
    wl = workloads.Certify()
    zariski = (workloads.EXPECTED / "zariski_q3_k3_deg3_tdeg2_n6.json").read_text()
    tally = _measure_with_canned_cli(monkeypatch, wl, [(None, ""), (0, zariski)])
    assert tally.attempted == 5 and tally.failed == 3


def test_omega_fail_line_and_missing_dump_fail():
    expected = (workloads.EXPECTED / "omega_q9_k2_t4_u300.txt").read_text()
    sha = (workloads.EXPECTED / "omega_q9_k2_t4_u300.dump.sha256").read_text().split()[0]
    text = expected.replace("carlitz-equation: PASS", "carlitz-equation: FAIL")
    checks = dict(workloads.check_omega("omega", 1, text, None, expected, sha))
    assert not checks["omega: carlitz-equation"]
    assert not checks["omega: dump bytes"]
    assert checks["omega: hhat-membership[column 2]"]


def test_calculus_instance_checks_hold_and_catch_a_raise():
    wl = workloads.Calculus()
    wl.prepare(seed=7, tmpdir=".")
    assert all(ok for _, ok in wl.check_instance(*wl.instances[0]))
    k, f, g, n, m = wl.instances[-1]
    other = workloads.carlitz.TruncSeries.one(workloads.carlitz.spec_for_order(2), 32)
    checks = dict(wl.check_instance(k, f, other, n, m))
    assert not checks["leibniz"]      # mixed fields raise SpecMismatch


def test_benchmark_json_names_match_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sampler = tracing.Sampler()
    sampler.spans[tracing.ROOT] = [1.0, 1.0]
    reported = run.per_layer_metrics(sampler, tracing.Counter(), 1, 0.0, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert all(m["unit"] == reported[m["name"]][1] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_norm", "peak_rss_mb"}


def test_ratios_are_printed_only_where_recorded():
    counter = tracing.Counter()
    assert run.per_layer_ratios(counter, None) == {}
    counter.counts["density.image_order_brute.units"] = 8
    counter.counts["density.image_order_brute.distinct"] = 2
    assert run.per_layer_ratios(counter, 1.5) == {
        "density.image_order_brute.distinct_frac": (0.25, "ratio"),
        "density.image_order_brute.thread_speedup": (1.5, "ratio"),
    }


def test_counter_counts_calls_made_inside_the_package():
    carlitz = workloads.carlitz
    f = carlitz.TruncSeries.from_ranks(carlitz.spec_for_order(3), [1, 2, 0, 1, 1, 2])
    with tracing.Counter() as counter:
        carlitz.hyperderiv(2, f)
    assert counter.calls["jets.hyperderiv"] == 1
    assert counter.calls["binomials.binom_mod_p"] == f.prec - 2


def test_sampler_gives_time_to_the_innermost_span():
    binom = workloads.carlitz.binomials.binom_mod_p
    sampler = tracing.Sampler()
    with sampler:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.5:
            binom(3**12 - 1, 3**6 - 1, 3)
    assert sampler.samples > 0
    total = sampler.seconds(tracing.ROOT)
    assert sum(self_s for _, self_s in sampler.spans.values()) == pytest.approx(total)
    assert sampler.layer_self_seconds()["binomials"] > total / 2


def test_gauge_measures_a_pass_in_kernel_runs():
    gauge = run.Gauge()
    t0 = time.perf_counter()
    with gauge:
        while time.perf_counter() - t0 < 0.3:
            pass
    busy = time.perf_counter() - t0 - gauge.spent
    assert len(gauge.kernel_s) >= 3 and 0 < gauge.spent < busy
    expected = busy / statistics.median(gauge.kernel_s)
    assert expected / 2 < gauge.units < expected * 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "omega", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_counter_restores_every_name():
    carlitz = workloads.carlitz
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "carlitz"]
    owners += [carlitz.TruncSeries, carlitz.JetMatrix, carlitz.UInftyElem, carlitz.FqSpec]
    before = [dict(vars(o)) for o in owners]
    with tracing.Counter():
        assert carlitz.jets.binom_mod_p is not before[owners.index(carlitz.jets)]["binom_mod_p"]
    assert [dict(vars(o)) for o in owners] == before
