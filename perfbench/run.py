"""Benchmark for carlitz: time to a verified result on four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of jet-image, omega, calculus, certify (see workloads.py and
BENCHMARK.json for what each runs and why); `all` runs each in its own
process.  The program is imported from the checkout's `src/`.

A run repeats one fixed pass of its workload for about S seconds, checks
every result of every pass, and reports medians over passes.  Every pass
does the same work, built once from the seed before timing starts.

--trace 0 reports the end-to-end metrics:
  setup_s      set-up time: median over nine fresh processes of the CPU
               time from process start to ready (import numpy and carlitz,
               build field tables), each over a reference start-up timed
               around it, in seconds of a machine where that takes 0.1 s
  wall_norm    median over passes of the pass time (start to a verified
               result) in runs of a fixed kernel timed during the pass
               (see Gauge)
  peak_rss_mb  peak resident memory of this process, less the gauge's
               buffer
and prints, outside the result line, setup_cpu_s (median set-up CPU
seconds, unscaled), wall_s (median pass time in seconds), work_per_s (work
units of one pass over wall_s) and ref_s.  On the 2-vCPU
virtual machine of baseline.json the pass time of a fixed workload moved
by up to half between runs minutes apart; wall_norm moves with the program
and far less with the machine, so it is the bounded time metric.
--trace 1 runs untraced and sampled passes in turn, then one counted
pass (see tracing.py).  It reports per-layer span times per sampled pass,
call counts per pass, the layers' shares of the sampled pass time, and the
cost of sampling (trace.overhead_frac: sampled over untraced pass time,
minus 1).  Ratios (distinct_frac, rank_frac) are printed only on the
workloads that record their inputs, and only jet-image probes the thread
count of its largest cell (thread_speedup, printed).

Human-readable lines (metrics with units, fail_frac, provenance) come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every check
passed; it is 2, with no JSON line, when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("jet-image", "omega", "calculus", "certify")
SETUP_PROBES = 9
# Reference start-up CPU seconds that setup_s is scaled to (see setup_seconds).
REF_SETUP_S = 0.1
# An end-to-end run takes at least this many passes, so that its median
# has three values even when the machine is slow.
MIN_PASSES = 3
SETUP_TIMEOUT_S = 60

# Share of traced pass time above which a layer "takes most" of a workload,
# and below which it "takes little".
HEAVY_SHARE = 0.5
LIGHT_SHARE = 0.05


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def probe_setup(orders=None):
    """Start a fresh interpreter that sets up (or, with no orders, starts the
    reference); return its CPU seconds until ready."""
    args = [str(q) for q in orders] if orders is not None else ["--reference"]
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + args
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline().split()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if len(line) != 2 or line[0] != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return float(line[1])


def setup_seconds(orders):
    """setup_s, and the median set-up CPU seconds it is scaled from.

    Each probe is divided by the mean of the reference start-ups run just
    before and just after it, and the median ratio is given in seconds of
    a machine on which the reference takes REF_SETUP_S.  CPU time leaves
    out the time the host takes the CPU away; the ratio leaves out the
    machine running slower or faster, which on the machine of baseline.json
    moved the raw set-up time by up to 80 % between runs an hour apart.
    """
    probes, ratios = [], []
    before = probe_setup()
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(orders))
        after = probe_setup()
        ratios.append(probes[-1] / ((before + after) / 2))
        before = after
    return statistics.median(ratios) * REF_SETUP_S, statistics.median(probes)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Tally:
    """Pass times and check outcomes of one measured phase."""

    def __init__(self):
        self.times = []
        self.units = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.output_bytes = 0

    def add_checks(self, checks):
        self.attempted += len(checks)
        for label, ok in checks:
            if not ok:
                self.failed += 1
                self.failures.append(label)

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


class Gauge:
    """The speed of the machine during a pass, read by a small fixed kernel.

    On the shared virtual machine of baseline.json the same code runs at
    speeds up to twice apart, in spells of a few seconds, mostly as memory
    is contended: a kernel timed before and after a pass of several
    seconds misses the spells inside it.  So about every INTERVAL_S of
    wall time (SIGALRM) the kernel reads STEPS bytes at random from a
    BUFFER_BYTES buffer, well beyond the core's own caches, and times
    itself.  A pass is measured in kernel runs: the sum, over the spans of
    wall time between readings, of each span over the median of the last
    WINDOW kernel times (one reading alone is noisy, and during a long call
    into C, as in numpy, no reading can be taken, so spans can be long).
    The kernel's own time, about 3 % of a pass, is left out.
    """

    INTERVAL_S = 0.02
    STEPS = 1000
    BUFFER_BYTES = 1 << 24
    WINDOW = 9

    def __init__(self):
        self.buffer = bytearray(range(256)) * (self.BUFFER_BYTES // 256)
        self._at = 12345
        self.kernel_s = []
        self.units = 0.0
        self.spent = 0.0
        self._last = 0.0
        self._old = None

    def kernel(self):
        buf, mask, at = self.buffer, self.BUFFER_BYTES - 1, self._at
        total = 0
        for _ in range(self.STEPS):
            at = (at * 1103515245 + 12345) & mask
            total += buf[at]
        self._at = at
        return total

    def _read(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.kernel_s.append(t1 - t0)
        self.units += (t0 - self._last) / statistics.median(self.kernel_s[-self.WINDOW:])
        self.spent += t1 - t0
        self._last = t1

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._read)
        self.spent = 0.0
        self._read()              # marks the start; the span before it is not the pass
        self.units = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._read()


def measure_once(run_pass, times):
    t0 = time.perf_counter()
    result = run_pass()
    times.append(time.perf_counter() - t0)
    return result


def measure(run_pass, seconds, tally, min_passes=1, gauge=None):
    """Repeat passes while the next one is expected to end within `seconds`.

    With a `gauge`, each pass also records its length in kernel runs, and
    its time leaves out the gauge's own.
    """
    start = time.perf_counter()
    cycles = []
    while True:
        t0 = time.perf_counter()
        if gauge is None:
            result = run_pass()
            tally.times.append(time.perf_counter() - t0)
        else:
            with gauge:
                result = run_pass()
            tally.times.append(time.perf_counter() - t0 - gauge.spent)
            tally.units.append(gauge.units)
        tally.add_checks(result.checks)
        tally.output_bytes = result.output_bytes
        cycles.append(time.perf_counter() - t0)
        spent = time.perf_counter() - start
        if len(cycles) >= min_passes and spent + statistics.median(cycles) > seconds:
            return tally


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def provenance(wl, args, pass_s):
    import numpy

    sha, dirty = "unknown", "unknown"
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "carlitz").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pass_s": [round(t, 4) for t in pass_s],
        "git_sha": sha, "dirty": dirty, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "work_unit": wl.work_unit, "work_per_pass": wl.work_per_pass,
        "inputs": wl.inputs(),
    }


def per_layer_metrics(sampler, counter, passes, overhead, output_bytes):
    """Every per-layer metric of BENCHMARK.json, per pass.

    Times are per sampled pass, calls and counts from one counted pass.  The
    result line of a traced run carries every name, as BENCHMARK.json's
    contract asks; each value is measured, so a span the workload never
    enters reads as its true 0 calls and 0 s.  No value is a stand-in for
    "not measured": figures that would need one (the thread probe's speedup
    and the ratios of per_layer_ratios) are printed, not put in the result.
    """
    from tracing import ROOT as ROOT_SPAN

    m = {}
    for span in ("density.image_order_brute", "binomials.binom_mod_p",
                 "series.mul_small", "series.mul_np", "jets.hyperderiv", "jets.jet",
                 "cinfty.UInftyElem.mul"):
        m[f"{span}.s"] = (sampler.seconds(span) / passes, "s")
        m[f"{span}.calls"] = (counter.calls[span], "count")
    for span in ("density.image_order_formula", "density.build_density_table",
                 "density.tensor_image_order_brute", "density.zariski_rank_certificate",
                 "cinfty.compute_omega", "cinfty.verify_carlitz_equation",
                 "cinfty.verify_prolongation_trivialization",
                 "cinfty.verify_hhat_membership", "field.spec_for_order"):
        m[f"{span}.s"] = (sampler.seconds(span) / passes, "s")
    for name in ("density.image_order_brute.units", "density.tensor_image_order_brute.units"):
        m[name] = (counter.counts[name], "count")
    for span in ("cinfty.UInftyElem.init", "field.FqSpec.element"):
        m[f"{span}.calls"] = (counter.calls[span], "count")
    m["cli.main.s"] = (sampler.self_seconds("cli.main") / passes, "s")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    pass_s = sampler.seconds(ROOT_SPAN)
    for layer, self_s in sampler.layer_self_seconds().items():
        m[f"layer.{layer}.self_frac"] = (self_s / pass_s, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def per_layer_ratios(counter, speedup):
    """Ratios printed by a traced run only where their inputs were recorded."""
    shown = {}
    counts = counter.counts
    if counts["density.image_order_brute.units"]:
        shown["density.image_order_brute.distinct_frac"] = (
            counts["density.image_order_brute.distinct"]
            / counts["density.image_order_brute.units"], "ratio")
    if counts["density.zariski_rank_certificate.columns"]:
        shown["density.zariski_rank_certificate.rank_frac"] = (
            counts["density.zariski_rank_certificate.rank"]
            / counts["density.zariski_rank_certificate.columns"], "ratio")
    if speedup is not None:
        shown["density.image_order_brute.thread_speedup"] = (speedup, "ratio")
    return shown


def layer_verdict(wl, metrics):
    share = {layer: metrics[f"layer.{layer}.self_frac"][0]
             for layer in wl.heavy + wl.light}
    heavy = sum(share[layer] for layer in wl.heavy)
    ok = heavy > HEAVY_SHARE and all(share[layer] < LIGHT_SHARE for layer in wl.light)
    light = ", ".join(f"{layer} {share[layer]:.3f}" for layer in wl.light)
    return (f"{wl.name}: heavy {'+'.join(wl.heavy)} {heavy:.3f} of sampled pass time "
            f"(> {HEAVY_SHARE}); light {light} (each < {LIGHT_SHARE}): "
            f"{'as stated' if ok else 'NOT as stated'}")


def emit(wl, tally, metrics, shown, prov):
    """Print every metric, then the result line with the bounded ones only."""
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{wl.name} {name} {value:.6g} {unit}")
    print(f"{wl.name} fail_frac {tally.fail_frac:.6g} "
          f"({tally.failed} of {tally.attempted} checks failed)")
    for label in sorted(set(tally.failures))[:20]:
        print(f"{wl.name} FAILED {label}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def run_all(args):
    codes = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return 0 if not any(codes) else 1


def run_one(args):
    sys.path.insert(0, str(SRC))
    try:
        from setup_probe import set_up
        import workloads
        import tracing
    except ImportError as exc:
        print(f"perfbench: cannot import carlitz from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    try:
        setup = setup_seconds(wl.fields) if not args.trace else None
        set_up(wl.fields)
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2

    # The omega dumps go to a file; the benchmark writes only inside its
    # checkout, so their directory is there (and ignored by git).
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl.prepare(args.seed, tmpdir)
        tally = Tally()
        if not args.trace:
            gauge = Gauge()
            measure(wl.run_pass, args.seconds, tally, MIN_PASSES, gauge)
            wall = statistics.median(tally.times)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            metrics = {
                "setup_s": (setup[0], "s"),
                "wall_norm": (statistics.median(tally.units), "ref"),
                # the gauge's buffer is the benchmark's, not the program's
                "peak_rss_mb": ((rss - Gauge.BUFFER_BYTES) / 2**20, "MB"),
            }
            shown = {
                "setup_cpu_s": (setup[1], "s"),
                "wall_s": (wall, "s"),
                "work_per_s": (wl.work_per_pass / wall, f"{wl.work_unit}/s"),
                "ref_s": (statistics.median(gauge.kernel_s), "s"),
            }
            pass_s = tally.times
        else:
            sampler = tracing.Sampler()
            untraced, sampled = [], []

            def pair():
                """One untraced and one sampled pass, back to back."""
                first = measure_once(wl.run_pass, untraced)
                with sampler:
                    second = measure_once(wl.run_pass, sampled)
                return workloads.PassResult(first.checks + second.checks,
                                            second.output_bytes)

            measure(pair, args.seconds, tally)
            counter = tracing.Counter()
            with counter:
                tally.add_checks(wl.run_pass().checks)
            speedup = None
            if hasattr(wl, "thread_probe"):
                speedup, checks = wl.thread_probe()
                tally.add_checks(checks)
            overhead = statistics.median(b / a for a, b in zip(untraced, sampled)) - 1
            metrics = per_layer_metrics(sampler, counter, len(sampled), overhead,
                                        tally.output_bytes)
            shown = per_layer_ratios(counter, speedup)
            print(layer_verdict(wl, metrics))
            pass_s = untraced + sampled
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return emit(wl, tally, metrics, shown, provenance(wl, args, pass_s))


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 64
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
