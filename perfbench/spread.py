"""Repeat the benchmark over seeds and summarise each end-to-end metric.

Usage (from the root of a checkout):

    python3 perfbench/spread.py [--runs 10] [--seconds S] [--workload NAME ...] [--out FILE]

Runs `run.py --trace 0` once per seed (seeds 1..runs) for each workload,
one run at a time, for S seconds each (by default BENCHMARK.json's
run_seconds), and prints per metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the distance
between the quartiles as a share of the median.  With --out the summary and
every run's metrics and provenance are written as JSON; the committed
baseline was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import NAMES

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("provenance "))
    return json.loads(lines[-1]), prov


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--workload", action="append", choices=NAMES)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    report = {}
    for workload in args.workload or NAMES:
        runs = []
        for seed in range(1, args.runs + 1):
            result, prov = one_run(workload, seed, args.seconds)
            runs.append({"seed": seed, "result": result, "provenance": prov})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        names = runs[0]["result"]["metrics"]
        summary = {}
        for name in names:
            summary[name] = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            s = summary[name]
            print(f"{workload} {name}: median {s['median']:.5g} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.4f}",
                  flush=True)
        report[workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
