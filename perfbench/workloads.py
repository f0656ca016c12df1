"""The four benchmark workloads and the checks on their results.

Each workload runs the same fixed amount of work per pass, through the
`carlitz` command line (`carlitz.cli.main`, in-process) or the public
library API, and checks every result it gets back.  A check is a
(label, ok) pair; a step that raises or exits non-zero fails every check
it owns, so the number of checks per pass never depends on the outcome.

Byte-level expectations under `expected/` were produced by the seed code
(commit 2cfc6f5) with the CLI commands named in each workload, e.g.
`carlitz density --q 4 --k 3 --nmax 7 --mode both > density_q4_k3_n7.csv`.
The certificate's JSON is compared as recorded, so the benchmark neither
relies on nor hides the red criterion-8 sub-case.

Only calculus draws its inputs from the seed; the three CLI workloads run
fixed commands, so for them the seed changes nothing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import carlitz
import carlitz.cli

EXPECTED = Path(__file__).resolve().parent / "expected"


def run_cli(argv):
    """Run the CLI in-process; returns (exit code or None if it raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = carlitz.cli.main(argv)
    except Exception:  # an uncaught error is a failed result, not a crash
        code = None
    return code, out.getvalue()


def check_table(label, code, text, expected):
    """Exit code, recorded bytes, and the mode-both brute/formula agreement."""
    agree = False
    if code == 0:
        rows = list(csv.DictReader(io.StringIO(text)))
        agree = bool(rows) and all(
            r.get("D_brute") and r.get("D_brute") == r.get("D_formula") for r in rows
        )
    return [
        (f"{label}: exit 0", code == 0),
        (f"{label}: bytes", text == expected),
        (f"{label}: brute == formula", agree),
    ]


def check_omega(label, code, text, dump, expected_text, expected_sha):
    """Exit code, every expected verification line PASS, stdout and dump bytes."""
    lines = set(text.splitlines())
    checks = [(f"{label}: exit 0", code == 0)]
    for line in expected_text.splitlines():
        name = line.rsplit(":", 1)[0]
        checks.append((f"{label}: {name}", f"{name}: PASS" in lines))
    checks.append((f"{label}: bytes", text == expected_text))
    checks.append((f"{label}: dump bytes",
                   dump is not None and hashlib.sha256(dump).hexdigest() == expected_sha))
    return checks


def check_json(label, code, text, expected):
    return [(f"{label}: exit 0", code == 0), (f"{label}: bytes", text == expected)]


def _read(name):
    return (EXPECTED / name).read_text(encoding="utf-8")


class PassResult:
    __slots__ = ("checks", "output_bytes")

    def __init__(self, checks, output_bytes=0):
        self.checks = checks
        self.output_bytes = output_bytes


class Workload:
    """One named input set.

    `fields` are the orders whose tables set-up builds; `heavy` are the
    layers expected to take most of a pass, `light` those expected to take
    little (checked by the traced run).
    """

    name = ""
    fields: tuple = ()
    heavy: tuple = ()
    light: tuple = ()
    work_unit = ""
    work_per_pass = 0

    def prepare(self, seed, tmpdir):
        """Build inputs from the seed and load expectations; not timed."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def inputs(self):
        return {}


class JetImage(Workload):
    name = "jet-image"
    fields = (4,)
    heavy = ("density",)
    light = ("binomials", "series", "cinfty")
    work_unit = "unit enumerated"
    Q, K, NMAX = 4, 3, 7
    ARGV = ["density", "--q", "4", "--k", "3", "--nmax", "7", "--mode", "both"]
    # units mod t^(N+k) for N = 1..7
    work_per_pass = sum(carlitz.unit_count(4, n + 3) for n in range(1, 8))

    def prepare(self, seed, tmpdir):
        self.expected = _read("density_q4_k3_n7.csv")

    def run_pass(self):
        code, text = run_cli(self.ARGV)
        return PassResult(check_table("density", code, text, self.expected),
                          len(text.encode()))

    def thread_probe(self):
        """Time the largest cell at 1 and 2 threads; both must agree, as bytes too."""
        spec = carlitz.spec_for_order(self.Q)
        seconds, counts = {}, {}
        for threads in (1, 2):
            t0 = time.perf_counter()
            counts[threads] = carlitz.image_order_brute(spec, self.K, self.NMAX,
                                                        threads=threads)
            seconds[threads] = time.perf_counter() - t0
        code, text = run_cli(self.ARGV + ["--threads", "2"])
        checks = [("probe: cell count threads 1 == 2", counts[1] == counts[2])]
        checks += check_table("probe: density --threads 2", code, text, self.expected)
        return seconds[1] / seconds[2], checks

    def inputs(self):
        return {"q": self.Q, "k": self.K, "nmax": self.NMAX, "mode": "both",
                "format": "csv"}


class Omega(Workload):
    name = "omega"
    fields = (2, 9)
    # Sampled, FqSpec.element alone takes about 0.6 of a pass, the rest of
    # cinfty most of the remainder.
    heavy = ("cinfty", "field")
    light = ("density", "binomials")
    work_unit = "declared omega coefficient"
    # (q, k, tprec, uprec, declared coefficients = sum of window widths)
    RUNS = ((2, 2, 32, 1024, 32737), (9, 2, 4, 300, 1200))
    work_per_pass = sum(r[4] for r in RUNS)

    def prepare(self, seed, tmpdir):
        self.steps = []
        for q, k, tprec, uprec, _ in self.RUNS:
            stem = f"omega_q{q}_k{k}_t{tprec}_u{uprec}"
            dump = Path(tmpdir) / f"{stem}.json"
            argv = ["omega-verify", "--q", str(q), "--k", str(k), "--tprec", str(tprec),
                    "--uprec", str(uprec), "--dump-omega", str(dump)]
            sha = _read(f"{stem}.dump.sha256").split()[0]
            self.steps.append((stem, argv, dump, _read(f"{stem}.txt"), sha))

    def run_pass(self):
        checks, nbytes = [], 0
        for stem, argv, dump, expected, sha in self.steps:
            dump.unlink(missing_ok=True)
            code, text = run_cli(argv)
            blob = dump.read_bytes() if dump.exists() else None
            checks += check_omega(stem, code, text, blob, expected, sha)
            nbytes += len(text.encode()) + len(blob or b"")
        return PassResult(checks, nbytes)

    def inputs(self):
        return {"runs": [{"q": q, "k": k, "tprec": t, "uprec": u, "declared": w}
                         for q, k, t, u, w in self.RUNS]}


class Calculus(Workload):
    name = "calculus"
    fields = (2, 3, 4)
    # binom_mod_p is the largest single layer but, traced, not over half;
    # with jets.hyperderiv, its only caller here, it is.
    heavy = ("binomials", "jets")
    light = ("density", "cinfty", "cli")
    work_unit = "instance checked"
    T = 32
    PER_CONFIG = 100
    CONFIGS = tuple((q, k) for q in (2, 3, 4) for k in range(4))
    work_per_pass = PER_CONFIG * len(CONFIGS)

    def prepare(self, seed, tmpdir):
        rng = random.Random(seed)
        self.instances = []
        for q, k in self.CONFIGS:
            spec = carlitz.spec_for_order(q)
            for _ in range(self.PER_CONFIG):
                f, g = (carlitz.TruncSeries.from_ranks(
                    spec, [rng.randrange(q) for _ in range(self.T)]) for _ in range(2))
                self.instances.append((k, f, g, rng.randrange(5), rng.randrange(4)))

    @staticmethod
    def check_instance(k, f, g, n, m):
        cz = carlitz
        identities = (
            ("leibniz", lambda: cz.verify_leibniz(n, f, g)),
            ("iteration", lambda: cz.verify_iteration(n, m, f)),
            ("taylor", lambda: cz.verify_taylor(f)),
            ("jet homomorphism", lambda: cz.jet(k, f * g) == cz.jet(k, f) * cz.jet(k, g)),
        )
        checks = []
        for label, identity in identities:
            try:
                ok = identity() is True
            except Exception:  # a raised check is a failed result
                ok = False
            checks.append((label, ok))
        return checks

    def run_pass(self):
        checks = []
        for inst in self.instances:
            checks += self.check_instance(*inst)
        return PassResult(checks)

    def inputs(self):
        return {"q": [2, 3, 4], "k": [0, 1, 2, 3], "T": self.T,
                "instances_per_config": self.PER_CONFIG,
                "instances": self.work_per_pass}


class Certify(Workload):
    name = "certify"
    fields = (3,)
    heavy = ("density", "series")
    light = ("cinfty", "binomials")
    work_unit = "unit processed"
    TENSOR = ["tensor", "--q", "3", "--d", "3", "--nmax", "10", "--mode", "both"]
    ZARISKI = ["zariski", "--q", "3", "--k", "3", "--deg", "3", "--tdeg", "2", "--n", "6"]
    # tensor: units mod t^N for N = 1..10; zariski: all units mod t^(6+3)
    work_per_pass = (sum(carlitz.unit_count(3, n) for n in range(1, 11))
                     + carlitz.unit_count(3, 9))

    def prepare(self, seed, tmpdir):
        self.expected_tensor = _read("tensor_q3_d3_n10.csv")
        self.expected_zariski = _read("zariski_q3_k3_deg3_tdeg2_n6.json")

    def run_pass(self):
        code, text = run_cli(self.TENSOR)
        checks = check_table("tensor", code, text, self.expected_tensor)
        code, text2 = run_cli(self.ZARISKI)
        checks += check_json("zariski", code, text2, self.expected_zariski)
        return PassResult(checks, len(text.encode()) + len(text2.encode()))

    def inputs(self):
        return {"tensor": {"q": 3, "d": 3, "nmax": 10, "mode": "both"},
                "zariski": {"q": 3, "k": 3, "deg": 3, "tdeg": 2, "n": 6}}


WORKLOADS = {w.name: w for w in (JetImage, Omega, Calculus, Certify)}
