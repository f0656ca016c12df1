"""The benchmark's tracer names functions of the package by string.

It skips a name it cannot resolve, so a rename in the package would
silently zero a per-layer figure; these checks fail instead.  Three more
checks keep the README's CLI synopsis in step with the parser, each
class's unchecked constructor in one place, and the package free of
thread pools.
"""

import argparse
import ast
import contextlib
import io
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import carlitz
import carlitz.binomials
import carlitz.cli
import carlitz.jets

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
PACKAGE = Path(carlitz.__file__).resolve().parent


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


def test_counter_sees_the_jet_image_stages(monkeypatch):
    # the jet-image workload's per-layer counts come from the arguments of
    # image_order_brute, so the table must reach the count through it
    import carlitz.density as density

    tracing = _load_tracing(monkeypatch)
    with tracing.Counter() as counter:
        density.build_density_table(carlitz.spec_for_order(4), 3, 3, mode="brute")
    assert counter.calls["density.image_order_brute"] == 3
    assert counter.counts["density.image_order_brute.units"] == \
        sum(carlitz.unit_count(4, n + 3) for n in range(1, 4))


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


def test_omega_makes_one_product_per_factor_and_entry(monkeypatch):
    # factor i enters by the recurrence new_n = old_n + c new_(n-1): one
    # lane-int step (entry n-1 moved up, added into entry n) per entry
    # n >= 1, where a t-convolution would make about tprec^2/2, each no wider
    # than the entry's declared window, with no UInftyElem arithmetic and no
    # rank-byte addition at all
    import carlitz.cinfty as cinfty
    import carlitz.series as series

    steps, arith, byte_adds = [], [], []
    add_lanes = cinfty.add_lanes

    def spy_step(p, x, y, ones, bias, flag):
        out = add_lanes(p, x, y, ones, bias, flag)
        steps.append(tuple(v.bit_length() for v in (x, y, ones, bias, out)))
        return out

    def spy_arith(name):
        method = getattr(cinfty.UInftyElem, name)

        def spy(*args):
            arith.append(name)
            return method(*args)
        return spy

    def spy_bytes(*args):
        byte_adds.append(args)
        return series._add_bytes(*args)

    monkeypatch.setattr(cinfty, "add_lanes", spy_step)
    monkeypatch.setattr(cinfty, "_add_bytes", spy_bytes)
    monkeypatch.setattr(series, "_add_bytes", spy_bytes)
    for name in ("__add__", "__mul__", "__rmul__"):
        monkeypatch.setattr(cinfty.UInftyElem, name, spy_arith(name))
    spec = carlitz.spec_for_order(2)
    omega = carlitz.compute_omega(spec, 32, 1024)
    monkeypatch.undo()
    factors = 10  # (q-1) q^i < 1024 exactly for i < 10
    assert len(steps) == factors * (32 - 1) == 310
    assert arith == [] and byte_adds == []
    col = series.lane_format(spec).col  # bits per rank
    for k, bits in enumerate(steps):
        n = k % 31 + 1
        window = omega.entries[n].uprec - (n - 1)  # [v_n, uprec), v_n = n-1
        assert max(bits) <= col * window


def test_omega_checks_decide_each_identity_once_on_rank_bytes(monkeypatch):
    # omega-verify's three checks on (2, 32, 1024), k = 2: every entry is
    # decided by the rank-byte kernel with no UInftyElem arithmetic, the
    # Carlitz and prolongation lines share one decision per t-index m, and
    # the hhat columns one per (component pair, entry)
    import carlitz.cinfty as cinfty

    omega = carlitz.compute_omega(carlitz.spec_for_order(2), 32, 1024)
    arith, decided = [], []
    twist_holds = cinfty._twist_holds

    def spy_twist(spec, x, y, z, membership):
        decided.append((membership, x, y, z))
        return twist_holds(spec, x, y, z, membership)

    def spy_arith(name):
        method = getattr(cinfty.UInftyElem, name)

        def spy(*args):
            arith.append(name)
            return method(*args)
        return classmethod(lambda cls, *args: spy(*args)) if name == "_normal" else spy

    monkeypatch.setattr(cinfty, "compute_omega", lambda *args: omega)
    jet_columns, made = cinfty.jet_columns, []
    monkeypatch.setattr(cinfty, "jet_columns", lambda *args: made.append(jet_columns(*args))
                        or made[-1])
    monkeypatch.setattr(cinfty, "_twist_holds", spy_twist)
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "frobenius", "_normal"):
        monkeypatch.setattr(cinfty.UInftyElem, name, spy_arith(name))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = carlitz.cli.main(["omega-verify", "--q", "2", "--k", "2",
                                 "--tprec", "32", "--uprec", "1024"])
    monkeypatch.undo()
    assert code == 0 and out.getvalue().count("PASS") == 5
    assert arith == []
    # one decision per t-index m, shared by the Carlitz and prolongation lines
    carlitz_m = [x for membership, x, _, _ in decided if not membership]
    assert [id(x) for x in carlitz_m] == [id(x) for x in omega.entries]
    # one per entry n < tprec - k = 30 of each pair (D^(m) omega,
    # D^(m-1) omega), m <= k, where the three columns checked apart make 30
    # for each of their 9 components; the zero component's 30 are trivial
    [columns] = made
    ds, zero = columns[2], columns[0][1]
    want = [(d.entries[n], nxt and nxt.entries[n], d.entries[n - 1] if n else None)
            for d, nxt in [(ds[2], None), (zero, None), (ds[1], ds[2]), (ds[0], ds[1])]
            for n in range(30)]
    got = [(x, y, z) for membership, x, y, z in decided if membership]
    assert len(got) == 120
    assert [tuple(map(id, g)) for g in got] == [tuple(map(id, w)) for w in want]


@pytest.mark.parametrize("mutation", ["drop tau", "plus theta"])
def test_omega_check_kernel_mutations_fail(monkeypatch, mutation):
    # a kernel without the tau(x) term, or with theta = +u^(-(q-1)), must
    # fail every check on the true omega; q = 3, since over F_2 theta = -theta
    import carlitz.cinfty as cinfty
    from carlitz.series import add_ranks, scale_ranks

    spec = carlitz.spec_for_order(3)
    omega = carlitz.compute_omega(spec, 8, 128)
    columns = carlitz.jet_columns(omega, 2)
    twist_sum = cinfty._twist_sum

    def mutated(spec, x, y, z, lo, hi, tau=True):
        if mutation == "drop tau":
            return twist_sum(spec, x, y, z, lo, hi, False)
        # the kernel's sum carries -theta x; add 2 theta x to flip its sign
        minus_theta = twist_sum(spec, x, None, None, lo, hi, False)
        return add_ranks(spec, twist_sum(spec, x, y, z, lo, hi, tau),
                         scale_ranks(spec, spec.p - 2, minus_theta), 0, hi - lo)

    assert carlitz.verify_prolongation_trivialization(omega, 2)
    assert carlitz.hhat_verdicts(2, columns) == [True] * 3
    monkeypatch.setattr(cinfty, "_twist_sum", mutated)
    assert not carlitz.verify_carlitz_equation(omega)
    assert not carlitz.verify_prolongation_trivialization(omega, 2)
    assert carlitz.hhat_verdicts(2, columns) == [False] * 3


def _readme_synopses():
    """The README's CLI synopsis, one text per command, continuation lines joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    synopses = {}
    command = None
    for line in block.splitlines():
        if line.startswith("carlitz "):
            command = line.split()[1]
            synopses[command] = line
        elif line.strip() and command:
            synopses[command] += " " + line.strip()
    return synopses


def test_readme_synopsis_lists_every_option():
    sub = next(a for a in carlitz.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    synopses = _readme_synopses()
    assert set(synopses) == set(sub.choices)
    for command, parser in sub.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                assert re.search(re.escape(option) + r"(?![\w-])", synopses[command]), \
                    f"{command} {option}"


def test_one_unchecked_constructor_per_class():
    # object.__new__ skips every check a constructor makes, so each class
    # has one place that uses it, for results a kernel already made valid
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__new__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                found.add(f"{module}.{'.'.join(scope)}")
            visit(child, module, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    assert found == {"series._series", "jets.JetMatrix._of", "cinfty.UInftyElem._make"}


def test_package_imports_no_thread_pool():
    # the counts run on one thread; a fresh interpreter shows whether any
    # module of the package (or the CLI) still pulls in concurrent.futures
    src = os.path.dirname(os.path.dirname(carlitz.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, carlitz, carlitz.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
