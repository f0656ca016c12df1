import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carlitz
import carlitz.cli
from carlitz.cli import EX_BUDGET, EX_MISMATCH, EX_OK, EX_USAGE, main

from conftest import kernel_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_basic(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run(capsys, "density", "--q", "2", "--k", "1", "--nmax", "8",
                     "--mode", "both", "--out", str(out))
    assert code == EX_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "N,D_brute,D_formula,extra_m,delta_hat_num,delta_hat_den,delta_hat_real"
    assert len(lines) == 9
    for line in lines[1:]:
        n, db, df = line.split(",")[:3]
        assert db == df


def test_density_k0_closed_form(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run(capsys, "density", "--q", "5", "--k", "0", "--nmax", "6",
                     "--out", str(out))
    assert code == EX_OK
    rows = out.read_text().splitlines()[1:]
    for i, line in enumerate(rows, start=1):
        assert int(line.split(",")[2]) == 4 * 5 ** (i - 1)


def test_density_formula_only_large_k(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, _, _ = run(capsys, "density", "--q", "2", "--k", "9", "--nmax", "30",
                     "--mode", "formula", "--out", str(out))
    assert code == EX_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 31
    assert all(line.split(",")[1] == "" for line in lines[1:])  # no brute column


def test_density_budget_exit(capsys):
    code, _, err = run(capsys, "density", "--q", "2", "--k", "0", "--nmax", "40",
                       "--mode", "brute")
    assert code == EX_BUDGET
    assert "budget" in err


def test_density_json_header(tmp_path, capsys):
    out = tmp_path / "d.json"
    code, _, _ = run(capsys, "density", "--q", "3", "--k", "1", "--nmax", "4",
                     "--format", "json", "--out", str(out))
    assert code == EX_OK
    obj = json.loads(out.read_text())
    assert obj["header"] == {"q": 3, "p": 3, "e": 1, "k": 1, "mode": "both",
                             "seed": 1729}
    assert [r["N"] for r in obj["rows"]] == [1, 2, 3, 4]
    assert obj["rows"][1]["D_brute"] == 18


def test_tensor_cli(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, "tensor", "--q", "2", "--d", "2", "--nmax", "8",
                     "--mode", "both", "--out", str(out))
    assert code == EX_OK
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 8
    # trend toward 1/2: exponent is floor((N-1)/2)
    assert [int(r.split(",")[4]) for r in rows] == [(n - 1) // 2 for n in range(1, 9)]


def test_tensor_density_one_when_prime_to_p(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, "tensor", "--q", "3", "--d", "2", "--nmax", "8",
                     "--out", str(out))
    assert code == EX_OK
    rows = out.read_text().splitlines()[1:]
    assert [int(r.split(",")[4]) for r in rows] == list(range(8))  # E = N-1


def test_staircase_d4(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, "tensor", "--q", "2", "--d", "4", "--nmax", "12",
                     "--mode", "formula", "--out", str(out))
    assert code == EX_OK
    rows = out.read_text().splitlines()[1:]
    assert [int(r.split(",")[4]) for r in rows] == [(n - 1) // 4 for n in range(1, 13)]


def test_omega_verify_pass(capsys):
    code, out, _ = run(capsys, "omega-verify", "--q", "2", "--k", "2",
                       "--tprec", "8", "--uprec", "128")
    assert code == EX_OK
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_omega_verify_k0(capsys):
    code, out, _ = run(capsys, "omega-verify", "--q", "3", "--k", "0",
                       "--tprec", "4", "--uprec", "32")
    assert code == EX_OK
    assert "carlitz-equation: PASS" in out


def test_omega_verify_precision_error_exit(capsys):
    # jet columns need tprec > k
    code, _, err = run(capsys, "omega-verify", "--q", "2", "--k", "3",
                       "--tprec", "2", "--uprec", "16")
    assert code == EX_BUDGET


def test_omega_verify_usage_error(capsys):
    code, _, err = run(capsys, "omega-verify", "--q", "2", "--k", "0",
                       "--tprec", "0", "--uprec", "32")
    assert code == EX_USAGE
    assert "tprec" in err


def test_omega_dump(tmp_path, capsys):
    dump = tmp_path / "omega.json"
    code, _, _ = run(capsys, "omega-verify", "--q", "2", "--k", "0",
                     "--tprec", "4", "--uprec", "32", "--dump-omega", str(dump))
    assert code == EX_OK
    obj = json.loads(dump.read_text())
    assert obj["q"] == 2 and len(obj["entries"]) == 4
    assert obj["entries"][0]["val"] == -1


EXPECTED_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected")


@pytest.mark.parametrize("q,tprec,uprec", [(2, 32, 1024), (9, 4, 300)])
def test_omega_verify_matches_recorded_bytes(tmp_path, capsys, q, tprec, uprec):
    # the stdout and dump bytes recorded for the benchmark, read and not written
    stem = f"omega_q{q}_k2_t{tprec}_u{uprec}"
    dump = tmp_path / f"{stem}.json"
    code, out, _ = run(capsys, "omega-verify", "--q", str(q), "--k", "2",
                       "--tprec", str(tprec), "--uprec", str(uprec),
                       "--dump-omega", str(dump))
    assert code == EX_OK
    with open(os.path.join(EXPECTED_DIR, f"{stem}.txt"), encoding="utf-8") as fh:
        assert out == fh.read()
    with open(os.path.join(EXPECTED_DIR, f"{stem}.dump.sha256"), encoding="utf-8") as fh:
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == fh.read().split()[0]
    for entry in json.loads(dump.read_text())["entries"]:
        assert type(entry["coeffs"]) is list
        assert all(type(c) is int for c in entry["coeffs"])


def _dump_payload(omega):
    """The --dump-omega document as the object _json_text would encode."""
    return {
        "q": omega.spec.q,
        "tprec": omega.tprec,
        "entries": [
            {"n": n, "val": None if e.is_zero else e.val, "uprec": e.uprec,
             "coeffs": list(e.ranks)}
            for n, e in enumerate(omega.entries)
        ],
    }


@pytest.mark.parametrize("q,tprec,uprec", [(2, 32, 1024), (9, 4, 300), (3, 3, 16)])
def test_omega_dump_text_is_the_json_encoding(q, tprec, uprec):
    omega = carlitz.compute_omega(carlitz.spec_for_order(q), tprec, uprec)
    text = carlitz.cli._omega_dump_text(omega)
    assert text == carlitz.cli._json_text(_dump_payload(omega))


def test_omega_dump_text_of_odd_entries():
    # zero entries (val null), an exact window (uprec null), every rank of F_256
    spec = kernel_spec("2^8")
    entries = [carlitz.UInftyElem.zero(spec, 5), carlitz.UInftyElem.zero(spec),
               carlitz.UInftyElem(spec, -3, list(range(256)), None),
               carlitz.UInftyElem(spec, 2, [255, 0, 7], 9)]
    odd = carlitz.UPowerSeries(spec, entries)
    assert carlitz.cli._omega_dump_text(odd) == carlitz.cli._json_text(_dump_payload(odd))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_rank_list_text_is_the_decimal_join(ranks):
    assert carlitz.cli._rank_list_text(ranks) == ",".join(map(str, ranks))


def test_rep_example(capsys):
    code, out, _ = run(capsys, "rep", "--q", "2", "--k", "1", "--n", "2",
                       "--unit", "1+t+t^2")
    assert code == EX_OK
    obj = json.loads(out)
    assert obj["rows"] == ["1+t", "1"]


def test_rep_parse_error(capsys):
    code, _, err = run(capsys, "rep", "--q", "2", "--k", "1", "--n", "2",
                       "--unit", "1+bogus")
    assert code == EX_USAGE


def test_rep_nonunit(capsys):
    code, _, _ = run(capsys, "rep", "--q", "2", "--k", "1", "--n", "2", "--unit", "t")
    assert code == EX_USAGE


def test_torsion_level_cli(capsys):
    code, out, _ = run(capsys, "torsion-level", "--p", "2", "--n", "1", "--k", "1")
    assert code == EX_OK and json.loads(out)["m"] == 1
    code, out, _ = run(capsys, "torsion-level", "--p", "5", "--n", "3", "--k", "0")
    assert code == EX_OK and json.loads(out)["m"] == 3


def test_torsion_level_bad_p(capsys):
    # k = 0 and n = 0 read no binomial, and p must still be prime
    for p, n, k in [("6", "1", "1"), ("4", "2", "0"), ("1", "0", "0")]:
        code, out, err = run(capsys, "torsion-level", "--p", p, "--n", n, "--k", k)
        assert code == EX_USAGE and out == "" and f"p={p} is not prime" in err, (p, n, k)


def test_zariski_cli(capsys):
    code, out, _ = run(capsys, "zariski", "--q", "2", "--k", "1", "--deg", "2",
                       "--tdeg", "1", "--n", "4")
    assert code == EX_OK
    obj = json.loads(out)
    assert obj["full_rank"] is True and obj["rank"] == 12


# calls that override defaults, each followed by one that must see them again
REUSE_ARGV = [
    ["density", "--q", "2", "--k", "1", "--nmax", "4", "--threads", "2"],
    ["density", "--q", "2", "--k", "1", "--nmax", "4"],
    ["tensor", "--q", "3", "--d", "2", "--nmax", "3", "--mode", "brute",
     "--format", "json"],
    ["tensor", "--q", "3", "--d", "2", "--nmax", "3"],
    ["density", "--q", "3", "--k", "0", "--nmax", "3", "--mode", "formula",
     "--format", "json", "--seed", "5"],
    ["density", "--q", "3", "--k", "0", "--nmax", "3", "--format", "json"],
    ["zariski", "--q", "2", "--k", "1", "--deg", "2", "--tdeg", "1", "--n", "3",
     "--seed", "5"],
    ["zariski", "--q", "2", "--k", "1", "--deg", "2", "--tdeg", "1", "--n", "3"],
    ["density", "--q", "2", "--k", "1"],  # usage error: --nmax missing
    ["omega-verify", "--q", "2", "--k", "1", "--tprec", "3", "--uprec", "16"],
    ["rep", "--q", "2", "--k", "1", "--n", "2", "--unit", "1+t+t^2"],
    ["torsion-level", "--p", "2", "--n", "3", "--k", "2"],
    ["density", "--q", "2", "--k", "1", "--nmax", "4", "--mode", "brute"],
    ["density", "--q", "2", "--k", "1", "--nmax", "4"],
]


def test_main_reuses_its_parser_without_leaking_defaults(capsys, monkeypatch):
    shared = [run(capsys, *argv)[:2] for argv in REUSE_ARGV]
    assert carlitz.cli._parser() is carlitz.cli._parser()
    assert [code for code, _ in shared].count(EX_USAGE) == 1
    # the same calls, each through a parser of its own
    monkeypatch.setattr(carlitz.cli, "_parser", carlitz.cli.build_parser)
    assert [run(capsys, *argv)[:2] for argv in REUSE_ARGV] == shared
    monkeypatch.undo()
    # no override stays behind in the shared parser
    run(capsys, *REUSE_ARGV[0])
    run(capsys, *REUSE_ARGV[2])
    args = carlitz.cli._parser().parse_args(["density", "--q", "2", "--k", "1",
                                             "--nmax", "4"])
    assert (args.threads, args.mode, args.format, args.out) == (1, "both", "csv", None)
    assert args.seed == carlitz.density.DEFAULT_SEED


def test_unknown_flag_exits_64(capsys):
    assert run(capsys, "density", "--bogus")[0] == EX_USAGE
    # the tensor enumeration runs on one thread and takes no --threads
    assert run(capsys, "tensor", "--q", "2", "--d", "2", "--nmax", "3",
               "--threads", "2")[0] == EX_USAGE


def test_missing_command_exits_64(capsys):
    assert run(capsys)[0] == EX_USAGE


def test_unresolvable_q(capsys):
    code, _, err = run(capsys, "density", "--q", "64", "--k", "0", "--nmax", "2")
    assert code == EX_USAGE


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "fields.cfg"
    cfg.write_text("q=49 poly=3,1,1\n")  # x^2 + x + 3 over F_7
    monkeypatch.setenv("CARLITZ_CONFIG", str(cfg))
    out = tmp_path / "d.csv"
    code, _, _ = run(capsys, "density", "--q", "49", "--k", "0", "--nmax", "3",
                     "--mode", "formula", "--out", str(out))
    assert code == EX_OK
    rows = out.read_text().splitlines()[1:]
    assert int(rows[2].split(",")[2]) == 48 * 49 ** 2


def test_mismatch_exit_code(capsys, monkeypatch):
    import carlitz.density as dmod

    real = dmod.image_order_formula
    monkeypatch.setattr(dmod, "image_order_formula",
                        lambda spec, k, n: real(spec, k, n) + (n == 2))
    code, _, err = run(capsys, "density", "--q", "2", "--k", "1", "--nmax", "4")
    assert code == EX_MISMATCH
    assert "N=2" in err


def test_determinism_across_threads_and_runs(tmp_path, capsys):
    outs = []
    for i, threads in enumerate(["1", "4", "1"]):
        path = tmp_path / f"run{i}.csv"
        code, _, _ = run(capsys, "density", "--q", "3", "--k", "2", "--nmax", "6",
                         "--mode", "both", "--threads", threads, "--out", str(path))
        assert code == EX_OK
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_golden_files(tmp_path, capsys):
    golden_dir = os.path.join(os.path.dirname(__file__), "golden")
    cases = [
        ("density_q2_k1_n8.csv",
         ["density", "--q", "2", "--k", "1", "--nmax", "8", "--mode", "both"]),
        ("density_q3_k1_n6.json",
         ["density", "--q", "3", "--k", "1", "--nmax", "6", "--mode", "both",
          "--format", "json"]),
        ("tensor_q2_d2_n8.csv",
         ["tensor", "--q", "2", "--d", "2", "--nmax", "8", "--mode", "both"]),
    ]
    for name, argv in cases:
        out = tmp_path / name
        code, _, _ = run(capsys, *argv, "--out", str(out))
        assert code == EX_OK
        want = open(os.path.join(golden_dir, name), "rb").read()
        assert out.read_bytes() == want, f"golden mismatch for {name}"


# stdout bytes of the JSON commands, recorded before the encoder was merged
FROZEN_STDOUT = [
    (["rep", "--q", "9", "--k", "2", "--n", "3", "--unit", "1+2*t+t^3"],
     '{"N":3,"k":2,"q":9,"rows":["[1,0]+[2,0]*t","[2,0]","0"],'
     '"unit":"[1,0]+[2,0]*t+t^3"}\n'),
    (["torsion-level", "--p", "3", "--n", "0", "--k", "2"],
     '{"k":2,"m":2,"n":0,"p":3}\n'),
    (["zariski", "--q", "2", "--k", "1", "--deg", "2", "--tdeg", "1", "--n", "4"],
     '{"N":4,"columns":12,"deg_bound":2,"full_rank":true,"k":1,"q":2,"rank":12,'
     '"sampled":false,"seed":1729,"tdeg_bound":1,"units":16}\n'),
    (["tensor", "--q", "2", "--d", "2", "--nmax", "3", "--mode", "both",
      "--format", "json"],
     '{"header":{"d":2,"e":1,"mode":"both","p":2,"q":2,"seed":1729},"rows":['
     '{"D_brute":1,"D_formula":1,"N":1,"delta_hat_den":1,"delta_hat_num":0,'
     '"delta_hat_real":0.0,"extra_m":0},'
     '{"D_brute":1,"D_formula":1,"N":2,"delta_hat_den":2,"delta_hat_num":0,'
     '"delta_hat_real":0.0,"extra_m":-1},'
     '{"D_brute":2,"D_formula":2,"N":3,"delta_hat_den":3,"delta_hat_num":1,'
     '"delta_hat_real":0.3333333333333333,"extra_m":-1}]}\n'),
]


@pytest.mark.parametrize("argv,want", FROZEN_STDOUT,
                         ids=[argv[0] for argv, _ in FROZEN_STDOUT])
def test_json_stdout_bytes_frozen(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == EX_OK and err == ""
    assert out == want


# one valid argv per command, and each bounded flag with its lower bound
VALID_ARGV = {
    "density": ["--q", "2", "--k", "1", "--nmax", "2", "--threads", "1"],
    "tensor": ["--q", "2", "--d", "2", "--nmax", "2"],
    "omega-verify": ["--q", "2", "--k", "0", "--tprec", "2", "--uprec", "8"],
    "rep": ["--q", "2", "--k", "1", "--n", "2", "--unit", "1+t"],
    "torsion-level": ["--p", "2", "--n", "1", "--k", "1"],
    "zariski": ["--q", "2", "--k", "0", "--deg", "1", "--tdeg", "0", "--n", "1"],
}
FLAG_BOUNDS = [
    ("density", "--k", 0), ("density", "--nmax", 1), ("density", "--threads", 1),
    ("tensor", "--d", 1), ("tensor", "--nmax", 1),
    ("omega-verify", "--k", 0), ("omega-verify", "--tprec", 1),
    ("omega-verify", "--uprec", 1),
    ("rep", "--k", 0), ("rep", "--n", 1),
    ("torsion-level", "--n", 0), ("torsion-level", "--k", 0),
    ("zariski", "--k", 0), ("zariski", "--deg", 0), ("zariski", "--tdeg", 0),
    ("zariski", "--n", 1),
]


def _with_flag(command, flag, value):
    argv = list(VALID_ARGV[command])
    argv[argv.index(flag) + 1] = str(value)
    return [command, *argv]


@pytest.mark.parametrize("command,flag,bound", FLAG_BOUNDS)
def test_flag_one_below_bound_exits_64(capsys, command, flag, bound):
    code, out, err = run(capsys, *_with_flag(command, flag, bound - 1))
    assert code == EX_USAGE and out == ""
    assert f"argument {flag}: must be >= {bound}" in err
    # the bound itself is accepted by the parser
    assert run(capsys, *_with_flag(command, flag, bound))[0] != EX_USAGE


def test_torsion_level_n0_accepted(capsys):
    code, out, _ = run(capsys, "torsion-level", "--p", "5", "--n", "0", "--k", "0")
    assert code == EX_OK and json.loads(out)["m"] == 0


def _one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("carlitz: error: ")


def test_missing_config_file_exits_64(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CARLITZ_CONFIG", str(tmp_path / "missing.cfg"))
    code, out, err = run(capsys, "density", "--q", "2", "--k", "1", "--nmax", "2")
    assert code == EX_USAGE and out == ""
    _one_error_line(err)
    assert "missing.cfg" in err


@pytest.mark.parametrize("poly", [
    "2,0,1",  # x^2 + 2 = (x + 1)(x + 2) over F_3
    "1,1",    # degree 1, not 2
    "1,0,2",  # leading coefficient 2
])
def test_bad_config_polynomial_exits_64(tmp_path, capsys, monkeypatch, poly):
    cfg = tmp_path / "fields.cfg"
    cfg.write_text(f"q=9 poly={poly}\n")
    monkeypatch.setenv("CARLITZ_CONFIG", str(cfg))
    code, out, err = run(capsys, "rep", "--q", "9", "--k", "1", "--n", "2",
                         "--unit", "1+t")
    assert code == EX_USAGE and out == ""
    _one_error_line(err)
    assert "fields.cfg" in err and "q=9" in err


def test_config_q_past_the_bound_exits_64_at_once(tmp_path):
    # 2^61 - 1 is prime: factoring it by trial division would take minutes,
    # and the entry is read even though the run asks for q = 2
    cfg = tmp_path / "fields.cfg"
    cfg.write_text("q=9 poly=1,0,1\nq=2305843009213693951 poly=1,1\n")
    src = os.path.dirname(os.path.dirname(carlitz.__file__))
    env = {**os.environ, "CARLITZ_CONFIG": str(cfg), "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "carlitz", "density", "--q", "2", "--k", "0",
         "--nmax", "2", "--mode", "formula"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == EX_USAGE and proc.stdout == ""
    _one_error_line(proc.stderr)
    assert "fields.cfg:2" in proc.stderr


def test_q_past_a_byte_exits_64(capsys):
    code, out, err = run(capsys, "rep", "--q", "257", "--k", "1", "--n", "2",
                         "--unit", "1+t")
    assert code == EX_USAGE and out == ""
    _one_error_line(err)


@pytest.mark.parametrize("argv", [
    ["density", "--q", "2", "--k", "1", "--nmax", "3", "--out"],
    ["zariski", "--q", "2", "--k", "0", "--deg", "1", "--tdeg", "0", "--n", "2", "--out"],
    ["omega-verify", "--q", "2", "--k", "0", "--tprec", "2", "--uprec", "8",
     "--dump-omega"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_64(tmp_path, capsys, argv):
    target = tmp_path / "no-such-dir" / "out.txt"
    code, out, err = run(capsys, *argv, str(target))
    assert code == EX_USAGE and out == ""
    _one_error_line(err)
    assert str(target) in err


def test_unwritable_output_fails_before_the_work(tmp_path, capsys, monkeypatch):
    import carlitz.density as dmod

    def no_work(*args, **kwargs):
        raise AssertionError("the table was computed")

    monkeypatch.setattr(dmod, "build_density_table", no_work)
    target = tmp_path / "no-such-dir" / "x.csv"
    code, out, err = run(capsys, "density", "--q", "4", "--k", "3", "--nmax", "8",
                         "--out", str(target))
    assert code == EX_USAGE and out == ""
    _one_error_line(err)


def test_failed_run_keeps_existing_output(tmp_path, capsys):
    target = tmp_path / "d.csv"
    old = "an earlier table, longer than the next one\n" * 100
    target.write_text(old)
    code, _, err = run(capsys, "density", "--q", "2", "--k", "0", "--nmax", "40",
                       "--mode", "brute", "--out", str(target))
    assert code == EX_BUDGET and "budget" in err
    assert target.read_text() == old
    code, out, _ = run(capsys, "density", "--q", "2", "--k", "0", "--nmax", "2",
                       "--out", str(target))
    assert code == EX_OK and out == ""
    code, stdout, _ = run(capsys, "density", "--q", "2", "--k", "0", "--nmax", "2")
    assert target.read_text() == stdout


def test_failed_omega_verify_keeps_existing_dump(tmp_path, capsys):
    # k = 5 needs t-precision 6: the prolongation check raises after omega
    # is computed, and the dump is written only once the checks return
    dump = tmp_path / "omega.json"
    old = "an earlier dump\n"
    dump.write_text(old)
    code, out, err = run(capsys, "omega-verify", "--q", "2", "--k", "5", "--tprec", "3",
                         "--uprec", "16", "--dump-omega", str(dump))
    assert code == EX_BUDGET and out == "" and "precision" in err
    assert dump.read_text() == old
    code, out, _ = run(capsys, "omega-verify", "--q", "2", "--k", "0", "--tprec", "3",
                       "--uprec", "16", "--dump-omega", str(dump))
    assert code == EX_OK and out.count("PASS") == 3
    assert json.loads(dump.read_text())["tprec"] == 3
