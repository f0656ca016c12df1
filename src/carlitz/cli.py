"""Batch command line front end: reproducible tables and verification reports."""

# Every byte the commands write is decided here: each flag's lower bound in
# the parser, the table columns in COLUMNS, every JSON document in _json_text.

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import operator
import os
import sys

from . import cinfty, density
from .errors import (
    BudgetExceeded,
    CarlitzError,
    CrossCheckMismatch,
    InsufficientPrecision,
    InvalidCharacteristic,
    NonUnit,
    ParseError,
    UnsupportedOrder,
    WindowEmpty,
)
from .field import spec_for_order
from .series import parse_series, render_series

EX_OK = 0
EX_BUDGET = 2
EX_MISMATCH = 3
EX_USAGE = 64

CONFIG_ENV = "CARLITZ_CONFIG"

# the table columns, in ImageRow field order
COLUMNS = ("N", "D_brute", "D_formula", "extra_m",
           "delta_hat_num", "delta_hat_den", "delta_hat_real")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(minimum):
    """An argparse type: an int, rejected below `minimum`."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


_NONNEG, _POSITIVE = _at_least(0), _at_least(1)


def _resolve_spec(q):
    return spec_for_order(q, os.environ.get(CONFIG_ENV))


def _emit(text, out):
    """Write a command's whole output at once: to stdout, or over the bytes
    of its output file, which keeps them until then."""
    if out is None:
        sys.stdout.write(text)
    else:
        out.truncate(0)
        out.write(text)


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# the hundreds, tens and ones digit of every rank in ASCII, blank where the
# rank has no digit in that place: column i of the ranks right-aligned
_HUNDREDS, _TENS, _ONES = (
    "".join(f"{r:3d}"[i] for r in range(256)).encode("ascii") for i in range(3)
)


def _rank_list_text(ranks):
    """The ranks in decimal, comma-separated, written by digit planes: each
    rank fills a 4-byte group with its three digits (or blanks) and a comma,
    then the blanks and the last comma go."""
    buf = bytearray(b"," * (4 * len(ranks)))
    buf[0::4] = ranks.translate(_HUNDREDS)
    buf[1::4] = ranks.translate(_TENS)
    buf[2::4] = ranks.translate(_ONES)
    return buf.translate(None, b" ")[:-1].decode("ascii")


def _omega_dump_text(omega):
    """The --dump-omega document: _json_text of {"q", "tprec", "entries"}.

    Each entry is {"coeffs", "n", "uprec", "val"} ("val" null for a zero
    entry), its keys and the document's written in _json_text's sorted
    order; the "coeffs" list is its ranks written by _rank_list_text.
    """
    entries = ",".join(
        '{"coeffs":[' + _rank_list_text(e.ranks)
        + f'],"n":{n},"uprec":{json.dumps(e.uprec)},'
        + f'"val":{json.dumps(None if e.is_zero else e.val)}}}'
        for n, e in enumerate(omega.entries)
    )
    return f'{{"entries":[{entries}],"q":{omega.spec.q},"tprec":{omega.tprec}}}\n'


def _table_text(table, fmt):
    # a shallow tuple per row: astuple would deep-copy every field
    row = operator.attrgetter(*(f.name for f in dataclasses.fields(density.ImageRow)))
    rows = [row(r) for r in table.rows]
    if fmt == "json":
        header = {"q": table.q, "p": table.p, "e": table.e,
                  "k" if table.kind == "prolongation" else "d": table.param,
                  "mode": table.mode, "seed": table.seed}
        return _json_text({"header": header,
                           "rows": [dict(zip(COLUMNS, r)) for r in rows]})
    lines = [COLUMNS, *(["" if v is None else str(v) for v in r] for r in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


def _cmd_density(args):
    spec = _resolve_spec(args.q)
    table = density.build_density_table(
        spec, args.k, args.nmax, args.mode, threads=args.threads, seed=args.seed
    )
    _emit(_table_text(table, args.format), args.out)
    return EX_OK


def _cmd_tensor(args):
    spec = _resolve_spec(args.q)
    table = density.build_tensor_table(spec, args.d, args.nmax, args.mode,
                                       seed=args.seed)
    _emit(_table_text(table, args.format), args.out)
    return EX_OK


def _cmd_omega_verify(args):
    spec = _resolve_spec(args.q)
    omega = cinfty.compute_omega(spec, args.tprec, args.uprec)
    carlitz = cinfty.verify_carlitz_equation(omega)
    # jet_columns rejects k >= tprec, as the prolongation check does; given
    # that, the prolongation check's verdict is the Carlitz check's
    columns = cinfty.jet_columns(omega, args.k)
    checks = [("carlitz-equation", carlitz),
              (f"prolongation-trivialization[k={args.k}]", carlitz)]
    checks += [(f"hhat-membership[column {j}]", ok)
               for j, ok in enumerate(cinfty.hhat_verdicts(args.k, columns))]
    # the dump is written only once every check has returned, PASS or FAIL,
    # so a check that raises leaves an existing dump's bytes as they were
    if args.dump_omega:
        _emit(_omega_dump_text(omega), args.dump_omega)
    all_ok = True
    for name, ok in checks:
        sys.stdout.write(f"{name}: {'PASS' if ok else 'FAIL'}\n")
        all_ok = all_ok and ok
    return EX_OK if all_ok else 1


def _cmd_rep(args):
    spec = _resolve_spec(args.q)
    unit = parse_series(spec, args.unit, args.n + args.k)
    mat = density.galois_rep(unit, args.k, args.n)
    payload = {
        "q": spec.q,
        "k": args.k,
        "N": args.n,
        "unit": render_series(unit),
        "rows": [render_series(r) for r in mat.rows],
    }
    _emit(_json_text(payload), args.out)
    return EX_OK


def _cmd_torsion_level(args):
    m = density.torsion_level_m(args.p, args.n, args.k)
    _emit(_json_text({"p": args.p, "n": args.n, "k": args.k, "m": m}), args.out)
    return EX_OK


def _cmd_zariski(args):
    spec = _resolve_spec(args.q)
    report = density.zariski_rank_certificate(
        spec, args.k, args.deg, args.tdeg, args.n, seed=args.seed
    )
    payload = {
        "q": spec.q,
        "k": report.k,
        "deg_bound": report.deg_bound,
        "tdeg_bound": report.tdeg_bound,
        "N": report.n,
        "seed": report.seed,
        "sampled": report.sampled,
        "units": report.n_units,
        "columns": report.n_columns,
        "rank": report.rank,
        "full_rank": report.full_rank,
    }
    _emit(_json_text(payload), args.out)
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="carlitz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_table(p):
        p.add_argument("--nmax", type=_POSITIVE, required=True)
        p.add_argument("--mode", choices=["brute", "formula", "both"], default="both")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, default=density.DEFAULT_SEED)

    p = sub.add_parser("density", help="image orders D(N) for the jet action")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=_NONNEG, required=True)
    common_table(p)
    p.add_argument("--threads", type=_POSITIVE, default=1)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("tensor", help="image orders D(N) for tensor powers")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=_POSITIVE, required=True)
    common_table(p)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("omega-verify", help="functional-equation checks for omega")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=_NONNEG, required=True)
    p.add_argument("--tprec", type=_POSITIVE, required=True)
    p.add_argument("--uprec", type=_POSITIVE, required=True)
    p.add_argument("--dump-omega", default=None)
    p.set_defaults(func=_cmd_omega_verify)

    p = sub.add_parser("rep", help="print the jet matrix of a unit")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=_NONNEG, required=True)
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--unit", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("torsion-level", help="largest matching torsion level")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=_NONNEG, required=True)
    p.add_argument("--k", type=_NONNEG, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_torsion_level)

    p = sub.add_parser("zariski", help="low-degree relation-freeness certificate")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=_NONNEG, required=True)
    p.add_argument("--deg", type=_NONNEG, required=True)
    p.add_argument("--tdeg", type=_NONNEG, required=True)
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--seed", type=int, default=density.DEFAULT_SEED)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_zariski)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser main() uses, built on its first call in the process.

    Not built at import, which keeps start-up as it was.  Reuse is safe:
    parse_args fills a fresh namespace with the defaults on every call.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        with contextlib.ExitStack() as files:
            # output paths are opened before any work, so a bad one fails at
            # once; appending keeps an existing file's bytes if the work fails
            for name in ("out", "dump_omega"):
                path = getattr(args, name, None)
                if path:
                    setattr(args, name, files.enter_context(
                        open(path, "a", encoding="utf-8", newline="")))
            return args.func(args)
    except (OSError, ParseError, UnsupportedOrder, InvalidCharacteristic,
            NonUnit) as exc:
        # OSError: an unreadable CARLITZ_CONFIG or an unwritable output path
        sys.stderr.write(f"carlitz: error: {exc}\n")
        return EX_USAGE
    except CrossCheckMismatch as exc:
        sys.stderr.write(f"carlitz: cross-check failed at N={exc.n}: "
                         f"brute={exc.brute} formula={exc.formula}\n")
        return EX_MISMATCH
    except (BudgetExceeded, InsufficientPrecision, WindowEmpty) as exc:
        sys.stderr.write(f"carlitz: {exc}\n")
        return EX_BUDGET
    except CarlitzError as exc:
        sys.stderr.write(f"carlitz: {exc}\n")
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
