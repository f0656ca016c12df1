"""Acceptance suite: one test per criterion, one PASS/FAIL line each (-s to see).

Criterion 8 contains one honestly failing sub-case, (k=2, deg=2, tdeg=1,
N=4): the truncation relation (1+t)(X1+X1^2) + t(X2+X2^2) vanishes on every
unit mod t^4 over F_2, so the certificate cannot reach full rank there.
The test asserts the stated expectation and is left red on purpose; see
test_density.test_zariski_k2_truncation_artifact for the exact kernel
vector and the N=5 recovery.
"""

import random
from fractions import Fraction

import pytest

from carlitz import (
    DensityEstimate,
    binom_mod_p,
    binom_pascal_oracle,
    build_density_table,
    build_tensor_table,
    image_order_brute,
    image_order_formula,
    jet,
    jet_columns,
    spec_for_order,
    tensor_decompose,
    tensor_image_order_brute,
    tensor_image_order_formula,
    torsion_level_m,
    verify_carlitz_equation,
    verify_hhat_membership,
    verify_iteration,
    verify_leibniz,
    verify_prolongation_trivialization,
    verify_taylor,
    zariski_rank_certificate,
)
from carlitz.cli import EX_OK, main

import conftest
from conftest import omega_for, perturb_entry, random_series


def _report(cid, desc, passed, detail=""):
    line = f"[criterion {cid:2d}] {'PASS' if passed else 'FAIL'}: {desc}"
    if detail and not passed:
        line += f" ({detail})"
    print(line)
    conftest.ACCEPTANCE_RESULTS.append(line)
    assert passed, line


def test_criterion_1_image_order_oracle_equivalence():
    bad = []
    for q in (2, 3, 4):
        spec = spec_for_order(q)
        for k in range(4):
            for n in range(1, 9):
                brute = image_order_brute(spec, k, n)
                formula = image_order_formula(spec, k, n)
                lo = (q - 1) * q ** (n - 1)
                hi = (q - 1) * q ** (n + k - 1)
                if brute != formula or not lo <= brute <= hi:
                    bad.append((q, k, n, brute, formula))
    _report(1, "image_order_brute == image_order_formula with sandwich, "
               "q in {2,3,4}, k <= 3, N <= 8", not bad, str(bad))


def test_criterion_2_density_trend():
    bad = []
    for k in (1, 2):
        table = build_density_table(spec_for_order(2), k, 200, mode="formula")
        target = Fraction(1, k + 1)
        for row in table.rows:
            est = Fraction(row.delta_num, row.delta_den)
            band = Fraction(k + 1, row.n * (k + 1))
            if abs(est - target) > band:
                bad.append((k, row.n, est))
    _report(2, "q=2, k in {1,2}: |delta_hat(N) - 1/(k+1)| <= 1/N for N <= 200",
            not bad, str(bad[:4]))


def test_criterion_3_tensor_power_orders():
    bad = []
    for q in (2, 3):
        spec = spec_for_order(q)
        for d in (2, 3, 4, 6, 9):
            for n in range(1, 9):
                b = tensor_image_order_brute(spec, d, n)
                f = tensor_image_order_formula(spec, d, n)
                if b != f:
                    bad.append((q, d, n, b, f))
            # density trend toward 1/p^e, density 1 when gcd(d, p) = 1
            e, _ = tensor_decompose(d, spec.p)
            table = build_tensor_table(spec, d, 200, mode="formula")
            target = Fraction(1, spec.p ** e)
            for row in table.rows:
                est = Fraction(row.delta_num, row.delta_den)
                if abs(est - target) > Fraction(2, row.n):
                    bad.append(("trend", q, d, row.n))
                # the full real estimate obeys the same 2/N band
                real = DensityEstimate(q=q, unit=table.unit, exponent=row.delta_num,
                                       denominator=row.n).real
                if abs(real - 1 / spec.p ** e) > 2 / row.n + 1e-12:
                    bad.append(("real-trend", q, d, row.n))
    _report(3, "tensor powers: brute == formula (q in {2,3}, d in {2,3,4,6,9}, "
               "N <= 8) and density trend 1/p^e", not bad, str(bad[:4]))


def test_criterion_4_functional_equations():
    bad = []
    for q in (2, 3):
        om = omega_for(q, 8, 128)
        if not verify_carlitz_equation(om):
            bad.append(("carlitz", q))
        for k in (0, 1, 2):
            if not verify_prolongation_trivialization(om, k):
                bad.append(("trivialization", q, k))
        perturbed = perturb_entry(om, 2)
        if verify_carlitz_equation(perturbed):
            bad.append(("carlitz-soundness", q))
        if verify_prolongation_trivialization(perturbed, 2):
            bad.append(("trivialization-soundness", q))
    _report(4, "omega functional equations exact at tprec 8, uprec 128; "
               "single-coefficient perturbation flips to FAIL", not bad, str(bad))


def test_criterion_5_hhat_membership():
    bad = []
    for q in (2, 3):
        om = omega_for(q, 8, 128)
        for k in (0, 1, 2):
            for j, col in enumerate(jet_columns(om, k)):
                if not verify_hhat_membership(k, col):
                    bad.append((q, k, j))
    _report(5, "all k+1 jet columns of omega satisfy the Tate-module relation, "
               "k <= 2, q in {2,3}", not bad, str(bad))


def test_criterion_6_calculus_laws():
    bad = []
    instances = 500
    for q in (2, 3, 4):
        spec = spec_for_order(q)
        for k in range(4):
            rng = random.Random(10_000 * q + k)
            for i in range(instances):
                f = random_series(rng, spec, 32)
                g = random_series(rng, spec, 32)
                n = rng.randrange(0, 5)
                m = rng.randrange(0, 4)
                ok = (
                    verify_leibniz(n, f, g)
                    and verify_iteration(n, m, f)
                    and verify_taylor(f)
                    and jet(k, f * g) == jet(k, f) * jet(k, g)
                )
                if not ok:
                    bad.append((q, k, i))
                    break
    _report(6, "Leibniz, iteration, Taylor, jet homomorphism on 500 random "
               "instances per (q, k) configuration at T=32", not bad, str(bad))


def test_criterion_7_torsion_level_combinatorics():
    bad = []
    for p in (2, 3, 5, 7):
        for k in range(7):
            for n in range(65):
                try:
                    m = torsion_level_m(p, n, k)
                except Exception as exc:  # SegmentViolation would land here
                    bad.append((p, n, k, repr(exc)))
                    continue
                if not n <= m <= n + k:
                    bad.append((p, n, k, m))
    anchors_ok = torsion_level_m(2, 1, 1) == 1 and torsion_level_m(3, 1, 1) == 2
    _report(7, "torsion levels: n <= m <= n+k, no segment violation "
               "(p in {2,3,5,7}, k <= 6, n <= 64); anchors reproduced",
            not bad and anchors_ok, str(bad[:4]))


def test_criterion_8_zariski_certificate():
    spec = spec_for_order(2)
    bad = []
    for k in (0, 1, 2):
        for deg in (0, 1, 2):
            for tdeg in (0, 1):
                rep = zariski_rank_certificate(spec, k, deg, tdeg, 4)
                if not rep.full_rank:
                    bad.append((k, deg, tdeg, f"{rep.rank}/{rep.n_columns}"))
    _report(8, "relation-freeness certificate full rank, q=2, k <= 2, "
               "deg <= 2, tdeg <= 1, N=4, exhaustive units", not bad, str(bad))


def test_criterion_9_binomial_oracle():
    bad = 0
    for p in (2, 3, 5, 7):
        for l in range(513):
            for j in range(513):
                if binom_mod_p(l, j, p) != binom_pascal_oracle(l, j, p):
                    bad += 1
    _report(9, "Lucas == Pascal oracle for all l, j <= 512, p in {2,3,5,7}",
            bad == 0, f"{bad} mismatches")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    outputs = {}
    for fmt in ("csv", "json"):
        blobs = []
        for run_idx, threads in enumerate(("1", "4", "1")):
            path = tmp_path / f"det_{fmt}_{run_idx}"
            code = main([
                "density", "--q", "2", "--k", "1", "--nmax", "8", "--mode", "both",
                "--threads", threads, "--format", fmt, "--out", str(path),
            ])
            capsys.readouterr()
            assert code == EX_OK
            blobs.append(path.read_bytes())
        outputs[fmt] = blobs
    ok = all(len(set(blobs)) == 1 for blobs in outputs.values())
    with capsys.disabled():
        _report(10, "CLI output byte-identical across runs and --threads {1,4}", ok)
