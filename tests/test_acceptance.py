"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  The trend criteria sample the zero table up to
T = 5000 (criterion 8 escalates to T = 10^4 when its O(T) first-moment
check fails at 5000, before concluding failure).
"""

import math
import time

import pytest

from lpairs.characters import character, gauss_sum
from lpairs.criticalline import make_config, thm2_report
from lpairs.landau import landau_error_budgets, landau_main_term, landau_zero_sum
from lpairs.lfunc import l_afe, l_oracle
from lpairs.meanvalues import (
    CoefficientSeries,
    build_b_polynomial,
    series_d,
    series_e,
    thm1_report,
)
from lpairs.zeros import compute_zeros, rvm_band, rvm_estimate
from lpairs.cli import run as cli_run

GAUSS_MODULI = (3, 5, 7, 11, 13)
AFE_SIGMAS = (0.55, 0.6, 0.75, 0.9)
AFE_HEIGHTS = (1e2, 1e3, 5e3)


def _report(num, ok, detail, started):
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_gauss_identities():
    started = time.time()
    worst = 0.0
    points = 0
    for q in GAUSS_MODULI:
        for j in range(1, q - 1):
            chi = character(q, j)
            g1 = gauss_sum(1, chi)
            pair = gauss_sum(1, chi.conjugate()) * gauss_sum(-1, chi)
            worst = max(worst, abs(pair - q))
            for k in range(1, q):
                twist = gauss_sum(k, chi) - chi(k).conjugate() * g1
                worst = max(worst, abs(twist))
                points += 1
    ok = worst <= 1e-12 and (time.time() - started) < 1.0
    _report(1, ok, f"{points} twist identities, worst residue {worst:.2e}", started)


def test_criterion_2_afe_certification():
    started = time.time()
    worst = 0.0
    points = 0
    for q, indices in ((3, (1,)), (5, (1, 2, 3))):
        for j in indices:
            chi = character(q, j)
            deltas = (1.0, math.sqrt(q), math.sqrt(5.0), 2.0, 3.0)
            for sigma in AFE_SIGMAS:
                for t in AFE_HEIGHTS:
                    s = complex(sigma, t)
                    oracle = l_oracle(s, chi).value
                    for delta in deltas:
                        afe = l_afe(s, chi, delta)
                        ratio = abs(afe.value - oracle) / afe.bound
                        worst = max(worst, ratio)
                        points += 1
    ok = points >= 200 and worst <= 1.0 and (time.time() - started) < 60.0
    _report(2, ok, f"{points} grid points, worst |afe-oracle|/bound = {worst:.4f}",
            started)


def test_criterion_3_zero_engine(zeros100, zeros1000):
    started = time.time()
    gamma1_err = abs(zeros100.ordinates[0] - 14.134725142)
    import random
    rng = random.Random(17)
    rvm_ok = all(
        abs(zeros1000.count(t) - rvm_estimate(t)) <= rvm_band(t)
        for t in (rng.uniform(15.0, 1000.0) for _ in range(100)))
    ok = (len(zeros100) == 29 and gamma1_err <= 1e-8
          and len(zeros1000) == 649 and rvm_ok)
    _report(3, ok,
            f"N(100)={len(zeros100)}, N(1000)={len(zeros1000)}, "
            f"gamma1 err {gamma1_err:.1e}, RvM sweep {'ok' if rvm_ok else 'BAD'}",
            started)


def test_criterion_4_gonek_landau(zeros5000):
    started = time.time()
    t = 5000.0
    details = []
    ok = True
    for x in (2, 3, 4, 5, 8, 9):
        s = landau_zero_sum(x, zeros5000, t)
        main = landau_main_term(x, t)
        slack = max(5.0 * landau_error_budgets(x, [t])[0], 0.2 * abs(main))
        err = abs(s.real - main)
        ok &= err <= slack
        details.append(f"x={x}: |dev|={err:.0f}<=slack {slack:.0f}")
    ref = abs(landau_zero_sum(2, zeros5000, t))
    for x in (6, 10):
        mag = abs(landau_zero_sum(x, zeros5000, t))
        ok &= mag < ref / 3.0
        details.append(f"x={x}: |sum|={mag:.0f} < {ref / 3.0:.0f}")
    ok &= (time.time() - started) < 120.0
    _report(4, ok, "; ".join(details), started)


def test_criterion_5_coefficient_calculus(chi3, chi5):
    started = time.time()
    bpoly = build_b_polynomial(5, chi3, chi5)
    d = CoefficientSeries("d", bpoly)
    e = CoefficientSeries("e", bpoly)
    dual_ok = all(
        d.convolution(n) == d.closed_form(n) and e.convolution(n) == e.closed_form(n)
        for n in range(1, 10_001))
    trunc_ok = True
    for t in (100.0, 1000.0):
        cap = int(math.sqrt(15.0 * t / (2.0 * math.pi)))
        trunc_ok &= all(d.truncated(n, t) == d.exact(n) for n in range(1, cap + 1))
    cap = 2.0 ** bpoly.cutoff
    coeff_ok = all(abs(c.to_complex()) <= cap + 1e-12 for c in bpoly.coeffs.values())
    elapsed_ok = (time.time() - started) < 10.0
    ok = dual_ok and trunc_ok and coeff_ok and elapsed_ok
    _report(5, ok,
            f"duality n<=1e4 {'exact' if dual_ok else 'BROKEN'}, "
            f"d'(t)=d {'ok' if trunc_ok else 'BAD'}, |c_n|<=2^P "
            f"{'ok' if coeff_ok else 'BAD'}", started)


def test_criterion_6_limit_constants(chi3, chi5):
    started = time.time()
    bpoly = build_b_polynomial(5, chi3, chi5)
    worst = 0.0
    for sigma in (0.6, 0.75, 0.9):
        for const in (series_d(bpoly, sigma), series_e(bpoly, sigma)):
            worst = max(worst, abs(const.series_value - const.product_value))
    diff = abs(series_d(bpoly, 0.75).product_value - series_e(bpoly, 0.75).product_value)
    ok = worst <= 1e-8 and diff > 1e-6
    _report(6, ok, f"worst dual-route gap {worst:.2e}, |D-E| = {diff:.4f}", started)


def test_criterion_7_offline_independence_trend(zeros5000, chi3, chi5):
    started = time.time()
    rels = {}
    abs2 = {}
    lower_frac = None
    for t in (1000.0, 2000.0, 5000.0):
        rep = thm1_report(zeros5000, t, 0.75, chi3, chi5, cutoff=5)
        mean = rep.sum_a / rep.n_zeros
        rels[t] = abs(mean - rep.predicted_c) / abs(rep.predicted_c)
        abs2[t] = rep.sum_abs_a2 / rep.n_zeros
        if t == 5000.0:
            lower_frac = rep.lower_bound_count / rep.n_zeros
    spread = max(abs2.values()) / min(abs2.values())
    ok = (rels[5000.0] <= 0.25 and rels[5000.0] < rels[1000.0]
          and lower_frac > 0.0 and spread < 3.0
          and (time.time() - started) < 600.0)
    _report(7, ok,
            f"rel err {rels[1000.0]:.3f} -> {rels[2000.0]:.3f} -> {rels[5000.0]:.3f}, "
            f"lower/N = {lower_frac:.4f}, sum|A|^2/N spread {spread:.2f}x", started)


def test_criterion_8_criticalline_trend(zeros5000, chi3, chi5, first_moment_check):
    started = time.time()
    cfg = make_config(chi3, chi5)
    c_ok = abs(cfg.c2 - (-1.0)) < 1e-12 and abs(cfg.c1 - cfg.c2) >= 1e-6
    rel1 = {}
    rel2 = {}
    ratio = {}
    fits = {}

    def sweep(table, heights):
        for t in heights:
            rep = thm2_report(table, t, cfg)
            rel1[t] = abs(rep.sum_chi1 - rep.main_chi1) / abs(rep.main_chi1)
            rel2[t] = abs(rep.sum_chi2 - rep.main_chi2) / abs(rep.main_chi2)
            ratio[t] = rep.sum_abs_a2 / (t * math.log(t) ** 2)
            fits[t] = first_moment_check(rep, cfg)

    sweep(zeros5000, (1000.0, 2000.0, 5000.0))
    t_final = 5000.0
    if not fits[5000.0][0]:
        # escalate to the workbench ceiling before concluding failure
        sweep(compute_zeros(10_000.0), (10_000.0,))
        t_final = 10_000.0

    spread = max(ratio.values()) / min(ratio.values())
    track_ok = all(ok for ok, _ in fits.values())
    improving = (rel1[t_final] < rel1[1000.0] and rel2[t_final] < rel2[1000.0])
    ok = (c_ok and track_ok and improving and spread < 5.0
          and (time.time() - started) < 600.0)
    remainders = "; ".join(
        f"T={t:g} " + ", ".join(
            f"r{j} {r.real:+.2f}{r.imag:+.2f}i (|r| {abs(r):.2f}, bound {b:.2f})"
            for j, (r, b) in enumerate(rows, start=1))
        for t, (_, rows) in fits.items())
    _report(8, ok,
            f"remainder (sum - main)/(T/2pi): {remainders}; per-char rel err "
            f"{rel1[1000.0]:.3f}/{rel2[1000.0]:.3f} at T=1000 -> "
            f"{rel1[t_final]:.3f}/{rel2[t_final]:.3f} at T={t_final:g}, "
            f"C1={cfg.c1.real:+.0f}, C2={cfg.c2.real:+.0f}, "
            f"|A|^2 ratio spread {spread:.2f}x", started)


def test_criterion_9_reproducibility(tmp_path, zeros100):
    started = time.time()
    zero_file = tmp_path / "zeros.txt"
    zeros100.save(zero_file)
    args = ["thm1", "--T", "100", "--sigma", "0.75", "--char1", "3:1",
            "--char2", "5:2", "--zeros", str(zero_file)]
    blobs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert cli_run(args + ["--output", str(out)]) == 0
        blobs.append(out.read_bytes())
    land = []
    for name in ("l1.csv", "l2.csv"):
        out = tmp_path / name
        assert cli_run(["landau", "--x", "15/2", "--T", "100",
                        "--zeros", str(zero_file), "--output", str(out)]) == 0
        land.append(out.read_bytes())
    ok = blobs[0] == blobs[1] and land[0] == land[1]
    _report(9, ok, "thm1 and landau reruns byte-identical",
            started)
