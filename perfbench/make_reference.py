"""Regenerate the benchmark's reference inputs and outputs in perfbench/data.

    python3 perfbench/make_reference.py [--skip-zeros]

Run from the root of a checkout.  It writes
- zeros_5000.txt and zeros_10000.txt: compute_zeros(T), saved and read
  back through load_zeros so they pass its validation (about 4 minutes);
- reference.json: per workload, the independent values job.py checks
  against, and the exact counts the traced run must repeat.

Independent references: thm1 sums from l_oracle at every zero (not the
AFE), thm2 sums from the batched oracle route, D and E from the Euler
product with L(2 sigma, xi) evaluated by mpmath.  Zero tables are
spot-checked against mpmath.zetazero by every benchmark run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402

from lpairs import characters, criticalline, meanvalues, zeros  # noqa: E402

import job  # noqa: E402
import run  # noqa: E402

TABLES = {5000.0: "zeros_5000.txt", 1e4: "zeros_10000.txt"}


def _pair(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def _fsum_complex(values) -> complex:
    values = list(values)
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def write_tables() -> None:
    for t, name in TABLES.items():
        t0 = time.perf_counter()
        zeros.compute_zeros(t).save(DATA / name)
        table = zeros.load_zeros(DATA / name)
        print(f"{name}: {len(table)} zeros in {time.perf_counter() - t0:.1f} s")


def thm1_reference(chi1, chi2) -> dict:
    wl = job.ThmOneOffline
    table = zeros.load_zeros(DATA / "zeros_5000.txt")
    bpoly = meanvalues.build_b_polynomial(max(chi1.modulus, chi2.modulus), chi1, chi2)
    ev = meanvalues.ThmOneEvaluator(bpoly, wl.SIGMA, wl.T)
    a = [ev.a_value_oracle(float(g)) for g in table.up_to(wl.T)]
    ref = {"sum_a": _pair(_fsum_complex(a)),
           "sum_abs_a2": math.fsum(abs(x) ** 2 for x in a)}
    rep = meanvalues.thm1_report(table, wl.T, wl.SIGMA, chi1, chi2)
    rel_a = abs(rep.sum_a - complex(*ref["sum_a"])) / abs(complex(*ref["sum_a"]))
    rel_2 = abs(rep.sum_abs_a2 - ref["sum_abs_a2"]) / ref["sum_abs_a2"]
    print(f"thm1: AFE vs oracle, relative deviation sum_a {rel_a:.3e}, "
          f"sum_abs_a2 {rel_2:.3e} (tolerances {job.THM1_SUM_A_REL_TOL:g}, "
          f"{job.THM1_SUM_ABS_A2_REL_TOL:g})")
    return ref


def thm2_reference(chi1, chi2) -> dict:
    wl = job.ThmTwoCritical
    table = zeros.load_zeros(DATA / "zeros_10000.txt")
    cfg = criticalline.make_config(chi1, chi2)
    oracle = criticalline.thm2_report(table, wl.T, cfg, method="oracle")
    afe = criticalline.thm2_report(table, wl.T, cfg, method="afe")
    ref = {key: _pair(getattr(oracle, key)) for key in ("sum_chi1", "sum_chi2", "sum_a")}
    ref["sum_abs_a2"] = oracle.sum_abs_a2
    for key in ("sum_chi1", "sum_chi2", "sum_a"):
        o = getattr(oracle, key)
        print(f"thm2: {key} AFE vs oracle, relative deviation "
              f"{abs(getattr(afe, key) - o) / abs(o):.3e} "
              f"(tolerance {job.THM2_AFE_REL_TOL:g})")
    return ref


def constants_reference(chi1, chi2) -> dict:
    """D and E from the Euler product, with L(2 sigma, xi) from mpmath:

    D = prod_{p <= P, p != l}(1 - p^{-2s}) * L(2s, xi) * prod_{p <= P}(1 - xi(p) p^{-2s})
    with xi = inner * conj(other) mod q*l; E swaps the characters.
    """
    mpmath.mp.dps = 30
    two_s = mpmath.mpf(2) * mpmath.mpf(job.Constants.SIGMA)
    cutoff = max(chi1.modulus, chi2.modulus)
    primes = [p for p in range(2, cutoff + 1) if all(p % d for d in range(2, p))]
    out = {}
    for label, inner, other in (("D", chi1, chi2), ("E", chi2, chi1)):
        m = inner.modulus * other.modulus
        xi = [mpmath.mpc(complex(inner(n) * other(n).conjugate())) for n in range(m)]
        value = mpmath.dirichlet(two_s, xi)
        for p in primes:
            if p != other.modulus:
                value *= 1 - mpmath.mpf(p) ** -two_s
            value *= 1 - xi[p % m] * mpmath.mpf(p) ** -two_s
        out[label] = _pair(complex(value))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--skip-zeros", action="store_true",
                    help="keep the zero tables already in perfbench/data")
    args = ap.parse_args(argv)
    DATA.mkdir(exist_ok=True)
    if not args.skip_zeros:
        write_tables()
    chi1 = characters.parse_character(job.CHAR1)
    chi2 = characters.parse_character(job.CHAR2)
    ref = {
        "zeros-compute": {"table": TABLES[job.ZerosCompute.T]},
        "thm1-offline": thm1_reference(chi1, chi2),
        "thm2-critical": thm2_reference(chi1, chi2),
        "constants": constants_reference(chi1, chi2),
    }
    path = DATA / "reference.json"
    ref["counts"] = {w: {} for w in run.WORKLOADS}
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    for w in run.WORKLOADS:
        layers = run.run_job(w, "trace", 0)["layers"]
        ref["counts"][w] = {k: layers[k] for k in run.EXACT_COUNTS}
        print(f"{w}: exact counts {ref['counts'][w]}")
    path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
