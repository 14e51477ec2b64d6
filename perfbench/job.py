"""One benchmark job in a fresh interpreter: set up, run the timed call, check.

    python3 perfbench/job.py WORKLOAD MODE SEED LAUNCH_NS

MODE is "setup" (stop once the inputs are ready), "run" (the timed job,
untraced) or "trace" (the same job with span wrappers installed).
LAUNCH_NS is the CLOCK_MONOTONIC reading the parent took just before it
started this process, so setup_s covers interpreter start, ``import
lpairs`` and loading the inputs.  The job prints one JSON line.

A fresh process per job is deliberate: ``_series_memo`` and
``BPolynomial._eval_cache`` are process-global, so a second job in one
process would measure dictionary lookups.  Every output check runs after
the timed region and compares with an independent reference.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
CHAR1, CHAR2 = "3:1", "5:2"

# Agreement with mpmath.zetazero; the zero engine targets 1e-9.
ZERO_TOL = 1e-9
# thm1 sums against the oracle reference, relative to the reference's size.
# The AFE's sharp cut-off leaves a real per-zero error near 1e-2 at these
# heights; over the 4,520 zeros it moves sum_a by 1.5% and sum_abs_a2 by
# 0.17% from the oracle values (make_reference.py prints both).  The
# tolerances are about three times that.
THM1_SUM_A_REL_TOL = 5e-2
THM1_SUM_ABS_A2_REL_TOL = 5e-3
# thm2 AFE sums against the oracle sums of the same run, relative to the
# size of the oracle sum; observed at most 3.0e-3 (sum_chi1).
THM2_AFE_REL_TOL = 1e-2
# thm2 oracle sums against the committed oracle reference: same route,
# only summation-order rounding may differ.
THM2_ORACLE_REL_TOL = 1e-9
# D and E against the mpmath Euler-product reference.
CONST_TOL = 1e-9


def _pair(z) -> list[float]:
    return [z.real, z.imag]


def _close(value: complex, ref: list[float], tol: float) -> bool:
    return abs(value - complex(*ref)) <= tol


def _zetazero_sample(table, k: int, seed: int) -> list[str]:
    """Check k seed-chosen ordinates of a reference table against mpmath."""
    import mpmath

    rng = random.Random(seed)
    problems = []
    for n in sorted(rng.sample(range(1, len(table) + 1), k)):
        ref = float(mpmath.zetazero(n).imag)
        if abs(float(table.ordinates[n - 1]) - ref) > ZERO_TOL:
            problems.append(f"reference zero #{n}: {table.ordinates[n - 1]!r} "
                            f"vs mpmath {ref!r}")
    return problems


class ZerosCompute:
    """compute_zeros(5000): the zero engine from scratch."""

    T = 5000.0

    def setup(self, lp):
        return {}

    def run(self, lp, state):
        return lp.zeros.compute_zeros(self.T)

    def check(self, lp, state, table, seed, ref):
        import mpmath

        refs = lp.zeros.load_zeros(DATA / ref["table"])
        problems = _zetazero_sample(refs, 2, seed)
        expected = int(mpmath.nzeros(self.T))
        if len(table) != expected or len(refs) != expected:
            problems.append(f"{len(table)} zeros computed, reference table has "
                            f"{len(refs)}, mpmath N(T) = {expected}")
        else:
            worst = float(abs(table.ordinates - refs.ordinates).max())
            if worst > ZERO_TOL:
                problems.append(f"ordinate deviates from the reference by {worst:.3e}")
        return problems


class ThmOneOffline:
    """thm1_report(table5000, 5000, sigma = 0.75): the off-line AFE route."""

    T = 5000.0
    SIGMA = 0.75

    def setup(self, lp):
        return {"table": lp.zeros.load_zeros(DATA / "zeros_5000.txt"),
                "chi1": lp.characters.parse_character(CHAR1),
                "chi2": lp.characters.parse_character(CHAR2)}

    def run(self, lp, s):
        return lp.meanvalues.thm1_report(s["table"], self.T, self.SIGMA,
                                         s["chi1"], s["chi2"])

    def check(self, lp, state, rep, seed, ref):
        import mpmath

        problems = _zetazero_sample(state["table"], 1, seed)
        expected = int(mpmath.nzeros(self.T))
        if rep.n_zeros != expected:
            problems.append(f"n_zeros {rep.n_zeros} != N(T) = {expected}")
        scale = abs(complex(*ref["sum_a"]))
        if not _close(rep.sum_a, ref["sum_a"], THM1_SUM_A_REL_TOL * scale):
            problems.append(f"sum_a {rep.sum_a} vs oracle {ref['sum_a']}")
        if (abs(rep.sum_abs_a2 - ref["sum_abs_a2"])
                > THM1_SUM_ABS_A2_REL_TOL * ref["sum_abs_a2"]):
            problems.append(f"sum_abs_a2 {rep.sum_abs_a2} vs oracle {ref['sum_abs_a2']}")
        return problems


class ThmTwoCritical:
    """thm2_report(table1e4, 1e4) by the AFE route and by the oracle route."""

    T = 1e4

    def setup(self, lp):
        chi1 = lp.characters.parse_character(CHAR1)
        chi2 = lp.characters.parse_character(CHAR2)
        return {"table": lp.zeros.load_zeros(DATA / "zeros_10000.txt"),
                "cfg": lp.criticalline.make_config(chi1, chi2)}

    def run(self, lp, s):
        cl = lp.criticalline
        return (cl.thm2_report(s["table"], self.T, s["cfg"], method="afe"),
                cl.thm2_report(s["table"], self.T, s["cfg"], method="oracle"))

    def check(self, lp, state, reps, seed, ref):
        afe, oracle = reps
        problems = _zetazero_sample(state["table"], 1, seed)
        for key in ("sum_chi1", "sum_chi2", "sum_a"):
            o = getattr(oracle, key)
            if not _close(getattr(afe, key), _pair(o), THM2_AFE_REL_TOL * abs(o)):
                problems.append(f"{key}: AFE {getattr(afe, key)} vs oracle {o}")
            r = ref[key]
            if not _close(o, r, THM2_ORACLE_REL_TOL * abs(complex(*r))):
                problems.append(f"{key}: oracle {o} vs reference {r}")
        r = ref["sum_abs_a2"]
        if abs(oracle.sum_abs_a2 - r) > THM2_ORACLE_REL_TOL * r:
            problems.append(f"sum_abs_a2: oracle {oracle.sum_abs_a2} vs reference {r}")
        return problems


class Constants:
    """series_d and series_e at sigma = 0.65: the series route for C = D - E."""

    SIGMA = 0.65

    def setup(self, lp):
        return {"chi1": lp.characters.parse_character(CHAR1),
                "chi2": lp.characters.parse_character(CHAR2)}

    def run(self, lp, s):
        mv = lp.meanvalues
        bpoly = mv.build_b_polynomial(max(s["chi1"].modulus, s["chi2"].modulus),
                                      s["chi1"], s["chi2"])
        return mv.series_d(bpoly, self.SIGMA), mv.series_e(bpoly, self.SIGMA)

    def check(self, lp, state, consts, seed, ref):
        problems = []
        for label, c in zip(("D", "E"), consts):
            if not _close(c.product_value, ref[label], CONST_TOL):
                problems.append(f"{label} product route {c.product_value} "
                                f"vs mpmath {ref[label]}")
            if not _close(c.series_value, ref[label], c.series_bound + CONST_TOL):
                problems.append(f"{label} series route {c.series_value} vs mpmath "
                                f"{ref[label]} beyond its bound {c.series_bound:.2e}")
        return problems


WORKLOADS = {
    "zeros-compute": ZerosCompute(),
    "thm1-offline": ThmOneOffline(),
    "thm2-critical": ThmTwoCritical(),
    "constants": Constants(),
}


def _library() -> SimpleNamespace:
    """Import lpairs; the package import is part of set-up."""
    from lpairs import characters, criticalline, meanvalues, zeros

    return SimpleNamespace(characters=characters, criticalline=criticalline,
                           meanvalues=meanvalues, zeros=zeros)


def main(argv: list[str]) -> int:
    name, mode, seed, launch_ns = argv[1], argv[2], int(argv[3]), int(argv[4])
    workload = WORKLOADS[name]
    lp = _library()
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.install()
    state = workload.setup(lp)
    out = {"setup_s": (time.monotonic_ns() - launch_ns) / 1e9}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    if tracer is None:
        t0 = time.perf_counter()
        result = workload.run(lp, state)
        out["wall_s"] = time.perf_counter() - t0
    else:
        with tracer.root("job", "bench") as root:
            result = workload.run(lp, state)
        job_spans = tracer.spans[:]
        out["wall_s"] = job_spans[root][3] - job_spans[root][2]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is not None:
        n_found = len(result) if name == "zeros-compute" else 0
        out["layers"] = spans.layer_metrics(job_spans, root, n_found,
                                            lp.meanvalues._SIEVE_CHUNK)
        out["layers"]["trace.overhead_est_s"] = (
            out["layers"]["trace.spans"] * spans.wrapper_cost_s())
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{name}-seed{seed}.json")

    with open(DATA / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)[name]
    out["problems"] = workload.check(lp, state, result, seed, ref)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
