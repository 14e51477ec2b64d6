"""lpairs benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N      # every workload

Run it from the root of a checkout; it imports lpairs from ``src/`` of
that checkout and nothing else.  Every job runs serially in a fresh
interpreter (perfbench/job.py) with BLAS and OpenMP pinned to one thread.

--trace 0 runs the job at least once and repeats it while one more job
like the last still ends within S seconds, and reports medians of
wall_s, setup_s and peak_rss_mb; setup_s also takes SETUP_PROBES
set-up-only processes.  --trace 1 runs the job once
untraced and once traced, and reports the per-layer metrics of the
traced job, its overhead, and whether the exact counts repeat.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
WORKLOADS = ("zeros-compute", "thm1-offline", "thm2-critical", "constants")
SETUP_PROBES = 10
JOB_TIMEOUT_S = 170
# counts that must repeat exactly on every traced run: a cache that hid
# work, or lost work, shows here first
EXACT_COUNTS = ("zeros.z_heights", "meanvalues.series_terms",
                "lfunc.oracle_calls", "specfun.x_factor_calls")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, a job that crashed)."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_job(workload: str, mode: str, seed: int) -> dict:
    """Start one job process, wait for it, and return its JSON line."""
    launch = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(JOB), workload, mode, str(seed), str(launch)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} job exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "lpairs").glob("*.py")))


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text(encoding="utf-8").strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _meta(seed: int) -> dict:
    import numpy

    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed, "src_lines": _source_lines()}


def _expected_counts(workload: str) -> dict:
    with open(HERE / "data" / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["counts"][workload]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics, medians over this run's jobs."""
    setups = [run_job(workload, "setup", seed)["setup_s"] for _ in range(SETUP_PROBES)]
    walls, rss, problems = [], [], []
    start = time.monotonic()
    while True:
        job_start = time.monotonic()
        res = run_job(workload, "run", seed)
        setups.append(res["setup_s"])
        walls.append(res["wall_s"])
        rss.append(res["peak_rss_mb"])
        problems.append(res["problems"])
        # start another job only if one more like the last fits the budget
        now = time.monotonic()
        if now - start + (now - job_start) > seconds:
            break
    return {
        "attempted": len(walls),
        "failed": sum(1 for p in problems if p),
        "problems": [x for p in problems for x in p],
        "metrics": {"wall_s": _metric(statistics.median(walls), "s"),
                    "setup_s": _metric(statistics.median(setups), "s"),
                    "peak_rss_mb": _metric(statistics.median(rss), "MB")},
    }


def measure_traced(workload: str, seed: int) -> dict:
    """Traced run: one untraced and one traced job, per-layer metrics."""
    plain = run_job(workload, "run", seed)
    traced = run_job(workload, "trace", seed)
    layers = traced["layers"]
    problems = [plain["problems"], list(traced["problems"])]
    expected = _expected_counts(workload)
    for key in EXACT_COUNTS:
        if layers[key] != expected[key]:
            problems[1].append(f"{key} = {layers[key]}, expected exactly {expected[key]}")
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    return {
        "attempted": 2,
        "failed": sum(1 for p in problems if p),
        "problems": [x for p in problems for x in p],
        "metrics": {k: _metric(v, units[k]) for k, v in layers.items()},
    }


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _summary(workload: str, res: dict, meta: dict) -> None:
    print(f"workload {workload}: {res['attempted']} job(s), {res['failed']} failed; "
          + ", ".join(f"{k} {v}" for k, v in meta.items()))
    for problem in res["problems"]:
        print(f"  check failed: {problem}")
    for name, m in res["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac {res['failed'] / res['attempted']:.6g} ratio")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lpairs" / "__init__.py").is_file():
        print(f"perfbench: no lpairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    meta = _meta(args.seed)
    results = {}
    try:
        for name in names:
            res = (measure_traced(name, args.seed) if args.trace
                   else measure(name, args.seed, args.seconds))
            _summary(name, res, meta)
            results[name] = res
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
