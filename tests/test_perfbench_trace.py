"""Smoke test of the traced benchmark run (perfbench/spans.py).

spans.install() wraps lpairs functions and methods by module attribute,
and layer_metrics reads evaluator attributes; a rename in src/ that drops
one of them breaks the traced benchmark.  This test catches that in the
test suite: one traced l_values call on each evaluator, then the
per-layer metrics, in a fresh interpreter.  One cheap series_d call
keeps the _series_route return shape and _SIEVE_CHUNK that the series
metrics read.

The benchmark reference pins lfunc.oracle_calls and
specfun.x_factor_calls exactly.  Traced thm1_report and thm2_report runs
over N = 10 zeros, with every height audited (lfunc._AUDIT_STRIDE set
to 1) and with the one audit the default stride of 100 makes, check the
per-zero and per-audit counts behind them: 4 l_oracle calls per thm1
audit, 2 per thm2 audit, and 2 x_factor calls per AFE pair, one pair per
height and one per audit (2N + 2 = 22 at the default stride).  A batched
route that formed X once per group, or skipped an audit, would break
them.  The evaluators' l_values run only in audits.
A traced thm2_report(method="oracle") over the same zeros reads no
l_oracle and no x_factor call and a nonzero lfunc.oracle_batch_s: its
values come through the wrapped criticalline.l_oracle_critical_batch.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SCRIPT = """
import spans
from lpairs import compute_zeros, criticalline, lfunc, meanvalues
from lpairs.characters import parse_character

zeros = compute_zeros(100.0)
tracer = spans.install()
chi1, chi2 = parse_character("3:1"), parse_character("5:2")
bpoly = meanvalues.build_b_polynomial(5, chi1, chi2)
with tracer.root("job", "bench") as root:
    meanvalues.ThmOneEvaluator(bpoly, 0.75, 100.0).l_values(50.0)
    cfg = criticalline.make_config(chi1, chi2)
    criticalline.ThmTwoEvaluator(cfg, 100.0).l_values(50.0)
    d = meanvalues.series_d(bpoly, 0.9)
m = spans.layer_metrics(tracer.spans, root, 0, meanvalues._SIEVE_CHUNK)
assert m["meanvalues.series_terms"] == d.n_terms, (m, d)
assert m["meanvalues.sieve_peak_mb"] > 0, m
assert m["meanvalues.l_values_calls"] == 1, m
assert m["criticalline.l_values_calls"] == 1, m
assert m["meanvalues.afe_terms_per_zero"] > 0, m
assert m["specfun.x_factor_calls"] == 4, m

n = zeros.count(50.0)
assert n == 10, n
assert lfunc._AUDIT_STRIDE == 100
for stride, audits in ((1, n), (100, 1)):
    lfunc._AUDIT_STRIDE = stride
    for name, report, oracle_per_audit, layer in (
            ("thm1", lambda: meanvalues.thm1_report(zeros, 50.0, 0.75, chi1, chi2),
             4, "meanvalues"),
            ("thm2", lambda: criticalline.thm2_report(zeros, 50.0, cfg), 2,
             "criticalline")):
        with tracer.root(name, "bench") as root:
            report()
        m = spans.layer_metrics(tracer.spans, root, 0, meanvalues._SIEVE_CHUNK)
        assert m["lfunc.oracle_calls"] == oracle_per_audit * audits, (name, stride, m)
        assert m["specfun.x_factor_calls"] == 2 * n + 2 * audits, (name, stride, m)
        assert m[layer + ".audit_calls"] == audits, (name, stride, m)
        assert m[layer + ".l_values_calls"] == audits, (name, stride, m)

with tracer.root("thm2-oracle", "bench") as root:
    criticalline.thm2_report(zeros, 50.0, cfg, method="oracle")
m = spans.layer_metrics(tracer.spans, root, 0, meanvalues._SIEVE_CHUNK)
assert m["lfunc.oracle_calls"] == 0, m
assert m["specfun.x_factor_calls"] == 0, m
assert m["lfunc.oracle_batch_s"] > 0, m
"""


def test_traced_l_values_and_layer_metrics():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
