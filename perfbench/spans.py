"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer replaces library functions by timing wrappers at the module
attribute each caller looks them up through: ``from .specfun import
_hardy_z_batch`` copies the reference into ``lpairs.zeros``, so that is
where the zero engine's calls are caught.  Methods are wrapped on their
class.  Nothing under ``src/`` is edited; the untraced run installs
nothing.

A span is ``[name, layer, start, end, parent, info]``; spans stay in
memory and are written out once the job has ended.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time

LAYERS = ("zeros", "specfun", "lfunc", "meanvalues", "criticalline", "summation")

# complex128 entries of the height x term outer products
_COMPLEX_BYTES = 16
# live bytes per integer of one series-route sieve chunk: n, m and one
# int64 temporary (8 each), acc (complex128, 16), dead and div (bool, 1 each)
_SIEVE_BYTES_PER_TERM = 8 + 8 + 8 + 16 + 1 + 1


def em_terms(tmax: float) -> int:
    """Euler-Maclaurin main-sum length the batched kernels use at height tmax."""
    return max(20, int(math.ceil(0.62 * tmax)) + 8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, layer: str, info=None,
             listify: bool = False) -> None:
        """Replace owner.attr by a wrapper recording one span per call.

        info(args, kwargs, result) -> dict is stored on the span; with
        listify the first argument is materialised so its items count.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, time.perf_counter(), None,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if listify:
                    args = (list(args[0]),) + args[1:]
                    span[5] = {"items": len(args[0])}
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def root(self, name: str, layer: str):
        """Span opened by the benchmark itself; yields its index."""
        index = len(self.spans)
        span = [name, layer, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield index
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "info"],
                       "spans": self.spans}, fh)


def _heights(args, kwargs, result):
    ts = args[0]
    return {"heights": len(ts), "tmax": float(ts[-1])}


def _thm1_terms(args, kwargs, result):
    """AFE terms one ThmOneEvaluator.l_values call sums, from the windows
    x = Delta root sqrt(gamma), y = root sqrt(gamma) / Delta."""
    ev, gamma = args[0], args[1]
    total = 0
    for delta, root in ((ev.delta1, ev._root1), (ev.delta2, ev._root2)):
        total += math.floor(delta * root * math.sqrt(gamma))
        total += math.floor(root * math.sqrt(gamma) / delta)
    return {"terms": total}


def install() -> Tracer:
    """Wrap every traced entry point of lpairs; returns the live tracer."""
    from lpairs import criticalline, lfunc, meanvalues, zeros

    tr = Tracer()
    for attr in ("compute_zeros", "load_zeros", "_scan_once", "_gap_audit",
                 "_scan_interval", "_refine_brackets"):
        tr.wrap(zeros, attr, attr, "zeros")
    tr.wrap(zeros, "_hardy_z_batch", "_hardy_z_batch", "specfun", _heights)

    tr.wrap(lfunc, "_hurwitz_critical_batch", "_hurwitz_critical_batch",
            "specfun", _heights)
    for mod in (lfunc, meanvalues):
        tr.wrap(mod, "hurwitz_zeta_certified", "hurwitz_zeta_certified", "specfun")
    for mod in (lfunc, meanvalues, criticalline):
        tr.wrap(mod, "x_factor", "x_factor", "specfun")
    for mod in (meanvalues, criticalline):
        tr.wrap(mod, "l_oracle", "l_oracle", "lfunc")
        for attr in ("neumaier_sum", "neumaier_sum_complex"):
            tr.wrap(mod, attr, attr, "summation", listify=True)
    tr.wrap(criticalline, "l_oracle_critical_batch", "l_oracle_critical_batch",
            "lfunc")

    ev1 = meanvalues.ThmOneEvaluator
    tr.wrap(ev1, "__init__", "ThmOneEvaluator.__init__", "meanvalues")
    tr.wrap(ev1, "l_values", "ThmOneEvaluator.l_values", "meanvalues", _thm1_terms)
    for attr in ("b_value", "audit"):
        tr.wrap(ev1, attr, "ThmOneEvaluator." + attr, "meanvalues")
    tr.wrap(meanvalues, "_series_route", "_series_route", "meanvalues",
            lambda a, k, r: {"terms": r[2]})
    for attr in ("_product_route", "_series_constant", "build_b_polynomial",
                 "series_d", "series_e", "thm1_report"):
        tr.wrap(meanvalues, attr, attr, "meanvalues")

    ev2 = criticalline.ThmTwoEvaluator
    for attr in ("__init__", "l_values", "b_value", "audit"):
        tr.wrap(ev2, attr, "ThmTwoEvaluator." + attr, "criticalline")
    tr.wrap(criticalline, "make_config", "make_config", "criticalline")
    tr.wrap(criticalline, "thm2_report", "thm2_report", "criticalline",
            lambda a, k, r: {"method": k.get("method", "afe")})
    return tr


def layer_metrics(spans: list[list], job: int, n_zeros_found: int,
                  sieve_chunk: int) -> dict[str, float]:
    """Per-layer metrics of one traced job.

    spans[job] is the benchmark's root span around the timed call; the
    spans after it up to its end are its descendants.  Spans before it
    (the set-up's load_zeros) only feed zeros.load_s.
    """
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for i in range(job, len(spans)):
        name = spans[i][0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def info_sum(name, key):
        return sum(s[5][key] for s in spans[job:] if s[0] == name and s[5])

    # zero engine: refinement is split off whichever phase called it
    phase = [None] * len(spans)
    refine_in = {"_scan_once": 0.0, "_gap_audit": 0.0}
    for i in range(job, len(spans)):
        name, parent = spans[i][0], spans[i][4]
        phase[i] = name if name in refine_in else (phase[parent] if parent >= 0 else None)
        if name == "_refine_brackets" and phase[i] in refine_in:
            refine_in[phase[i]] += dur[i]

    def batch(name):
        heights = terms = peak = 0
        for s in spans[job:]:
            if s[0] == name:
                h, m = s[5]["heights"], em_terms(s[5]["tmax"])
                heights += h
                terms += h * m
                peak = max(peak, h * m)
        return heights, terms, peak

    z_heights, z_terms, z_peak = batch("_hardy_z_batch")
    hb_heights, hb_terms, _ = batch("_hurwitz_critical_batch")
    series_terms = info_sum("_series_route", "terms")
    thm2 = {"afe": 0.0, "oracle": 0.0}
    for i in range(job, len(spans)):
        if spans[i][0] == "thm2_report":
            thm2[spans[i][5]["method"]] += dur[i]

    out = {
        "zeros.scan_s": t("_scan_once") - refine_in["_scan_once"],
        "zeros.refine_s": t("_refine_brackets"),
        "zeros.gap_audit_s": t("_gap_audit") - refine_in["_gap_audit"],
        "zeros.scan_passes": n("_scan_once"),
        "zeros.rescans": n("_scan_interval"),
        "zeros.z_heights": z_heights,
        "zeros.z_heights_per_zero": per(z_heights, n_zeros_found),
        "zeros.refine_share": per(t("_refine_brackets"), t("compute_zeros")),
        "zeros.load_s": sum(dur[i] for i in range(job) if spans[i][0] == "load_zeros"),
        "specfun.z_calls": n("_hardy_z_batch"),
        "specfun.z_us_per_height": per(t("_hardy_z_batch"), z_heights, 1e6),
        "specfun.z_terms": z_terms,
        "specfun.z_ns_per_term": per(t("_hardy_z_batch"), z_terms, 1e9),
        "specfun.z_batch_peak_mb": z_peak * _COMPLEX_BYTES / 1e6,
        "specfun.hurwitz_batch_us_per_height":
            per(t("_hurwitz_critical_batch"), hb_heights, 1e6),
        "specfun.hurwitz_batch_terms": hb_terms,
        "specfun.x_factor_calls": n("x_factor"),
        "specfun.x_factor_us": per(t("x_factor"), n("x_factor"), 1e6),
        "specfun.hurwitz_scalar_calls": n("hurwitz_zeta_certified"),
        "specfun.hurwitz_scalar_us":
            per(t("hurwitz_zeta_certified"), n("hurwitz_zeta_certified"), 1e6),
        "lfunc.oracle_calls": n("l_oracle"),
        "lfunc.oracle_s": t("l_oracle"),
        "lfunc.oracle_batch_s": t("l_oracle_critical_batch"),
        "meanvalues.l_values_calls": n("ThmOneEvaluator.l_values"),
        "meanvalues.l_values_us":
            per(t("ThmOneEvaluator.l_values"), n("ThmOneEvaluator.l_values"), 1e6),
        "meanvalues.afe_terms_per_zero":
            per(info_sum("ThmOneEvaluator.l_values", "terms"),
                n("ThmOneEvaluator.l_values")),
        "meanvalues.b_value_us":
            per(t("ThmOneEvaluator.b_value"), n("ThmOneEvaluator.b_value"), 1e6),
        "meanvalues.audit_calls": n("ThmOneEvaluator.audit"),
        "meanvalues.audit_s": t("ThmOneEvaluator.audit"),
        "meanvalues.evaluator_init_s": t("ThmOneEvaluator.__init__"),
        "meanvalues.series_terms": series_terms,
        "meanvalues.series_ns_per_term": per(t("_series_route"), series_terms, 1e9),
        "meanvalues.product_s": t("_product_route"),
        "meanvalues.constants_s": t("_series_constant"),
        "meanvalues.sieve_peak_mb":
            (max((min(sieve_chunk, s[5]["terms"]) for s in spans[job:]
                  if s[0] == "_series_route"), default=0)
             * _SIEVE_BYTES_PER_TERM / 1e6),
        "criticalline.l_values_calls": n("ThmTwoEvaluator.l_values"),
        "criticalline.l_values_us":
            per(t("ThmTwoEvaluator.l_values"), n("ThmTwoEvaluator.l_values"), 1e6),
        "criticalline.audit_calls": n("ThmTwoEvaluator.audit"),
        "criticalline.afe_s": thm2["afe"],
        "criticalline.oracle_s": thm2["oracle"],
        "summation.items": sum(s[5]["items"] for s in spans[job:]
                               if s[1] == "summation"),
        "summation.reduce_s": sum(dur[i] for i in range(job, len(spans))
                                  if spans[i][1] == "summation"),
    }
    wall = dur[job]
    for layer in LAYERS:
        self_s = sum(dur[i] - child[i] for i in range(job + 1, len(spans))
                     if spans[i][1] == layer)
        out[f"{layer}.self_share"] = per(self_s, wall)
    out["trace.spans"] = len(spans) - job
    return out


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds: a wrapped no-op against a bare one."""
    holder = type("Holder", (), {"f": staticmethod(lambda: None)})
    bare = holder.f
    t0 = time.perf_counter()
    for _ in range(calls):
        bare()
    t_bare = time.perf_counter() - t0
    Tracer().wrap(holder, "f", "noop", "bench")
    wrapped = holder.f
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, time.perf_counter() - t0 - t_bare) / calls
