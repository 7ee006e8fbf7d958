"""Per-layer metrics computed from one traced run's spans.

Self time is a span's duration minus the time covered by its child spans.
A layer a workload never reaches reports zero calls and zero time; a ratio
whose base is empty reports 0.
"""

from __future__ import annotations

import math

import numpy as np

import oracle
from tracer import SpanSet

IDENTITY_IDS = (
    "alkan",
    "alkan-classical",
    "log-weight",
    "gcd-weight",
    "gamma-weight",
    "gauss-product",
    "bernoulli-weight",
    "binomial-weight",
    "multisection",
    "exp-weight",
    "mu-log-lemma",
    "multivariate",
    "g-multiplicative",
    "power-sum",
    "coprime-power-sum",
)

CALLS_AND_SELF = (
    "arith.factorize",
    "arith.divisors",
    "arith.gen_gcd",
    "csum.moebius",
    "csum.hoelder",
    "csum.table",
    "csum.theta",
    "exactnum.bernoulli_number",
    "exactnum.binomial",
    "logspace.log_factorial",
    "logspace.float_value",
)
SELF_ONLY = (
    "csum.eval",
    "exactnum.power_sum",
    "exactnum.coprime_power_sum",
    "logspace.mu_log_lemma_sides",
    "identities.build_grid",
    "identities.run_suite",
    "identities.render_report",
    "cli.main",
)
EVALUATORS = ("csum.moebius", "csum.hoelder", "csum.direct")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not len(values):
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return float(ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)])


def _direct_metrics(spans) -> dict:
    rows = spans.captured("csum.direct")
    self_s = spans.self_s("csum.direct")
    durations = spans.durations("csum.direct")
    terms = 0
    max_err = 0.0
    jordan: dict = {}
    for k, s, j, value in rows:
        if (k, s) not in jordan:
            jordan[k, s] = oracle.jordan(k, s)
        terms += jordan[k, s]
        max_err = max(max_err, abs(value - oracle.divisor_sum(k, s, j)))
    return {
        "csum.direct.calls": spans.count("csum.direct"),
        "csum.direct.self_s": self_s,
        "csum.direct.p50_us": percentile(durations, 50) * 1e6,
        "csum.direct.p99_us": percentile(durations, 99) * 1e6,
        "csum.direct.terms_per_s": terms / self_s if self_s > 0 else 0.0,
        "csum.direct.max_abs_err": max_err,
    }


def layer_metrics(spans, jobs: int) -> dict:
    """Every per-layer metric except trace.overhead_frac; jobs is the suite's
    worker count, or 0 when the workload runs no suite."""
    m = {"arith.sieve_build_s": spans.total_s("arith.sieve_build")}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = spans.count(name)
        m[f"{name}.self_s"] = spans.self_s(name)
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = spans.self_s(name)
    m.update(_direct_metrics(spans))
    m["csum.key_reuse_ratio"] = spans.key_reuse_ratio(EVALUATORS)
    m["csum.table.key_reuse_ratio"] = spans.key_reuse_ratio(("csum.table",))
    check_s = 0.0
    for ident in IDENTITY_IDS:
        name = f"identities.{ident}"
        m[f"{name}.points"] = spans.count(name)
        m[f"{name}.self_s"] = spans.self_s(name)
        m[f"{name}.max_point_ms"] = float(spans.durations(name).max(initial=0.0)) * 1e3
        check_s += spans.total_s(name)
    suite_s = spans.total_s("identities.run_suite")
    m["identities.pool.efficiency"] = check_s / (jobs * suite_s) if jobs and suite_s > 0 else 0.0
    return m


def metric_names() -> list:
    """The names layer_metrics returns."""
    return list(layer_metrics(SpanSet([], []), 0))
