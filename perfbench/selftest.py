"""Self-test of the tracer, run from the root of a ramsum checkout:

    python3 perfbench/selftest.py

It checks that installing the tracer wraps every binding of a public
function (including re-exports and the check_* globals the identity
dispatch looks up), that a traced run leaves every binding as it found it,
and that traced and untraced runs produce identical outputs and counts, in
process and across the suite's worker pool.  It also checks that the
reference clock's interrupts leave outputs unchanged and leave no timer
behind.  Exit code 0 means all passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.abspath("src")]

import child  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from refclock import WINDOW, PlainClock, RefClock  # noqa: E402
from tracer import Tracer  # noqa: E402

import ramsum  # noqa: E402
import ramsum.cli  # noqa: E402

SMALL_VERIFY = ["verify", "all", "--format", "json"]
POINTS_PER_WORKLOAD = 300


def snapshot() -> dict:
    """Every function-valued attribute of the ramsum modules and of PrimeSieve."""
    owners = [m for n, m in sorted(sys.modules.items()) if m is not None and n.split(".")[0] == "ramsum"]
    owners.append(ramsum.arith.PrimeSieve)
    return {id(o): (o, {a: v for a, v in vars(o).items() if isinstance(v, types.FunctionType)}) for o in owners}


def unchanged(before: dict) -> list:
    """Function attributes whose value is no longer the identical object."""
    changed = []
    for owner, attrs in before.values():
        now = vars(owner)
        changed += [f"{getattr(owner, '__name__', owner)}.{a}" for a, v in attrs.items() if now.get(a) is not v]
    return changed


def verify(jobs: int) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ramsum.cli.main(SMALL_VERIFY + ["--jobs", str(jobs)])
    if rc != 0:
        raise AssertionError(f"verify exited {rc}")
    return buf.getvalue()


def point_batches() -> list:
    return [next(workloads.STREAMS[w](7))[:POINTS_PER_WORKLOAD] for w in workloads.POINT_WORKLOADS]


def run_all() -> tuple:
    reports = {jobs: verify(jobs) for jobs in (1, 2)}
    outputs = [child._run_pass(batch, PlainClock())[2] for batch in point_batches()]
    return reports, outputs


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    ramsum.factorize(2)
    plain_reports, plain_outputs = run_all()
    before = snapshot()
    os.makedirs(".perfbench", exist_ok=True)
    spill = tempfile.mkdtemp(prefix="spill-", dir=".perfbench")
    tracer = Tracer(spill)
    try:
        tracer.install()
        check(ramsum.identities.csum_table is ramsum.csum.csum_table is ramsum.csum_table, "re-exports share one wrapper")
        check(ramsum.identities.csum_table is not before[id(ramsum.identities)][1]["csum_table"], "identities.csum_table is wrapped")
        check(hasattr(ramsum.identities.check_log_weight, "__wrapped__"), "check_* globals are wrapped")
        check(hasattr(ramsum.arith.PrimeSieve.__init__, "__wrapped__"), "PrimeSieve.__init__ is wrapped")
        ramsum.arith.configure_default_sieve(10**6)
        traced_reports, traced_outputs = run_all()
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    leftover = os.listdir(spill)
    shutil.rmtree(spill, ignore_errors=True)

    check(not unchanged(before), f"every binding restored {unchanged(before)[:5]}")
    check(tracer.restored(), "tracer reports no wrapper left")
    check(not leftover, "worker span files collected")
    for jobs in (1, 2):
        check(traced_reports[jobs] == plain_reports[jobs], f"verify --jobs {jobs} bytes identical traced and untraced")
    check(plain_reports[1] == plain_reports[2], "verify bytes identical across --jobs")
    check(traced_outputs == plain_outputs, "point evaluations identical traced and untraced")

    checks_run = 2 * len(json.loads(plain_reports[1])["results"])
    points = sum(spans.count(f"identities.{ident}") for ident in layers.IDENTITY_IDS)
    check(points == checks_run, f"identity spans ({points}) equal checks run ({checks_run}), workers included")
    evals = sum(len(o) for o in plain_outputs)
    check(spans.count("csum.eval") == sum(2 + (d is not None) for o in traced_outputs for _, _, d in o), "one csum.eval span per route call")
    check(spans.count("arith.sieve_build") == 1, "sieve build traced once")
    check(spans.count("csum.moebius") >= evals, "evaluator spans recorded")
    metrics = layers.layer_metrics(spans, 1)
    check(set(metrics) == set(layers.metric_names()), "layer metrics complete")
    check(all(v >= 0 for v in metrics.values()), "layer metrics non-negative")
    check(spans.self_time.min(initial=0.0) > -1e-6, "self time never negative")

    handler = signal.getsignal(signal.SIGPROF)
    with RefClock() as clock:
        readings = [clock.now()]
        ref_report = verify(1)
        readings.append(clock.now())
        ref_outputs = [child._run_pass(batch, clock)[2] for batch in point_batches()]
        readings.append(clock.now())
    check(ref_report == plain_reports[1], "verify bytes identical under the reference clock")
    check(ref_outputs == plain_outputs, "point evaluations identical under the reference clock")
    check(len(clock.chunks) > WINDOW and readings == sorted(readings), "reference clock ticked and ran forward")
    check(signal.getsignal(signal.SIGPROF) is handler and signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0), "reference clock left no timer behind")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
