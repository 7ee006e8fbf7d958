"""One measured process of a workload, started by run.py in a fresh interpreter.

    python3 perfbench/child.py sweep --jobs N [--trace]
    python3 perfbench/child.py points --workload W --seed S --seconds T [--trace]

The ramsum package is imported from ``src`` of the current directory and
must come from there.  The child prints one JSON object on its last stdout
line.  ``sweep`` times one in-process ``ramsum.cli.main`` call with stdout
captured.  ``points`` runs whole passes of the workload's seeded stream
until ``--seconds`` have elapsed; with ``--trace`` it runs each pass traced
and then again untraced, so the two can be compared.

Untraced, every time is read from ``refclock.RefClock`` and is in reference
seconds (see refclock.py), based on CPU time except for a sweep with pool
workers, whose parent waits; traced runs use real time throughout.  Each
result also carries the real wall time and the median reference-chunk time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time
import warnings
from array import array

import layers
import oracle
import workloads
from refclock import PlainClock, RefClock
from tracer import Tracer

import ramsum
import ramsum.cli

# evals per pass checked against the reference
ORACLE_PER_PASS = 40


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, workers_kb) / 1024.0


def _check_source() -> None:
    src = os.path.realpath(os.path.join("src", "ramsum"))
    if os.path.dirname(os.path.realpath(ramsum.__file__)) != src:
        raise SystemExit(f"ramsum imported from {ramsum.__file__}, not from {src}")


def _start_tracer(enabled: bool):
    if not enabled:
        return None
    spill = os.path.join(".perfbench", f"spill-{os.getpid()}")
    os.makedirs(spill, exist_ok=True)
    tracer = Tracer(spill)
    tracer.install()
    return tracer


def _finish_tracer(tracer, jobs: int, label: str) -> dict:
    tracer.uninstall()
    spans = tracer.collect()
    shutil.rmtree(tracer.spill_dir, ignore_errors=True)
    spans.save(os.path.join(".perfbench", f"spans-{label}.npz"))
    return {"layers": layers.layer_metrics(spans, jobs), "restored": tracer.restored(), "spans": len(spans.dur)}


def run_sweep(jobs: int, trace: bool) -> dict:
    tracer = _start_tracer(trace)
    ramsum.factorize(2)
    main = ramsum.cli.main
    buf = io.StringIO()
    # a parent waiting on pool workers uses no CPU time of its own
    with PlainClock() if trace else RefClock(wall=jobs > 1) as clock:
        t0, v0 = time.perf_counter(), clock.now()
        with contextlib.redirect_stdout(buf):
            rc = main(list(workloads.SWEEP_ARGV) + ["--jobs", str(jobs)])
        wall, raw_wall = clock.now() - v0, time.perf_counter() - t0
    text = buf.getvalue()
    doc = json.loads(text)
    out = {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "ref_chunk_ms": clock.chunk_ms(),
        "rc": rc,
        "summary": doc["summary"],
        "checks": len(doc["results"]),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer:
        out.update(_finish_tracer(tracer, jobs, f"sweep-j{jobs}"))
    return out


def _run_pass(batch: list, clock) -> tuple:
    """Evaluate every point through each route that accepts it; returns
    (wall, per-eval latencies, outputs), times in seconds of ``clock``.  A
    point that raises is recorded by its exception type and counted as
    failed later."""
    csum_eval = ramsum.csum_eval
    now = clock.now
    latency = array("d")
    outputs = []
    t0 = now()
    for k, s, j, direct in batch:
        e0 = now()
        try:
            m = csum_eval(k, j, s, "moebius").value
            h = csum_eval(k, j, s, "hoelder").value
            d = csum_eval(k, j, s, "direct").value if direct else None
        except Exception as exc:  # counted as a failed eval, the loop goes on
            m = h = d = type(exc).__name__
        latency.append(now() - e0)
        outputs.append((m, h, d))
    return now() - t0, latency, outputs


def _check_pass(batch: list, outputs: list, rng: random.Random) -> int:
    """Failed evals of one pass.  An eval fails on an exception, on
    moebius != hoelder or direct != moebius, and, for a seeded sample, on
    disagreeing with the reference or on |direct - exact| >= 1e-6 for the
    raw complex sum."""
    bad = {i for i, (m, h, d) in enumerate(outputs) if isinstance(m, str) or m != h or (d is not None and d != m)}
    for i in rng.sample(range(len(batch)), min(ORACLE_PER_PASS, len(batch))):
        k, s, j, direct = batch[i]
        m = outputs[i][0]
        if i in bad:
            continue
        if oracle.csum_reference(k, s, j) != m or (direct and not abs(ramsum.csum_direct(k, j, s) - m) < 1e-6):
            bad.add(i)
    return len(bad)


def run_points(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Whole passes until the time is up.  Each pass is checked after it is
    timed and then dropped, so memory does not grow with the pass count.
    Traced, every pass runs first under the tracer and then again untraced,
    with identical outputs required; the untraced runs are the ones checked."""
    # a direct sum whose residual exceeds 1e-6 warns; here that is a failed eval
    warnings.simplefilter("error", RuntimeWarning)
    tracer = _start_tracer(trace)
    ramsum.factorize(2)
    if tracer:
        tracer.uninstall()
    stream = workloads.STREAMS[workload](seed)
    rng = random.Random(f"oracle/{seed}")
    walls, traced_walls, p50, p99 = [], [], [], []
    attempted = failed = 0
    identical = True
    start = time.perf_counter()
    with PlainClock() if tracer else RefClock() as clock:
        while not walls or time.perf_counter() - start < seconds:
            batch = next(stream)
            if tracer:
                tracer.install()
                wall, _, traced_outputs = _run_pass(batch, clock)
                tracer.uninstall()
                traced_walls.append(wall)
            wall, lat, outputs = _run_pass(batch, clock)
            if tracer:
                identical = identical and traced_outputs == outputs
            walls.append(wall)
            p50.append(layers.percentile(lat, 50) * 1e3)
            p99.append(layers.percentile(lat, 99) * 1e3)
            attempted += len(batch)
            failed += _check_pass(batch, outputs, rng)
    result = dict(
        walls=walls,
        raw_run_s=time.perf_counter() - start,
        ref_chunk_ms=clock.chunk_ms(),
        attempted=attempted,
        failed=failed,
        p50_ms=p50,
        p99_ms=p99,
        peak_rss_mb=_peak_rss_mb(),
    )
    if tracer:
        result.update(_finish_tracer(tracer, 0, workload), traced_walls=traced_walls, identical=identical)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("sweep", "points"))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--workload", choices=workloads.POINT_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    _check_source()
    if args.mode == "sweep":
        result = run_sweep(args.jobs, args.trace)
    else:
        result = run_points(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
