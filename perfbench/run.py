"""ramsum benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a ramsum checkout; ramsum is imported from ``src``
there.  Workloads, metric names and units are read from BENCHMARK.json.
With ``--trace 0`` the last stdout line holds every end-to-end metric, from
untraced processes; with ``--trace 1`` it holds every per-layer metric, from
a traced process, plus ``trace.overhead_frac``.  The line before it records
the machine and the code measured, and the same record with the raw samples
is written to ``.perfbench/``.  The exit code is 0 only when every output
check passed; a run that cannot start exits 2 without a result line.

End-to-end times are in reference seconds from ``refclock.RefClock``, which
counts CPU time and divides out the host's changing CPU speed; the real times
are kept in the record beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from layers import percentile  # noqa: E402

SETUP_RUNS = 9
SETUP_CODE = (
    "import sys, time\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "from refclock import RefClock\n"
    "with RefClock() as clock:\n"
    "    t0, v0 = time.perf_counter(), clock.now()\n"
    "    import ramsum\n"
    "    ramsum.factorize(2)\n"
    "    print(clock.now() - v0, time.perf_counter() - t0)\n"
)
# every run must end within 180 s; children are killed past this budget
RUN_BUDGET_S = 170.0
OUT_DIR = ".perfbench"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Runner:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.env.pop("RAMSUM_SIEVE_LIMIT", None)

    def _run(self, argv: list) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        # own session, so a timeout also takes down any pool workers
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=self.env, start_new_session=True
        ) as proc:
            try:
                out, err = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"timed out: {' '.join(argv[1:])}") from None
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}: {err.strip()[-2000:]}")
        return out

    def child(self, *args: str) -> dict:
        out = self._run([sys.executable, os.path.join(HERE, "child.py"), *args])
        return json.loads(out.strip().splitlines()[-1])

    def setup_s(self, runs: int) -> list:
        """(reference seconds, real seconds) of each of ``runs`` set-ups."""
        return [tuple(map(float, self._run([sys.executable, "-c", SETUP_CODE]).split())) for _ in range(runs)]


# ---------------------------------------------------------------- workloads


def _sweep_ok(p: dict, reference: str) -> bool:
    return (
        p["rc"] == 0
        and p["summary"] == workloads.SWEEP_EXPECTED
        and p["checks"] == workloads.SWEEP_CHECKS
        and p["digest"] == reference
    )


def _sweep_tally(passes: list) -> tuple:
    """(attempted, failed): a pass whose report is wrong in any way counts
    every one of its checks as failed."""
    reference = passes[0]["digest"]
    attempted = sum(p["checks"] for p in passes)
    failed = sum(p["checks"] for p in passes if not _sweep_ok(p, reference))
    return attempted, failed


def sweep(runner: Runner, jobs: int, trace: bool) -> dict:
    # at --jobs 2 a serial pass comes first: the reference whose report bytes
    # every parallel pass must reproduce
    reference = [runner.child("sweep", "--jobs", "1")] if jobs > 1 else []
    measured, traced = [], []
    start = time.monotonic()
    while not measured or time.monotonic() - start < runner.seconds:
        measured.append(runner.child("sweep", "--jobs", str(jobs)))
        if trace:
            # traced and untraced passes alternate, so host drift hits both
            traced.append(runner.child("sweep", "--jobs", str(jobs), "--trace"))
    attempted, failed = _sweep_tally(reference + measured + traced)
    out = {"attempted": attempted, "failed": failed, "passes": reference + measured + traced}
    walls = [p["wall_s"] for p in measured]
    if trace:
        names = traced[0]["layers"]
        layer = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        # traced passes run on real time, so they are set against real time
        layer["trace.overhead_frac"] = sum(p["wall_s"] for p in traced) / sum(p["raw_wall_s"] for p in measured) - 1
        return dict(out, ok=all(p["restored"] for p in traced), metrics=layer)
    metrics = {
        "wall_s": statistics.median(walls),
        "throughput_per_s": sum(p["checks"] for p in measured) / sum(walls),
        "latency_p50_ms": percentile(walls, 50) * 1e3,
        "latency_p99_ms": percentile(walls, 99) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in measured),
    }
    return dict(out, ok=True, metrics=metrics)


def points(runner: Runner, workload: str, seed: int, trace: bool) -> dict:
    args = ["points", "--workload", workload, "--seed", str(seed), "--seconds", str(runner.seconds)]
    r = runner.child(*args, *(["--trace"] if trace else []))
    out = {"attempted": r["attempted"], "failed": r["failed"], "ok": True, "passes": [r]}
    if trace:
        overhead = sum(r["traced_walls"]) / sum(r["walls"]) - 1
        out["metrics"] = dict(r["layers"], **{"trace.overhead_frac": overhead})
        out["ok"] = r["restored"] and r["identical"]
        return out
    out["metrics"] = {
        "wall_s": statistics.median(r["walls"]),
        "throughput_per_s": r["attempted"] / sum(r["walls"]),
        "latency_p50_ms": statistics.median(r["p50_ms"]),
        "latency_p99_ms": statistics.median(r["p99_ms"]),
        "peak_rss_mb": r["peak_rss_mb"],
    }
    return out


# ---------------------------------------------------------------- records


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    root = os.path.join("src", "ramsum")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def machine_record() -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "ramsum", "__init__.py")):
        print("perfbench: no ramsum source at ./src/ramsum; run from the root of a checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args.seconds)
    try:
        # set-up samples are split around the workload so that they span the
        # run rather than one moment of it
        setup = [] if args.trace else runner.setup_s(SETUP_RUNS // 2)
        if args.workload in workloads.SWEEP_JOBS:
            res = sweep(runner, workloads.SWEEP_JOBS[args.workload], bool(args.trace))
        else:
            res = points(runner, args.workload, args.seed, bool(args.trace))
        if not args.trace:
            setup += runner.setup_s(SETUP_RUNS - len(setup))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    values = dict(res["metrics"])
    if setup:
        values["setup_s"] = statistics.median(ref for ref, _ in setup)
    # a run may measure more than BENCHMARK.json lists (identities.pool.efficiency
    # off sweep-k120-j2); those stay in the record only
    missing = {m["name"] for m in wanted} - set(values)
    if missing:
        print(f"perfbench: metrics {sorted(missing)} of BENCHMARK.json not measured", file=sys.stderr)
        return 2
    correct = res["ok"] and res["failed"] == 0
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(record, result=result, measured=values, setup_samples=setup, passes=res["passes"]), fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
