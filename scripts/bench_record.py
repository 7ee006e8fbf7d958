"""Run perfbench over workloads and seeds in one or more checkouts and record
per-metric medians and quartiles, with the machine record, as one JSON file.

    python3 scripts/bench_record.py --out BENCH_7.json \\
        --checkout parent=../ramsum-parent --checkout change=. \\
        --workloads period-scan point-scatter --seeds 1-10 --seconds 30

With several checkouts every seed runs once in each, the order rotating from
seed to seed, so each seed gives one pair of runs taken side by side.  With
two checkouts each metric also gets the number of seeds on which the second
is better than the first, by the direction BENCHMARK.json gives it.

Bytecode left in one checkout and not the other would skew `setup_s`, so a
checkout with a `__pycache__` anywhere under its `src/` is refused, by name,
before any run, and every run has PYTHONDONTWRITEBYTECODE=1 set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def stale_bytecode(checkout: str) -> list:
    """The __pycache__ directories under checkout/src, sorted."""
    found = []
    for root, dirs, _ in os.walk(os.path.join(checkout, "src")):
        found += [os.path.join(root, d) for d in dirs if d == "__pycache__"]
    return sorted(found)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple:
    """(machine record, result) of one perfbench/run.py --trace 0 run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_record.py")
    parser.add_argument("--out", required=True)
    parser.add_argument("--checkout", action="append", required=True, help="LABEL=PATH, repeatable")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="N or N-M")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    checkouts = dict(c.split("=", 1) for c in args.checkout)
    labels = list(checkouts)
    for label, path in checkouts.items():
        stale = stale_bytecode(path)
        if stale:
            raise SystemExit(f"{label}: bytecode under src would skew setup_s; remove {', '.join(stale)}")
    with open(os.path.join(checkouts[labels[0]], "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    doc = {"argv": sys.argv[1:] if argv is None else argv, "seconds": args.seconds, "seeds": args.seeds}
    doc["checkouts"], doc["workloads"] = {}, {}
    for workload in args.workloads:
        runs = {label: [] for label in labels}
        for i, seed in enumerate(args.seeds):
            for label in labels[i % len(labels) :] + labels[: i % len(labels)]:
                record, result = run_once(checkouts[label], workload, seed, args.seconds)
                doc["machine"] = {k: v for k, v in record["machine"].items() if k not in ("commit", "source_sha256")}
                doc["checkouts"][label] = {k: record["machine"][k] for k in ("commit", "source_sha256")}
                runs[label].append(result)
                print(workload, seed, label, result["metrics"]["wall_s"]["value"], file=sys.stderr)
        entry = {}
        for label, results in runs.items():
            metrics = {m: summary([r["metrics"][m]["value"] for r in results]) for m in results[0]["metrics"]}
            entry[label] = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        if len(labels) == 2:
            first, second = (entry[label]["metrics"] for label in labels)
            sign = {"lower": 1, "higher": -1}
            entry[f"{labels[1]}_better_pairs"] = {
                m: sum(sign[better[m]] * (a - b) > 0 for a, b in zip(first[m]["values"], second[m]["values"]))
                for m in first
            }
        doc["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
