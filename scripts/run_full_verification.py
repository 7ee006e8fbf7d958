"""Run the complete identity suite at scale and archive the reports.

Usage:
    python3 scripts/run_full_verification.py [--out reports] [--jobs N]
                                             [--k-max K] [--s-max S]
                                             [--tuples T] [--seed SEED]

Writes <out>/suite.json and <out>/suite.csv, prints the human summary to
stdout, and exits 0 when nothing hard-fails (findings are informational)
or 2 otherwise, so the script can gate a CI job directly.
"""

import argparse
import sys
import time
from pathlib import Path

from ramsum.cli import _int_at_least
from ramsum.identities import SuiteConfig, render_report, run_suite


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="reports", help="report directory")
    parser.add_argument("--jobs", type=_int_at_least(1), default=1)
    parser.add_argument("--k-max", type=_int_at_least(1), default=None,
                        help="override the per-identity modulus ceilings")
    parser.add_argument("--s-max", type=_int_at_least(1), default=None)
    parser.add_argument("--r-max", type=_int_at_least(1), default=None)
    parser.add_argument("--tuples", type=_int_at_least(0), default=50,
                        help="random coprime tuples for the g_m check")
    parser.add_argument("--seed", type=int, default=91)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = SuiteConfig(
        identities=("all",),
        k_max=args.k_max,
        s_max=args.s_max,
        r_max=args.r_max,
        tuples=args.tuples,
        seed=args.seed,
        jobs=args.jobs,
    )
    started = time.perf_counter()
    report = run_suite(cfg)
    elapsed = time.perf_counter() - started

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "suite.json").write_text(render_report(report, "json"))
    (out / "suite.csv").write_text(render_report(report, "csv"))

    human = render_report(report, "human")
    print([line for line in human.splitlines() if line.startswith("summary ")][-1])
    print(f"checks={len(report.results)} elapsed={elapsed:.1f}s "
          f"reports={out / 'suite.json'} {out / 'suite.csv'}")
    return 0 if report.failed == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
