"""Print the sha256 of every `ramsum verify all` report that the repo pins:
the default grid and `--k-max 120`, each in json, csv and human form.

    python3 scripts/report_digests.py

Each report is rendered at `--jobs 1` and at `--jobs 2`.  One line per
report gives its grid, format and digest; the run exits 1 when the two job
counts give different bytes, or when a run neither passes (exit 0) nor ends
in a verify failure (exit 2).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

GRIDS = (("default", []), ("k-max-120", ["--k-max", "120"]))
FORMATS = ("human", "json", "csv")


def digest(root: str, env: dict, extra: list, fmt: str, jobs: int) -> str:
    argv = [sys.executable, "-m", "ramsum", "verify", "all", *extra, "--format", fmt, "--jobs", str(jobs)]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True)
    if proc.returncode not in (0, 2):
        raise SystemExit(f"{' '.join(argv[2:])} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return hashlib.sha256(proc.stdout).hexdigest()


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    status = 0
    for grid, extra in GRIDS:
        for fmt in FORMATS:
            one, two = (digest(root, env, extra, fmt, jobs) for jobs in (1, 2))
            print(f"{grid:<10} {fmt:<5} {one}")
            if one != two:
                print(f"{grid:<10} {fmt:<5} {two} at --jobs 2 differs")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
