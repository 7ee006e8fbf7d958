"""Print the sha256 of every `ramsum verify` report that the repo pins:
`verify all` at the default grid and at `--k-max 120`; `verify
bernoulli-weight --k-max 12 --m-max 60`, whose moments up to order 60 need
up to 14 moduli below 2^31; and two grids past the defaults that reach
the multisection kernel's rounding bound, `verify multisection --n-max 40
--r-max 40` and `verify binomial-weight --k-max 256`, whose k = 237, 243
and 249 sit near it; and `verify multivariate --ks "6;2,3;2,3,5;2,3,5,7"
--r-max 2`, whose lists of one and four moduli no other grid builds; each
in json, csv and human form.

    python3 scripts/report_digests.py

Each report is rendered at `--jobs 1` and at `--jobs 2`.  One line per
report gives its grid, format and digest; the run exits 1 when a digest
differs from its pinned value in PINNED, when the two job counts give
different bytes, or when a run neither passes (exit 0) nor ends in a verify
failure (exit 2).  A change meant to alter report bytes updates PINNED.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

GRIDS = (
    ("default", ["all"]),
    ("k-max-120", ["all", "--k-max", "120"]),
    ("bernoulli", ["bernoulli-weight", "--k-max", "12", "--m-max", "60"]),
    ("multisect", ["multisection", "--n-max", "40", "--r-max", "40"]),
    ("binomial", ["binomial-weight", "--k-max", "256"]),
    ("moduli", ["multivariate", "--ks", "6;2,3;2,3,5;2,3,5,7", "--r-max", "2"]),
)
FORMATS = ("human", "json", "csv")
PINNED = {
    ("default", "human"): "51c79c1aae407a7f291fbc6782b0ef10aba0de4c09e5c2912a13da9789890ac4",
    ("default", "json"): "06b6b9d8aa5c55780dc05ac91e83a510cc4295bc9a89124950d87cd66a7d3a19",
    ("default", "csv"): "4aa3e77e301a31eadcdaa19d12bbdf57b6c551bbc2774ea497914b6216f5adfc",
    ("k-max-120", "human"): "77728176c3968a70a649099389b85ccdf902643ab59a089f1ba93f469763c3da",
    ("k-max-120", "json"): "6e0f7ef15846e5f7753f1214986f70556918bfc99d2e0a9447524120f0eb5658",
    ("k-max-120", "csv"): "2f0c769b897f97241cd5629beb7292e47180f68db6c5519d0c6e2a77bc69e610",
    ("bernoulli", "human"): "eb89e181ce236fed0231637922edb5969a84b44243410d727e087c67e1a2a242",
    ("bernoulli", "json"): "076f3f168297338fb89b90f62dd7d95e330aa98f55e1415a0f81968d02010c3b",
    ("bernoulli", "csv"): "9887e47bac24b57100fcbce4317f413eb9b6a6d9394a5e6e6a4cb17fe4f4b96c",
    ("multisect", "human"): "09c5968eb2c550ca9a7ac3a734837740f934e418e0240b509c5e2662d01153de",
    ("multisect", "json"): "b739a80c8cff2f64ecbdf0489566adc63a1a5419480ed6578de0255b4faa06d7",
    ("multisect", "csv"): "7231352be89e7814c76673c9f3c9e2257ee5da19054d954157ac365d1a89265e",
    ("binomial", "human"): "9e25c2ef9868e755623a26cde0b98febd5bf69a81280278fef487c1e951112ff",
    ("binomial", "json"): "be0de855ce9ac900053463fecd96347be2a4e510d08dfccc2ee8c8a6ed70cac4",
    ("binomial", "csv"): "0c45f80c780309ab84fb669009099a6eaa1948dd90e0d032cebe51cb2454b7f7",
    ("moduli", "human"): "6b9997e13b745c8ddd0c69699090e2228e2a0ac4e977676a792e8d938a25d2db",
    ("moduli", "json"): "d928a56b0e1d1ea2100face67a28f9eeb79320458f827d8b8e77d318c72fb8cd",
    ("moduli", "csv"): "0125db727c9b889f227b146e9c9520b8768a23b083d77aaaf7d37f756f798910",
}


def digest(root: str, env: dict, extra: list, fmt: str, jobs: int) -> str:
    argv = [sys.executable, "-m", "ramsum", "verify", *extra, "--format", fmt, "--jobs", str(jobs)]
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
            if one != PINNED[grid, fmt]:
                print(f"{grid:<10} {fmt:<5} {PINNED[grid, fmt]} is pinned, differs")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
