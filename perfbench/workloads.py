"""Workload definitions: the sweep arguments and the seeded point streams.

Every input here is a function of the workload seed alone; nothing reads
the program's own defaults, so a later change to ramsum cannot change what
the benchmark asks of it.
"""

from __future__ import annotations

import random

# `verify all` at the ROADMAP's named scale; the sweeps ignore the seed
SWEEP_ARGV = ("verify", "all", "--k-max", "120", "--format", "json")
SWEEP_JOBS = {"sweep-k120": 1, "sweep-k120-j2": 2}
# report summary of SWEEP_ARGV at the seed commit; any other count is a wrong result
SWEEP_EXPECTED = {"pass": 13624, "findings": 113, "fail": 0}
SWEEP_CHECKS = 13737

POINT_WORKLOADS = ("period-scan", "point-scatter")
ALL_WORKLOADS = tuple(SWEEP_JOBS) + POINT_WORKLOADS

# the direct route is only asked for periods up to this size
DIRECT_MAX_PERIOD = 10**5
# ramsum's default sieve limit at the seed commit, fixed here so the inputs
# stay the same if that default moves
SIEVE_LIMIT = 10**6

# period-scan: every (k, s) with k <= 120, s <= 3 and k^s <= 1e5, each
# visited once per pass in seeded order and evaluated at GROUP seeded j
PERIOD_KEYS = tuple((k, s) for s in (1, 2, 3) for k in range(1, 121) if k**s <= DIRECT_MAX_PERIOD)
GROUP = 64
# point-scatter: points per pass
SCATTER_BATCH = 8000


def _point(k: int, s: int, j: int) -> tuple:
    return k, s, j, k**s <= DIRECT_MAX_PERIOD


def period_scan(seed: int):
    """Endless passes; each pass visits every key in PERIOD_KEYS once."""
    rng = random.Random(f"period-scan/{seed}")
    while True:
        keys = list(PERIOD_KEYS)
        rng.shuffle(keys)
        yield [_point(k, s, rng.getrandbits(64)) for k, s in keys for _ in range(GROUP)]


def point_scatter(seed: int):
    """Endless passes of fresh points: half the moduli up to the sieve limit,
    half up to 2000, s in 1..8 and 64-bit j."""
    rng = random.Random(f"point-scatter/{seed}")
    while True:
        batch = []
        for i in range(SCATTER_BATCH):
            k = rng.randint(1, SIEVE_LIMIT if i % 2 else 2000)
            batch.append(_point(k, rng.randint(1, 8), rng.getrandbits(64)))
        yield batch


STREAMS = {"period-scan": period_scan, "point-scatter": point_scatter}
