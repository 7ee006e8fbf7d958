"""Map where the log-weight identity is exact once s exceeds 1.

Usage:
    python3 scripts/log_weight_census.py [--k-max 200] [--s-max 4]
                                         [--out reports/log_weight_census.json]

For every k <= k_max and 2 <= s <= s_max the exact defect of the identity
is the log-vector

    lhs - rhs = -(s/k) * sum over d | k of mu(k/d) (k mod d^s) log d,

which vanishes identically at s = 1 but only sporadically afterwards.
Whenever every mu-surviving divisor d >= 2 satisfies d^s > k the sum
telescopes to k * Lambda(k), so such points are exact precisely when k has
at least two prime factors ("telescoping" below).  A few points are exact
without that support through accidental cancellation (k = 104 at s = 2 is
the smallest).  Membership in the s-full set {k : rad(k)^s | k} turns out
to predict neither direction, and the script prints the disagreement.

A mismatch equal to that defect is a finding; any other is classified
`mismatch`, counted apart, and makes the script exit 1.
"""

import argparse
import json
import sys
from pathlib import Path

from ramsum.arith import factorize, moebius_divisors
from ramsum.cli import _int_at_least
from ramsum.identities import check_log_weight


def telescopes(k, s):
    fac = factorize(k)
    if len(fac.factors) < 2:
        return False
    return all(d**s > k for d, _ in moebius_divisors(fac) if d >= 2)


def is_s_full(k, s):
    rad = 1
    for p, _ in factorize(k).factors:
        rad *= p
    return k % rad**s == 0


def census(k_max, s_max):
    doc = {}
    for s in range(2, s_max + 1):
        verified, telescoped, cancelled, sfull_mismatch, mismatches = [], [], [], [], []
        findings = 0
        for k in range(2, k_max + 1):
            out = check_log_weight(k, s)
            if out.passed:
                verified.append(k)
                (telescoped if telescopes(k, s) else cancelled).append(k)
                continue
            if out.classification == "finding-mismatch":
                findings += 1
            else:
                mismatches.append(k)
            if is_s_full(k, s):
                sfull_mismatch.append(k)
        doc[str(s)] = {
            "verified": verified,
            "telescoping": telescoped,
            "cancellation": cancelled,
            "findings": findings,
            "mismatches": mismatches,
            "s_full_yet_mismatch": sfull_mismatch,
        }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k-max", type=_int_at_least(2), default=200)
    parser.add_argument("--s-max", type=_int_at_least(2), default=4)
    parser.add_argument("--out", default="reports/log_weight_census.json")
    args = parser.parse_args(argv)

    doc = census(args.k_max, args.s_max)
    for s, row in doc.items():
        print(f"s={s}: {len(row['verified'])} exact, {row['findings']} findings, "
              f"{len(row['mismatches'])} mismatches (k <= {args.k_max})")
        if row["mismatches"]:
            print(f"  mismatching the predicted defect: {row['mismatches']}")
        print(f"  exact via telescoping: {row['telescoping']}")
        print(f"  exact via cancellation: {row['cancellation']}")
        print(f"  s-full yet mismatching: {row['s_full_yet_mismatch']}")
        for k in row["s_full_yet_mismatch"][:3]:
            out = check_log_weight(k, int(s))
            print(f"    defect at k={k}: {out.lhs - out.rhs}")

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 1 if any(row["mismatches"] for row in doc.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
