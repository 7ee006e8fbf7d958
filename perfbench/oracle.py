"""Reference values of c_k^(s)(j) written from the definitions, sharing no ramsum code.

Small periods are summed root by root: c_k^(s)(j) is the sum of
e(m j / k^s) over 1 <= m <= k^s with no prime p | k such that p^s | m.
Larger periods use the divisor form sum over d | k with d^s | j of
d^s mu(k/d), with divisors and mu taken from a trial-division
factorization of k.
"""

from __future__ import annotations

import math

BRUTE_MAX_PERIOD = 2048


def trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def roots_of_unity_sum(k: int, s: int, j: int) -> complex:
    K = k**s
    blocked = [p**s for p, _ in trial_factor(k)]
    r = j % K
    re, im = [], []
    for m in range(1, K + 1):
        if any(m % q == 0 for q in blocked):
            continue
        ang = 2.0 * math.pi * ((m * r) % K) / K
        re.append(math.cos(ang))
        im.append(math.sin(ang))
    return complex(math.fsum(re), math.fsum(im))


def divisor_sum(k: int, s: int, j: int) -> int:
    total = 0
    exps = trial_factor(k)
    # a divisor d of k is a choice of exponent a_i <= e_i per prime; mu(k/d)
    # is nonzero only when every e_i - a_i is 0 or 1
    choices = [(1, 0)]
    for p, e in exps:
        nxt = []
        for d, flips in choices:
            nxt.append((d * p**e, flips))
            nxt.append((d * p ** (e - 1), flips + 1))
        choices = nxt
    for d, flips in choices:
        if j % d**s == 0:
            total += (-1) ** flips * d**s
    return total


def csum_reference(k: int, s: int, j: int) -> int:
    """Exact c_k^(s)(j); raises if the root sum is not within 1e-6 of an integer."""
    if k**s <= BRUTE_MAX_PERIOD:
        z = roots_of_unity_sum(k, s, j)
        v = round(z.real)
        if abs(z - v) >= 1e-6:
            raise ArithmeticError(f"root sum for k={k}, s={s}, j={j} is not near an integer: {z}")
        return v
    return divisor_sum(k, s, j)


def jordan(k: int, s: int) -> int:
    """J_s(k), the number of terms the direct route sums."""
    total = 1
    for p, e in trial_factor(k):
        total *= p ** (s * e) - p ** (s * (e - 1))
    return total
