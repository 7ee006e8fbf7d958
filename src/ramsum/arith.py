"""Integer arithmetic kernel: factorization, divisors, multiplicative functions.

Every multiplicative-function evaluator here takes an explicit
:class:`Factorization` rather than a raw integer, so a sweep over many moduli
factors each one exactly once and every value stays an exact Python int.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt

from .errors import ResourceLimitError

# every odd composite below 2^20 has a prime factor below 1024, so the index
# names each by its ordinal among the 171 odd primes there, one byte
TRIAL_LIMIT = 1 << 20
# maps an index byte to 1 where it is 0, "1 or a prime", else to 0
_IS_PRIME = bytes([1]) + bytes(255)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer.

    ``factors`` is a tuple of (prime, exponent) pairs sorted by prime, with
    every exponent at least 1.  ``Factorization(1, ())`` represents n = 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError("factorization value must be positive")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must be sorted by prime with exponents >= 1")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors do not multiply back to {self.value}")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _sieve(limit: int) -> list[int]:
    """The primes <= limit, ascending, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes((limit - p * p) // p + 1)
    return list(compress(range(limit + 1), flags))


class PrimeSieve:
    """The primes up to ``limit`` as one least-prime-factor index, and
    factorization by it.

    ``_index[n >> 1]``, for odd n <= limit, is the ordinal in ``_small`` of
    the least prime factor of n, or 0 when n is 1 or a prime.  ``_small`` is
    0 followed by the odd primes up to isqrt(limit), at most 171 of them.
    The index takes one byte per odd n, 512 KiB at the default limit
    TRIAL_LIMIT, and about 1.5 ms to build; the prime list is read from it
    on demand.
    """

    def __init__(self, limit: int = TRIAL_LIMIT):
        if not 2 <= limit <= TRIAL_LIMIT:
            raise ValueError(f"sieve limit must be between 2 and {TRIAL_LIMIT}")
        self.limit = int(limit)
        self._small = small = [0] + _sieve(isqrt(self.limit))[1:]
        half = (self.limit + 1) >> 1
        index = bytearray(half)
        # largest prime first, so each entry ends with the least prime factor;
        # the odd multiples n = p^2, p^2 + 2p, ... sit at p^2 >> 1 in steps of p
        for i in range(len(small) - 1, 0, -1):
            p = small[i]
            start = p * p >> 1
            index[start::p] = bytes((i,)) * ((half - 1 - start) // p + 1)
        self._index = index
        # (upto, the primes <= upto), replaced whole so a reader never sees half
        self._kept = (2, [2])

    def _listed(self, n: int) -> list[int]:
        """The kept list of the primes, listed from the index on demand up
        to at least min(n, limit); its own, not a copy."""
        upto, primes = self._kept
        if n > upto and upto < self.limit:
            # to the next power of 2, so a rising n lists O(log n) times
            upto = min(self.limit, 1 << n.bit_length())
            # entry i, odd n = 2i + 1, is 0 for each odd prime n from i = 1 on
            flags = self._index[1 : (upto + 1) >> 1].translate(_IS_PRIME)
            primes = [2, *compress(range(3, upto + 1, 2), flags)]
            self._kept = (upto, primes)
        return primes

    def primes_up_to(self, n: int) -> list[int]:
        """The primes <= min(n, limit), ascending."""
        primes = self._listed(n)
        return primes[: bisect_right(primes, n)]

    def factorize(self, n: int) -> Factorization:
        """Factor n >= 1, least prime first: the 2s by a bit trick, then each
        odd prime factor p by one run of divisions.  While what is left is at
        most the limit, p is one index lookup.  Past it, p is the next trial
        divisor of it: the primes up to the limit, then the odd numbers after
        them below TRIAL_LIMIT.  A cofactor past TRIAL_LIMIT^2 with no factor
        below TRIAL_LIMIT raises ResourceLimitError, so every call is bounded.
        """
        e = (n & -n).bit_length() - 1
        factors = [(2, e)] if e else []
        m = n >> e
        limit, index, small = self.limit, self._index, self._small
        trial = None
        while m > 1:
            if m <= limit:
                p = small[index[m >> 1]] or m
            else:
                # the primes up to sqrt(m) are listed, or all up to the limit;
                # (limit + 1) | 1 is the first odd number past the limit
                trial = trial or chain(self._listed(isqrt(m)), range((limit + 1) | 1, TRIAL_LIMIT, 2))
                p = next((q for q in trial if q * q > m or m % q == 0), m)
                if p * p > m:
                    # no prime factor up to sqrt(m), or below TRIAL_LIMIT: m is
                    # a prime, unless it is past TRIAL_LIMIT^2
                    if m > TRIAL_LIMIT * TRIAL_LIMIT:
                        raise ResourceLimitError(
                            f"cannot factor: a cofactor past {TRIAL_LIMIT}^2 has no prime factor up to {TRIAL_LIMIT}"
                        )
                    p = m
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        return Factorization(n, tuple(factors))


_default_sieve: PrimeSieve | None = None
_sieve_lock = threading.Lock()


def configure_default_sieve(limit: int) -> PrimeSieve:
    """Replace the shared sieve that factorize reads, and forget every
    factorization memoized from the old one."""
    global _default_sieve
    with _sieve_lock:
        _default_sieve = PrimeSieve(limit)
        _factor.cache_clear()
    return _default_sieve


def _shared_sieve() -> PrimeSieve:
    """The sieve factorize and primes_up_to read, built at TRIAL_LIMIT on
    first use unless configure_default_sieve already set one."""
    global _default_sieve
    sieve = _default_sieve
    if sieve is None:
        with _sieve_lock:
            if _default_sieve is None:
                _default_sieve = PrimeSieve()
            sieve = _default_sieve
    return sieve


def factorize(n: int) -> Factorization:
    """Factor a positive integer by the shared sieve (PrimeSieve.factorize).

    Each result is memoized and shared: every route to c_k^(s)(j) reads the
    factorization of k.
    """
    if n < 1:
        raise ValueError(f"cannot factor n={n}, need n >= 1")
    return _factor(n)


# 1024 holds every n of a `verify all --k-max 120` sweep (230) with no
# eviction; a scatter of fresh k reuses each one only within its own point
@lru_cache(maxsize=1024)
def _factor(n: int) -> Factorization:
    return _shared_sieve().factorize(n)


def primes_up_to(limit: int) -> list[int]:
    """The primes <= limit, ascending: from the shared sieve up to its
    limit, by a sieve of their own past it."""
    sieve = _shared_sieve()
    if limit > sieve.limit:
        return _sieve(limit)
    return sieve.primes_up_to(limit)


def divisors(fac: Factorization) -> list[int]:
    """All positive divisors, ascending.  Length is prod(e_i + 1)."""
    out = [1]
    for p, e in fac.factors:
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def moebius(fac: Factorization) -> int:
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def moebius_divisors(fac: Factorization) -> list[tuple[int, int]]:
    """The pairs (d, mu(n/d)) over the d | n with mu(n/d) != 0, ascending in d.

    n/d runs over the squarefree divisors of n, so each d is n over a product
    of distinct primes of n and mu(n/d) is -1 to the number of those primes;
    nothing past the factorization of n is factored.
    """
    out = [(fac.value, 1)]
    for p, _ in fac.factors:
        out += [(d // p, -m) for d, m in out]
    return sorted(out)


def jordan_totient(s: int, fac: Factorization) -> int:
    """J_s(n) = n^s * prod_{p|n} (1 - p^{-s}), as an exact integer.

    Multiplicative, equal to sum_{d|n} d^s mu(n/d), and J_1 is Euler's phi.
    s = 0 is allowed and gives the convolution identity element
    (1 at n = 1, else 0), consistently under both characterizations.
    """
    if s < 0:
        raise ValueError("jordan_totient needs s >= 0")
    total = 1
    for p, e in fac.factors:
        total *= p ** (s * e) - p ** (s * (e - 1))
    return total


def euler_phi(fac: Factorization) -> int:
    return jordan_totient(1, fac)


def von_mangoldt(fac: Factorization):
    """Lambda(n) as an exact log vector: log p on prime powers p^e, else 0."""
    # imported here, not at module top: logspace builds on this module
    from .logspace import LogLinear

    if len(fac.factors) == 1:
        return LogLinear({fac.factors[0][0]: 1})
    return LogLinear()


def tau_sigma(fac: Factorization) -> tuple[int, int]:
    """(number of divisors, sum of divisors)."""
    tau = 1
    sigma = 1
    for p, e in fac.factors:
        tau *= e + 1
        sigma *= (p ** (e + 1) - 1) // (p - 1)
    return tau, sigma


def _gen_gcd_factors(j: int, factors: tuple[tuple[int, int], ...], s: int) -> int:
    # largest d built prime-by-prime: p may enter d with exponent a only if
    # p^(a*s) divides j, and a is capped by p's exponent in k; p^s is
    # stripped whole, so a huge j costs at most e divisions per prime
    g = 1
    for p, e in factors:
        # p^s >= 2^(s*(bitlen(p)-1)) > j there, so a huge s never builds p^s
        if j % p or s * (p.bit_length() - 1) >= j.bit_length():
            continue
        q = p**s
        a = 0
        while a < e and j % q == 0:
            j //= q
            a += 1
        g *= p**a
    return g


def gen_gcd(j: int, k: int, s: int = 1) -> int:
    """Largest d with d | k and d^s | j; the s-generalized gcd (j, k^s)_s.

    gen_gcd(0, k, s) = k since every d^s divides 0, and s = 1 reduces to the
    ordinary gcd.  Negative j is treated by absolute value (divisibility is
    sign-blind), which makes the k^s-periodic callers uniform.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    j = abs(j)
    if j == 0:
        return k
    if s == 1:
        return gcd(j, k)
    return _gen_gcd_factors(j, factorize(k).factors, s)

