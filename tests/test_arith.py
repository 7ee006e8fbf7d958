"""Unit tests for the arithmetic layer.

Every nontrivial routine is checked against a brute-force oracle written
independently in this file (trial division, gcd counting, divisor scans),
so a shared bug in the library cannot hide itself.
"""

import math
import time
import types

import pytest
from hypothesis import given, strategies as st

from ramsum import arith
from ramsum.arith import (
    TRIAL_LIMIT,
    Factorization,
    PrimeSieve,
    configure_default_sieve,
    divisors,
    euler_phi,
    factorize,
    gen_gcd,
    jordan_totient,
    moebius,
    moebius_divisors,
    primes_up_to,
    tau_sigma,
    von_mangoldt,
)
from ramsum.errors import ResourceLimitError
from ramsum.logspace import LogLinear


def brute_factorize(n):
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime(n):
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def brute_moebius(n):
    fac = brute_factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def brute_phi(n):
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


class TestFactorize:
    @given(st.integers(min_value=1, max_value=2_000_000))
    def test_matches_trial_division(self, n):
        # past the table too; the second call is answered from the memo
        for fac in (factorize(n), factorize(n)):
            assert fac.value == n
            assert fac.factors == brute_factorize(n)

    def test_one_has_empty_factors(self):
        assert factorize(1).factors == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_factorization_validates_product(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 1), (3, 1)))

    def test_factorization_requires_sorted_primes(self):
        with pytest.raises(ValueError):
            Factorization(6, ((3, 1), (2, 1)))

    def test_large_input_beyond_sieve(self):
        # trial division runs on through the odd numbers past the sieve limit
        configure_default_sieve(1000)
        try:
            n = 1_000_003 * 7
            assert factorize(n).factors == ((7, 1), (1_000_003, 1))
        finally:
            configure_default_sieve(TRIAL_LIMIT)

    def test_smallest_sieve_skips_no_odd_number(self):
        # the table holds no odd prime, so the odd run must start at 3, not at 5
        configure_default_sieve(2)
        try:
            assert factorize(9).factors == ((3, 2),)
            assert factorize(25).factors == ((5, 2),)
            assert factorize(1009 * 1013).factors == ((1009, 1), (1013, 1))
            assert factorize(7 * 1_000_003).factors == ((7, 1), (1_000_003, 1))
        finally:
            configure_default_sieve(TRIAL_LIMIT)

    def test_refuses_a_cofactor_past_the_trial_bound(self):
        # 1048583 and 1048589 are the first primes past 2^20; their product
        # passes 2^40 with no factor up to 2^20, so its factors are unknown
        n = 1_048_583 * 1_048_589
        with pytest.raises(ResourceLimitError) as err:
            factorize(n)
        assert str(n) not in str(err.value)
        assert factorize(2**20 * 1_048_583).factors == ((2, 20), (1_048_583, 1))
        assert factorize(1_000_000_000_039).factors == ((1_000_000_000_039, 1),)


# below its limit the table answers by index lookups; these straddle the
# edges at the default limit 2^20: 2^19, an odd prime power, the largest
# odd-prime square below 2^20, a product with one factor past 1023, the
# largest prime below 2^20, and 2^20 with its neighbours, where trial division
# takes over
INDEX_EDGES = (2**19, 3**12, 1021**2, 1013 * 1031, 1_048_573, 2**20 - 1, 2**20, 2**20 + 1)


@pytest.fixture(scope="module")
def brute_below_2_16():
    return [None] + [brute_factorize(n) for n in range(1, 2**16 + 1)]


class TestFactorIndex:
    """factorize answers for every table limit: by index lookups for an odd
    part up to the limit, by trial division past it."""

    @pytest.fixture(scope="class", params=[2, 1000, 1 << 16, 10**6, TRIAL_LIMIT])
    def sieve_limit(self, request):
        configure_default_sieve(request.param)
        yield request.param
        configure_default_sieve(TRIAL_LIMIT)

    def test_every_n_to_2_16(self, sieve_limit, brute_below_2_16):
        for n in range(1, 2**16 + 1):
            assert factorize(n).factors == brute_below_2_16[n]

    @given(st.integers(min_value=1, max_value=2**21))
    def test_sample_to_2_21(self, sieve_limit, n):
        assert factorize(n).factors == brute_factorize(n)

    def test_edges(self, sieve_limit):
        for n in INDEX_EDGES:
            assert factorize(n).factors == brute_factorize(n)
        assert factorize(1021**2).factors == ((1021, 2),)
        assert factorize(1013 * 1031).factors == ((1013, 1), (1031, 1))
        assert factorize(2**20 - 1).factors == ((3, 1), (5, 2), (11, 1), (31, 1), (41, 1))

    def test_index_holds_least_prime_factors(self):
        sieve = PrimeSieve()
        assert len(sieve._index) == 2**19 and len(sieve._small) == 172
        for n in range(1, 20001, 2):
            least = brute_factorize(n)[0][0] if n > 1 else n
            assert sieve._small[sieve._index[n >> 1]] == (0 if least == n else least)

    @pytest.mark.parametrize("limit", [-1, 0, 1, TRIAL_LIMIT + 1, 10**7])
    def test_limit_outside_the_table_is_refused(self, limit):
        with pytest.raises(ValueError):
            PrimeSieve(limit)
        with pytest.raises(ValueError):
            configure_default_sieve(limit)
        assert arith._shared_sieve().limit == TRIAL_LIMIT


class TestFactorMemo:
    """factorize answers from one bounded memo of validated factorizations."""

    @given(st.integers(min_value=1_000_001, max_value=10**10))
    def test_matches_trial_fallback_past_the_sieve(self, n):
        assert factorize(n).factors == brute_factorize(n)

    def test_result_is_shared(self):
        assert factorize(360) is factorize(360)
        assert factorize(1_000_003 * 7) is factorize(1_000_003 * 7)

    def test_factorize_stays_a_plain_function(self):
        # the perfbench tracer wraps only plain functions bound in a module
        assert isinstance(arith.factorize, types.FunctionType)

    def test_memo_is_bounded(self):
        for n in range(2, 5002):
            factorize(n)
        assert arith._factor.cache_info().currsize <= 1024

    def test_rejected_inputs_never_reach_the_memo(self):
        before = arith._factor.cache_info()
        for n in (0, -3):
            with pytest.raises(ValueError):
                factorize(n)
        assert arith._factor.cache_info() == before

    def test_configuring_the_sieve_forgets_the_memo(self, monkeypatch):
        # after the sieve is replaced, 510510 must be factored by the new
        # sieve, not answered from the memo the old one filled
        calls = []

        def counted(sieve, n):
            calls.append((sieve.limit, n))
            return trial(sieve, n)

        trial = PrimeSieve.factorize
        n = 2 * 3 * 5 * 7 * 11 * 13 * 17
        factorize(n)
        monkeypatch.setattr(PrimeSieve, "factorize", counted)
        configure_default_sieve(1000)
        try:
            assert factorize(n).factors == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1))
        finally:
            configure_default_sieve(TRIAL_LIMIT)
        assert calls == [(1000, n)]


class TestSieve:
    def test_primes_up_to_small(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_primes_match_trial_division(self):
        assert primes_up_to(2000) == [n for n in range(2, 2001) if is_prime(n)]

    def test_sieve_factors_agree_with_brute(self):
        sieve = PrimeSieve(5000)
        for n in range(1, 5001):
            assert sieve.factorize(n).factors == brute_factorize(n)

    @pytest.mark.parametrize("limit", [2, 3, 4, 1000, 1 << 16])
    def test_sieve_primes_match_oracle(self, limit):
        assert PrimeSieve(limit).primes_up_to(limit) == [n for n in range(2, limit + 1) if is_prime(n)]

    def test_table_primes_match_eratosthenes(self):
        assert PrimeSieve().primes_up_to(TRIAL_LIMIT) == arith._sieve(TRIAL_LIMIT)

    def test_kept_list_answers_any_order_of_n(self):
        sieve = PrimeSieve(5000)
        for n in (1, 2, 3, 10, 100, 99, 4999, 6000, 5000, 7, -4):
            assert sieve.primes_up_to(n) == [p for p in range(2, min(n, 5000) + 1) if is_prime(p)]

    def test_primes_past_the_shared_sieve(self):
        configure_default_sieve(1000)
        try:
            assert primes_up_to(3000) == [n for n in range(2, 3001) if is_prime(n)]
        finally:
            configure_default_sieve(TRIAL_LIMIT)


class TestDivisorFunctions:
    @given(st.integers(min_value=1, max_value=2000))
    def test_divisors_oracle(self, n):
        assert divisors(factorize(n)) == brute_divisors(n)

    @given(st.integers(min_value=1, max_value=5000))
    def test_moebius_oracle(self, n):
        assert moebius(factorize(n)) == brute_moebius(n)

    @given(st.integers(min_value=1, max_value=1500))
    def test_moebius_sum_over_divisors(self, n):
        total = sum(moebius(factorize(d)) for d in brute_divisors(n))
        assert total == (1 if n == 1 else 0)

    def test_moebius_divisors_against_divisor_scan(self):
        assert moebius_divisors(factorize(1)) == [(1, 1)]
        for n in range(1, 2001):
            want = [(d, moebius(factorize(n // d))) for d in divisors(factorize(n))]
            assert moebius_divisors(factorize(n)) == [(d, m) for d, m in want if m], n

    @given(st.integers(min_value=1, max_value=500))
    def test_euler_phi_oracle(self, n):
        assert euler_phi(factorize(n)) == brute_phi(n)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=3))
    def test_jordan_convolution_oracle(self, n, s):
        # J_s = mu * id^s by Moebius inversion of sum_{d|n} J_s(d) = n^s
        expect = sum(d**s * brute_moebius(n // d) for d in brute_divisors(n))
        assert jordan_totient(s, factorize(n)) == expect

    def test_jordan_s0_is_unit(self):
        assert jordan_totient(0, factorize(1)) == 1
        for n in range(2, 50):
            assert jordan_totient(0, factorize(n)) == 0

    def test_jordan_s1_is_phi(self):
        for n in range(1, 200):
            fac = factorize(n)
            assert jordan_totient(1, fac) == euler_phi(fac)

    def test_jordan_examples(self):
        assert jordan_totient(2, factorize(4)) == 12
        assert jordan_totient(2, factorize(6)) == 24
        assert jordan_totient(1, factorize(12)) == 4

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=3),
    )
    def test_jordan_multiplicative(self, a, b, s):
        if math.gcd(a, b) != 1:
            return
        ja = jordan_totient(s, factorize(a))
        jb = jordan_totient(s, factorize(b))
        assert jordan_totient(s, factorize(a * b)) == ja * jb

    def test_jordan_rejects_negative_order(self):
        with pytest.raises(ValueError):
            jordan_totient(-1, factorize(6))

    @given(st.integers(min_value=1, max_value=1200))
    def test_tau_sigma_oracle(self, n):
        divs = brute_divisors(n)
        tau, sigma = tau_sigma(factorize(n))
        assert tau == len(divs)
        assert sigma == sum(divs)


class TestGenGcd:
    def brute(self, j, k, s):
        j = abs(j)
        best = 1
        for d in brute_divisors(k):
            if j % d**s == 0:
                best = d
        return best

    @given(
        st.integers(min_value=-500, max_value=5000),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=3),
    )
    def test_matches_brute_scan(self, j, k, s):
        if j == 0:
            assert gen_gcd(j, k, s) == k
        else:
            assert gen_gcd(j, k, s) == self.brute(j, k, s)

    @given(st.integers(min_value=0, max_value=3000), st.integers(min_value=1, max_value=200))
    def test_s1_is_gcd(self, j, k):
        expect = k if j == 0 else math.gcd(j, k)
        assert gen_gcd(j, k, 1) == expect

    @given(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=3),
    )
    def test_divisor_lattice_property(self, j, k, s):
        # the admissible set {d : d | k, d^s | j} is exactly the divisor
        # lattice below gen_gcd(j, k, s)
        g = gen_gcd(j, k, s)
        admissible = {d for d in brute_divisors(k) if j % d**s == 0}
        assert admissible == set(brute_divisors(g))

    def test_zero_maps_to_k(self):
        assert gen_gcd(0, 12, 2) == 12

    def test_examples(self):
        assert gen_gcd(8, 6, 2) == 2
        assert gen_gcd(9, 6, 2) == 3
        assert gen_gcd(5, 6, 2) == 1
        assert gen_gcd(36, 6, 2) == 6

    @pytest.mark.parametrize(
        ("e2", "e3", "k", "s", "expect"),
        [
            # 2^s | j but 2^(2s) does not
            (100000, 0, 8, 100000, 2),
            (300000, 0, 8, 100000, 8),
            # 3 | j but 3^s does not
            (200000, 40000, 24, 100000, 4),
        ],
    )
    def test_huge_j_in_bounded_time(self, e2, e3, k, s, expect):
        j = 3**e3 << e2
        started = time.perf_counter()
        assert gen_gcd(j, k, s) == expect
        assert time.perf_counter() - started < 0.5

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gen_gcd(3, 0, 1)
        with pytest.raises(ValueError):
            gen_gcd(3, 6, 0)


class TestVonMangoldt:
    def test_prime_powers(self):
        assert von_mangoldt(factorize(8)) == LogLinear({2: 1})
        assert von_mangoldt(factorize(7)) == LogLinear({7: 1})
        assert von_mangoldt(factorize(243)) == LogLinear({3: 1})

    def test_vanishes_off_prime_powers(self):
        assert von_mangoldt(factorize(1)) == LogLinear()
        assert von_mangoldt(factorize(6)) == LogLinear()
        assert von_mangoldt(factorize(360)) == LogLinear()

    @given(st.integers(min_value=1, max_value=800))
    def test_chebyshev_identity(self, n):
        # sum of Lambda over divisors of n recovers log n exactly
        total = LogLinear()
        for d in brute_divisors(n):
            total = total + von_mangoldt(factorize(d))
        assert total == LogLinear(dict(brute_factorize(n)))


class TestDirichletConvolve:
    @given(st.integers(min_value=1, max_value=400))
    def test_moebius_inverts_one(self, n):
        assert sum(moebius(factorize(d)) for d in brute_divisors(n)) == (1 if n == 1 else 0)

    @given(st.integers(min_value=1, max_value=400))
    def test_phi_convolved_with_one(self, n):
        assert sum(euler_phi(factorize(d)) for d in brute_divisors(n)) == n
