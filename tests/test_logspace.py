"""Unit tests for the exact logarithmic vector space."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ramsum.arith import euler_phi, factorize, jordan_totient
from ramsum.logspace import (
    float_value,
    TWO_PI,
    LogLinear,
    legendre_exponents,
    mu_log_lemma_sides,
)


class TestLogLinearAlgebra:
    def test_zero_coefficients_dropped(self):
        v = LogLinear({2: Fraction(0), 3: Fraction(1, 2)})
        assert v.coefficients() == {3: Fraction(1, 2)}

    def test_rejects_composite_symbol(self):
        with pytest.raises(ValueError):
            LogLinear({4: 1})
        with pytest.raises(ValueError):
            LogLinear({1: 1})

    def test_accepts_two_pi_symbol(self):
        v = LogLinear({TWO_PI: Fraction(-1, 2)})
        assert v != LogLinear()

    def test_add_sub_cancel(self):
        a = LogLinear({2: Fraction(3), 5: Fraction(-1, 4)})
        b = LogLinear({2: Fraction(-3), 5: Fraction(1, 4)})
        assert a + b == LogLinear()
        assert a - a == LogLinear()

    def test_neg(self):
        a = LogLinear({7: Fraction(2, 3)})
        assert (-a) + a == LogLinear()

    @given(
        st.dictionaries(
            st.sampled_from([2, 3, 5, 7, 11]),
            st.fractions(min_value=-5, max_value=5, max_denominator=12),
            max_size=4,
        )
    )
    def test_float_value_matches_fsum(self, coeffs):
        v = LogLinear(coeffs)
        expect = sum(float(c) * math.log(p) for p, c in coeffs.items() if c != 0)
        assert abs(float_value(v) - expect) < 1e-12

    def test_str_rendering(self):
        v = LogLinear({2: Fraction(1, 2)})
        assert str(v) == "1/2*log(2)"
        w = LogLinear({3: -2, 2: 1})
        assert str(w) == "1*log(2) + -2*log(3)"
        assert str(LogLinear()) == "0"

    def test_two_pi_sorts_last(self):
        v = LogLinear({TWO_PI: Fraction(-1, 2), 5: 1})
        assert str(v) == "1*log(5) + -1/2*log(2pi)"

    def test_two_pi_float_value(self):
        v = LogLinear({TWO_PI: Fraction(1, 2)})
        assert abs(float_value(v) - 0.5 * math.log(2 * math.pi)) < 1e-15


class TestLogFactorial:
    """legendre_exponents(n) is the factorization of n!."""

    def test_small_values(self):
        assert legendre_exponents(0) == legendre_exponents(1) == {}
        assert legendre_exponents(4) == {2: 3, 3: 1}
        assert legendre_exponents(6) == {2: 4, 3: 2, 5: 1}

    @given(st.integers(min_value=1, max_value=2000))
    def test_recurrence(self, n):
        step = Counter(legendre_exponents(n))
        step.subtract(legendre_exponents(n - 1))
        assert +step == dict(factorize(n).factors)

    @given(st.integers(min_value=1, max_value=3000))
    def test_float_matches_lgamma(self, n):
        v = float_value(LogLinear(legendre_exponents(n)))
        assert abs(v - math.lgamma(n + 1)) < 1e-8 * max(1.0, abs(v))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            legendre_exponents(-1)

    def test_legendre_exponents_are_the_integer_coefficients(self):
        # 10! = 2^8 3^4 5^2 7
        assert legendre_exponents(10) == {2: 8, 3: 4, 5: 2, 7: 1}
        for n in range(60):
            assert math.prod(p**e for p, e in legendre_exponents(n).items()) == math.factorial(n)


class TestMuLogLemma:
    def test_example_k6(self):
        lhs, rhs = mu_log_lemma_sides(6, 1)
        expect = LogLinear({2: Fraction(-1, 3), 3: Fraction(-1, 6)})
        assert lhs == rhs == expect

    def test_prime_power(self):
        # squarefree d | 8 are 1 and 2, so the sum collapses to -(1/2) log 2
        lhs, rhs = mu_log_lemma_sides(8, 1)
        assert lhs == rhs
        assert lhs == LogLinear({2: Fraction(-1, 2)})

    def test_k1_is_zero(self):
        lhs, rhs = mu_log_lemma_sides(1, 1)
        assert lhs == rhs == LogLinear()

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=4))
    def test_sides_agree(self, k, s):
        lhs, rhs = mu_log_lemma_sides(k, s)
        assert lhs == rhs

    @given(st.integers(min_value=2, max_value=200))
    def test_s1_reduces_to_phi_form(self, k):
        # -(phi(k)/k) sum_p log(p)/(p-1) over primes p | k
        fac = factorize(k)
        scale = -Fraction(euler_phi(fac), k)
        expect = LogLinear({p: scale * Fraction(1, p - 1) for p, _ in fac.factors})
        _, rhs = mu_log_lemma_sides(k, 1)
        assert rhs == expect

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=8))
    def test_integer_sides_equal_the_fraction_subset_sums(self, k, s):
        # the form the integer sums replace: one Fraction per subset and prime
        fac = factorize(k)
        primes = fac.primes()
        lhs = {p: Fraction(0) for p in primes}
        for t in range(1, len(primes) + 1):
            for subset in combinations(primes, t):
                w = Fraction((-1) ** t, math.prod(subset) ** s)
                for p in subset:
                    lhs[p] += w
        scale = -Fraction(jordan_totient(s, fac), k**s)
        rhs = {p: scale / (p**s - 1) for p in primes}
        assert mu_log_lemma_sides(k, s) == (LogLinear(lhs), LogLinear(rhs))

    @given(st.integers(min_value=2, max_value=150), st.integers(min_value=1, max_value=3))
    def test_rhs_scale_is_jordan_ratio(self, k, s):
        fac = factorize(k)
        scale = -Fraction(jordan_totient(s, fac), k**s)
        expect = LogLinear({p: scale * Fraction(1, p**s - 1) for p, _ in fac.factors})
        _, rhs = mu_log_lemma_sides(k, s)
        assert rhs == expect
