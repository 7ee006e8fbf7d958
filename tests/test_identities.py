"""Unit tests for the identity checkers and the suite runner.

Closed-form values pinned here were derived by hand from small cases
(k = 2, 3, 4, 6) and double-checked by naive summation in the fixtures,
so the checkers are exercised against numbers they did not produce.
"""

import csv
import io
import json
import math
import os
import random
import re
import types
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ramsum import identities
from ramsum.arith import euler_phi, factorize, jordan_totient, moebius_divisors, von_mangoldt
from ramsum.csum import csum_moebius, csum_table
from ramsum.errors import ResourceLimitError
from ramsum.exactnum import bernoulli_number
from ramsum.identities import (
    ALL_IDENTITIES,
    DEFAULT_K_MAX,
    DEFAULT_TUPLES,
    DEFAULT_WEIGHTS,
    CheckResult,
    IdentityReport,
    SuiteConfig,
    WeightFunctionSpec,
    build_grid,
    check_alkan_classical,
    check_alkan_generalized,
    check_bernoulli_weight,
    check_binomial_weight,
    check_coprime_power_sum,
    check_exp_weight,
    check_g_multiplicative,
    check_gamma_weight,
    check_gauss_product,
    check_gcd_weight,
    check_log_weight,
    check_mu_log_lemma,
    check_multisection,
    check_multivariate,
    check_power_sum,
    g_divisor_sum,
    is_finding,
    parse_weight,
    render_report,
    resolve_identities,
    run_suite,
    weight_value,
    _exp_spectrum,
    _cells,
    _json_row,
    _params_list,
    _run_point,
)
from ramsum.logspace import LogLinear, float_value, legendre_exponents


class TestWeightSpecs:
    def test_parse_tokens(self):
        assert parse_weight("power:2") == WeightFunctionSpec("power", t=2)
        assert parse_weight("jordan:3") == WeightFunctionSpec("jordan", t=3)
        assert parse_weight("phi") == WeightFunctionSpec("phi")
        assert parse_weight("tau") == WeightFunctionSpec("tau")
        assert parse_weight("sigma") == WeightFunctionSpec("sigma")
        # a minus zero is read as int() reads it
        assert parse_weight("power:-0") == WeightFunctionSpec("power", t=0)

    @pytest.mark.parametrize(
        "token",
        ["power", "jordan:x", "phi:3", "bogus", "power:-1", "power:--5", "jordan:\u00b2"]
        + ["power:\u0661", "power:+3", "jordan:1_0"],
    )
    def test_parse_rejects(self, token):
        # only an optional minus and ASCII digits are read, not what else
        # int() reads (an Arabic-Indic one, +3, 1_0); every message names
        # the token
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            parse_weight(token)

    def test_values_against_brute(self):
        for x in range(1, 60):
            divs = [d for d in range(1, x + 1) if x % d == 0]
            assert weight_value(WeightFunctionSpec("power", t=3), x) == x**3
            assert weight_value(WeightFunctionSpec("phi"), x) == sum(
                1 for j in range(1, x + 1) if math.gcd(j, x) == 1
            )
            assert weight_value(WeightFunctionSpec("tau"), x) == len(divs)
            assert weight_value(WeightFunctionSpec("sigma"), x) == sum(divs)

    def test_labels(self):
        assert WeightFunctionSpec("power", t=2).label == "power(2)"
        assert WeightFunctionSpec("sigma").label == "sigma"

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            weight_value(WeightFunctionSpec("phi"), 0)


class TestPowerWeight:
    def test_classical_pinned_point(self):
        out = check_alkan_classical(2, 1)
        assert out.lhs == Fraction(1, 4)
        assert out.rhs == Fraction(1, 4)
        assert out.passed and out.classification == "verified"

    def test_generalized_pinned_point(self):
        out = check_alkan_generalized(2, 2, 2)
        assert out.lhs == out.rhs == Fraction(17, 32)
        assert out.passed

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=5))
    def test_holds_on_grid(self, k, r):
        assert check_alkan_classical(k, r).passed

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=5))
    def test_s1_reduces_to_classical(self, k, r):
        a = check_alkan_generalized(k, 1, r)
        b = check_alkan_classical(k, r)
        assert a.lhs == b.lhs and a.rhs == b.rhs

    def test_cap_refusal(self):
        with pytest.raises(ResourceLimitError):
            check_alkan_generalized(400, 2, 1, cap=100_000)

    def test_rejects_r0(self):
        with pytest.raises(ValueError):
            check_alkan_classical(5, 0)


class TestLogWeight:
    def test_s1_exact_small(self):
        out = check_log_weight(2, 1)
        assert out.passed
        assert out.lhs == LogLinear({2: Fraction(1, 2)})

    @given(st.integers(min_value=1, max_value=80))
    def test_s1_always_exact(self, k):
        out = check_log_weight(k, 1)
        assert out.passed and out.classification == "verified"

    def test_s2_finding_at_k4(self):
        out = check_log_weight(4, 2)
        assert not out.passed
        assert out.classification == "finding-mismatch"
        assert out.lhs == LogLinear({2: -2})
        assert out.rhs == LogLinear({2: 2})
        assert is_finding(out)

    def test_s2_sporadic_exact_point(self):
        # every mu-surviving divisor d of 48 has d^2 > 48, so the defect
        # collapses to 48 * Lambda(48) = 0: both sides vanish identically
        out = check_log_weight(48, 2)
        assert out.passed
        assert out.lhs == out.rhs == LogLinear()

    def test_findings_are_not_failures(self):
        report = run_suite(SuiteConfig(identities=("log-weight",), k_min=4, k_max=4, s=2))
        assert (report.passed, report.failed, report.findings) == (0, 0, 1)

    def test_every_mismatch_is_the_predicted_defect(self):
        # lhs - rhs = -(s/k) sum_{d|k} mu(k/d) (k mod d^s) log d at each point
        # that does not verify, so none of them hard-fails
        counts = {"verified": 0, "finding-mismatch": 0}
        for k in range(1, 301):
            for s in range(2, 7):
                out = check_log_weight(k, s)
                assert out.classification in counts, (k, s)
                counts[out.classification] += 1
        assert counts == {"verified": 463, "finding-mismatch": 1037}

    def test_a_broken_moebius_route_is_a_mismatch_not_a_finding(self, broken_moebius_route):
        counts = {}
        for k in range(1, 121):
            for s in range(1, 4):
                out = check_log_weight(k, s)
                counts[out.classification] = counts.get(out.classification, 0) + 1
        assert counts == {"verified": 122, "mismatch": 238}

    @staticmethod
    def log_vector_sides(k, s):
        """Both sides as LogLinear sums, one Fraction per term: the form the
        integer sides replace, kept as their oracle."""
        num = {}
        for j in range(2, k + 1):
            c = csum_moebius(k, j, s)
            for p, e in factorize(j).factors if c else ():
                num[p] = num.get(p, 0) + c * e
        lhs = LogLinear({p: Fraction(v, k) for p, v in num.items()})
        fac = factorize(k)
        rhs = LogLinear({p: s * v for p, v in von_mangoldt(fac).coefficients().items()})
        for d, mu in moebius_divisors(fac):
            if k // d**s >= 2:
                weight = Fraction(d**s, k) * mu
                rhs = rhs + LogLinear({p: weight * e for p, e in legendre_exponents(k // d**s).items()})
        diff = lhs - rhs
        return lhs, rhs, abs(float_value(diff)), diff == LogLinear()

    def test_integer_sides_equal_the_log_vector_sums(self):
        for k in range(1, 301):
            for s in range(1, 7):
                out = check_log_weight(k, s)
                lhs, rhs, residual, passed = self.log_vector_sides(k, s)
                assert (out.lhs, out.rhs, out.passed) == (lhs, rhs, passed), (k, s)
                # the residual bit for bit, not merely close
                assert out.residual.hex() == residual.hex(), (k, s)


class TestGcdWeight:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=2),
        st.sampled_from(["power:1", "power:2", "phi", "tau", "sigma", "jordan:2"]),
    )
    def test_holds_on_grid(self, k, s, token):
        if k**s > 1600:
            return
        assert check_gcd_weight(k, s, parse_weight(token)).passed

    def test_pinned_point(self):
        # k=2, s=1, f = identity: f(1) c(1) + f(2) c(0) summed over the period
        out = check_gcd_weight(2, 1, parse_weight("power:1"))
        assert out.lhs == 1 * (-1) + 2 * 1 == 1
        assert out.passed


class TestGammaWeight:
    def test_pinned_k2(self):
        out = check_gamma_weight(2, 1)
        assert abs(out.lhs - (-0.5 * math.log(math.pi))) < 1e-12
        assert out.passed and out.mode == "float"

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            check_gamma_weight(1, 1)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=2))
    def test_holds_on_grid(self, k, s):
        if k**s > 1600:
            return
        out = check_gamma_weight(k, s)
        assert out.passed and out.classification == "numerical-pass"

    def test_tolerance_is_relative(self):
        out = check_gamma_weight(6, 1, tol=1e-30)
        assert not out.passed and out.classification == "mismatch"

    def test_lhs_is_the_scalar_sum_bit_for_bit(self):
        # at every key of the --k-max 120 sweep the one-pass sum equals the
        # per-element comprehension it replaces
        keys = [(p["k"], p["s"]) for _, p, _, _ in build_grid(SuiteConfig(identities=("gamma-weight",), k_max=120))]
        assert len(keys) == 238
        for k, s in keys:
            K = k**s
            vals = csum_table(k, s).array.tolist()
            terms = [math.lgamma(j / K) * vals[j] for j in range(1, K) if vals[j]]
            expect = math.fsum(terms) / jordan_totient(s, factorize(k))
            assert check_gamma_weight(k, s).lhs.hex() == expect.hex(), (k, s)


class TestGaussProduct:
    def test_pinned_n2(self):
        out = check_gauss_product(2)
        assert abs(out.lhs - 0.5 * math.log(math.pi)) < 1e-12
        assert out.passed

    @given(st.integers(min_value=1, max_value=200))
    def test_holds_on_grid(self, N):
        assert check_gauss_product(N).passed

    def test_domain(self):
        with pytest.raises(ValueError):
            check_gauss_product(0)
        with pytest.raises(ValueError):
            check_gauss_product(501)


class TestBernoulliWeight:
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=8),
    )
    def test_holds_on_grid(self, k, s, m):
        assert check_bernoulli_weight(k, s, m).passed

    def test_m1_is_half_phi_over_k(self):
        for k in range(1, 30):
            out = check_bernoulli_weight(k, 1, 1)
            assert out.rhs == Fraction(-euler_phi(factorize(k)), 2 * k)
            assert out.passed

    def test_m0_is_unit_indicator(self):
        assert check_bernoulli_weight(1, 1, 0).rhs == 1
        assert check_bernoulli_weight(7, 2, 0).rhs == 0


# (k, s) with k^s up to 4096, k = 1 included
MOMENT_PERIODS = [(1, 1), (1, 3), (2, 1), (6, 1), (12, 2), (30, 1), (30, 2), (8, 3), (64, 2), (15, 3)]


def bernoulli_poly(m, x):
    return sum(math.comb(m, i) * bernoulli_number(i) * x ** (m - i) for i in range(m + 1))


class TestMomentPass:
    """The moment-based left sides equal term-by-term sums over one period."""

    @pytest.mark.parametrize("k, s", MOMENT_PERIODS)
    def test_bernoulli_lhs_term_by_term(self, k, s):
        K = k**s
        vals = [(j, csum_moebius(k, j, s)) for j in range(K)]
        for m in range(9):
            lhs = sum(Fraction(c, K) * bernoulli_poly(m, Fraction(j, K)) for j, c in vals if c)
            assert check_bernoulli_weight(k, s, m).lhs == lhs, m

    @pytest.mark.parametrize("k, s", MOMENT_PERIODS)
    def test_alkan_lhs_term_by_term(self, k, s):
        K = k**s
        vals = [(j, csum_moebius(k, j, s)) for j in range(1, K + 1)]
        for r in range(1, 6):
            lhs = sum(Fraction(j**r * c, K ** (r + 1)) for j, c in vals)
            assert check_alkan_generalized(k, s, r).lhs == lhs, r
            if s == 1:
                assert check_alkan_classical(k, r).lhs == lhs, r

    def test_flipped_table_entry_fails_the_checks(self, monkeypatch):
        # every checker that reads a period table must see one wrong entry
        from ramsum import csum

        build = csum._table

        def flipped(k, s):
            arr = build(k, s).array.copy()
            arr[1] += 1
            return csum.CsumTable(k, s, arr)

        monkeypatch.setattr(csum, "_table", flipped)
        for m in range(4):
            assert not check_bernoulli_weight(6, 1, m).passed, m
        for r in range(1, 4):
            assert not check_alkan_generalized(6, 1, r).passed, r
            assert not check_alkan_classical(6, r).passed, r
            assert not check_multivariate([2, 3], 1, r).passed, r
        for token in DEFAULT_WEIGHTS:
            assert not check_gcd_weight(6, 1, parse_weight(token.replace(":s", ":1"))).passed, token
        assert not check_gamma_weight(6, 1).passed
        assert not check_binomial_weight(6, 1).passed
        for n in range(6):
            assert not check_exp_weight(6, 1, n).passed, n


class TestBinomialWeight:
    def test_pinned_small(self):
        assert check_binomial_weight(1, 1).lhs == 2
        assert check_binomial_weight(2, 1).lhs == 0

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=3))
    def test_holds_below_hard_bound(self, k, s):
        if k**s > 256:
            return
        out = check_binomial_weight(k, s)
        assert out.passed and out.mode == "exact"

    def test_hard_bound(self):
        with pytest.raises(ResourceLimitError):
            check_binomial_weight(17, 2)

    @pytest.mark.parametrize("k", [237, 243, 249])
    def test_float_side_is_judged_by_its_derived_bound(self, k):
        # the exact sides agree; the cosine-power side is off by 1.6e-9 to
        # 4.7e-9 relative, inside its rounding bound but past a fixed 1e-9
        out = check_binomial_weight(k, 1)
        assert out.passed and out.lhs == out.rhs and out.residual > 1e-9
        assert not check_binomial_weight(k, 1, tol=1e-9).passed

    def test_derived_bound_catches_a_slightly_wrong_pi(self, monkeypatch):
        # pi good to 12 digits moves the float side by far less than 1e-9,
        # yet far more than rounding does
        names = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
        monkeypatch.setattr(identities, "math", types.SimpleNamespace(**dict(names, pi=3.141592653589)))
        for k in (6, 12, 30):
            assert not check_binomial_weight(k, 1).passed, k
            assert check_binomial_weight(k, 1, tol=1e-9).passed, k

    def test_inner_sums_are_the_multisection_terms_bit_for_bit(self):
        # the signed cosine powers (-1)^(lK/d^s) cos(pi l/d^s)^K that the
        # check summed before it read _multisection's terms
        count = 0
        for k in range(1, 257):
            for s in range(1, 9):
                K = k**s
                if K > 256:
                    break
                for d, _ in moebius_divisors(factorize(k)):
                    ds = d**s
                    exact, terms, _ = identities._multisection(K, ds)
                    signed = [(-1.0 if l * (K // ds) % 2 else 1.0) * math.cos(math.pi * l / ds) ** K
                              for l in range(1, ds + 1)]
                    assert [t.hex() for t in terms] == [t.hex() for t in signed], (k, s, d)
                    assert exact == sum(math.comb(K, i * ds) for i in range(K // ds + 1))
                    count += 1
        assert count == 1140


class TestMultisection:
    def test_pinned_points(self):
        assert check_multisection(4, 2).lhs == 8
        assert check_multisection(5, 1).lhs == 32
        assert check_multisection(6, 4).lhs == 16

    @given(st.integers(min_value=1, max_value=120))
    def test_holds_on_grid(self, n):
        for r in range(1, min(n, 9) + 1):
            assert check_multisection(n, r).passed

    def test_domain(self):
        with pytest.raises(ValueError):
            check_multisection(4, 5)
        with pytest.raises(ResourceLimitError):
            check_multisection(300, 2)

    @pytest.mark.parametrize("n", [25, 40])
    def test_float_side_is_judged_by_its_derived_bound(self, n):
        # the cosine terms reach 2^n/n and cancel down to 2: the residual is
        # past a fixed 1e-9, yet inside the rounding bound
        out = check_multisection(n, n)
        assert out.passed and out.lhs == 2 and out.residual > 1e-9
        assert not check_multisection(n, n, tol=1e-9).passed

    def test_undecidable_point_is_refused(self):
        # at (64, 64) the float side reads -1722 against 2: its bound is past lhs/2
        with pytest.raises(ResourceLimitError, match=r"cannot decide \(n, r\) = \(64, 64\)"):
            check_multisection(64, 64)
        assert check_multisection(64, 64, tol=1e-9).classification == "mismatch"

    def test_decisions_are_pinned(self):
        # every point with n <= 128: the bound decides 7429 and refuses 827,
        # the first of them at (50, 50)
        outcomes, refused = {True: 0, False: 0}, []
        for n in range(1, 129):
            for r in range(1, n + 1):
                try:
                    outcomes[check_multisection(n, r).passed] += 1
                except ResourceLimitError:
                    refused.append((n, r))
        assert (outcomes[True], outcomes[False], len(refused)) == (7429, 0, 827)
        assert refused[0] == (50, 50)

    def test_derived_bound_catches_a_slightly_wrong_pi(self, monkeypatch):
        # the twin of binomial-weight's test: pi good to 12 digits, off by
        # far less than 1e-9 at these points
        names = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
        monkeypatch.setattr(identities, "math", types.SimpleNamespace(**dict(names, pi=3.141592653589)))
        for n, r in ((7, 3), (12, 5), (20, 5), (40, 8)):
            assert not check_multisection(n, r).passed, (n, r)
            assert check_multisection(n, r, tol=1e-9).passed, (n, r)


class TestExpWeight:
    def test_pinned_point(self):
        out = check_exp_weight(4, 1, 2)
        assert out.rhs == 0
        assert abs(out.lhs) < 1e-12

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=30),
    )
    def test_holds_on_grid(self, k, s, n):
        out = check_exp_weight(k, s, n)
        assert out.passed
        assert out.rhs in (0, 1)


class TestExpWeightSpectrum:
    """The exp-weight left side, read from one inverse FFT per period, against
    a term-by-term math.fsum of (1/K) sum_j c(j) e(jn/K)."""

    @staticmethod
    def fsum_oracle(k, s, n):
        K = k**s
        re, im = [], []
        for j, c in enumerate(csum_table(k, s).array.tolist()):
            if c:
                angle = 2 * math.pi * (j * n % K) / K
                re.append(c * math.cos(angle))
                im.append(c * math.sin(angle))
        return complex(math.fsum(re) / K, math.fsum(im) / K)

    # K = 1, 97, 144, 27000 and 97336, the last near the sweep cap of 1e5
    @pytest.mark.parametrize(("k", "s"), [(1, 1), (97, 1), (12, 2), (30, 3), (46, 3)])
    def test_matches_fsum_oracle(self, k, s):
        K = k**s
        rng = random.Random(k * 10 + s)
        for n in [0, 1, K - 1, K, 2 * K + 1] + [rng.randrange(3 * K) for _ in range(3)]:
            out = check_exp_weight(k, s, n)
            assert abs(out.lhs - self.fsum_oracle(k, s, n)) <= 1e-12, (k, s, n)
            assert out.passed, (k, s, n)

    def test_one_read_only_spectrum_per_table(self):
        check_exp_weight(12, 2, 5)
        spec = _exp_spectrum(csum_table(12, 2))
        assert spec.shape == (144,) and not spec.flags.writeable
        with pytest.raises(ValueError):
            spec[0] = 0
        hits = _exp_spectrum.cache_info().hits
        check_exp_weight(12, 2, 7)
        assert _exp_spectrum.cache_info().hits == hits + 1


class TestMuLogLemma:
    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=4))
    def test_holds_on_grid(self, k, s):
        out = check_mu_log_lemma(k, s)
        assert out.passed and out.classification == "verified"


class TestMultivariate:
    def test_pinned_pair(self):
        out = check_multivariate([2, 3], 1, 1)
        assert out.lhs == out.rhs == Fraction(1, 6)
        assert out.passed

    def test_singleton_matches_univariate(self):
        for k, s, r in [(6, 1, 2), (4, 2, 1), (9, 1, 3)]:
            a = check_multivariate([k], s, r)
            b = check_alkan_generalized(k, s, r)
            assert a.lhs == b.lhs and a.rhs == b.rhs

    @given(
        st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=3),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=3),
    )
    def test_holds_on_grid(self, ks, s, r):
        if reduce_lcm(ks) ** s > 4000:
            return
        assert check_multivariate(ks, s, r).passed

    @pytest.mark.parametrize("k", [223, 251])
    def test_products_past_int64(self, k):
        # J_2(k)^4 > 2^62 sends the product period to Python ints; at k = 251
        # it also passes 2^63, where an int64 product would wrap
        K = k**2
        out = check_multivariate([k] * 4, 2, 1)
        c = [csum_moebius(k, j, 2) for j in range(1, K + 1)]
        assert out.passed
        assert out.lhs == Fraction(sum(j * v**4 for j, v in enumerate(c, start=1)), K**2)

    def test_g_reduces_to_jordan_at_n1(self):
        for k in range(1, 30):
            fac = factorize(k)
            assert g_divisor_sum([k], 1, 1) == jordan_totient(2, fac)
            assert g_divisor_sum([k], 2, 1) == jordan_totient(4, fac)
            assert g_divisor_sum([k], 1, 0) == (1 if k == 1 else 0)

    def test_g_matches_the_fraction_formula(self):
        # the integer sums against one Fraction per divisor tuple,
        # num / lcm^((1-2m)s), over the default tuples
        def reference(ks, s, m):
            total = Fraction(0)
            for combo in product(*[moebius_divisors(factorize(k)) for k in ks]):
                num = math.prod(d**s * mu for d, mu in combo)
                total += num / Fraction(math.lcm(*(d for d, _ in combo))) ** ((1 - 2 * m) * s)
            return total

        for ks in DEFAULT_TUPLES:
            for s in range(1, 4):
                for m in range(4):
                    out = g_divisor_sum(ks, s, m)
                    assert type(out) is Fraction and out == reference(ks, s, m), (ks, s, m)

    def test_corollary_constant_is_m0_sum(self):
        # at r = 1 the closed form must coincide with the two-term corollary
        # built from the m = 0 divisor sum; the m = 1 sum breaks it
        ks, s = [2, 3], 1
        out = check_multivariate(ks, s, 1)
        prod_j = jordan_totient(s, factorize(2)) * jordan_totient(s, factorize(3))
        K = 6
        good = Fraction(prod_j, 2 * K) + g_divisor_sum(ks, s, 0) / 2
        bad = Fraction(prod_j, 2 * K) + g_divisor_sum(ks, s, 1) / 2
        assert good == out.rhs == out.lhs == Fraction(1, 6)
        assert bad != out.rhs
        assert g_divisor_sum(ks, s, 1) == 24

    def test_domain(self):
        with pytest.raises(ValueError):
            check_multivariate([1, 2, 3, 4, 5], 1, 1)
        with pytest.raises(ValueError):
            check_multivariate([2, 3], 1, 0)
        with pytest.raises(ValueError):
            g_divisor_sum([], 1, 0)


class TestGMultiplicative:
    def test_pinned(self):
        out = check_g_multiplicative([2, 4], [3, 9], 1, 1)
        assert out.passed

    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=2),
    )
    def test_coprime_splits(self, ks, s, m):
        prod = 1
        for k in ks:
            prod *= k
        ks2 = [v for v in range(1, 12) if math.gcd(v, prod) == 1][: len(ks)]
        if len(ks2) < len(ks):
            return
        assert check_g_multiplicative(ks, ks2, s, m).passed

    def test_domain(self):
        with pytest.raises(ValueError):
            check_g_multiplicative([2], [4], 1, 0)
        with pytest.raises(ValueError):
            check_g_multiplicative([2], [3, 5], 1, 0)


class TestScalarSums:
    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=8))
    def test_power_sum(self, N, r):
        assert check_power_sum(N, r).passed

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=5))
    def test_coprime_power_sum(self, n, r):
        assert check_coprime_power_sum(n, r).passed


def reduce_lcm(values):
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


class TestSuiteRunner:
    def test_resolve_all(self):
        assert resolve_identities(("all",)) == list(ALL_IDENTITIES)
        assert resolve_identities(("alkan", "alkan")) == ["alkan"]
        with pytest.raises(ValueError):
            resolve_identities(("nonsense",))

    def test_grid_counts(self):
        cfg = SuiteConfig(identities=("alkan",), k_max=10, s_max=2, r_max=3)
        assert len(build_grid(cfg)) == 60
        # a selected identity with no point is refused before any point runs
        with pytest.raises(ValueError, match="no points to check in the log-weight grid"):
            build_grid(SuiteConfig(identities=("log-weight",), k_max=0))

    def test_multivariate_default_tuples_bounded_by_k(self):
        lcms = [reduce_lcm(ks) for ks in DEFAULT_TUPLES]
        assert DEFAULT_K_MAX["multivariate"] == 60
        # every default lcm is within --k-max 120, so that grid is the default one
        base = build_grid(SuiteConfig(identities=("multivariate",)))
        assert build_grid(SuiteConfig(identities=("multivariate",), k_max=120)) == base
        assert len({tuple(p[1]["ks"]) for p in base}) == len(DEFAULT_TUPLES)
        # only built, never run: unbounded, this grid reaches K = 60^5 under the cap
        cfg = SuiteConfig(identities=("multivariate",), k_max=3, s_max=12, cap=10**10)
        kept = [ks for ks, m in zip(DEFAULT_TUPLES, lcms) if m <= 3]
        assert len(kept) == 12
        explicit = SuiteConfig(identities=("multivariate",), ks=tuple(kept), s_max=12, cap=10**10)
        assert build_grid(cfg) == build_grid(explicit)
        cfg = SuiteConfig(identities=("multivariate",), k_min=7, k_max=12)
        assert {reduce_lcm(p[1]["ks"]) for p in build_grid(cfg)} == {m for m in lcms if 7 <= m <= 12}

    @pytest.mark.parametrize("identity", ALL_IDENTITIES)
    def test_naming_the_default_upper_k_keeps_the_grid(self, identity):
        # a grid with no default upper k does not read --k-max at all
        base = build_grid(SuiteConfig(identities=(identity,)))
        named = build_grid(SuiteConfig(identities=(identity,), k_max=DEFAULT_K_MAX.get(identity, 1)))
        assert base and named == base

    def test_weight_grid_resolves_s_placeholder(self):
        cfg = SuiteConfig(identities=("gcd-weight",), k_max=3, s_max=2, weights=("power:s",))
        points = build_grid(cfg)
        tokens = {(p[1]["s"], p[1]["weight"]) for p in points}
        assert tokens == {(1, "power:1"), (2, "power:2")}

    def test_small_sweep_all_pass(self):
        report = run_suite(SuiteConfig(identities=("alkan",), k_max=12, s_max=2, r_max=3))
        assert report.failed == 0 and report.findings == 0
        assert report.passed == len(report.results) == 72

    def test_log_weight_sweep_counts_findings(self):
        report = run_suite(SuiteConfig(identities=("log-weight",), k_max=10, s_max=2))
        assert report.passed + report.findings == len(report.results) == 20
        assert report.failed == 0
        # s=2 findings start at k=2: none of 2..10 clears rad(k)^2 < k
        assert report.findings == 9

    def test_deterministic_bytes_and_jobs(self):
        cfg = SuiteConfig(identities=("multisection", "gauss-product"), n_max=30)
        a = render_report(run_suite(cfg), "json")
        b = render_report(run_suite(cfg), "json")
        cfg2 = SuiteConfig(identities=("multisection", "gauss-product"), n_max=30, jobs=2)
        c = render_report(run_suite(cfg2), "json")
        assert a == b == c

    def test_jobs_is_a_ceiling_on_workers(self, monkeypatch):
        # the pool forks every worker at its first submit, so a huge jobs
        # must get no more workers than there are CPUs and grid points
        import concurrent.futures

        calls = []

        class RecordingPool:
            def __init__(self, max_workers):
                calls.append(("workers", max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                calls.append(("chunksize", chunksize))
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        cfg = SuiteConfig(identities=("multisection", "gauss-product"), n_max=30)
        points = len(build_grid(cfg))
        want = render_report(run_suite(cfg), "json")
        assert calls == []
        assert render_report(run_suite(replace(cfg, jobs=10**6)), "json") == want
        assert calls == [("workers", 3), ("chunksize", points // 24)]
        calls.clear()
        run_suite(SuiteConfig(identities=("gauss-product",), n_max=2, jobs=10**6))
        assert calls == [("workers", 2), ("chunksize", 1)]
        calls.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert render_report(run_suite(replace(cfg, jobs=10**6)), "json") == want
        assert calls == []

    def test_json_schema(self):
        report = run_suite(SuiteConfig(identities=("power-sum",), n_max=5, r_max=2))
        doc = json.loads(render_report(report, "json"))
        assert set(doc) == {"suite", "results", "summary"}
        assert doc["summary"] == {"pass": 10, "fail": 0, "findings": 0}
        row = doc["results"][0]
        assert set(row) == {
            "identity",
            "params",
            "lhs",
            "rhs",
            "residual",
            "mode",
            "pass",
            "classification",
        }

    def test_csv_render(self):
        report = run_suite(SuiteConfig(identities=("power-sum",), n_max=3, r_max=1))
        text = render_report(report, "csv")
        lines = text.splitlines()
        assert lines[0] == "identity,params,lhs,rhs,residual,mode,pass,classification"
        assert len(lines) == 4
        assert all(line.startswith("power-sum") for line in lines[1:])

    def test_render_rejects_unknown_format(self):
        report = run_suite(SuiteConfig(identities=("power-sum",), n_max=1, r_max=1))
        with pytest.raises(ValueError):
            render_report(report, "xml")

    def test_is_finding_scope(self, request):
        # a finding is what its check classified as one: a log-weight mismatch
        # equal to the predicted defect, and nothing that passes or hard-fails
        assert is_finding(check_log_weight(4, 2))
        assert not is_finding(check_log_weight(4, 1))
        assert not is_finding(check_log_weight(48, 2))
        out = check_gamma_weight(3, 2, tol=1e-30)
        assert out.classification == "mismatch" and not is_finding(out)
        request.getfixturevalue("broken_moebius_route")
        out = check_log_weight(4, 2)
        assert out.classification == "mismatch" and not is_finding(out)

    def test_grid_at_the_point_limit_is_built(self):
        limit = identities._GRID_POINT_LIMIT
        assert len(build_grid(SuiteConfig(identities=("coprime-power-sum",), n_max=1, r_max=limit))) == limit
        with pytest.raises(ResourceLimitError, match=f"the grid passes {limit} points"):
            build_grid(SuiteConfig(identities=("coprime-power-sum",), n_max=1, r_max=limit + 1))
        # the limit counts the points of every selected grid together
        with pytest.raises(ResourceLimitError):
            build_grid(SuiteConfig(identities=("power-sum", "coprime-power-sum"), n_max=1, r_max=limit // 2 + 1))
        assert len(build_grid(SuiteConfig(k_max=240))) == 25377

    def test_g_multiplicative_grid_respects_seed(self):
        cfg = SuiteConfig(identities=("g-multiplicative",), tuples=10, seed=5)
        assert build_grid(cfg) == build_grid(cfg)
        other = SuiteConfig(identities=("g-multiplicative",), tuples=10, seed=6)
        assert build_grid(cfg) != build_grid(other)
        report = run_suite(cfg)
        assert report.passed == 10


class TestJsonTemplate:
    """render_report(fmt="json") writes its rows from one template; json.dumps
    of a document built here, sharing no code with the renderer, is the
    oracle for its bytes."""

    @staticmethod
    def value(v):
        """A result value as the document holds it: a float as a number, any
        other value as its text."""
        if isinstance(v, float):
            return v
        return repr(v) if isinstance(v, complex) else str(v)

    @classmethod
    def row(cls, r):
        return {
            "identity": r.identity,
            "params": r.params,
            "lhs": cls.value(r.lhs),
            "rhs": cls.value(r.rhs),
            "residual": r.residual,
            "mode": r.mode,
            "pass": r.passed,
            "classification": r.classification,
        }

    @classmethod
    def oracle(cls, report):
        rows = [cls.row(r) for r in report.results]
        summary = {"pass": report.passed, "fail": report.failed, "findings": report.findings}
        doc = {"suite": report.suite, "results": rows, "summary": summary}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    SUITE = {"identities": ["alkan", "exp-weight"], "k_max": None, "seed": 91, "tolerance": 1e-08, "cap": 100000}

    def test_hand_built_rows(self):
        results = [
            CheckResult("power-sum", {"N": 3, "r": 2}, 14, 14, 0.0, "exact", True, "verified"),
            CheckResult("alkan", {"k": 6, "r": 3, "s": 2}, Fraction(-7, 12), Fraction(5), 1.25, "exact", False, "x"),
            CheckResult("log-weight", {"k": 4, "s": 2}, LogLinear({2: Fraction(1, 2), 3: -1}), LogLinear(),
                        math.inf, "exact", False, "finding-mismatch"),
            CheckResult("exp-weight", {"k": 4, "n": 2, "s": 1}, complex(1e-17, -2.5e-300), 0, math.nan,
                        "float", False, "finding-mismatch"),
            CheckResult("gamma-weight", {"k": 2, "s": 1}, -0.0, 1e22, -math.inf, "float", True, "numerical-pass"),
            CheckResult("multisection", {"n": 3, "r": 2}, 4, 4.000000000000001, 2.2e-16, "float", True, "x"),
            CheckResult("multivariate", {"ks": [2, 3, 12], "r": 1, "s": 2}, Fraction(1, 3), Fraction(1, 3), 0.0,
                        "exact", True, "verified"),
            CheckResult("g-multiplicative", {"ks": [5], "ks2": [], "m": 0, "s": 1}, 1, 1, 0.0, "exact", True, "v"),
            CheckResult("gcd-weight", {"k": 2, "s": 1, "weight": "jordan:2"}, 3, 3, 0.0, "exact", True, "verified"),
            CheckResult("gcd-weight", {"k": 2, "s": 1, "weight": "\u00e9\u2603\U0001f600 \"\\\t"}, 3, 3, 0.0,
                        "exact", True, "verified"),
            CheckResult("gauss-product", {}, 1.5, 1e-05, 1e16, "float", True, "numerical-pass"),
            CheckResult("gamma-weight", {"k": 3, "s": 1}, np.float64(-0.25), 1e-300, np.float64(0.5), "float", True,
                        "numerical-pass"),
        ]
        report = IdentityReport(dict(self.SUITE, note="caf\u00e9"), results, 7, 2, 2)
        assert render_report(report, "json") == self.oracle(report)
        # a numpy float prints its digits in every format, never np.float64(...)
        for fmt in ("csv", "human"):
            text = render_report(report, fmt)
            assert "np.float64" not in text and "-0.25" in text

    @pytest.mark.parametrize("bad", [True, 0.5, None, [2, [3]], {"k": 2}])
    def test_params_writer_refuses_other_types(self, bad):
        # json.dumps writes all of these; every format refuses what params never hold
        for pad in (None, "        "):
            with pytest.raises(TypeError):
                _params_list(bad, pad)
            with pytest.raises(TypeError):
                _params_list([2, bad], pad)
        for params in ({"k": 2, "s": bad}, {"ks": [2, bad], "s": 1}):
            report = IdentityReport(dict(self.SUITE), [CheckResult("x", params, 0, 0, 0.0, "exact", True, "v")], 1, 0, 0)
            for fmt in ("json", "csv", "human"):
                with pytest.raises(TypeError):
                    render_report(report, fmt)

    def test_row_of_every_params_shape(self, monkeypatch):
        # one point of each registry identity, then params the registry never
        # builds: empty, an empty list, keys that need escaping in a format,
        # and a string in a list
        monkeypatch.setattr(identities, "_ROW_FORMATS", {})
        results = [_run_point(build_grid(SuiteConfig(identities=(identity,)))[0]) for identity in ALL_IDENTITIES]
        results += [
            CheckResult("gauss-product", {}, 1.5, 1.5, 0.0, "float", True, "numerical-pass"),
            CheckResult("g-multiplicative", {"ks": [7, 1], "ks2": [], "m": 0, "s": 3}, 1, 1, 0.0, "exact", True, "v"),
            CheckResult("x", {"{k}": 1, "caf\u00e9 {}": "\u2603", "a\"b": [2, "\u2603"]}, 0, 0, 0.0, "exact", True, "v"),
        ]
        shapes = {tuple(r.params) for r in results}
        assert {"ks", "ks2"} <= set().union(*shapes) and () in shapes
        for r in results + results:
            layout = json.dumps(self.row(r), sort_keys=True, indent=2)
            assert _json_row(r) == "\n".join("    " + line for line in layout.splitlines())
            # the csv and human params cell reads the same cached shape
            assert _cells(r)[1] == json.dumps(r.params, sort_keys=True, separators=(",", ":"))
        assert set(identities._ROW_FORMATS) == shapes

    def test_empty_result_list(self):
        report = IdentityReport(dict(self.SUITE), [], 0, 0, 0)
        assert render_report(report, "json") == self.oracle(report)

    @pytest.fixture(scope="class")
    def default_report(self):
        return run_suite(SuiteConfig())

    def test_default_grid(self, default_report):
        assert render_report(default_report, "json") == self.oracle(default_report)

    def test_one_row_format_per_params_shape(self, default_report, monkeypatch):
        monkeypatch.setattr(identities, "_ROW_FORMATS", {})
        render_report(default_report, "json")
        render_report(default_report, "json")
        shapes = {tuple(r.params) for r in default_report.results}
        assert len(shapes) == 11 and set(identities._ROW_FORMATS) == shapes

    def test_csv_cells_match_json_values(self, default_report):
        header, *cells = csv.reader(io.StringIO(render_report(default_report, "csv")))
        rows = json.loads(render_report(default_report, "json"))["results"]
        assert header == ["identity", "params", "lhs", "rhs", "residual", "mode", "pass", "classification"]
        assert len(cells) == len(rows) == len(default_report.results)
        kinds = set()
        for line, row in zip(cells, rows):
            for name, cell in zip(header, line):
                value = row[name]
                kinds.add(type(value))
                if name == "pass":
                    assert cell == ("true" if value else "false")
                elif name == "params":
                    assert cell == json.dumps(value, sort_keys=True, separators=(",", ":"))
                elif isinstance(value, float):
                    assert cell == float.__repr__(value)
                else:
                    assert cell == value
        assert kinds == {str, float, bool, dict}
