"""Unit tests for the generalized Ramanujan sum evaluators.

Two independent oracles: the classical divisor form over gcd(j, k) for s = 1,
and naive cmath summation of roots of unity for small (k, s).  The three
library routes are then cross-checked against each other on larger ranges.
"""

import cmath
import math
import random
import time
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ramsum import csum
from ramsum.arith import divisors, factorize, gen_gcd, jordan_totient, moebius
from ramsum.csum import (
    CsumEvaluation,
    csum_direct,
    csum_eval,
    csum_hoelder,
    csum_moebius,
    csum_table,
    theta,
)
from ramsum.errors import InternalConsistencyError, ResourceLimitError


def brute_mu(n):
    fac = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fac.append((p, e))
        p += 1
    if m > 1:
        fac.append((m, 1))
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def classical_oracle(k, j):
    """c_k(j) = sum over d | gcd(j, k) of d * mu(k/d), for s = 1."""
    g = k if j % k == 0 else math.gcd(j % k, k)
    return sum(d * brute_mu(k // d) for d in range(1, g + 1) if g % d == 0 and k % d == 0)


def roots_of_unity_oracle(k, j, s):
    """Naive complex summation over the s-coprime residues of k^s."""
    K = k**s
    primes = {p for p, _ in factorize(k).factors}
    total = 0j
    for m in range(1, K + 1):
        if all(m % p**s for p in primes):
            total += cmath.exp(2j * math.pi * j * m / K)
    assert abs(total.imag) < 1e-7
    return round(total.real)


class TestMoebiusRoute:
    def test_examples(self):
        assert csum_moebius(6, 3, 1) == -2
        assert csum_moebius(6, 1, 1) == 1
        assert csum_moebius(6, 0, 1) == 2
        assert csum_moebius(4, 0, 2) == 12
        assert csum_moebius(4, 8, 2) == -4

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=-400, max_value=4000))
    def test_classical_oracle(self, k, j):
        assert csum_moebius(k, j, 1) == classical_oracle(k, j)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=2),
    )
    def test_roots_of_unity_oracle(self, k, j, s):
        assert csum_moebius(k, j, s) == roots_of_unity_oracle(k, j, s)

    @given(
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=-2000, max_value=20000),
        st.integers(min_value=1, max_value=2),
    )
    def test_periodicity(self, k, j, s):
        K = k**s
        assert csum_moebius(k, j, s) == csum_moebius(k, j % K, s) == csum_moebius(k, j + K, s)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=3))
    def test_special_values(self, k, s):
        fac = factorize(k)
        assert csum_moebius(k, 0, s) == jordan_totient(s, fac)
        assert csum_moebius(k, 1, s) == moebius(fac)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=2))
    def test_period_sums_to_zero(self, k, s):
        K = k**s
        assert sum(csum_moebius(k, j, s) for j in range(K)) == 0

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=2),
    )
    def test_multiplicative_in_k(self, k1, k2, j, s):
        if math.gcd(k1, k2) != 1:
            return
        lhs = csum_moebius(k1 * k2, j, s)
        assert lhs == csum_moebius(k1, j, s) * csum_moebius(k2, j, s)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            csum_moebius(0, 1, 1)
        with pytest.raises(ValueError):
            csum_moebius(4, 1, 0)


class TestHoelderRoute:
    @given(
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=-500, max_value=5000),
        st.integers(min_value=1, max_value=2),
    )
    def test_agrees_with_moebius(self, k, j, s):
        assert csum_hoelder(k, j, s) == csum_moebius(k, j, s)

    def test_digit_budget_refuses_before_building(self):
        # J_s(6) would have about 2.3 million digits; the quotient is mu(6) = 1
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="get_int_max_str_digits"):
            csum_hoelder(6, 3, 3_000_000)
        assert time.perf_counter() - started < 1
        assert csum_hoelder(6, 3, 5000) == csum_moebius(6, 3, 5000) == 1

    def test_example(self):
        assert csum_hoelder(12, 4, 1) == csum_moebius(12, 4, 1) == -2
        assert csum_hoelder(9, 3, 1) == csum_moebius(9, 3, 1) == -3


class TestDirectRoute:
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=1, max_value=2),
    )
    def test_near_exact_value(self, k, j, s):
        z = csum_direct(k, j, s)
        exact = csum_moebius(k, j, s)
        assert abs(z.real - exact) < 1e-6
        assert abs(z.imag) < 1e-6

    def test_cap_refusal(self):
        with pytest.raises(ResourceLimitError):
            csum_direct(1001, 3, 2, cap=1_000_000)

    def test_eval_rounds_direct(self):
        out = csum_eval(36, 7, 2, method="direct")
        assert isinstance(out, CsumEvaluation)
        assert isinstance(out.value, int)
        assert out.value == csum_moebius(36, 7, 2)
        assert out.method == "direct"

    def test_eval_methods_agree(self):
        for method in ("moebius", "hoelder", "direct"):
            assert csum_eval(30, 11, 1, method=method).value == csum_moebius(30, 11, 1)

    def test_eval_unknown_method(self):
        with pytest.raises(ValueError):
            csum_eval(6, 1, 1, method="magic")


ROUTES = {"moebius": "csum_moebius", "hoelder": "csum_hoelder", "direct": "csum_direct"}


class TestEvaluationRecord:
    """csum_eval returns an immutable (k, s, j, value, method) record whose
    value is a Python int on every route and path."""

    def test_record_is_an_immutable_tuple(self):
        out = csum_eval(12, 4, 1)
        assert CsumEvaluation._fields == ("k", "s", "j", "value", "method")
        assert out == (12, 1, 4, -2, "moebius")
        with pytest.raises(AttributeError):
            out.value = 0
        with pytest.raises(AttributeError):
            out.extra = 0

    def test_values_are_ints_on_every_path(self, cleared):
        for method in ("moebius", "hoelder"):
            assert type(csum_eval(36, 7, 2, method).value) is int
        cold = csum_eval(36, 7, 2, "direct")
        kept = csum_eval(36, 11, 2, "direct")  # the same gcd class, read from its memo
        assert csum._root_class.cache_info().hits == 1
        assert type(cold.value) is int and type(kept.value) is int
        assert type(csum_direct(36, 9, 2)) is int
        assert (cold.value, kept.value) == (csum_moebius(36, 7, 2), csum_moebius(36, 11, 2))

    def test_routes_are_read_from_the_module_at_call_time(self, monkeypatch):
        """perfbench's tracer wraps the module globals: csum_eval must look
        each route up per call, not through a table captured at import."""
        calls = dict.fromkeys(ROUTES, 0)

        def counting(method, real):
            def wrapper(*args):
                calls[method] += 1
                return real(*args)

            return wrapper

        for method, name in ROUTES.items():
            monkeypatch.setattr(csum, name, counting(method, getattr(csum, name)))
        for n, (k, j, s) in enumerate([(30, 11, 1), (36, 7, 2), (1, -5, 3)], start=1):
            for method in ROUTES:
                before = dict(calls)
                assert csum_eval(k, j, s, method).value == csum_moebius(k, j, s)
                assert calls == {m: before[m] + (m == method) for m in ROUTES}
            assert calls == dict.fromkeys(ROUTES, n)

    @given(st.data())
    def test_extreme_inputs(self, data):
        """k = 1, negative j, |j| up to 2^70 and s up to 64 at the default
        cap: the exact routes agree as ints, and the direct route agrees or
        refuses a period past the cap."""
        k = data.draw(st.just(1) | st.integers(min_value=1, max_value=1000), label="k")
        s = data.draw(st.integers(min_value=1, max_value=64), label="s")
        e = data.draw(st.integers(min_value=0, max_value=s), label="e")
        bound = 2**70 // k**e  # j = q k^e, so gen_gcd(j, k, s) is not always 1
        j = data.draw(st.integers(-(2**70), 2**70) | st.integers(-bound, bound).map(lambda q: q * k**e), label="j")
        m = csum_eval(k, j, s, "moebius")
        h = csum_eval(k, j, s, "hoelder")
        assert type(m.value) is type(h.value) is int
        assert m.value == h.value
        try:
            d = csum_eval(k, j, s, "direct")
        except ResourceLimitError:
            assert k**s > csum.DEFAULT_CAP
        else:
            assert type(d.value) is int and d.value == m.value


def fsum_oracle(k, j, s):
    """c_k^(s)(j) summed term by term with math.fsum over the s-coprime
    residues, one Python cos and sin per term."""
    K = k**s
    powers = [p**s for p, _ in factorize(k).factors]
    r = j % K
    angles = [2 * math.pi * (r * m % K) / K for m in range(1, K + 1) if all(m % q for q in powers)]
    return complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))


# k = 1, two prime periods, 120^2 and 46^3
SPECTRUM_PERIODS = [(1, 1), (97, 1), (101, 1), (120, 2), (46, 3)]
DIRECT_TOL = 1e-8


class TestDirectSpectrum:
    """The direct route's values over one period are the spectrum of the
    s-coprime mask, its discrete Fourier transform: each must be the exact
    integer at every j, whether its gcd class is summed cold or read from its
    memo."""

    @pytest.mark.parametrize("k, s", SPECTRUM_PERIODS)
    def test_every_j_cold_and_spectrum(self, k, s, cleared):
        K = k**s
        rng = random.Random(K)
        far = [-1, -K - 1, 2**64, 2**64 + 1, -(2**64) - 3, 3 * 2**70 - 1]
        js = list(range(K)) + far
        # one period of the Moebius route is the table, filled from its values
        exact = csum_table(k, s).values + tuple(csum_moebius(k, j, s) for j in far)
        # the cold call at every j of the small periods, at a sample of the large
        cold = range(len(js)) if K <= 101 else [0, 1, K // 2, K - 1, *range(K, len(js))] + rng.sample(range(K), 20)
        for i in cold:
            cleared()
            z = csum_direct(k, js[i], s)
            assert type(z) is int and z == exact[i], (k, s, js[i])
        for i, j in enumerate(js):
            z = csum_direct(k, j, s)
            assert type(z) is int and z == exact[i], (k, s, j)
        # the oracle sums in pure Python, one math.cos and math.sin per term
        for j in ([*js[:K], *far] if K <= 101 else [0, 1, K - 1, *far[:2]]):
            assert abs(fsum_oracle(k, j, s) - csum_moebius(k, j, s)) < DIRECT_TOL, (k, s, j)

    def test_one_sum_per_gcd_class(self, cleared):
        for j in range(-900, 1800):
            csum_direct(30, j, 2)
        assert csum._root_class.cache_info().currsize == len(divisors(factorize(900))) == 27
        assert csum._mask.cache_info().misses == 1

    @pytest.mark.usefixtures("mutant_mask")
    def test_perturbed_spectrum_is_refused(self):
        # the swapped mask is no union of unit orbits, so its sum at a j
        # coprime to k^s is an algebraic number that is no integer
        with pytest.raises(InternalConsistencyError, match=r"k=30, s=2 in gcd class 1 is not an integer"):
            csum_direct(30, 7, 2)
        assert csum._root_class.cache_info().currsize == 0


@pytest.mark.usefixtures("cleared")
class TestSpectrumStore:
    """The period's values, its mask's spectrum, are kept one integer per gcd
    class in _root_class's memo, past the four-key window of masks."""

    def test_spectrum_outlives_its_context(self, monkeypatch):
        for j in range(900):
            csum_direct(30, j, 2)
        for k in (2, 3, 5, 7):  # four other keys push (30, 2) out of the mask window
            csum_direct(k, 1, 2)

        def refused(k, s):
            raise AssertionError(f"the mask of ({k}, {s}) was built again")

        monkeypatch.setattr(csum, "_mask", lru_cache(refused))
        for j in range(-900, 900):
            assert csum_direct(30, j, 2) == csum_moebius(30, j, 2), j


# the largest prime period and the largest square the default cap admits, and
# three near 10^5 for s = 1, 2 and 3
LARGE_PERIODS = [(999983, 1), (1000, 2), (99991, 1), (316, 2), (46, 3)]


class Watched(np.ndarray):
    """An array that records the name of every numpy ufunc applied to it, or
    to an array computed from it, in Watched.seen."""

    seen: set = set()

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        Watched.seen.add(ufunc.__name__)
        plain = [x.view(np.ndarray) if isinstance(x, Watched) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, Watched) else x for x in kwargs["out"])
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(Watched) if isinstance(out, np.ndarray) else out


@pytest.mark.usefixtures("cleared")
class TestRootSum:
    """The direct route sums the roots of unity exactly, one integer per gcd
    class (csum._root_class, by csum._root_value)."""

    def test_calls_no_trig_fft_or_matrix_product(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the direct route called a float kernel")

        for name in ("cos", "sin", "exp", "dot", "matmul", "einsum"):
            monkeypatch.setattr(np, name, refused)
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, refused)
        real = csum._mask
        monkeypatch.setattr(csum, "_mask", lru_cache(lambda k, s: real(k, s).view(Watched)))
        Watched.seen = set()
        for k, s in [(99991, 1), (316, 2), (46, 3), (30, 2)]:
            for j in (0, 1, 6, 12345, 2**64 + 1):
                assert csum_direct(k, j, s) == csum_moebius(k, j, s), (k, s, j)
        # summing the fold, and one shift and subtract per prime
        assert Watched.seen == {"add", "subtract"}

    @pytest.mark.parametrize("k, s", LARGE_PERIODS)
    def test_cold_sum_within_its_bound(self, k, s, cleared):
        # the bound is now 0: the cold sum of every gcd class is exact
        for g in divisors(factorize(k**s)):
            cleared()
            z = csum_direct(k, g, s)
            assert type(z) is int and z == csum_moebius(k, g, s), (k, s, g)

    def test_agrees_with_the_term_by_term_oracle(self, cleared):
        # a prime period, and the square and cube periods point-scatter sums cold
        for k, s in [(99991, 1), (316, 2), (46, 3)]:
            for j in (3, 2**64 + 1):
                cleared()
                assert abs(csum_direct(k, j, s) - fsum_oracle(k, j, s)) < DIRECT_TOL, (k, s, j)

    def test_units_give_moebius(self):
        # the units mod M sum to Ramanujan's c_M(1) = mu(M)
        for M in range(1, 301):
            units = np.array([math.gcd(r, M) == 1 for r in range(M)], dtype=np.int64)
            assert csum._root_value(units, 1, 1) == (moebius(factorize(M)), True), M
            # folded mod M/g they sum to c_M(g)
            for g in divisors(factorize(M)):
                assert csum._root_value(units, g, 1) == (csum_moebius(M, g), True), (M, g)

    @pytest.mark.parametrize("M", [3, 4, 5, 6, 12, 30, 97, 900])
    def test_lone_root_is_refused(self, M):
        # e(1/M) is an integer only for M = 1 and 2
        root = np.zeros(M, dtype=np.int64)
        root[1] = 1
        assert not csum._root_value(root, 1, 1)[1]


class TestDirectMask:
    """The direct route keeps one read-only boolean mask per (k, s): the
    support of theta."""

    @pytest.mark.parametrize("k, s", SPECTRUM_PERIODS)
    def test_mask_is_theta(self, k, s):
        mask = csum._mask(k, s)
        assert mask.dtype == bool and mask.shape == (k**s,) and not mask.flags.writeable
        assert mask.tolist() == [theta(k, m, s) == 1 for m in range(k**s)]

    def test_count_mismatch_is_an_internal_error(self, monkeypatch, capsys, cleared):
        from ramsum.cli import main

        real = csum.jordan_totient
        monkeypatch.setattr(csum, "jordan_totient", lambda s, fac: real(s, fac) + 1)
        with pytest.raises(InternalConsistencyError, match="residue count mismatch for k=30, s=2"):
            csum_direct(30, 7, 2)
        assert main(["eval", "csum", "--k", "30", "--j", "7", "--s", "2", "--method", "direct"]) == 3
        assert capsys.readouterr().err.startswith("ramsum: internal error: s-coprime residue count mismatch")


class TestTable:
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=2))
    def test_matches_pointwise(self, k, s):
        if k**s > 400:
            return
        table = csum_table(k, s)
        assert len(table.values) == k**s
        for j, v in enumerate(table.values):
            assert v == csum_moebius(k, j, s) == csum_hoelder(k, j, s)

    def test_example_period(self):
        assert csum_table(4, 1).values == (2, 0, -2, 0)

    def test_index_zero_is_jordan(self):
        for k in (1, 2, 12, 30):
            for s in (1, 2):
                assert csum_table(k, s).values[0] == jordan_totient(s, factorize(k))

    def test_cap_refusal(self):
        with pytest.raises(ResourceLimitError):
            csum_table(2000, 2, cap=1_000_000)

    def test_array_is_shared_and_read_only(self):
        a, b = csum_table(12, 2), csum_table(12, 2)
        assert a.array is b.array
        assert a.array.dtype == np.int64 and not a.array.flags.writeable
        with pytest.raises(ValueError):
            a.array[0] = 0
        assert a.values == tuple(a.array.tolist())


def moment_oracle(table, n):
    """M_t = sum_j j^t c(j) over one period, in Python ints, for t = 0..n."""
    vals = table.array.tolist()
    return [sum(j**t * c for j, c in enumerate(vals) if c) for t in range(n + 1)]


def product_moment_oracle(tables, n):
    """M_t = sum_j j^t prod_i c_i(j mod K_i) over the lcm K of the table
    lengths, in Python ints, for t = 0..n."""
    vals = [t.array.tolist() for t in tables]
    K = math.lcm(*map(len, vals))
    prods = [math.prod(v[j % len(v)] for v in vals) for j in range(K)]
    return [sum(j**t * c for j, c in enumerate(prods) if c) for t in range(n + 1)]


class TestMoments:
    @pytest.mark.parametrize(
        "k, s, n",
        [(46, 3, 12), (99991, 1, 12), (1, 1, 40), (1, 4, 40), (97, 1, 40), (12, 2, 20)],
        ids=["K=46^3", "K=99991-prime", "k=1-s=1", "k=1-s=4", "K=97", "K=12^2"],
    )
    def test_match_python_int_oracle(self, k, s, n):
        csum._moment_state.cache_clear()
        table = csum_table(k, s)
        assert csum._moment_state(table).upto(n) == moment_oracle(table, n)

    def test_moduli_added_mid_state(self):
        csum._moment_state.cache_clear()
        table = csum_table(30, 3)
        oracle = moment_oracle(table, 12)
        assert csum._moment_state(table).upto(4) == oracle[:5]
        before = len(csum._moment_state(table).moduli)
        assert csum._moment_state(table).upto(12) == oracle
        assert len(csum._moment_state(table).moduli) > before

    @pytest.mark.parametrize("k, s, n", [(97, 1, 40), (46, 3, 12)])
    def test_one_modulus_too_few_is_wrong(self, k, s, n):
        # demanding 31 bits less drops one modulus below 2^31 from some orders,
        # which must then lift to a wrong M_t
        table = csum_table(k, s)
        state = csum._MomentState(table)
        state.bits -= 31
        for _ in range(n + 1):
            state.extend()
        assert state.moments != moment_oracle(table, n)

    @pytest.mark.parametrize(
        "ks, s, n",
        [((4, 6), 1, 40), ((1, 6, 9), 2, 12), ((12, 18), 2, 20), ((251, 251, 251, 251), 2, 6)],
        ids=["K=12", "k=1-factor", "K=36^2", "251^4"],
    )
    def test_product_matches_python_int_oracle(self, ks, s, n):
        # at 251^4 a product of four J_2(251) passes 2^63 and the moments 2^64
        csum._moment_state.cache_clear()
        tables = [csum_table(k, s) for k in ks]
        assert csum._moment_state(*tables).upto(n) == product_moment_oracle(tables, n)

    @pytest.mark.parametrize("ks, s, n", [((6, 10), 2, 30), ((251, 251, 251, 251), 2, 6)])
    def test_product_one_modulus_too_few_is_wrong(self, ks, s, n):
        tables = [csum_table(k, s) for k in ks]
        state = csum._MomentState(*tables)
        state.bits -= 31
        for _ in range(n + 1):
            state.extend()
        assert state.moments != product_moment_oracle(tables, n)

    def test_kept_j_are_the_nonzero_products(self):
        # factors of unequal period, each tiled to K = lcm(4, 6, 9) = 36
        tables = [csum_table(k, 1) for k in (4, 6, 9)]
        state = csum._MomentState(*tables)
        vals = [t.array.tolist() for t in tables]
        assert state.js.tolist() == [j for j in range(36) if all(v[j % len(v)] for v in vals)]

    def test_moduli_are_odd_pairwise_coprime_and_below_2_31(self):
        # the CRT needs coprime moduli, not primes: 2^31 - 3 = 5 * 429496729
        # is the second; order 400 of K = 97 needs about 90 of them
        csum._moment_state.cache_clear()
        table = csum_table(97, 1)
        assert csum._moment_state(table).upto(400) == moment_oracle(table, 400)
        moduli = csum._moment_state(table).moduli
        assert moduli[0] == 1 << 64 and len(moduli) > 80
        assert all(m % 2 == 1 and m < 1 << 31 for m in moduli[1:])
        assert all(math.gcd(a, b) == 1 for a, b in combinations(moduli, 2))
        assert moduli[1:3] == [(1 << 31) - 1, 5 * 429496729]


def reduced_moebius(k, j, s):
    """c_k^(s)(j) with j reduced modulo k^s before the generalized gcd."""
    g = gen_gcd(j % k**s, k, s)
    return sum(d**s * moebius(factorize(k // d)) for d in divisors(factorize(g)))


def reduced_hoelder(k, j, s):
    e = gen_gcd(j % k**s, k, s)
    return jordan_totient(s, factorize(k)) * moebius(factorize(k // e)) // jordan_totient(s, factorize(k // e))


def reduced_theta(k, n, s):
    r = n % k**s
    if r == 0:
        return 1 if k == 1 else 0
    return 0 if any(r % p**s == 0 for p, _ in factorize(k).factors) else 1


class TestUnreducedArguments:
    """The evaluators and theta take j as given; reducing it modulo k^s first
    must not change any value."""

    def test_matches_reduced_formulas(self):
        rng = random.Random(5)
        for k in range(1, 31):
            for s in range(1, 4):
                K = k**s
                js = {0, 1, -1, K, -K, 2 * K, -3 * K, K - 1, K + 1, 1 - K, -K - 1}
                js.update(rng.randrange(-3 * K, 3 * K + 1) for _ in range(20))
                for j in sorted(js):
                    want = reduced_moebius(k, j, s)
                    assert csum_moebius(k, j, s) == want, (k, j, s)
                    assert csum_hoelder(k, j, s) == reduced_hoelder(k, j, s) == want, (k, j, s)
                    assert theta(k, j, s) == reduced_theta(k, j, s), (k, j, s)


class TestTheta:
    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=-50, max_value=5000),
        st.integers(min_value=1, max_value=2),
    )
    def test_indicator_definition(self, k, n, s):
        from ramsum.arith import gen_gcd

        assert theta(k, n, s) == (1 if gen_gcd(n % k**s, k, s) == 1 else 0)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=40))
    def test_exponential_average_identity(self, k, n):
        # theta(k, n) = (1/k) sum_j e(jn/k) c_k(j)
        vals = csum_table(k, 1).values
        avg = sum(v * cmath.exp(2j * math.pi * j * n / k) for j, v in enumerate(vals)) / k
        assert abs(avg.imag) < 1e-9
        assert abs(avg.real - theta(k, n, 1)) < 1e-9

    def test_s1_is_coprimality(self):
        for k in range(1, 30):
            for n in range(2 * k):
                expect = 1 if math.gcd(n, k) == 1 else 0
                if n % k == 0:
                    expect = 1 if k == 1 else 0
                assert theta(k, n, 1) == expect


class TestFourier:
    def test_theta_spectrum_is_scaled_csum(self):
        # the DFT g(m) = (1/k) sum_n theta(k, n) e(-nm/k) of theta is c_k(m) / k
        for k in (4, 6, 9):
            coeffs = np.fft.fft([theta(k, n, 1) for n in range(k)]) / k
            for m in range(k):
                expect = csum_moebius(k, m, 1) / k
                assert abs(coeffs[m] - expect) < 1e-9


class TestRouteIndependence:
    """The Moebius and Hoelder routes share no cached state, so a wrong
    Moebius divisor term shows up as a disagreement between them."""

    def test_flipped_moebius_term_splits_the_routes(self, monkeypatch):
        from ramsum import csum

        real = csum.moebius_divisors

        def flipped(fac):
            # flip mu(k/d) on the largest d < k, which divides gen_gcd = k at j = 0
            pairs = real(fac)
            if len(pairs) > 1:
                d, m = pairs[-2]
                pairs[-2] = (d, -m)
            return pairs

        routes = (csum._moebius_value, csum._hoelder_value)
        for memo in routes:
            memo.cache_clear()
        monkeypatch.setattr(csum, "moebius_divisors", flipped)
        try:
            for k, s in ((6, 1), (12, 2), (30, 1)):
                assert csum_moebius(k, 0, s) != csum_hoelder(k, 0, s), (k, s)
        finally:
            monkeypatch.undo()
            for memo in routes:
                memo.cache_clear()
        assert csum_moebius(6, 0, 1) == csum_hoelder(6, 0, 1) == 2
