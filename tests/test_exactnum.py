"""Unit tests for exact rational helpers.

Oracles: an additive Pascal triangle for binomials, the Akiyama-Tanigawa
recurrence for Bernoulli numbers, direct summation for the power sums, and
the Fraction-per-term formulas the integer Bernoulli row replaced.
"""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ramsum import exactnum
from ramsum.exactnum import (
    bernoulli_number,
    bernoulli_poly,
    bernoulli_tail,
    binomial,
    coprime_power_sum,
    power_sum,
)


def pascal_rows(n_max):
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for i in range(1, n):
            row.append(prev[i - 1] + prev[i])
        row.append(1)
        rows.append(row)
    return rows


def akiyama_tanigawa(m_max):
    """Independent Bernoulli oracle, B_1 = -1/2 convention."""
    out = []
    a = []
    for m in range(m_max + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        b = a[0]
        out.append(-b if m == 1 else b)
    return out


class TestBinomial:
    def test_matches_pascal_triangle(self):
        rows = pascal_rows(64)
        for n in range(65):
            for r in range(n + 1):
                assert binomial(n, r) == rows[n][r]

    def test_pinned_central_value(self):
        assert binomial(64, 32) == 1832624140942590534

    def test_above_diagonal_is_zero(self):
        assert binomial(5, 6) == 0
        assert binomial(0, 3) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binomial(5, -1)


class TestBernoulliNumbers:
    def test_matches_akiyama_tanigawa(self, monkeypatch):
        # walked upwards from a cold memo, the values come from a series of
        # tangent passes, each at least twice as long as the last
        monkeypatch.setattr(exactnum, "_bern", [Fraction(1), Fraction(-1, 2)])
        oracle = akiyama_tanigawa(80)
        for m in range(81):
            assert bernoulli_number(m) == oracle[m]

    def test_pinned_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        for m in range(3, 31, 2):
            assert bernoulli_number(m) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)


class TestBernoulliPolynomials:
    def test_value_at_zero_is_bernoulli_number(self):
        for m in range(12):
            assert bernoulli_poly(m, Fraction(0)) == bernoulli_number(m)

    @given(
        st.integers(min_value=0, max_value=10),
        st.fractions(min_value=-3, max_value=3, max_denominator=20),
    )
    def test_forward_difference(self, m, x):
        # B_m(x+1) - B_m(x) = m x^(m-1) characterizes the polynomials
        if m == 0:
            assert bernoulli_poly(0, x) == 1
        else:
            diff = bernoulli_poly(m, x + 1) - bernoulli_poly(m, x)
            assert diff == m * x ** (m - 1)

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=30))
    def test_raabe_multiplication(self, m, k):
        total = sum(bernoulli_poly(m, Fraction(j, k)) for j in range(k))
        assert total == Fraction(k, k**m) * bernoulli_number(m)

    def test_known_quadratic(self):
        # B_2(x) = x^2 - x + 1/6
        assert bernoulli_poly(2, Fraction(1, 2)) == Fraction(-1, 12)


class TestPowerSums:
    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=8))
    def test_power_sum_oracle(self, n, r):
        assert power_sum(n, r) == sum(j**r for j in range(1, n + 1))

    def test_power_sum_r0(self):
        assert power_sum(7, 0) == 7
        assert power_sum(0, 0) == 0

    def test_power_sum_examples(self):
        assert power_sum(10, 1) == 55
        assert power_sum(10, 2) == 385
        assert power_sum(2000, 3) == (2000 * 2001 // 2) ** 2

    def test_power_sum_returns_int(self):
        assert isinstance(power_sum(100, 5), int)

    def test_power_sum_rejects_negative(self):
        with pytest.raises(ValueError):
            power_sum(-1, 2)
        with pytest.raises(ValueError):
            power_sum(5, -1)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=5))
    def test_coprime_power_sum_oracle(self, n, r):
        import math

        expect = sum(j**r for j in range(1, n + 1) if math.gcd(j, n) == 1)
        assert coprime_power_sum(n, r) == expect

    def test_coprime_power_sum_n1(self):
        # lone residue j = 1 contributes 1 for every r
        assert coprime_power_sum(1, 0) == 1
        assert coprime_power_sum(1, 5) == 1

    def test_coprime_power_sum_examples(self):
        assert coprime_power_sum(6, 1) == 6
        assert coprime_power_sum(6, 2) == 26

    def test_coprime_power_sum_returns_int(self):
        assert isinstance(coprime_power_sum(12, 3), int)

    def test_exhaustive_small_grid(self):
        for n in range(1, 61):
            for r in range(13):
                assert power_sum(n, r) == sum(j**r for j in range(1, n + 1)), (n, r)
                expect = sum(j**r for j in range(1, n + 1) if math.gcd(j, n) == 1)
                assert coprime_power_sum(n, r) == expect, (n, r)


def reference_tail(r, a, x=1):
    """The Fraction-per-term tail: (1/(r+1)) sum_m C(r+1, 2m) B_2m a(m) / x^(2m)."""
    terms = (
        math.comb(r + 1, 2 * m) * bernoulli_number(2 * m) * a(m) / Fraction(x) ** (2 * m) for m in range(r // 2 + 1)
    )
    return sum(terms, Fraction(0)) / (r + 1)


ROWS = exactnum._rows


def row_size(row):
    return sum(map(sys.getsizeof, row[0]))


def assert_exact_total():
    """The running total is the sum of the sizes of the kept rows, and stays
    within the budget."""
    assert exactnum._rows_nbytes == sum(map(row_size, ROWS.values())) <= exactnum._ROW_BUDGET


class TestBernoulliRow:
    def test_matches_the_fraction_products(self):
        for n in range(81):
            a, D = exactnum._bernoulli_row(n)
            assert D == math.lcm(*(bernoulli_number(i).denominator for i in range(n + 1)))
            assert list(a) == [math.comb(n, i) * bernoulli_number(i) * D for i in range(n + 1)]
            assert all(type(a_i) is int for a_i in a)

    def test_kept_rows_stay_under_the_byte_budget(self, cleared):
        # a budget of about three rows near n = 60: building rows 40..80
        # keeps only the newest, their bytes within the budget, and a row
        # past the budget is returned but not kept
        cleared(3 * row_size(exactnum._bernoulli_row(60)))
        for n in range(40, 81):
            assert exactnum._bernoulli_row(n) == exactnum._bernoulli_row(n)
        kept, nbytes = list(ROWS), exactnum._rows_nbytes
        assert 80 in kept and 40 not in kept and len(kept) < 10
        assert_exact_total()
        assert exactnum._bernoulli_row(400) == exactnum._bernoulli_row(400)
        assert list(ROWS) == kept and exactnum._rows_nbytes == nbytes


class TestRowBudget:
    """One byte budget over the kept Bernoulli rows, the oldest-built row
    evicted first; row n holds n + 1 ints, so row 10 takes 308 bytes, row 20
    624 and row 30 940."""

    def test_total_is_exact_after_every_keep(self, cleared):
        budget = 3 * 308
        cleared(budget)
        order, sizes = [], {}  # the rows that must be kept, oldest built first, and their sizes
        ns = (10, 8, 12, 10, 4, 14, 6, 16, 2, 10, 8)
        for n in ns:
            row = exactnum._bernoulli_row(n)
            if n in order:  # still kept: read, not built again
                assert ROWS[n] is row
            else:
                order.append(n)
                sizes[n] = row_size(row)
            while sum(map(sizes.get, order)) > budget:
                order.pop(0)
            assert list(ROWS) == order
            assert_exact_total()
        assert len(order) < len(set(ns))

    def test_a_row_past_the_budget_is_not_kept(self, cleared):
        cleared(2 * 308)
        exactnum._bernoulli_row(10)
        row = exactnum._bernoulli_row(20)  # past the budget: returned, not kept
        assert list(ROWS) == [10] and exactnum._rows_nbytes == 308
        again = exactnum._bernoulli_row(20)
        assert again == row and again is not row
        exactnum._bernoulli_row(8)  # a row within the budget is still kept
        assert list(ROWS) == [10, 8]
        assert_exact_total()

    def test_building_from_four_threads_leaves_the_total_exact(self, cleared):
        cleared(2000)
        barrier = threading.Barrier(4)

        def build(t):
            barrier.wait()
            for i in range(3000):
                # the threads build the same rows, so they race to keep each
                # one, and the budget holds only a few of the 24 rows, never fewer than 2
                exactnum._bernoulli_row((i + t) % 24)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        threads = [threading.Thread(target=build, args=(t,)) for t in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert_exact_total()
        assert len(ROWS) > 1


class TestBernoulliTail:
    @given(st.integers(min_value=1, max_value=12))
    def test_unit_coefficients_give_one_half(self, r):
        # sum_{i<=r} C(r+1, i) B_i = 0 and only B_1 = -1/2 among odd i survives
        assert bernoulli_tail(r, lambda m: 1) == Fraction(1, 2)

    def test_r0_is_the_first_coefficient(self):
        assert bernoulli_tail(0, lambda m: Fraction(7, 3)) == Fraction(7, 3)

    def test_pinned_terms(self):
        # r = 4: (1/5) [a(0) + C(5,2) B_2 a(1) + C(5,4) B_4 a(2)]
        a = {0: 2, 1: 3, 2: 5}
        expected = (2 + 10 * Fraction(1, 6) * 3 + 5 * Fraction(-1, 30) * 5) / 5
        assert bernoulli_tail(4, a.__getitem__) == expected

    @pytest.mark.parametrize("x", [1, 2, 7, 360])
    def test_matches_the_fraction_formula(self, x):
        for r in range(13):
            ints = lambda m: (-3) ** m * (m + 2)
            assert bernoulli_tail(r, ints, x) == reference_tail(r, ints, x), r
            fracs = lambda m: Fraction(5 - 2 * m, 3 + m)
            assert bernoulli_tail(r, fracs, x) == reference_tail(r, fracs, x), r
