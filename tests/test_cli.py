"""CLI behavior: output bytes, exit codes, determinism across --jobs."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ramsum import identities
from ramsum.cli import main
from ramsum.errors import CEILING_DIGITS, InternalConsistencyError


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_csum(self, capsys):
        code, out, _ = run_main(capsys, "eval", "csum", "--k", "6", "--j", "3")
        assert (code, out) == (0, "-2\n")

    def test_csum_methods_agree(self, capsys):
        outs = set()
        for method in ("moebius", "hoelder", "direct"):
            code, out, _ = run_main(
                capsys, "eval", "csum", "--k", "30", "--j", "7", "--s", "2", "--method", method
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_jordan(self, capsys):
        code, out, _ = run_main(capsys, "eval", "jordan", "--n", "6", "--s", "2")
        assert (code, out) == (0, "24\n")

    def test_bernoulli(self, capsys):
        code, out, _ = run_main(capsys, "eval", "bernoulli", "--m", "1")
        assert (code, out) == (0, "-1/2\n")
        code, out, _ = run_main(capsys, "eval", "bernoulli", "--m", "12")
        assert (code, out) == (0, "-691/2730\n")

    def test_gengcd(self, capsys):
        code, out, _ = run_main(capsys, "eval", "gengcd", "--j", "4", "--k", "6", "--s", "2")
        assert (code, out) == (0, "2\n")

    def test_theta(self, capsys):
        code, out, _ = run_main(capsys, "eval", "theta", "--k", "4", "--n", "2")
        assert (code, out) == (0, "0\n")
        code, out, _ = run_main(capsys, "eval", "theta", "--k", "4", "--n", "3")
        assert (code, out) == (0, "1\n")

    def test_value_error_is_exit_1(self, capsys):
        code, out, err = run_main(capsys, "eval", "csum", "--k", "0", "--j", "1")
        assert code == 1 and out == ""
        assert "error" in err

    def test_cap_is_exit_1(self, capsys):
        code, _, err = run_main(
            capsys, "eval", "csum", "--k", "2000", "--j", "1", "--s", "2", "--method", "direct"
        )
        assert code == 1
        assert "cap" in err


class TestHugePeriod:
    """A k^s far past the cap is refused from its size alone, never built or printed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "csum", "--k", "6", "--j", "3", "--s", "1000000", "--method", "direct"),
            ("table", "--k", "6", "--s", "1000000"),
        ],
    )
    def test_cap_refusal_is_fast(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run_main(capsys, *argv)
        assert time.perf_counter() - started < 5
        assert code == 1 and out == ""
        assert "cap" in err


class TestHugeExponent:
    """Inputs whose k^s is never needed stay fast however large s is."""

    @pytest.mark.parametrize("s", ["3000000", "10000000"])
    def test_theta_huge_s(self, capsys, s):
        started = time.perf_counter()
        code, out, _ = run_main(capsys, "eval", "theta", "--k", "6", "--n", "5", "--s", s)
        assert time.perf_counter() - started < 2
        assert (code, out) == (0, "1\n")

    def test_csum_huge_s(self, capsys):
        # gen_gcd(3, 6, s) = 1, so the Moebius route needs only 1^s mu(6)
        started = time.perf_counter()
        code, out, _ = run_main(capsys, "eval", "csum", "--k", "6", "--j", "3", "--s", "3000000")
        assert time.perf_counter() - started < 2
        assert (code, out) == (0, "1\n")

    def test_log_weight_huge_s(self, capsys):
        # d^s > k for every d >= 2, so both sides reduce to mu(k) log(k!) / k
        # and the defect is -s Lambda(k): exact at k = 1 and 6 only
        started = time.perf_counter()
        code, out, _ = run_main(capsys, "verify", "log-weight", "--k-max", "6", "--s", "3000000")
        assert time.perf_counter() - started < 2
        assert code == 0
        assert out.splitlines()[-1] == "summary pass=2 fail=0 findings=4"

    def test_multivariate_huge_s_keeps_unit_tuples(self, capsys):
        # only the tuples with lcm 1 have a period within the cap
        started = time.perf_counter()
        code, out, _ = run_main(capsys, "verify", "multivariate", "--s", "1000000")
        assert time.perf_counter() - started < 5
        assert code == 0
        assert out.splitlines()[-1] == "summary pass=6 fail=0 findings=0"


class TestHugeModulus:
    """A k with no prime factor below 2^20 and a cofactor past 2^40 is refused
    in bounded time; trial division never runs on to sqrt(k)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "csum", "--k", "1000000000000000003", "--j", "3"),
            ("eval", "jordan", "--n", "2305843009213693951"),
            ("eval", "gengcd", "--j", "8", "--k", "2305843009213693951", "--s", "2"),
        ],
    )
    def test_refused_in_bounded_time(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run_main(capsys, *argv)
        assert time.perf_counter() - started < 10
        assert (code, out) == (1, "")
        assert err.startswith("ramsum: error: cannot factor") and err.count("\n") == 1
        # the refusal never prints the modulus, which may pass the int-to-str limit
        assert "1000000000000000003" not in err and "2305843009213693951" not in err

    def test_prime_below_the_bound_squared_answers(self, capsys):
        # 1000000000039 is a prime below 2^40: no factor up to 2^20 proves it
        code, out, _ = run_main(capsys, "eval", "csum", "--k", "1000000000039", "--j", "3")
        assert (code, out) == (0, "-1\n")


class TestDigitBudget:
    """A value or intermediate past sys.get_int_max_str_digits() digits is
    refused with a ResourceLimitError that names the limit."""

    @pytest.mark.parametrize(
        "argv",
        [
            # the Hoelder route would build J_s(6) before dividing it down to 1
            ("eval", "csum", "--k", "6", "--j", "3", "--s", "3000000", "--method", "hoelder"),
            # c_6^(s)(0) = J_s(6) itself
            ("eval", "csum", "--k", "6", "--j", "0", "--s", "3000000"),
            ("eval", "jordan", "--n", "6", "--s", "3000000"),
            # under the up-front estimate, past the limit once built
            ("eval", "csum", "--k", "6", "--j", "0", "--s", "6000"),
            # a report row's exact sides, found past the limit only when rendered
            ("verify", "gcd-weight", "--weights", "power:5000", "--k-max", "3"),
            ("verify", "g-multiplicative", "--m-max", "3000", "--tuples", "3"),
            # one point with a huge s, refused before rad(k)^s or a power of lcm(ks) is built
            ("verify", "mu-log-lemma", "--k-max", "2", "--s", "100000000"),
            ("verify", "mu-log-lemma", "--k-max", "2", "--s", str(10**30)),
            ("verify", "g-multiplicative", "--tuples", "1", "--s", str(10**30)),
        ],
    )
    def test_refused_by_name(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run_main(capsys, *argv)
        assert time.perf_counter() - started < 1
        assert code == 1 and out == ""
        assert f"{sys.get_int_max_str_digits()} decimal digits, the int-to-str limit sys.get_int_max_str_digits()" in err
        assert "Exceeds the limit" not in err
        assert err.count("\n") == 1

    def test_value_under_the_limit_prints(self, capsys):
        code, out, _ = run_main(capsys, "eval", "csum", "--k", "6", "--j", "0", "--s", "5000", "--method", "hoelder")
        assert code == 0
        assert int(out) == 6**5000 - 3**5000 - 2**5000 + 1

    def test_mu_log_lemma_is_budgeted_on_rad_k(self, capsys):
        # its sides are over rad(4)^8000 = 2^8000, 2409 digits, though 4^8000 has 4817
        code, out, _ = run_main(capsys, "verify", "mu-log-lemma", "--k-min", "4", "--k-max", "4", "--s", "8000")
        assert code == 0 and out.endswith("summary pass=1 fail=0 findings=0\n")


    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "mu-log-lemma", "--k-max", "2", "--s", str(10**30)),
            ("eval", "csum", "--k", "6", "--j", "0", "--s", str(10**30), "--method", "hoelder"),
        ],
    )
    def test_refused_with_the_limit_off(self, argv):
        # PYTHONINTMAXSTRDIGITS=0 switches the int-to-str limit off; the fixed
        # ceiling of 2^20 bits on a built power still refuses at once
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0")
        started = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "ramsum", *argv], capture_output=True, text=True, env=env, timeout=10)
        assert time.perf_counter() - started < 10
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("ramsum: error: ") and out.stderr.count("\n") == 1
        assert f"{CEILING_DIGITS} decimal digits, the ceiling of 2^20 bits on a built value" in out.stderr

    @pytest.mark.parametrize("limit", [str(sys.int_info.default_max_str_digits), "0"], ids=["limit", "limit-off"])
    @pytest.mark.parametrize("weight", ["power:1000000000", "jordan:1000000000"])
    def test_huge_weight_parameter_is_refused(self, weight, limit):
        # x^t and J_t(x) are judged at the largest gcd value x = k^s before either is built
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit)
        argv = ["verify", "gcd-weight", "--weights", weight, "--k-max", "3"]
        started = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "ramsum", *argv], capture_output=True, text=True, env=env, timeout=10)
        assert time.perf_counter() - started < 10
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.startswith("ramsum: error: ") and out.stderr.count("\n") == 1

    def test_ceiling_is_past_the_default_limit(self):
        # so under the default limit every refusal keeps the limit's message
        assert CEILING_DIGITS > sys.int_info.default_max_str_digits


class TestBernoulliBudget:
    """eval bernoulli refuses, before computing anything, an m whose
    tangent pass would build a numerator past the int-to-str digit limit."""

    @pytest.mark.parametrize("m", ["3000", "3001", "1" + "0" * 400])
    def test_refused_before_computing(self, capsys, monkeypatch, m):
        from ramsum import cli

        def never(m):
            raise AssertionError("B_m was computed")

        monkeypatch.setattr(cli, "bernoulli_number", never)
        started = time.perf_counter()
        code, out, err = run_main(capsys, "eval", "bernoulli", "--m", m)
        assert time.perf_counter() - started < 1
        assert code == 1 and out == ""
        assert f"{sys.get_int_max_str_digits()} decimal digits" in err
        assert "sys.get_int_max_str_digits()" in err
        assert err.count("\n") == 1

    def test_largest_accepted_m_answers_in_bounded_time(self, capsys, monkeypatch):
        # 2063 is the largest m the default digit limit accepts; B_2063 = 0,
        # but the tangent pass still builds every B_2i up to B_2062 from a
        # cold memo; the Fraction recurrence it replaced took minutes
        from ramsum import exactnum

        assert sys.get_int_max_str_digits() == 4300
        monkeypatch.setattr(exactnum, "_bern", [Fraction(1), Fraction(-1, 2)])
        started = time.perf_counter()
        code, out, _ = run_main(capsys, "eval", "bernoulli", "--m", "2063")
        assert time.perf_counter() - started < 30
        assert (code, out) == (0, "0\n")
        assert len(exactnum._bern) > 2062 and exactnum._bern[2062] != 0
        assert run_main(capsys, "eval", "bernoulli", "--m", "2064")[0] == 1

    def test_accepts_exactly_the_printable_numerators(self, capsys, monkeypatch):
        # a refused m is refused by the budget, before B_m is asked for; at a
        # limit of 4296 only B_2062's denominator lifts its bound (4295.84
        # without it) past the limit its 4300-digit numerator passes, and at
        # 660 only B_456's (653.29 with 6 for D_456) past its 661 digits
        from ramsum import cli, exactnum

        exactnum.bernoulli_number(2070)
        asked = []
        monkeypatch.setattr(cli, "bernoulli_number", lambda m: asked.append(m) or exactnum.bernoulli_number(m))
        default = sys.get_int_max_str_digits()
        try:
            for limit, ms in ((default, range(2040, 2071, 2)), (4296, range(2040, 2071, 2)), (660, range(440, 471, 2))):
                sys.set_int_max_str_digits(limit)
                for m in ms:
                    printable = abs(exactnum._bern[m].numerator) < 10**limit
                    asked.clear()
                    code = run_main(capsys, "eval", "bernoulli", "--m", str(m))[0]
                    assert (code == 0, asked == [m]) == (printable, printable), (limit, m)
        finally:
            sys.set_int_max_str_digits(default)

    def test_first_refused_m_is_refused_from_a_cold_memo(self, capsys, monkeypatch):
        # B_2064's numerator has 4311 digits; the budget refuses it before the pass
        from ramsum import exactnum

        monkeypatch.setattr(exactnum, "_bern", [Fraction(1), Fraction(-1, 2)])
        code, out, err = run_main(capsys, "eval", "bernoulli", "--m", "2064")
        assert (code, out) == (1, "") and "decimal digits" in err
        assert len(exactnum._bern) == 2

    def test_verify_refuses_the_grid_before_any_point(self, capsys, monkeypatch):
        # the grid's largest m meets the budget eval bernoulli applies, so no
        # point of an unprintable grid starts the tangent pass
        from ramsum import identities

        def never(m):
            raise AssertionError("B_m was computed")

        monkeypatch.setattr(identities, "bernoulli_number", never)
        started = time.perf_counter()
        code, out, err = run_main(capsys, "verify", "bernoulli-weight", "--m-max", "3000", "--k-max", "2")
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert run_main(capsys, "eval", "bernoulli", "--m", "3000") == (1, "", err)
        assert err.startswith("ramsum: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["power-sum", "--n-max", "1"],
            ["alkan-classical", "--k-max", "1"],
            ["alkan", "--k-max", "1"],
            ["multivariate", "--ks", "2,3"],
            ["coprime-power-sum", "--n-max", "2"],
        ],
    )
    def test_verify_refuses_an_r_grid_before_any_point(self, capsys, monkeypatch, argv):
        # the largest r meets the same budget: these points read B_2m up to 2m <= r
        from ramsum import exactnum, identities

        def never(m):
            raise AssertionError("B_m was computed")

        monkeypatch.setattr(identities, "bernoulli_number", never)
        monkeypatch.setattr(exactnum, "bernoulli_number", never)
        started = time.perf_counter()
        code, out, err = run_main(capsys, "verify", *argv, "--r-max", "3000")
        assert time.perf_counter() - started < 1
        assert (code, out) == (1, "")
        assert run_main(capsys, "eval", "bernoulli", "--m", "3000") == (1, "", err)

    @pytest.mark.parametrize(
        "argv, passed",
        [
            (["power-sum", "--n-max", "1", "--r-max", "774"], 774),
            (["bernoulli-weight", "--k-max", "1", "--m-max", "775"], 1552),
        ],
    )
    def test_largest_accepted_row_runs_in_bounded_time(self, capsys, monkeypatch, cleared, argv, passed):
        # row 775 is the largest _ROW_WORK_LIMIT accepts: power-sum's r_max 774
        # reads it, as bernoulli-weight's m_max 775 does; from cold memos every
        # row up to it is built, in about 1 and 2 s on a 2-CPU host
        from ramsum import exactnum

        monkeypatch.setattr(exactnum, "_bern", [Fraction(1), Fraction(-1, 2)])
        started = time.perf_counter()
        code, out, _ = run_main(capsys, "verify", *argv)
        assert time.perf_counter() - started < 15
        assert code == 0 and out.endswith(f"summary pass={passed} fail=0 findings=0\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["power-sum", "--n-max", "1", "--r-max", "775"],
            ["alkan-classical", "--k-max", "1", "--r-max", "775"],
            ["alkan", "--k-max", "1", "--r-max", "775"],
            ["multivariate", "--ks", "2,3", "--r-max", "775"],
            ["coprime-power-sum", "--n-max", "2", "--r-max", "775"],
            ["bernoulli-weight", "--k-max", "1", "--m-max", "776"],
        ],
    )
    def test_first_refused_row_is_refused_before_any_point(self, capsys, monkeypatch, argv):
        # row 776 passes the work limit however large the digit limit is
        from ramsum import exactnum, identities

        def never(m):
            raise AssertionError("B_m was computed")

        monkeypatch.setattr(identities, "bernoulli_number", never)
        monkeypatch.setattr(exactnum, "bernoulli_number", never)
        default = sys.get_int_max_str_digits()
        try:
            for limit in (default, 0):
                sys.set_int_max_str_digits(limit)
                started = time.perf_counter()
                code, out, err = run_main(capsys, "verify", *argv)
                assert time.perf_counter() - started < 1
                assert (code, out) == (1, "")
                assert err.startswith("ramsum: error: Bernoulli row 776 would take about 1.001e+06 digit operations")
                assert err.endswith(f"past the limit {exactnum._ROW_WORK_LIMIT}\n") and err.count("\n") == 1
        finally:
            sys.set_int_max_str_digits(default)

    @pytest.mark.parametrize("flag", ["--r-max", "--m-max"])
    def test_huge_grid_order_is_refused_without_a_digit_limit(self, capsys, flag):
        # past sys.maxsize, where a range has no len(); with no digit limit
        # only the row budget stands between such a grid and its points
        default = sys.get_int_max_str_digits()
        identity = "power-sum" if flag == "--r-max" else "bernoulli-weight"
        try:
            for limit in (default, 0):
                sys.set_int_max_str_digits(limit)
                code, out, err = run_main(capsys, "verify", identity, flag, "1" + "0" * 30)
                assert (code, out) == (1, "") and err.startswith("ramsum: error: ") and err.count("\n") == 1
        finally:
            sys.set_int_max_str_digits(default)

    def test_coprime_power_sum_at_n_1_reads_no_bernoulli_number(self, capsys, monkeypatch):
        from ramsum import exactnum

        def never(m):
            raise AssertionError("B_m was computed")

        monkeypatch.setattr(exactnum, "bernoulli_number", never)
        code, out, _ = run_main(capsys, "verify", "coprime-power-sum", "--n-max", "1", "--r-max", "3000")
        assert code == 0 and out.endswith("summary pass=3000 fail=0 findings=0\n")

    def test_negative_m_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "bernoulli", "--m", "-1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--m" in err and "at least 0" in err and "Traceback" not in err


class TestGridSize:
    """A grid past identities._GRID_POINT_LIMIT points is refused while it is
    built, before any point runs, however far its flags reach."""

    HUGE = "1" + "0" * 30

    @pytest.mark.parametrize(
        "argv",
        [
            ["coprime-power-sum", "--n-max", "1", "--r-max", HUGE],
            ["power-sum", "--n-max", HUGE],
            ["log-weight", "--k-max", HUGE],
            ["log-weight", "--s-max", HUGE],
            ["mu-log-lemma", "--k-max", HUGE],
            ["mu-log-lemma", "--s-max", HUGE],
            ["g-multiplicative", "--tuples", HUGE],
            ["multivariate", "--ks", "1", "--s-max", HUGE],
        ],
    )
    def test_refused_while_built(self, capsys, monkeypatch, argv):
        def never(point):
            raise AssertionError("a point ran")

        monkeypatch.setattr(identities, "_run_point", never)
        started = time.perf_counter()
        code, out, err = run_main(capsys, "verify", *argv)
        assert time.perf_counter() - started < 10
        assert (code, out) == (1, "")
        limit = identities._GRID_POINT_LIMIT
        assert err == f"ramsum: error: the grid passes {limit} points, the limit of one verify run\n"

    @pytest.mark.parametrize(
        "argv, identity, ceiling",
        [
            (["gauss-product", "--n-max", "1000"], "gauss-product", 500),
            (["multisection", "--n-max", "300", "--r-max", "2"], "multisection", 256),
            (["all", "--n-max", "300"], "multisection", 256),
        ],
    )
    def test_n_past_a_ceiling_is_refused_while_built(self, capsys, monkeypatch, argv, identity, ceiling):
        # --n-max past an identity's ceiling is refused, not cut down to it
        def never(point):
            raise AssertionError("a point ran")

        monkeypatch.setattr(identities, "_run_point", never)
        code, out, err = run_main(capsys, "verify", *argv)
        assert (code, out) == (1, "")
        assert err == f"ramsum: error: --n-max {argv[2]} exceeds {ceiling}, the ceiling of the {identity} check\n"

    def test_too_many_moduli_are_refused_while_built(self, capsys, monkeypatch):
        # the (2, 3) group ahead of it would otherwise run first
        def never(point):
            raise AssertionError("a point ran")

        monkeypatch.setattr(identities, "_run_point", never)
        code, out, err = run_main(capsys, "verify", "multivariate", "--ks", "2,3;1,2,3,4,5", "--r-max", "1")
        assert (code, out) == (1, "")
        assert err == "ramsum: error: moduli group (1, 2, 3, 4, 5) has 5 moduli, not between 1 and 4\n"

    @pytest.mark.parametrize("identity, passed", [("alkan", 52), ("alkan-classical", 40), ("gamma-weight", 11)])
    def test_k_past_the_cap_ends_the_grid(self, capsys, identity, passed):
        # every k past the cap has k^s > cap, so the grid stops there, not at --k-max
        started = time.perf_counter()
        code, out, _ = run_main(capsys, "verify", identity, "--cap", "10", "--k-max", self.HUGE)
        assert time.perf_counter() - started < 10
        assert code == 0 and out.endswith(f"summary pass={passed} fail=0 findings=0\n")


class TestInternalError:
    def test_spectrum_past_its_bound_is_exit_3(self, capsys, monkeypatch, cleared):
        from ramsum import csum

        rfft = np.fft.rfft

        def perturbed(x):
            X = rfft(x)
            X[1] += 1e-6j
            return X

        monkeypatch.setattr(np.fft, "rfft", perturbed)
        csum.csum_direct(97, 3)  # cold: summed from row and column roots
        with pytest.raises(InternalConsistencyError):
            csum.csum_direct(97, 4)  # reused: builds the spectrum
        argv = ("eval", "csum", "--k", "101", "--j", "5", "--method", "direct")
        assert run_main(capsys, *argv)[0] == 0
        code, out, err = run_main(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("ramsum: internal error: spectrum of k=101, s=1")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestTable:
    def test_csv_bytes(self, capsys):
        code, out, _ = run_main(capsys, "table", "--k", "2")
        assert (code, out) == (0, "j,c\n0,1\n1,-1\n")

    def test_json(self, capsys):
        code, out, _ = run_main(capsys, "table", "--k", "4", "--format", "json")
        assert (code, out) == (0, "[2,0,-2,0]\n")

    def test_cap_refusal(self, capsys):
        code, _, err = run_main(capsys, "table", "--k", "7", "--s", "9", "--cap", "1000000")
        assert code == 1 and "cap" in err


class TestVerify:
    def test_human_summary(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "alkan", "--k-max", "12", "--s", "1", "--r-max", "2"
        )
        assert code == 0
        assert out.splitlines()[-1] == "summary pass=24 fail=0 findings=0"

    def test_json_document(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "power-sum", "--n-max", "4", "--r-max", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"] == {"pass": 8, "fail": 0, "findings": 0}
        assert doc["suite"]["identities"] == ["power-sum"]

    def test_csv_header(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "gauss-product", "--n-max", "5", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "identity,params,lhs,rhs,residual,mode,pass,classification"
        )

    def test_findings_exit_zero(self, capsys):
        code, out, _ = run_main(capsys, "verify", "log-weight", "--k-max", "6", "--s", "2")
        assert code == 0
        assert "findings=5" in out.splitlines()[-1]

    def test_strict_findings_exit_two(self, capsys):
        code, _, _ = run_main(
            capsys, "verify", "log-weight", "--k-max", "6", "--s", "2", "--strict-findings"
        )
        assert code == 2

    def test_hard_failure_exit_two(self, capsys):
        # an impossible tolerance turns numerical passes into real failures
        code, out, _ = run_main(
            capsys, "verify", "gamma-weight", "--k-max", "6", "--s", "1", "--tol", "1e-30"
        )
        assert code == 2
        assert "fail=0" not in out.splitlines()[-1]

    def test_broken_moebius_route_exits_two(self, capsys, broken_moebius_route):
        # the log-weight mismatches no longer equal the predicted defect
        code, out, _ = run_main(capsys, "verify", "log-weight", "--s-max", "3")
        assert code == 2
        assert out.splitlines()[-1].endswith("findings=0")

    def test_multisection_past_the_default_r(self, capsys):
        code, out, _ = run_main(capsys, "verify", "multisection", "--n-max", "40", "--r-max", "40")
        assert code == 0
        assert out.splitlines()[-1] == "summary pass=820 fail=0 findings=0"
        # a fixed 1e-9 is too tight where the cosine terms cancel to a small lhs
        code, out, _ = run_main(capsys, "verify", "multisection", "--n-max", "40", "--r-max", "40", "--tol", "1e-9")
        assert code == 2
        assert sum(line.endswith(" mismatch") for line in out.splitlines()) == 34

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_undecidable_multisection_point_is_exit_1(self, capsys, jobs):
        code, out, err = run_main(
            capsys, "verify", "multisection", "--n-max", "64", "--r-max", "64", "--jobs", jobs
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err == "ramsum: error: the float side of multisection cannot decide (n, r) = (50, 50)\n"

    def test_ks_groups(self, capsys):
        code, out, _ = run_main(
            capsys,
            "verify",
            "multivariate",
            "--ks",
            "2,3;4,6",
            "--s",
            "1",
            "--r-max",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        seen = {tuple(row["params"]["ks"]) for row in doc["results"]}
        assert seen == {(2, 3), (4, 6)}

    def test_bad_ks_exit_one(self, capsys):
        code, _, err = run_main(capsys, "verify", "multivariate", "--ks", "0,3")
        assert code == 1 and "moduli" in err

    @pytest.mark.parametrize(
        "ks, bad", [("2,x", "2,x"), ("2;;3,", "3,"), ("1_0,3", "1_0,3"), ("2;+3", "+3"), ("2,\u0663", "2,\u0663")]
    )
    def test_unparsed_ks_names_the_group(self, capsys, ks, bad):
        code, out, err = run_main(capsys, "verify", "multivariate", "--ks", ks)
        assert (code, out, err) == (1, "", f"ramsum: error: bad moduli group {bad!r}\n")

    def test_weights_flag(self, capsys):
        code, out, _ = run_main(
            capsys,
            "verify",
            "gcd-weight",
            "--k-max",
            "8",
            "--s",
            "1",
            "--weights",
            "phi,tau",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert {row["params"]["weight"] for row in doc["results"]} == {"phi", "tau"}

    def test_bad_weight_exit_one(self, capsys):
        code, _, _ = run_main(capsys, "verify", "gcd-weight", "--weights", "bogus")
        assert code == 1


def test_exact_rows_of_default_report_are_pinned(capsys):
    # exact-mode lhs/rhs are Fraction and LogLinear strings, so their bytes do
    # not depend on libm; residual is left out because the binomial and
    # log-weight rows compute it in floating point
    code, out, _ = run_main(capsys, "verify", "all", "--format", "json")
    assert code == 0
    rows = [
        {key: v for key, v in row.items() if key != "residual"}
        for row in json.loads(out)["results"]
        if row["mode"] == "exact"
    ]
    assert len(rows) == 3339
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1fa6f777f65a04bcd1230a022e8b9392b0d81a451372599a6a853afb1b7b6958"
    )


def test_exact_csv_rows_of_default_report_are_pinned(capsys):
    # the csv twin of the pin above: the same rows as csv writes them, with
    # the residual column dropped
    code, out, _ = run_main(capsys, "verify", "all", "--format", "csv")
    assert code == 0
    header, *lines = csv.reader(io.StringIO(out))
    drop, mode = header.index("residual"), header.index("mode")
    rows = [line[:drop] + line[drop + 1 :] for line in lines if line[mode] == "exact"]
    assert len(rows) == 3339
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "8167f2de2530e36f6801a1a973c777646e49b4e518f2c754a415198feee68d8e"
    )


@pytest.mark.parametrize(
    "argv, passed, digest",
    [
        (
            ("bernoulli-weight", "--m-max", "40", "--k-max", "40"),
            3280,
            "5115aad5e569cfd7ee5fb462a0740f85e0a2eaa697e9228520cbaa132d740b0e",
        ),
        (
            ("alkan", "--r-max", "30", "--k-max", "40"),
            2400,
            "6b973f583630a5f46b2cbfabe62343d64db98735ea3b0fb0a0223ca39a2b0cb9",
        ),
        (
            ("multivariate", "--s-max", "3", "--r-max", "8", "--cap", "1000000"),
            1704,
            "b7b1583f65cf71318d943179dd445234356660ae4e0658a9a6a191d34a817ecd",
        ),
    ],
    ids=["bernoulli-weight-m40", "alkan-r30", "multivariate-s3-r8"],
)
def test_high_order_exact_reports_are_pinned(capsys, argv, passed, digest):
    # every row is exact with residual 0.0, so the whole report's bytes do
    # not depend on libm; the moments reach order 40 here, and multivariate
    # reads those of its product periods up to K = 60^3
    code, out, _ = run_main(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"] == {"fail": 0, "findings": 0, "pass": passed}
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUsageErrors:
    def test_unknown_identity(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "csum", "--k", "6"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("identity", ["alkan", "all"])
    def test_k_min_above_k_max(self, capsys, identity):
        # an empty k range would otherwise pass with every k-indexed point dropped
        with pytest.raises(SystemExit) as exc:
            main(["verify", identity, "--k-min", "50", "--k-max", "3"])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert "--k-min" in captured.err and "--k-max" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "identity, k_min, upper",
        [
            ("alkan", "50", "20"),
            ("bernoulli-weight", "13", "12"),
            ("all", "50", "20"),
            ("multivariate", "61", "60"),
        ],
    )
    def test_k_min_above_default_upper_k(self, capsys, identity, k_min, upper):
        # without --k-max each grid ends at its default k (multivariate's bounds
        # lcm(ks)); --k-min past it would run an empty grid and pass
        with pytest.raises(SystemExit) as exc:
            main(["verify", identity, "--k-min", k_min])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err.count("usage:") == 1
        named = "alkan" if identity == "all" else identity
        assert f"--k-min {k_min}" in captured.err and f"the {named} grid ends at k = {upper}" in captured.err

    def test_k_min_at_default_upper_k_runs(self, capsys):
        code, out, _ = run_main(capsys, "verify", "log-weight", "--k-min", "50")
        assert code == 0
        assert [json.loads(line.split()[1])["k"] for line in out.splitlines()[1:-1]] == [50, 50]

    def test_k_min_leaves_explicit_ks(self, capsys):
        code, out, _ = run_main(capsys, "verify", "multivariate", "--ks", "2,3", "--k-min", "61", "--r-max", "1")
        assert code == 0
        assert out.splitlines()[-1] == "summary pass=2 fail=0 findings=0"

    @pytest.mark.parametrize(
        "identity, flags",
        [
            ("gamma-weight", ("--cap", "1")),
            ("gamma-weight", ("--k-max", "1")),
            ("binomial-weight", ("--cap", "1", "--k-min", "2")),
            ("alkan-classical", ("--k-min", "5", "--cap", "4")),
        ],
    )
    def test_empty_grid_is_an_error(self, capsys, identity, flags):
        # the cap or the grid's own k floor drops every point: nothing was
        # checked, so the run must not pass
        code, out, err = run_main(capsys, "verify", identity, *flags)
        assert code == 1 and out == ""
        assert err.startswith("ramsum: error: ") and f"the {identity} grid" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "csum", "--k", "6", "--j", "3", "--sieve-limit", "1000"),
            ("verify", "all", "--sieve-limit", "1000"),
            ("eval", "jordan", "--n", "6", "--cap", "10"),
        ],
    )
    def test_rejected_flag_values(self, capsys, argv):
        # a flag the command does not take is a usage error: --sieve-limit on
        # any command, --cap on a command without a period
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.count("usage:") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--s-max", "0"),
        ("--s-max", "-1"),
        ("--s", "0"),
        ("--m-max", "-1"),
        ("--jobs", "0"),
        ("--k-max", "0"),
        ("--r-max", "-1"),
        ("--n-max", "-3"),
        ("--tuples", "-1"),
        ("--cap", "0"),
        ("--cap", "-1"),
        ("--k-min", "0"),
        ("--k-min", "-5"),
        ("--tol", "-1"),
        ("--tol", "nan"),
        ("--tol", "inf"),
    ],
)
def test_verify_rejects_out_of_range_ints(capsys, flag, value):
    # only a usage error may escape main: any other exception fails the test
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert "Traceback" not in err
    assert f"argument {flag}:" in err


def test_census_script_rejects_s_max_1(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "log_weight_census.py"
    out = subprocess.run(
        [sys.executable, str(script), "--s-max", "1", "--out", str(tmp_path / "census.json")],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert "argument --s-max:" in out.stderr
    assert not (tmp_path / "census.json").exists()


def test_census_script_counts_mismatches_apart(tmp_path, capsys, request):
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "scripts" / "log_weight_census.py"
    spec = importlib.util.spec_from_file_location("log_weight_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    argv = ["--k-max", "12", "--s-max", "2", "--out", str(tmp_path / "census.json")]
    assert census.main(argv) == 0
    assert json.loads((tmp_path / "census.json").read_text())["2"]["mismatches"] == []
    request.getfixturevalue("broken_moebius_route")
    assert census.main(argv) == 1
    row = json.loads((tmp_path / "census.json").read_text())["2"]
    assert row["findings"] == 0 and row["mismatches"] == list(range(2, 13))
    assert "11 mismatches" in capsys.readouterr().out


class TestSubprocessInvocation:
    def test_module_entry(self):
        out = subprocess.run(
            [sys.executable, "-m", "ramsum", "eval", "csum", "--k", "6", "--j", "3"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout == "-2\n"

    def test_jobs_do_not_change_bytes(self):
        base = [
            sys.executable,
            "-m",
            "ramsum",
            "verify",
            "multisection",
            "--n-max",
            "24",
            "--format",
            "json",
        ]
        one = subprocess.run(base + ["--jobs", "1"], capture_output=True)
        two = subprocess.run(base + ["--jobs", "2"], capture_output=True)
        four = subprocess.run(base + ["--jobs", "4"], capture_output=True)
        assert one.returncode == two.returncode == four.returncode == 0
        assert one.stdout == two.stdout == four.stdout

    @pytest.mark.parametrize(
        "argv, loads",
        [
            (("eval", "jordan", "--n", "6", "--s", "2"), False),
            (("eval", "gengcd", "--j", "4", "--k", "6", "--s", "2"), False),
            (("eval", "bernoulli", "--m", "12"), False),
            (("eval", "theta", "--k", "4", "--n", "3"), False),
            (("eval", "csum", "--k", "30", "--j", "7", "--s", "2", "--method", "moebius"), False),
            (("eval", "csum", "--k", "30", "--j", "7", "--s", "2", "--method", "hoelder"), False),
            (("eval", "csum", "--k", "30", "--j", "7", "--s", "2", "--method", "direct"), True),
            (("table", "--k", "6"), True),
            (("verify", "multisection"), False),
            (("verify", "gauss-product"), False),
            (("verify", "binomial-weight"), True),
        ],
        ids=[
            "jordan",
            "gengcd",
            "bernoulli",
            "theta",
            "moebius",
            "hoelder",
            "direct",
            "table",
            "verify-multisection",
            "verify-gauss-product",
            "verify-binomial-weight",
        ],
    )
    def test_numpy_is_loaded_only_to_build_periods(self, argv, loads):
        # the exact routes never build an array, so they never pay numpy's import
        code = (
            "import sys, ramsum, ramsum.cli\n"
            "imported = 'numpy' in sys.modules\n"
            f"rc = ramsum.cli.main({list(argv)!r})\n"
            "print(rc, imported, 'numpy' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == f"0 False {loads}"

    def test_import_leaves_out_the_process_pool(self):
        # concurrent.futures is imported only by a run_suite with jobs > 1
        code = "import sys, ramsum; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"
