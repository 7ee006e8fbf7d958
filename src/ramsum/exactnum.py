"""Exact rational layer: binomials, Bernoulli numbers and polynomials, power sums.

Everything here is Fraction or int arithmetic; nothing rounds.  The Bernoulli
sums add integers over one common denominator, read from one integer row
C(n, i) B_i D, and build one Fraction at the end.  Closed forms that promise
integers (power sums) check integrality before returning.
"""

from __future__ import annotations

import math
import sys
import threading
from fractions import Fraction
from math import comb, prod

from . import store
from .arith import factorize, primes_up_to
from .errors import InternalConsistencyError, ResourceLimitError, _refuse_past_digit_limit


def rat_str(q) -> str:
    """Canonical string for a rational: "p/q" in lowest terms, "p" for integers."""
    if type(q) is int:
        return int.__repr__(q)
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return int.__repr__(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def binomial(n: int, k: int) -> int:
    """C(n, k) for nonnegative arguments, 0 when k > n.  Exact at any size."""
    return comb(n, k)


_bern: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_bern_lock = threading.Lock()
_kept = store.kept["row"]  # the Bernoulli rows, by n


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n], the tangent numbers T_i = tan^(2i-1)(0), in one
    in-place pass of O(n^2) small-by-big integer products (Brent and Harvey,
    "Fast computation of Bernoulli, Tangent and Secant numbers", 2011)."""
    t = [0, 1] + [0] * (n - 1)
    for i in range(2, n + 1):
        t[i] = (i - 1) * t[i - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return t


def bernoulli_number(m: int) -> Fraction:
    """B_m with B_1 = -1/2, from tangent numbers, memoized.

    B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)), and B_m = 0 for odd m > 1.
    A memo too short for m is refilled from one tangent pass at least twice
    its length, so callers that walk m upwards pay O(m^2) in all.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    with _bern_lock:
        if len(_bern) <= m:
            n = max(m // 2, len(_bern) - 1)
            t = _tangent_numbers(n)
            del _bern[2:]
            for i in range(1, n + 1):
                b = Fraction(2 * i * t[i], 4**i * (4**i - 1))
                _bern.extend((b if i % 2 else -b, Fraction(0)))
        return _bern[m]


def _numerator_digits(m: int) -> tuple[int, float]:
    """(n, d): n the last even index <= m, capped at 2^60, and d a lower bound
    on the decimal digits of 2 n! / (2 pi)^n, which |B_n| passes (d = 0 below 2)."""
    # past 2^60 every bound passes any limit; capping n keeps lgamma's argument a float
    n = min(m - m % 2, 1 << 60)
    if n < 2:
        return n, 0.0
    return n, math.log10(2) + (math.lgamma(n + 1) - n * math.log(2 * math.pi)) / math.log(10)


def _bernoulli_budget(m: int) -> None:
    """ResourceLimitError once bernoulli_number(m) would build a numerator past
    sys.get_int_max_str_digits() decimal digits, or the fixed ceiling
    errors.CEILING_DIGITS whatever that limit is (a limit of 0 means none).

    Judged by the last even B_n, n <= m, which the tangent pass builds.  For
    even n >= 2, |B_n| = 2 n! zeta(n) / (2 pi)^n > 2 n! / (2 pi)^n, and its
    denominator is D_n, the product of the primes p with (p - 1) | n (von
    Staudt-Clausen), so its numerator has more than log10(2 n! D_n / (2 pi)^n)
    digits; a bound that reaches the limit is refused.  D_n >= 6, and D_n is
    found only when the bound with 6 in its place stays below the limit, so a
    huge m costs nothing.
    """
    n, digits = _numerator_digits(m)
    if n < 2:
        return

    def past(limit: int) -> bool:
        if digits + math.log10(6) >= limit:
            return True
        primes = [p for p in primes_up_to(n + 1) if n % (p - 1) == 0]
        return digits + sum(map(math.log10, primes)) >= limit

    _refuse_past_digit_limit(f"the tangent-number pass up to B_{m} would build a numerator past", past)


# The most work a sweep grid may ask of its largest Bernoulli row n: its
# n + 1 entries times the digits of its last even B_n, as _numerator_digits
# bounds them.  A grid walks every row up to n, so its Bernoulli time grows
# about as n^3: row 775, the largest accepted, is built with every row below
# it in about 1 s on a 2-CPU host.
_ROW_WORK_LIMIT = 1_000_000


def _row_budget(n: int) -> None:
    """ResourceLimitError when row n's work estimate, (n + 1) times the digit
    bound of its last even B_n, passes _ROW_WORK_LIMIT."""
    work = (min(n, 1 << 60) + 1) * _numerator_digits(n)[1]
    if work > _ROW_WORK_LIMIT:
        raise ResourceLimitError(
            f"Bernoulli row {n} would take about {work:.4g} digit operations, past the limit {_ROW_WORK_LIMIT}"
        )


def _bernoulli_row(n: int) -> tuple[tuple[int, ...], int]:
    """(a, D): D the lcm of the denominators of B_0..B_n and a_i = C(n, i) B_i D,
    so that D B_n(x) = sum_i a_i x^(n-i) in integers a_i.

    Built with integer operations only.  By von Staudt-Clausen D is the
    product of the primes p <= n + 1 (p = 2 from B_1), each numerator is
    scaled by D // den(B_i), and the binomial steps over the even i as
    C(n, i) = C(n, i-2) (n-i+2) (n-i+1) / ((i-1) i); odd i > 1 hold 0.
    Kept in ramsum.store.
    """
    row = _kept.get(n)
    if row is not None:
        return row
    bernoulli_number(n)
    with _bern_lock:
        bs = _bern[: n + 1]
    D = prod(primes_up_to(n + 1))
    a = [0] * (n + 1)
    a[0] = D
    if n:
        a[1] = -n * D // 2
    c = 1
    for i in range(2, n + 1, 2):
        c = c * (n - i + 2) * (n - i + 1) // ((i - 1) * i)
        b = bs[i]
        a[i] = c * b.numerator * (D // b.denominator)
    row = tuple(a), D
    store.keep("row", n, row, sum(map(sys.getsizeof, a)))
    return row


def bernoulli_poly(m: int, x) -> Fraction:
    """B_m(x) = sum_i C(m,i) B_i x^(m-i), exactly.

    With x = p/q, D q^m B_m(x) = sum_i a_i p^(m-i) q^i over row m, one
    Horner pass in integers.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    a, D = _bernoulli_row(m)
    acc, qi = 0, 1
    for a_i in a:
        acc = acc * p + a_i * qi
        qi *= q
    return Fraction(acc, D * q**m)


def bernoulli_tail(r: int, a, x: int = 1) -> Fraction:
    """(1/(r+1)) sum_{m=0..r//2} C(r+1, 2m) B_{2m} a(m) / x^(2m), exactly.

    The even-index Bernoulli tail shared by the Faulhaber form and every
    power-weight closed form; a(m) supplies the m-th coefficient, an int or
    a Fraction, and x is a positive integer.  Row r + 1 gives C(r+1, 2m) B_2m
    = a_2m / D, so with M = r // 2 the tail is
        sum_m a_2m a(m) x^(2(M-m)) / (D (r+1) x^(2M)),
    one Horner pass in x^2 over integers for integer a(m).
    """
    row, D = _bernoulli_row(r + 1)
    x2 = x * x
    total = 0
    for m in range(r // 2 + 1):
        total = total * x2 + row[2 * m] * a(m)
    return Fraction(total, D * (r + 1) * x2 ** (r // 2))


def power_sum(n_max: int, r: int) -> int:
    """Sum of n^r for n = 1..n_max via the even-index Bernoulli closed form.

    The r >= 1 form is n^r/2 + (1/(r+1)) sum_m C(r+1, 2m) B_{2m} n^{r+1-2m};
    r = 0 is the plain count.  The total must be integral.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return n_max
    total = Fraction(n_max**r, 2) + bernoulli_tail(r, lambda m: n_max ** (r + 1 - 2 * m))
    if total.denominator != 1:
        raise InternalConsistencyError(f"power_sum({n_max}, {r}) not integral: {total}")
    return total.numerator


def coprime_power_sum(n: int, r: int) -> int:
    """Sum of j^r over 1 <= j <= n with gcd(j, n) = 1.

    Uses the closed form
        (n^{r+1}/(r+1)) sum_m C(r+1, 2m) (B_{2m}/n^{2m}) prod_{p|n} (1 - p^{2m-1})
    for n > 1, read in integers through prod_p (1 - p^{2m-1}) =
    prod_p (p - p^{2m}) / rad(n); n = 1 is the single term j = 1.
    Integrality of the result is an internal invariant, violated only by a bug.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if n == 1:
        return 1
    primes = factorize(n).primes()
    tail = bernoulli_tail(r, lambda m: prod(p - p ** (2 * m) for p in primes), n)
    total = n ** (r + 1) // prod(primes) * tail
    if total.denominator != 1:
        raise InternalConsistencyError(f"coprime_power_sum({n}, {r}) not integral: {total}")
    return total.numerator
