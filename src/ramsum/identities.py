"""Identity checkers: weighted averages of generalized Ramanujan sums.

Each checker computes one left-hand side by literal summation over j, using
the csum tables, and one right-hand side from the matching closed form, so
the two sides never share a derivation.  Exact checkers compare canonical
Fraction or LogLinear values; the exponential weight's roots of unity are
summed exactly too, by the group-ring kernel of csum's direct route.  Only
the log-Gamma and cosine weights are floats, judged by a tolerance or a
derived rounding bound.
The suite runner sweeps parameter grids, optionally in parallel, and renders
byte-deterministic reports.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product
from json.encoder import encode_basestring_ascii
from operator import itemgetter, mul

from .arith import divisors, euler_phi, factorize, jordan_totient, moebius_divisors, tau_sigma, von_mangoldt
from .csum import _digit_budget, _moment_state, _period, _root_value, csum_moebius, csum_table, theta
from .errors import InternalConsistencyError, ResourceLimitError
from .exactnum import (
    _bernoulli_budget,
    _bernoulli_row,
    _row_budget,
    bernoulli_number,
    bernoulli_tail,
    binomial,
    coprime_power_sum,
    power_sum,
)
from .logspace import TWO_PI, LogLinear, float_value, legendre_exponents, mu_log_lemma_sides

DEFAULT_SWEEP_CAP = 100_000
# the most points one verify run builds, about 30 MB of them: verify all
# takes 25377 at --k-max 240 and 68941 at --k-max 1000
_GRID_POINT_LIMIT = 100_000
# hard ceilings, read by the grids too: the multisection kernel's n,
# gauss-product's N and the count of multivariate's moduli
_MULTISECTION_N_MAX = 256
_GAUSS_N_MAX = 500
_MODULI_MAX = 4
DEFAULT_FLOAT_TOL = 1e-8
GAUSS_TOL = 1e-9
# the unit roundoff of a float, and gamma_3 = 3u/(1 - 3u) for three roundings
_U = 2.0**-53
_G3 = 3 * _U / (1 - 3 * _U)


@dataclass(frozen=True)
class WeightFunctionSpec:
    """Arithmetic weight f fed the s-power gcd value: power(t) is x^t,
    jordan(t) is J_t, and phi, tau, sigma take no parameter."""

    kind: str
    t: int | None = None

    @property
    def label(self) -> str:
        if self.kind in ("power", "jordan"):
            return f"{self.kind}({self.t})"
        return self.kind


def weight_value(spec: WeightFunctionSpec, x: int) -> int:
    if x < 1:
        raise ValueError("weights are evaluated at positive integers")
    if spec.kind == "power":
        return x**spec.t
    if spec.kind == "phi":
        return euler_phi(factorize(x))
    if spec.kind == "jordan":
        return jordan_totient(spec.t, factorize(x))
    if spec.kind == "tau":
        return tau_sigma(factorize(x))[0]
    if spec.kind == "sigma":
        return tau_sigma(factorize(x))[1]
    raise ValueError(f"unknown weight kind {spec.kind!r}")


def _decimal_int(text: str) -> int | None:
    """The int text spells as one optional minus and ASCII decimal digits,
    else None: int() alone would also read 1_0, +3 and other scripts' digits."""
    digits = text.removeprefix("-")
    return int(text) if digits.isascii() and digits.isdecimal() else None


def parse_weight(token: str) -> WeightFunctionSpec:
    """Parse CLI weight tokens: power:T, jordan:T, phi, tau, sigma."""
    name, _, arg = token.partition(":")
    if name in ("power", "jordan"):
        t = _decimal_int(arg)
        if t is None:
            raise ValueError(f"weight {name!r} needs an integer parameter, got {token!r}")
        if t < 0:
            raise ValueError(f"weight parameter must be nonnegative in {token!r}")
        return WeightFunctionSpec(name, t=t)
    if name in ("phi", "tau", "sigma") and not arg:
        return WeightFunctionSpec(name)
    raise ValueError(f"unknown weight token {token!r}")


@dataclass
class CheckResult:
    """Outcome of one identity check at one parameter point."""

    identity: str
    params: dict
    lhs: object
    rhs: object
    residual: float
    mode: str
    passed: bool
    classification: str


def _exact(identity: str, params: dict, lhs, rhs, certified: bool = True) -> CheckResult:
    """The result of an exact check whose sides are ints or Fractions, which
    passes when they are equal and lhs is certified; the residual is only
    computed when they differ, inf when too large for a float."""
    passed = certified and lhs == rhs
    try:
        residual = 0.0 if passed else abs(float(lhs - rhs))
    except OverflowError:
        residual = math.inf
    return _result(identity, params, lhs, rhs, residual, "exact", passed)


def _result(
    identity: str, params: dict, lhs, rhs, residual: float, mode: str, passed: bool, finding: bool = False
) -> CheckResult:
    if passed:
        classification = "verified" if mode == "exact" else "numerical-pass"
    else:
        classification = "finding-mismatch" if finding else "mismatch"
    return CheckResult(identity, params, lhs, rhs, float(residual), mode, bool(passed), classification)


# ---------------------------------------------------------------- weighted averages


def _power_weight_lhs(tables, K: int, r: int) -> Fraction:
    """(1/K^(r+1)) sum_{1<=j<=K} j^r P(j) for the product period P of the
    tables: the moment M_r over 0 <= j < K, with j = K read as P(0)."""
    P0 = math.prod(int(t.array[0]) for t in tables)
    return Fraction(_moment_state(*tables).upto(r)[r] + K**r * P0, K ** (r + 1))


def _alkan_sides(k: int, s: int, r: int, cap: int, what: str) -> tuple:
    """Both sides of the power-weight identity with K = k^s: the literal
    (1/K^(r+1)) sum_{j<=K} j^r c_k^(s)(j) and the J_s closed form."""
    if r < 1:
        raise ValueError("r must be positive")
    K = _period(k, s, cap, what)
    lhs = _power_weight_lhs((csum_table(k, s, cap),), K, r)
    fac = factorize(k)
    tail = bernoulli_tail(r, lambda m: jordan_totient(2 * m * s, fac), K)
    return lhs, Fraction(jordan_totient(s, fac), 2 * K) + tail


def check_alkan_classical(k: int, r: int, cap: int = DEFAULT_SWEEP_CAP) -> CheckResult:
    """(1/k^(r+1)) sum_{j<=k} j^r c_k(j) against the totient-Bernoulli form."""
    lhs, rhs = _alkan_sides(k, 1, r, cap, "the classical power-weight sum")
    return _exact("alkan-classical", {"k": k, "r": r}, lhs, rhs)


def check_alkan_generalized(k: int, s: int, r: int, cap: int = DEFAULT_SWEEP_CAP) -> CheckResult:
    """(1/k^(s(r+1))) sum_{j<=k^s} j^r c_k^(s)(j) against the J_s closed form;
    s = 1 is the classical identity."""
    lhs, rhs = _alkan_sides(k, s, r, cap, "the generalized power-weight sum")
    return _exact("alkan", {"k": k, "r": r, "s": s}, lhs, rhs)


def check_log_weight(k: int, s: int) -> CheckResult:
    """(1/k) sum_{j<=k} log(j) c_k^(s)(j) against s*Lambda(k) plus the
    mu-weighted log-factorial divisor sum, both as exact log vectors.

    At s = 1 the two sides agree identically.  For s >= 2 the closed form's
    counting step assumes d^s | k for every divisor d, which fails at least
    at d = k.  A mismatch is a finding when it equals the defect that this
    predicts, lhs - rhs = -(s/k) sum_{d|k} mu(k/d) (k mod d^s) log d, a third
    derivation, read from the residues k mod d^s rather than from either
    side's sums; any other mismatch hard-fails.
    """
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive")
    # both sides are integer numerators over the common denominator k
    lhs_num: dict[int, int] = {}
    for j in range(2, k + 1):
        c = csum_moebius(k, j, s)
        if not c:
            continue
        for p, e in factorize(j).factors:
            lhs_num[p] = lhs_num.get(p, 0) + c * e
    fac = factorize(k)
    rhs_num = {p: s * k * c.numerator for p, c in von_mangoldt(fac).coefficients().items()}
    for d, mu in moebius_divisors(fac):
        # once 2^s > k every d >= 2 has k // d^s = 0, so d^s is never built there
        if d > 1 and s >= k.bit_length():
            continue
        ds = d**s
        for p, e in legendre_exponents(k // ds).items():
            rhs_num[p] = rhs_num.get(p, 0) + mu * ds * e
    lhs = LogLinear._raw({p: Fraction(v, k) for p, v in lhs_num.items() if v})
    rhs = LogLinear._raw({p: Fraction(v, k) for p, v in rhs_num.items() if v})
    diff = {p: v for p in lhs_num.keys() | rhs_num.keys() if (v := lhs_num.get(p, 0) - rhs_num.get(p, 0))}
    # float_value(lhs - rhs) bit for bit: v / k rounds the rational each coefficient is
    residual = abs(math.fsum(v / k * math.log(p) for p, v in diff.items()))
    finding = False
    if diff:
        # the defect's numerators over k; k mod d^s is k once d^s > k, which
        # the bit lengths show before any d^s is built
        defect: dict[int, int] = {}
        for d, mu in moebius_divisors(fac):
            rem = k if (d.bit_length() - 1) * s >= k.bit_length() else k % d**s
            for p, e in factorize(d).factors:
                defect[p] = defect.get(p, 0) - s * mu * rem * e
        finding = diff == {p: v for p, v in defect.items() if v}
    return _result("log-weight", {"k": k, "s": s}, lhs, rhs, residual, "exact", not diff, finding=finding)


def check_gcd_weight(k: int, s: int, f: WeightFunctionSpec, cap: int = DEFAULT_SWEEP_CAP) -> CheckResult:
    """sum_{j<=k^s} f(gengcd^s) c_k^(s)(j) against J_s(k) [(f o N^s) * (mu o N^s)](k)."""
    _period(k, s, cap, "the gcd-weight sum")
    if f.t is not None:
        # the weight is read at gcd values x <= k^s, and J_t(x) <= x^t
        _digit_budget(k**s, f.t, f"the weight {f.label} at k^s = {k}^{s}")
    vals = csum_table(k, s, cap).array
    fac = factorize(k)
    # S[d] sums the table along the stride d^s; the j of gen_gcd g sum to sum_{e | k/g} mu(e) S[g e],
    # and moebius_divisors of k/g lists the pairs (k/(g e), mu(e))
    S = {d: int(vals[:: d**s].sum()) for d in divisors(fac)}
    lhs = sum(weight_value(f, g**s) * sum(m * S[k // d] for d, m in moebius_divisors(factorize(k // g))) for g in S)
    rhs = jordan_totient(s, fac) * sum(weight_value(f, d**s) * mu for d, mu in moebius_divisors(fac))
    return _exact("gcd-weight", {"k": k, "s": s, "weight": f.label}, lhs, rhs)


def check_gamma_weight(k: int, s: int, cap: int = DEFAULT_SWEEP_CAP, tol: float | None = None) -> CheckResult:
    """(1/J_s(k)) sum_{j<=k^s} logGamma(j/k^s) c_k^(s)(j) against the prime form.

    The right side is built twice, once as an exact log vector and once in
    plain floating point; the two renderings must agree to 1e-12 before the
    comparison proceeds.
    """
    if k < 2:
        raise ValueError("k must be at least 2, the k = 1 case degenerates")
    K = _period(k, s, cap, "the log-Gamma sum")
    tol = DEFAULT_FLOAT_TOL if tol is None else tol
    import numpy as np

    # the literal sum in one pass over the nonzero j < K; fsum is exact, so
    # the order the terms come in does not change its value
    table = csum_table(k, s, cap).array
    j = np.flatnonzero(table[1:]) + 1
    terms = map(mul, map(math.lgamma, (j / K).tolist()), table[j].tolist())
    fac = factorize(k)
    lhs = math.fsum(terms) / jordan_totient(s, fac)
    coeffs: dict = {p: Fraction(s, 2 * (p**s - 1)) for p in fac.primes()}
    coeffs[TWO_PI] = Fraction(-1, 2)
    rhs = float_value(LogLinear(coeffs))
    direct = math.fsum(0.5 * s * math.log(p) / (p**s - 1) for p in fac.primes()) - 0.5 * math.log(math.tau)
    if abs(rhs - direct) > 1e-12 * max(1.0, abs(rhs)):
        raise InternalConsistencyError(f"two renderings of the Gamma closed form disagree at k={k}, s={s}")
    residual = abs(lhs - rhs)
    return _result("gamma-weight", {"k": k, "s": s}, lhs, rhs, residual, "float", residual <= tol * max(1.0, abs(rhs)))


def check_gauss_product(N: int, tol: float | None = None) -> CheckResult:
    """sum_{j<=N} logGamma(j/N) against ((N-1)/2) log(2 pi) - (1/2) log N."""
    if not 1 <= N <= _GAUSS_N_MAX:
        raise ValueError(f"N must be in [1, {_GAUSS_N_MAX}]")
    tol = GAUSS_TOL if tol is None else tol
    lhs = math.fsum(math.lgamma(j / N) for j in range(1, N + 1))
    rhs = (N - 1) / 2 * math.log(math.tau) - 0.5 * math.log(N)
    residual = abs(lhs - rhs)
    return _result("gauss-product", {"N": N}, lhs, rhs, residual, "float", residual <= tol * N)


def check_bernoulli_weight(k: int, s: int, m: int, cap: int = DEFAULT_SWEEP_CAP) -> CheckResult:
    """(1/k^s) sum_{j<k^s} B_m(j/k^s) c_k^(s)(j) against (B_m/k^(sm)) J_(sm)(k).

    With D B_m(x) = sum_i a_i x^(m-i) in integers a_i, the left side is
    sum_i a_i K^i M_(m-i) / (D K^(m+1)) over the period's literal moments
    M_t = sum_j j^t c_k^(s)(j), its numerator one Horner pass in K.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    K = _period(k, s, cap, "the Bernoulli-weight sum")
    moments = _moment_state(csum_table(k, s, cap)).upto(m)
    a, D = _bernoulli_row(m)
    total = 0
    for a_i, M in zip(reversed(a), moments):
        total = total * K + a_i * M
    lhs = Fraction(total, D * K ** (m + 1))
    fac = factorize(k)
    rhs = bernoulli_number(m) * Fraction(jordan_totient(s * m, fac), k ** (s * m))
    return _exact("bernoulli-weight", {"k": k, "m": m, "s": s}, lhs, rhs)


def _multisection(n: int, r: int) -> tuple:
    """Series multisection, sum_m C(n, mr) = (2^n/r) sum_{l=1..r} t_l with
    t_l = cos^n(pi l/r) cos(pi a_l/r), a_l = n l mod 2r reduced before pi is
    touched.  Returns the exact sum, the float t_l and a bound on
    sum_l |t_l - T_l|, T_l the true terms, added up term by term in the loop
    that makes them.

    Proof, with u = 2^-53, assuming math.cos and float ** int are within
    1 ulp (2u relative).  In one factor, y = pi a/r is the true angle (a = l
    in the first), x = (math.pi * a) / r the computed one, C = cos(y) and
    c = |computed cos(x)|:
    - x carries three roundings, so |x - y| <= g3 y with g3 = 3u/(1 - 3u),
      and g3 y <= h = g3 x (1 + g3).
    - By the mean value theorem |cos x - cos y| <= h (|sin y| + h), and
      |sin y| <= min(z, pi - z), z = min(y, 2pi - y), which x gives to
      within O(u).  Rounding cos adds 2u |cos x|.  So |C - computed cos(x)|
      <= eps, the sum of both.
    - The first factor's n-th powers then differ by at most
      E = n eps (c + eps)^(n-1) + 2u c^n, the rounding of the power included
      (if the signs differ, |C| + c <= eps).
    - Where r | n l, a is 0 or r and the second factor is 1 or -1, written
      so exactly (math.cos gives the same at a float within ulps of pi) and
      adding nothing.  Any other, with c2 and eps2 its c and eps, moves the
      term by at most E (c2 + eps2) + c^n eps2; the product adds u c^n c2.
    What this drops (the factors 1 + g3 and 1 + 2u, the O(u) in the min
    times h) is below a relative 1e-12 of the bound for n <= 256.  The
    bound's own sum, of m terms added in order here and over binomial-weight's
    divisors, is within a relative m u of its true value (m <= 576, so below
    7e-14).  The callers' factor 1.01 covers both.
    """

    def eps(x: float, c: float) -> float:
        h = _G3 * x
        z = min(x, math.tau - x)
        return h * (min(z, math.pi - z) + h) + 2 * _U * c

    exact = sum(binomial(n, m * r) for m in range(n // r + 1))
    terms, error = [], 0.0
    for l in range(1, r + 1):
        x = math.pi * l / r
        cos = math.cos(x)
        power = cos**n
        c, p = abs(cos), abs(power)
        e = eps(x, c)
        err = 2 * _U * p + n * e * (c + e) ** (n - 1)
        a = (n * l) % (2 * r)
        c2 = -1.0 if a else 1.0
        if a % r:
            y = math.pi * a / r
            c2 = math.cos(y)
            e2 = eps(y, abs(c2))
            err = err * (abs(c2) + e2) + p * (e2 + _U * abs(c2))
        terms.append(power * c2)
        error += err
    return exact, terms, error


def check_binomial_weight(k: int, s: int, tol: float | None = None) -> CheckResult:
    """sum_{j=0..K} C(K, j) c_k^(s)(j), K = k^s, against its series multisection
    sum_{d|k} mu(k/d) d^s sum_i C(K, i d^s), one _multisection(K, d^s) per d.

    The float side R = 2^K O, O the fsum of the mu(k/d) I_d and I_d that of
    the terms of d (their second factors all 1 or -1), passes when |R - lhs|
    <= 2^K (E + u sum_d |I_d| + u |O|) + u |lhs| (with --tol, when its
    relative error is within tol), E the sum of the divisors' _multisection
    error bounds and u = 2^-53: each correctly rounded fsum adds u times its
    sum, mu(k/d) and 2^K are exact and float(lhs) adds u |lhs|.
    """
    K = _period(k, s, _MULTISECTION_N_MAX, "the binomial-weight sum, whose binomials grow as 2^(k^s)")
    vals = csum_table(k, s, _MULTISECTION_N_MAX).array.tolist()
    lhs = sum(binomial(K, j) * vals[j % K] for j in range(K + 1))
    rhs, outer, error = 0, [], 0.0
    for d, mu in moebius_divisors(factorize(k)):
        exact, terms, err = _multisection(K, d**s)
        rhs += mu * d**s * exact
        outer.append(mu * math.fsum(terms))
        error += err
    total = math.fsum(outer)
    lhs_float = float(lhs)
    diff = abs(2.0**K * total - lhs_float)
    rel = diff / max(1.0, abs(lhs_float))
    residual = max(rel, float(abs(lhs - rhs)))
    if tol is None:
        # |mu(k/d)| = 1, so the outer terms' sizes are the inner sums' |I_d|
        bound = 2.0**K * (error + _U * (math.fsum(map(abs, outer)) + abs(total)))
        float_ok = diff <= 1.01 * (bound + _U * abs(lhs_float))
    else:
        float_ok = rel <= tol
    return _result("binomial-weight", {"k": k, "s": s}, lhs, rhs, residual, "exact", lhs == rhs and float_ok)


def check_multisection(n: int, r: int, tol: float | None = None) -> CheckResult:
    """sum_m C(n, mr) against (2^n/r) sum_l cos^n(l pi/r) cos(n l pi/r), both
    from one _multisection(n, r).

    The float side passes when |rhs - lhs| <= 2^n/r (E + u |S|) + u (2 |rhs|
    + |lhs|) (with --tol, when its relative error is within tol), E being the
    terms' error bound, S their correctly rounded fsum and u = 2^-53: the
    fsum adds u |S|, 2^n/r and its product with S round once each, and
    float(lhs) adds u |lhs|.  The scaled terms reach 2^n/r and cancel down to
    lhs, so where that bound is not below lhs/2 the float side cannot decide
    the point, and it is refused with ResourceLimitError.
    """
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    if n > _MULTISECTION_N_MAX:
        raise ResourceLimitError(f"n = {n} exceeds {_MULTISECTION_N_MAX} for the multisection check")
    lhs, terms, error = _multisection(n, r)
    S = math.fsum(terms)
    rhs = 2.0**n / r * S
    diff = abs(rhs - float(lhs))
    residual = diff / max(1.0, float(lhs))
    if tol is None:
        bound = 2.0**n / r * (error + _U * abs(S)) + _U * (2 * abs(rhs) + lhs)
        if 2 * bound >= lhs:
            raise ResourceLimitError(f"the float side of multisection cannot decide (n, r) = ({n}, {r})")
        float_ok = diff <= 1.01 * bound
    else:
        float_ok = residual <= tol
    return _result("multisection", {"n": n, "r": r}, lhs, rhs, residual, "float", float_ok)


def check_exp_weight(k: int, s: int, n: int, cap: int = DEFAULT_SWEEP_CAP) -> CheckResult:
    """(1/k^s) sum_j e(jn/k^s) c_k^(s)(j) against the indicator theta_k^(s)(n),
    exactly: with g = gcd(n, k^s) and n = g u, the sum is the conjugate under
    zeta -> zeta^u of the table folded mod k^s/g at a primitive root zeta, and
    an integer is its own conjugate.  A sum that is no integer fails the point.
    Each class is summed once per table, by _root_value with |entries| <=
    J_s(k) = table[0], and kept on it, so a table built anew is summed anew."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    K = _period(k, s, cap, "the exponential-weight sum")
    table, g = csum_table(k, s, cap), math.gcd(n, K)
    hit = table._classes.get(g)
    if hit is None:
        hit = table._classes[g] = _root_value(table.array, g, int(table.array[0]))
    v, certified = hit
    return _exact("exp-weight", {"k": k, "n": n, "s": s}, Fraction(v, K), theta(k, n, s), certified)


def g_divisor_sum(ks, s: int, m: int) -> Fraction:
    """g_m^(s)(k_1..k_n): the signed divisor-tuple sum with lcm^((1-2m)s)
    in the denominator.  Reduces to J_(2ms) at n = 1.

    Summed in integers: at m >= 1 each term is num ell^((2m-1)s), and at
    m = 0 each is num (L/ell)^s over L^s, with L = lcm(ks), which every
    tuple's ell divides.
    """
    if not ks or any(k < 1 for k in ks):
        raise ValueError("ks must be positive integers")
    if s < 1 or m < 0:
        raise ValueError("need s >= 1 and m >= 0")
    L = reduce(math.lcm, ks, 1)
    _digit_budget(L, max(2 * m - 1, 1) * s, f"the powers of lcm(ks) in g_{m} at ks={ks}, s={s}")
    per_axis = [[(d, d**s * mu) for d, mu in moebius_divisors(factorize(k))] for k in ks]
    total = 0
    for combo in product(*per_axis):
        num = math.prod(w for _, w in combo)
        ell = reduce(math.lcm, (d for d, _ in combo), 1)
        total += num * ell ** ((2 * m - 1) * s) if m else num * (L // ell) ** s
    return Fraction(total, 1 if m else L**s)


def check_multivariate(ks, s: int, r: int, cap: int = DEFAULT_SWEEP_CAP) -> CheckResult:
    """Multivariate power-weight average against the g_m Bernoulli form.

    The left side is (1/k^(s(r+1))) sum_{j<=k^s} j^r prod_i c_(k_i)^(s)(j)
    with k = lcm(k_i), the unique reading that collapses to the univariate
    identity at n = 1, and is read as that one is, from the moment M_r of
    the period: here the product of the factor tables.  At r = 1 the
    corollary form (first term over 2k^s, E the m = 0 divisor sum) is
    required to match as well.
    """
    ks = list(ks)
    if not 1 <= len(ks) <= _MODULI_MAX:
        raise ValueError(f"between 1 and {_MODULI_MAX} moduli")
    if r < 1:
        raise ValueError("r must be positive")
    k = reduce(math.lcm, ks, 1)
    K = _period(k, s, cap, "the multivariate power-weight sum")
    lhs = _power_weight_lhs([csum_table(ki, s, cap) for ki in ks], K, r)
    prod_j = math.prod(jordan_totient(s, factorize(ki)) for ki in ks)
    rhs = Fraction(prod_j, 2 * K) + bernoulli_tail(r, lambda m: g_divisor_sum(ks, s, m), K)
    corollary = r != 1 or Fraction(prod_j, 2 * K) + g_divisor_sum(ks, s, 0) / 2 == rhs
    return _exact("multivariate", {"ks": ks, "r": r, "s": s}, lhs, rhs, corollary)


def check_g_multiplicative(ks, ks2, s: int, m: int) -> CheckResult:
    """g_m^(s) is multiplicative across componentwise-coprime tuples."""
    ks, ks2 = list(ks), list(ks2)
    if len(ks) != len(ks2):
        raise ValueError("tuples must have equal length")
    if math.gcd(math.prod(ks), math.prod(ks2)) != 1:
        raise ValueError("tuples must be coprime")
    lhs = g_divisor_sum([a * b for a, b in zip(ks, ks2)], s, m)
    rhs = g_divisor_sum(ks, s, m) * g_divisor_sum(ks2, s, m)
    return _exact("g-multiplicative", {"ks": ks, "ks2": ks2, "m": m, "s": s}, lhs, rhs)


def check_power_sum(N: int, r: int) -> CheckResult:
    """Bernoulli closed form of sum j^r against direct summation."""
    if N < 1 or r < 0:
        raise ValueError("need N >= 1 and r >= 0")
    lhs = power_sum(N, r)
    rhs = sum(j**r for j in range(1, N + 1))
    return _exact("power-sum", {"N": N, "r": r}, lhs, rhs)


def check_coprime_power_sum(n: int, r: int) -> CheckResult:
    """Coprime power-sum closed form against direct gcd-filtered summation."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    lhs = coprime_power_sum(n, r)
    rhs = sum(j**r for j in range(1, n + 1) if math.gcd(j, n) == 1)
    return _exact("coprime-power-sum", {"n": n, "r": r}, lhs, rhs)


def check_mu_log_lemma(k: int, s: int) -> CheckResult:
    """Both sides of the mu(d) log(d)/d^s lemma as exact log vectors."""
    lhs, rhs = mu_log_lemma_sides(k, s)
    passed = lhs == rhs
    residual = 0.0 if passed else abs(float_value(lhs - rhs))
    return _result("mu-log-lemma", {"k": k, "s": s}, lhs, rhs, residual, "exact", passed)


# ---------------------------------------------------------------- suite runner

DEFAULT_WEIGHTS = ("power:s", "phi", "jordan:2", "tau", "sigma")
DEFAULT_TUPLES = tuple(combinations_with_replacement(range(1, 9), 2)) + tuple(
    combinations_with_replacement(range(1, 6), 3)
)
# the largest k of each k-indexed grid when --k-max is not given; for
# multivariate it bounds lcm(ks) over the default tuples
DEFAULT_K_MAX = {
    "alkan": 20,
    "alkan-classical": 30,
    "log-weight": 50,
    "gcd-weight": 25,
    "gamma-weight": 30,
    "bernoulli-weight": 12,
    "binomial-weight": 64,
    "exp-weight": 12,
    "mu-log-lemma": 100,
    "multivariate": max(reduce(math.lcm, ks) for ks in DEFAULT_TUPLES),
}


@dataclass
class SuiteConfig:
    """Parameter grid and execution options for one verification run."""

    identities: tuple = ("all",)
    k_min: int = 1
    k_max: int | None = None
    s: int | None = None
    s_max: int | None = None
    r_max: int | None = None
    m_max: int | None = None
    n_max: int | None = None
    ks: tuple | None = None
    weights: tuple | None = None
    tuples: int = 20
    seed: int = 91
    cap: int = DEFAULT_SWEEP_CAP
    tolerance: float | None = None
    jobs: int = 1


@dataclass
class IdentityReport:
    suite: dict
    results: list
    passed: int
    failed: int
    findings: int


def _svals(cfg: SuiteConfig, default: int) -> range:
    if cfg.s is not None:
        return range(cfg.s, cfg.s + 1)
    return range(1, (cfg.s_max if cfg.s_max is not None else default) + 1)


def _kvals(cfg: SuiteConfig, identity: str, lo: int = 1, cap: int | None = None) -> range:
    """The k of a grid, ending at cap when one is given: past it k^s > cap at every s."""
    hi = cfg.k_max if cfg.k_max is not None else DEFAULT_K_MAX[identity]
    return range(max(lo, cfg.k_min), (hi if cap is None else min(hi, cap)) + 1)


def _rvals(cfg: SuiteConfig, default: int, bernoulli: bool = True) -> range:
    """r = 1..r_max.  When the points read B_2m, 2m <= r, from Bernoulli row
    r + 1, r_max is refused as eval bernoulli refuses B_(r_max), and as
    _row_budget refuses row r_max + 1."""
    r_max = cfg.r_max if cfg.r_max is not None else default
    if bernoulli:
        _bernoulli_budget(r_max)
        _row_budget(r_max + 1)
    return range(1, r_max + 1)


def _nmax(cfg: SuiteConfig, default: int, ceiling: int | None = None, identity: str = "") -> int:
    """--n-max or the default, refused past the identity's ceiling, not cut down to it."""
    n_max = cfg.n_max if cfg.n_max is not None else default
    if ceiling is not None and n_max > ceiling:
        raise ResourceLimitError(f"--n-max {n_max} exceeds {ceiling}, the ceiling of the {identity} check")
    return n_max


def _mmax(cfg: SuiteConfig, default: int) -> int:
    return cfg.m_max if cfg.m_max is not None else default


def _capped_s(cfg: SuiteConfig, k: int, s_default: int, cap: int):
    """(s, k^s) for the s values of the grid with k^s <= cap."""
    for s in _svals(cfg, s_default):
        try:
            K = _period(k, s, cap, "a sweep grid")
        except ResourceLimitError:
            break  # s ascends and k^s with it
        yield s, K


def _capped_ks(cfg: SuiteConfig, identity: str, s_default: int = 2, lo: int = 1, cap: int | None = None):
    """(k, s, k^s) with k outer and s inner, keeping the points with k^s <= cap."""
    cap = cfg.cap if cap is None else cap
    for k in _kvals(cfg, identity, lo, cap):
        for s, K in _capped_s(cfg, k, s_default, cap):
            yield k, s, K


def _grid_alkan_classical(cfg):
    return ({"k": k, "r": r} for k in _kvals(cfg, "alkan-classical", cap=cfg.cap) for r in _rvals(cfg, 4))


def _grid_alkan(cfg):
    return ({"k": k, "r": r, "s": s} for k, s, _ in _capped_ks(cfg, "alkan") for r in _rvals(cfg, 4))


def _grid_log_weight(cfg):
    return ({"k": k, "s": s} for k in _kvals(cfg, "log-weight") for s in _svals(cfg, 2))


def _grid_gcd_weight(cfg):
    weights = cfg.weights if cfg.weights is not None else DEFAULT_WEIGHTS
    for k, s, _ in _capped_ks(cfg, "gcd-weight"):
        for token in weights:
            resolved = token.replace(":s", f":{s}") if token.endswith(":s") else token
            parse_weight(resolved)
            yield {"k": k, "s": s, "weight": resolved}


def _grid_gamma_weight(cfg):
    return ({"k": k, "s": s} for k, s, _ in _capped_ks(cfg, "gamma-weight", lo=2))


def _grid_gauss_product(cfg):
    return ({"N": n} for n in range(1, _nmax(cfg, 100, _GAUSS_N_MAX, "gauss-product") + 1))


def _grid_bernoulli_weight(cfg):
    m_max = _mmax(cfg, 6)
    # refuse before any point runs a B_m that eval bernoulli would refuse,
    # or a Bernoulli row past its work limit
    _bernoulli_budget(m_max)
    _row_budget(m_max)
    return ({"k": k, "m": m, "s": s} for k, s, _ in _capped_ks(cfg, "bernoulli-weight") for m in range(m_max + 1))


def _grid_binomial_weight(cfg):
    cap = min(_MULTISECTION_N_MAX, cfg.cap)
    return ({"k": k, "s": s} for k, s, _ in _capped_ks(cfg, "binomial-weight", s_default=6, cap=cap))


def _grid_multisection(cfg):
    nmax = _nmax(cfg, 40, _MULTISECTION_N_MAX, "multisection")
    rmax = cfg.r_max if cfg.r_max is not None else 8
    return ({"n": n, "r": r} for n in range(1, nmax + 1) for r in range(1, min(n, rmax) + 1))


def _grid_exp_weight(cfg):
    return (
        {"k": k, "n": n, "s": s} for k, s, K in _capped_ks(cfg, "exp-weight") for n in range(min(K, _nmax(cfg, 25)) + 1)
    )


def _grid_mu_log_lemma(cfg):
    return ({"k": k, "s": s} for k in _kvals(cfg, "mu-log-lemma") for s in _svals(cfg, 4))


def _grid_multivariate(cfg):
    # --k-min and --k-max bound lcm(ks) of the default tuples; explicit ks run as given
    kvals = _kvals(cfg, "multivariate")
    tuples = cfg.ks if cfg.ks is not None else [ks for ks in DEFAULT_TUPLES if reduce(math.lcm, ks) in kvals]
    for ks in tuples:
        if not 1 <= len(ks) <= _MODULI_MAX:
            raise ValueError(f"moduli group {tuple(ks)} has {len(ks)} moduli, not between 1 and {_MODULI_MAX}")
        k = reduce(math.lcm, ks, 1)
        for s, _ in _capped_s(cfg, k, 2, cfg.cap):
            for r in _rvals(cfg, 3):
                yield {"ks": list(ks), "r": r, "s": s}


def _grid_g_multiplicative(cfg):
    rng = random.Random(cfg.seed)
    svals = _svals(cfg, 2)
    for _ in range(cfg.tuples):
        n = rng.randint(1, 3)
        a = [rng.randint(1, 10) for _ in range(n)]
        prod_a = math.prod(a)
        pool = [v for v in range(1, 13) if math.gcd(v, prod_a) == 1]
        b = [rng.choice(pool) for _ in range(n)]
        # randint draws what choice(svals) draws, with no len() past sys.maxsize
        yield {"ks": a, "ks2": b, "m": rng.randint(0, _mmax(cfg, 2)), "s": rng.randint(svals[0], svals[-1])}


def _grid_power_sum(cfg):
    return ({"N": n, "r": r} for n in range(1, _nmax(cfg, 200) + 1) for r in _rvals(cfg, 6))


def _grid_coprime_power_sum(cfg):
    nmax = _nmax(cfg, 100)
    # n = 1 is the single term 1 and reads no Bernoulli number
    return ({"n": n, "r": r} for n in range(1, nmax + 1) for r in _rvals(cfg, 4, bernoulli=nmax >= 2))


# The identity registry, in "all" order: id -> (grid builder, check).  A grid
# builder maps a SuiteConfig to parameter dicts whose keys are the check's
# parameter names; a check maps (params, cap, tol) to a CheckResult and names
# its check_* function, looked up at call time.
_REGISTRY = {
    "alkan": (_grid_alkan, lambda p, cap, tol: check_alkan_generalized(**p, cap=cap)),
    "alkan-classical": (_grid_alkan_classical, lambda p, cap, tol: check_alkan_classical(**p, cap=cap)),
    "log-weight": (_grid_log_weight, lambda p, cap, tol: check_log_weight(**p)),
    "gcd-weight": (
        _grid_gcd_weight,
        lambda p, cap, tol: check_gcd_weight(p["k"], p["s"], parse_weight(p["weight"]), cap=cap),
    ),
    "gamma-weight": (_grid_gamma_weight, lambda p, cap, tol: check_gamma_weight(**p, cap=cap, tol=tol)),
    "gauss-product": (_grid_gauss_product, lambda p, cap, tol: check_gauss_product(**p, tol=tol)),
    "bernoulli-weight": (_grid_bernoulli_weight, lambda p, cap, tol: check_bernoulli_weight(**p, cap=cap)),
    "binomial-weight": (_grid_binomial_weight, lambda p, cap, tol: check_binomial_weight(**p, tol=tol)),
    "multisection": (_grid_multisection, lambda p, cap, tol: check_multisection(**p, tol=tol)),
    "exp-weight": (_grid_exp_weight, lambda p, cap, tol: check_exp_weight(**p, cap=cap)),
    "mu-log-lemma": (_grid_mu_log_lemma, lambda p, cap, tol: check_mu_log_lemma(**p)),
    "multivariate": (_grid_multivariate, lambda p, cap, tol: check_multivariate(**p, cap=cap)),
    "g-multiplicative": (_grid_g_multiplicative, lambda p, cap, tol: check_g_multiplicative(**p)),
    "power-sum": (_grid_power_sum, lambda p, cap, tol: check_power_sum(**p)),
    "coprime-power-sum": (_grid_coprime_power_sum, lambda p, cap, tol: check_coprime_power_sum(**p)),
}

ALL_IDENTITIES = tuple(_REGISTRY)
# the check column alone; perfbench's tracer reads it to attribute check spans
_DISPATCH = {name: check for name, (_, check) in _REGISTRY.items()}


def resolve_identities(names) -> list[str]:
    out = []
    for name in names:
        if name == "all":
            out.extend(ALL_IDENTITIES)
        elif name in _REGISTRY:
            out.append(name)
        else:
            raise ValueError(f"unknown identity id {name!r}")
    seen = set()
    return [n for n in out if not (n in seen or seen.add(n))]


def build_grid(cfg: SuiteConfig) -> list:
    """Expand the config into (identity, params, cap, tol) work items.

    Points whose k^s would exceed the sweep cap are left out of default
    grids; explicitly requested single points past the cap raise instead.
    The grids yield their points, and a run of more than _GRID_POINT_LIMIT
    is refused once its points pass that count, before any of them runs.
    So is a selected identity whose grid yields no point, under a cap or a
    k range that drops them all: it would otherwise pass with nothing checked.
    """
    points = []
    for identity in resolve_identities(cfg.identities):
        grid, _ = _REGISTRY[identity]
        start = len(points)
        for params in grid(cfg):
            if len(points) == _GRID_POINT_LIMIT:
                raise ResourceLimitError(f"the grid passes {_GRID_POINT_LIMIT} points, the limit of one verify run")
            points.append((identity, params, cfg.cap, cfg.tolerance))
        if len(points) == start:
            raise ValueError(f"no points to check in the {identity} grid under these flags")
    return points


def _run_point(point) -> CheckResult:
    identity, params, cap, tol = point
    return _DISPATCH[identity](params, cap, tol)


def is_finding(result: CheckResult) -> bool:
    """Non-fatal expected mismatch, as its check classified it."""
    return result.classification == "finding-mismatch"


def run_suite(cfg: SuiteConfig) -> IdentityReport:
    """Run every grid point and aggregate a canonical, order-independent report."""
    points = build_grid(cfg)
    # a worker past the CPUs this process may run on only waits for one, and
    # the pool forks every worker at the first submit, so --jobs is a ceiling
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cfg.jobs, len(points), cpus)
    if workers > 1:
        # imported here: concurrent.futures costs every other run about 25 ms
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(points) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, points, chunksize=chunk))
    else:
        results = [_run_point(pt) for pt in points]
    results.sort(key=lambda r: r.identity)
    suite = asdict(cfg)
    suite.pop("jobs")
    suite["identities"] = resolve_identities(cfg.identities)
    passed = sum(r.passed for r in results)
    findings = sum(1 for r in results if is_finding(r))
    failed = len(results) - passed - findings
    return IdentityReport(suite, results, passed, failed, findings)


# ---------------------------------------------------------------- rendering

_COLUMNS = ("identity", "params", "lhs", "rhs", "residual", "mode", "pass", "classification")
_HUMAN = (0, 1, 2, 3, 4, 7)  # the human table leaves out mode and pass
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_PARAM_JSON = {int: int.__repr__, str: encode_basestring_ascii}


def _json_value(v) -> str:
    """str(v) as json.dumps writes it: a float bare, any other text quoted."""
    text = str(v)
    if isinstance(v, float):
        return _JSON_FLOATS.get(text, text)
    return encode_basestring_ascii(text)


def _param_texts(params: dict, pad: str | None = None) -> list:
    """(key, value) texts of params as json.dumps writes them, keys sorted;
    a list is laid out by _params_list with pad."""
    return [
        (encode_basestring_ascii(key), write(v) if (write := _PARAM_JSON.get(type(v))) else _params_list(v, pad))
        for key, v in sorted(params.items())
    ]


def _cells(r: CheckResult) -> list:
    """The texts of one result's columns, in _COLUMNS order; params as
    json.dumps(params, sort_keys=True, separators=(",", ":")) writes them."""
    params = "{" + ",".join(f"{key}:{v}" for key, v in _param_texts(r.params)) + "}"
    passed = "true" if r.passed else "false"
    return [r.identity, params, str(r.lhs), str(r.rhs), str(r.residual), r.mode, passed, r.classification]


def _params_list(v, pad: str | None = None) -> str:
    """A params list as json.dumps writes it: compact, as [2,3], or with pad
    as indent=2 lays it out on a line indented by pad.  A params value is an
    int (not a bool), a string or a flat list of those, in every report
    format; anything else raises.  json.dumps with an indent is not called:
    its pure-Python encoder leaves one reference cycle per call for the
    collector, which over the 466 lists of the --k-max 120 report raised that
    run's peak RSS by about 1.1 MB."""
    items = [write(x) for x in v if (write := _PARAM_JSON.get(type(x)))] if type(v) is list else None
    if items is None or len(items) != len(v):
        raise TypeError(f"params hold ints, strings and flat lists of them, not {v!r}")
    if pad is None or not items:
        return "[" + ",".join(items) + "]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _json_row(r: CheckResult) -> str:
    """One result row, its keys sorted, as json.dumps(indent=2) lays it out
    in the results list."""
    params = ",\n".join(f"        {key}: {v}" for key, v in _param_texts(r.params, "        "))
    params = "{\n" + params + "\n      }" if params else "{}"
    return f"""    {{
      "classification": {encode_basestring_ascii(r.classification)},
      "identity": {encode_basestring_ascii(r.identity)},
      "lhs": {_json_value(r.lhs)},
      "mode": {encode_basestring_ascii(r.mode)},
      "params": {params},
      "pass": {'true' if r.passed else 'false'},
      "residual": {_json_value(r.residual)},
      "rhs": {_json_value(r.rhs)}
    }}"""


def render_report(report: IdentityReport, fmt: str = "human") -> str:
    """Serialize a report, each result value as its str in every format;
    bytes depend only on the config and the results."""
    summary = {"pass": report.passed, "fail": report.failed, "findings": report.findings}
    if fmt == "json":
        # the bytes of json.dumps(doc, sort_keys=True, indent=2) over rows that
        # hold each float and the str of any other value, one f-string a row:
        # "results" sorts before "suite" and "summary"
        rows = ",\n".join(map(_json_row, report.results))
        results = f'"results": [\n{rows}\n  ]' if rows else '"results": []'
        tail = json.dumps({"suite": report.suite, "summary": summary}, sort_keys=True, indent=2)
        return "{\n  " + results + ",\n" + tail[2:] + "\n"
    if fmt == "csv":
        import csv as _csv
        import io

        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(map(_cells, report.results))
        return buf.getvalue()
    if fmt == "human":
        pick = itemgetter(*_HUMAN)
        rows = [pick(_COLUMNS), *map(pick, map(_cells, report.results))]
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
        lines.append(f"summary pass={report.passed} fail={report.failed} findings={report.findings}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
