"""Generalized Ramanujan sums c_k^(s)(j) and their direct evaluation.

Three independent routes are provided.  The Moebius route sums d^s mu(k/d)
over divisors d of the generalized gcd; the Hoelder route uses the closed
form J_s(k) mu(k/e) / J_s(k/e); the direct route adds the k^s-th roots of
unity over the s-coprime residues exactly, in the group ring Z[x]/(x^M - 1)
of their mask folded mod M = k^s / gcd(j, k^s).  Each route memoizes only the
gcd class it is asked for and shares no cached value with the others, so
their agreement is an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, NamedTuple

from .arith import factorize, gen_gcd, jordan_totient, moebius, moebius_divisors
from .errors import InternalConsistencyError, ResourceLimitError, _refuse_past_digit_limit

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CAP = 1_000_000


class CsumEvaluation(NamedTuple):
    """One evaluated sum c_k^(s)(j) tagged with the route that produced it;
    immutable, and equal to the plain tuple (k, s, j, value, method)."""

    k: int
    s: int
    j: int
    value: int
    method: str


def _period(k: int, s: int, cap: int, what: str) -> int:
    """k^s after checking k, s >= 1, or ResourceLimitError past cap.

    k^s >= 2^(s*(bitlen(k)-1)), so a period that far past cap is refused
    before it is built, and the message never prints k^s: a huge s costs
    nothing and cannot hit the int-to-str digit limit.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    if s * (k.bit_length() - 1) < cap.bit_length():
        K = k**s
        if K <= cap:
            return K
    raise ResourceLimitError(f"k^s for k={k}, s={s} exceeds cap {cap} for {what}")


def _digit_budget(base: int, s: int, what: str) -> None:
    """ResourceLimitError once base^s would pass sys.get_int_max_str_digits()
    decimal digits, or the fixed ceiling errors.CEILING_DIGITS whatever that
    limit is (a limit of 0 means none).

    Judged from s*(bitlen(base)-1) alone, before base^s is built: base^s is at
    least 2^that, which has more than that times log10(2) digits.
    """
    # 30102/100000 is log10(2) rounded down, so only a sure overrun is refused
    bits = s * (base.bit_length() - 1)
    _refuse_past_digit_limit(f"{what} would pass", lambda limit: bits * 30102 > limit * 100000)


@lru_cache(maxsize=256)
def _moebius_value(k: int, s: int, g: int) -> int:
    """c_k^(s)(j) for gen_gcd(j, k, s) = g: the sum of d^s mu(k/d) over the d | g."""
    return sum(d**s * m for d, m in moebius_divisors(factorize(k)) if g % d == 0)


def csum_moebius(k: int, j: int, s: int = 1) -> int:
    """c_k^(s)(j) via sum of d^s mu(k/d) over d dividing gen_gcd(j, k, s)."""
    return _moebius_value(k, s, gen_gcd(j, k, s))


@lru_cache(maxsize=256)
def _hoelder_value(k: int, s: int, e: int) -> int:
    """c_k^(s)(j) for gen_gcd(j, k, s) = e: J_s(k) mu(k/e) / J_s(k/e), which
    must be an integer."""
    cofactor = factorize(k // e)
    m = moebius(cofactor)
    if m == 0:
        return 0
    _digit_budget(k, s, f"J_s(k) in the Hoelder route at k={k}, s={s}")
    num = jordan_totient(s, factorize(k)) * m
    den = jordan_totient(s, cofactor)
    if num % den != 0:
        raise InternalConsistencyError(f"Hoelder quotient J_{s}({k})*mu/J_{s}({k // e}) not integral")
    return num // den


def csum_hoelder(k: int, j: int, s: int = 1) -> int:
    """c_k^(s)(j) via the closed form J_s(k) mu(k/e) / J_s(k/e)."""
    return _hoelder_value(k, s, gen_gcd(j, k, s))


@lru_cache(maxsize=4)
def _mask(k: int, s: int) -> np.ndarray:
    """The read-only boolean mask over m mod k^s of (m, k^s)_s = 1, index 0
    standing for m = k^s."""
    import numpy as np

    fac = factorize(k)
    mask = np.ones(k**s, dtype=bool)
    for p, _ in fac.factors:
        mask[:: p**s] = False
    if np.count_nonzero(mask) != jordan_totient(s, fac):
        raise InternalConsistencyError(f"s-coprime residue count mismatch for k={k}, s={s}")
    mask.flags.writeable = False
    return mask


def _root_value(period: np.ndarray, g: int, top: int) -> tuple[int, bool]:
    """(v, a(zeta_M) == v) for a = sum_r a_r x^r in Z[x]/(x^M - 1), the period
    folded mod M = period.size / g (a_r the sum of its entries at r, r + M,
    ...), zeta_M = e(1/M) and the one integer candidate v; top bounds the
    period's |entries|, so the fold's by g top.

    Let P = prod_{q | M} (x^(M/q) - 1) and b = a P mod x^M - 1, one slice
    shift and subtract per prime.  Q[x]/(x^M - 1) is the product of the
    fields Q(zeta_d), d | M, by x -> zeta_d.  P vanishes at every zeta_d with
    d < M, since such a d divides some M/q, and not at zeta_M, whose order M
    divides no M/q.  So for an integer v, (a - v) P = 0 exactly when
    a(zeta_M) = v, and b = v P decides it.  The constant term of P is
    (-1)^w, w = omega(M): no nonempty sum of distinct M/q is 0 mod M, since
    the sum of 1/q over a nonempty set of primes is no integer (each q
    divides the numerator of every term over the common denominator but its
    own).  So the one candidate is v = (-1)^w b_0.  The same argument for two
    sets of primes puts the 2^w terms of P at distinct exponents, so b = v P
    when b holds v times P's coefficient at each of them and no other nonzero.
    """
    import numpy as np

    M = period.size // g
    primes = factorize(M).factors
    # |b_r| <= g top 2^w; the smallest type faults in the fewest fresh pages,
    # which dominate a cold call, and past int64 it is the object type
    dtype = np.min_scalar_type(-(g * top << len(primes)) - 1)
    b = period.reshape(g, M).sum(axis=0, dtype=dtype)
    terms = {0: 1}  # P's exponents and coefficients, built with b
    for q, _ in primes:  # times x^t - 1: b_i becomes b_(i-t mod M) - b_i
        t = M // q
        c = np.empty_like(b)
        np.subtract(b[M - t :], b[:t], out=c[:t])
        np.subtract(b[: M - t], b[t:], out=c[t:])
        b = c
        terms = {**{(e + t) % M: f for e, f in terms.items()}, **{e: -f for e, f in terms.items()}}
    v = terms[0] * int(b[0])
    exact = np.count_nonzero(b) == len(terms) * (v != 0) and b[list(terms)].tolist() == [v * f for f in terms.values()]
    return v, exact


@lru_cache(maxsize=1 << 12)
def _root_class(k: int, s: int, g: int) -> int:
    """c_k^(s)(j) for gcd(j, k^s) = g: the sum of e(j m / K) over the
    s-coprime m mod K = k^s, exactly.

    With j = g u, u a unit mod M = K/g, e(j m / K) = e(u m / M).  So the sum
    is the image of a(zeta_M), a the mask folded mod M, under the
    automorphism zeta_M -> zeta_M^u of Q(zeta_M), and that image is a(zeta_M)
    itself once _root_value finds it an integer.
    """
    v, exact = _root_value(_mask(k, s), g, 1)
    if not exact:
        raise InternalConsistencyError(
            f"the sum of roots of unity over the s-coprime residues of k={k}, s={s} in gcd class {g} is not an integer"
        )
    return v


def csum_direct(k: int, j: int, s: int = 1, cap: int = DEFAULT_CAP) -> int:
    """c_k^(s)(j) summed exactly over the unit circle: the roots of unity at
    the s-coprime residues mod k^s, one cached integer per gcd(j, k^s) (see
    _root_class).  Refuses once k^s exceeds cap rather than silently
    truncating the range.
    """
    K = _period(k, s, cap, "direct summation")
    return _root_class(k, s, math.gcd(j, K))


def csum_eval(k: int, j: int, s: int = 1, method: str = "moebius", cap: int = DEFAULT_CAP) -> CsumEvaluation:
    """Evaluate one sum by the named route."""
    if method == "moebius":
        return CsumEvaluation(k, s, j, csum_moebius(k, j, s), method)
    if method == "hoelder":
        return CsumEvaluation(k, s, j, csum_hoelder(k, j, s), method)
    if method == "direct":
        return CsumEvaluation(k, s, j, csum_direct(k, j, s, cap), method)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True, eq=False)
class CsumTable:
    """One period of j -> c_k^(s)(j) for j in range(k^s), as a read-only
    int64 array shared by every caller of csum_table, and exp-weight's
    (v, certified) sum of that period per gcd class, kept as long as it."""

    k: int
    s: int
    array: np.ndarray
    _classes: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def values(self) -> tuple:
        return tuple(self.array.tolist())


@lru_cache(maxsize=8)
def _table(k: int, s: int) -> CsumTable:
    import numpy as np

    arr = np.zeros(k**s, dtype=np.int64)
    for d, m in moebius_divisors(factorize(k)):  # Cohen's term d^s mu(k/d) on the j with d^s | j
        arr[:: d**s] += d**s * m
    arr.flags.writeable = False
    return CsumTable(k, s, arr)


class _MomentState:
    """The moments M_t = sum_{0<=j<K} j^t P(j) of the product period
    P(j) = prod_i c_i(j mod K_i) of one or more tables, K the lcm of their
    lengths K_i (one table is the one-factor case), exact from residues:
    j^t P(j) over the j where every factor is nonzero is kept modulo 2^64
    (uint64 wrap-around) and modulo odd moduli below 2^31, and each M_t is
    lifted to a signed int by the CRT, which needs the moduli pairwise
    coprime, not prime.

    |M_t| <= (K-1)^t n prod_i max|c_i| over the n nonzero entries, so M_t is
    the unique residue of absolute value below half the moduli's product once
    that product has 2 + t*bitlen(K-1) + bitlen(n) + sum_i bitlen(max|c_i|)
    bits; moduli are added as the order grows, each the next odd number below
    the last, from 2^31 - 1, that is coprime to the moduli's product.  A residue
    below 2^31 times another, or times a j < K < 2^33 (a period of fewer than
    64 GiB), fits in uint64, and so does a sum of n such residues.  The
    factor values are gathered from the tables whenever a modulus needs them,
    so a state keeps no row per factor.
    """

    def __init__(self, *tables: CsumTable):
        import numpy as np

        self.tables = tables
        self.K = math.lcm(*(len(t.array) for t in tables))
        nonzero = [np.tile(t.array != 0, self.K // len(t.array)) for t in self.tables]
        self.js = np.flatnonzero(reduce(np.logical_and, nonzero)).view(np.uint64)
        n = len(self.js)
        # the moduli's product needs bits + t * jbits bits at order t
        self.bits = 2 + n.bit_length() + sum(int(np.abs(t.array).max()).bit_length() for t in tables)
        self.jbits = (self.K - 1).bit_length()
        self.wrap = reduce(np.multiply, [c.astype(np.uint64) for c in self._factors()])
        self.residues = np.empty((0, n), dtype=np.uint64)
        self.moduli = [1 << 64]
        self.moments = []
        self._lift_basis()

    def _factors(self) -> list:
        """Each table's values at the kept j, gathered from the table."""
        import numpy as np

        j = self.js.view(np.int64)  # numpy indexes faster with int64
        return [t.array[j if len(t.array) == self.K else j % len(t.array)] for t in self.tables]

    def _lift_basis(self) -> None:
        P = math.prod(self.moduli)
        self.product = P
        self.basis = [P // m * pow(P // m, -1, m) for m in self.moduli]

    def _add_modulus(self) -> None:
        import numpy as np

        m = (min(self.moduli[-1], 1 << 31) - 2) | 1
        while math.gcd(m, self.product) != 1:
            m -= 2
        row = reduce(lambda a, b: a * b % np.uint64(m), [(c % m).astype(np.uint64) for c in self._factors()])
        for _ in self.moments:  # to j^t P(j) at the order t being extended to
            row = row * self.js % np.uint64(m)
        self.residues = np.vstack([self.residues, row])
        self.moduli.append(m)
        self._lift_basis()

    def extend(self) -> None:
        """Append M_t for the next order t."""
        t = len(self.moments)
        if t:
            import numpy as np

            self.wrap *= self.js
            self.residues = self.residues * self.js % np.array(self.moduli[1:], dtype=np.uint64)[:, None]
        while self.product.bit_length() < self.bits + t * self.jbits:
            self._add_modulus()
        sums = [int(self.wrap.sum())] + [int(row.sum()) % p for row, p in zip(self.residues, self.moduli[1:])]
        x = sum(r * e for r, e in zip(sums, self.basis)) % self.product
        self.moments.append(x - self.product if 2 * x > self.product else x)

    def upto(self, n: int) -> list:
        """M_0..M_n, extending the state as far as n needs."""
        while len(self.moments) <= n:
            self.extend()
        return self.moments[: n + 1]


@lru_cache(maxsize=2)
def _moment_state(*tables: CsumTable) -> _MomentState:
    """The moment state of the product of the tables, extended in place by upto."""
    return _MomentState(*tables)


def csum_table(k: int, s: int = 1, cap: int = DEFAULT_CAP) -> CsumTable:
    """Full period of c_k^(s), summed from the Moebius divisors along their strides.

    Index j holds c_k^(s)(j); j = 0 holds the value at gen_gcd = k, which is
    J_s(k) mu(1) = J_s(k).  Tables are cached per (k, s); cap only decides
    whether the period may be built.
    """
    _period(k, s, cap, "a full period table")
    return _table(k, s)


def theta(k: int, n: int, s: int = 1) -> int:
    """Indicator that gen_gcd(n, k, s) = 1: no prime p | k has p^s | n.

    Equals the normalized exponential average (1/k^s) sum_j e(jn/k^s) c_k^(s)(j).
    """
    return 1 if gen_gcd(n, k, s) == 1 else 0
