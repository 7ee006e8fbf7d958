"""Generalized Ramanujan sums c_k^(s)(j) and their direct evaluation.

Three independent routes are provided.  The Moebius route sums d^s mu(k/d)
over divisors d of the generalized gcd; the Hoelder route uses the closed
form J_s(k) mu(k/e) / J_s(k/e); the direct route adds the k^s-th roots of
unity over the s-coprime residues with compensated floating point.  Each
exact route memoizes only the gcd class it is asked for and shares no
cached state with the other, so their agreement is an independent check.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import divisors, factorize, gen_gcd, jordan_totient, moebius, moebius_divisors
from .errors import InternalConsistencyError, ResourceLimitError

DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class CsumEvaluation:
    """One evaluated sum c_k^(s)(j) tagged with the route that produced it."""

    k: int
    s: int
    j: int
    value: int
    method: str


def _check_args(k: int, s: int) -> None:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")


def _period(k: int, s: int, cap: int, what: str) -> int:
    """k^s after checking k, s >= 1, or ResourceLimitError past cap.

    k^s >= 2^(s*(bitlen(k)-1)), so a period that far past cap is refused
    before it is built, and the message never prints k^s: a huge s costs
    nothing and cannot hit the int-to-str digit limit.
    """
    # _check_args inlined: this runs once per csum_direct call
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    if s * (k.bit_length() - 1) < cap.bit_length():
        K = k**s
        if K <= cap:
            return K
    raise ResourceLimitError(f"k^s for k={k}, s={s} exceeds cap {cap} for {what}")


@lru_cache(maxsize=256)
def _moebius_value(k: int, s: int, g: int) -> int:
    """c_k^(s)(j) for gen_gcd(j, k, s) = g: the sum of d^s mu(k/d) over the d | g."""
    return sum(d**s * m for d, m in moebius_divisors(factorize(k)) if g % d == 0)


def csum_moebius(k: int, j: int, s: int = 1) -> int:
    """c_k^(s)(j) via sum of d^s mu(k/d) over d dividing gen_gcd(j, k, s)."""
    _check_args(k, s)
    return _moebius_value(k, s, gen_gcd(j, k, s))


@lru_cache(maxsize=256)
def _hoelder_value(k: int, s: int, e: int) -> int:
    """c_k^(s)(j) for gen_gcd(j, k, s) = e: J_s(k) mu(k/e) / J_s(k/e), which
    must be an integer."""
    cofactor = factorize(k // e)
    m = moebius(cofactor)
    if m == 0:
        return 0
    num = jordan_totient(s, factorize(k)) * m
    den = jordan_totient(s, cofactor)
    if num % den != 0:
        raise InternalConsistencyError(f"Hoelder quotient J_{s}({k})*mu/J_{s}({k // e}) not integral")
    return num // den


def csum_hoelder(k: int, j: int, s: int = 1) -> int:
    """c_k^(s)(j) via the closed form J_s(k) mu(k/e) / J_s(k/e)."""
    _check_args(k, s)
    return _hoelder_value(k, s, gen_gcd(j, k, s))


@lru_cache(maxsize=8)
def _trig_table(n: int):
    """cos and sin of 2*pi*t/n for t in range(n), shared across j."""
    t = np.arange(n, dtype=np.float64)
    ang = (2.0 * np.pi / n) * t
    return np.cos(ang), np.sin(ang)


@lru_cache(maxsize=4)
def _direct_context(k: int, s: int):
    """Residues m in [1, k^s] with (m, k^s)_s = 1, as a numpy index array."""
    fac = factorize(k)
    K = k**s
    keep = np.ones(K + 1, dtype=bool)
    keep[0] = False
    for p, _ in fac.factors:
        keep[p**s :: p**s] = False
    m = np.nonzero(keep)[0].astype(np.int64)
    if len(m) != jordan_totient(s, fac):
        raise InternalConsistencyError(f"s-coprime residue count mismatch for k={k}, s={s}")
    return m


def _block_fsum(arr: np.ndarray, block: int = 1024) -> float:
    """Exactly-rounded sum of block partial sums; blocks keep the numpy speed."""
    size = arr.size
    if size == 0:
        return 0.0
    partials = np.add.reduceat(arr, np.arange(0, size, block))
    return math.fsum(partials.tolist())


def csum_direct(k: int, j: int, s: int = 1, cap: int = DEFAULT_CAP) -> complex:
    """c_k^(s)(j) summed term by term over the unit circle.

    Costs J_s(k) table lookups; refuses once k^s exceeds cap rather than
    silently truncating the range.
    """
    K = _period(k, s, cap, "direct summation")
    m = _direct_context(k, s)
    cos_t, sin_t = _trig_table(K)
    idx = (j % K) * m % K
    return complex(_block_fsum(cos_t[idx]), _block_fsum(sin_t[idx]))


def csum_eval(k: int, j: int, s: int = 1, method: str = "moebius", cap: int = DEFAULT_CAP) -> CsumEvaluation:
    """Evaluate one sum by the named route; the direct route is rounded to the
    nearest integer and cross-checked against its own residual."""
    if method == "moebius":
        return CsumEvaluation(k, s, j, csum_moebius(k, j, s), method)
    if method == "hoelder":
        return CsumEvaluation(k, s, j, csum_hoelder(k, j, s), method)
    if method == "direct":
        z = csum_direct(k, j, s, cap)
        v = round(z.real)
        residual = max(abs(z.real - v), abs(z.imag))
        if residual >= 0.5:
            raise InternalConsistencyError(
                f"direct sum for (k={k}, j={j}, s={s}) is not near an integer: {z}"
            )
        if residual > 1e-6:
            warnings.warn(
                f"direct sum residual {residual:.3e} for (k={k}, j={j}, s={s})",
                RuntimeWarning,
                stacklevel=2,
            )
        return CsumEvaluation(k, s, j, int(v), method)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True, eq=False)
class CsumTable:
    """One period of j -> c_k^(s)(j) for j in range(k^s), as a read-only
    int64 array shared by every caller of csum_table."""

    k: int
    s: int
    array: np.ndarray

    @property
    def values(self) -> tuple:
        return tuple(self.array.tolist())

    def moments(self, n: int) -> list:
        """The literal moments M_t = sum_{0<=j<k^s} j^t c_k^(s)(j) for t = 0..n, as ints.

        Each order not yet cached for this table costs one multiply-by-j
        sweep over its nonzero entries.
        """
        js, powers, moments = _moment_state(self)
        while len(moments) <= n:
            powers[:] = map(operator.mul, powers, js)
            moments.append(sum(powers))
        return moments[: n + 1]


@lru_cache(maxsize=8)
def _table(k: int, s: int) -> CsumTable:
    divs = divisors(factorize(k))
    arr = np.full(k**s, _moebius_value(k, s, 1), dtype=np.int64)
    for d in divs[1:]:
        arr[:: d**s] = _moebius_value(k, s, d)
    arr.flags.writeable = False
    return CsumTable(k, s, arr)


@lru_cache(maxsize=2)
def _moment_state(table: CsumTable) -> tuple:
    """(js, powers, moments) of one table, extended in place by
    CsumTable.moments: js are the j with c(j) != 0, powers the current
    j^t c(j) over them, and moments[t] = M_t for every order reached."""
    js = np.flatnonzero(table.array)
    powers = table.array[js].tolist()
    return js.tolist(), powers, [sum(powers)]


def csum_table(k: int, s: int = 1, cap: int = DEFAULT_CAP) -> CsumTable:
    """Full period of c_k^(s), filled by overwriting along divisor strides.

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
    _check_args(k, s)
    return 1 if gen_gcd(n, k, s) == 1 else 0
