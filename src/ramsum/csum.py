"""Generalized Ramanujan sums c_k^(s)(j) and their direct evaluation.

Three independent routes are provided.  The Moebius route sums d^s mu(k/d)
over divisors d of the generalized gcd; the Hoelder route uses the closed
form J_s(k) mu(k/e) / J_s(k/e); the direct route adds the k^s-th roots of
unity over the s-coprime residues, each root the product of a row root and a
column root so that one matrix product over the residue mask does the sum,
and answers a reused (k, s) from one real FFT of their indicator, kept in
ramsum.store under its byte budget.  Each exact route memoizes only the gcd
class it is asked for and shares no cached state with the other, so their
agreement is an independent check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, NamedTuple

from . import store
from .arith import factorize, gen_gcd, jordan_totient, moebius, moebius_divisors
from .errors import InternalConsistencyError, ResourceLimitError, _refuse_past_digit_limit

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CAP = 1_000_000
_kept = store.kept["spectrum"]  # the direct route's spectra, by (k, s)


class CsumEvaluation(NamedTuple):
    """One evaluated sum c_k^(s)(j) tagged with the route that produced it;
    immutable, and equal to the plain tuple (k, s, j, value, method)."""

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
    _check_args(k, s)
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
    _digit_budget(k, s, f"J_s(k) in the Hoelder route at k={k}, s={s}")
    num = jordan_totient(s, factorize(k)) * m
    den = jordan_totient(s, cofactor)
    if num % den != 0:
        raise InternalConsistencyError(f"Hoelder quotient J_{s}({k})*mu/J_{s}({k // e}) not integral")
    return num // den


def csum_hoelder(k: int, j: int, s: int = 1) -> int:
    """c_k^(s)(j) via the closed form J_s(k) mu(k/e) / J_s(k/e)."""
    _check_args(k, s)
    return _hoelder_value(k, s, gen_gcd(j, k, s))


@dataclass(eq=False)
class _DirectContext:
    """One (k, s) of the direct route: the mask of its s-coprime residues and
    whether the key has been asked for yet."""

    mask: np.ndarray
    cold: bool = True


@lru_cache(maxsize=4)
def _direct_context(k: int, s: int) -> _DirectContext:
    """The boolean mask over m mod k^s of (m, k^s)_s = 1, index 0 standing for
    m = k^s, in a fresh cold context."""
    import numpy as np

    fac = factorize(k)
    mask = np.ones(k**s, dtype=bool)
    for p, _ in fac.factors:
        mask[:: p**s] = False
    if np.count_nonzero(mask) != jordan_totient(s, fac):
        raise InternalConsistencyError(f"s-coprime residue count mismatch for k={k}, s={s}")
    return _DirectContext(mask)


def _root_sum(mask: np.ndarray, r: int) -> complex:
    """The sum of e(r i / K) over the set entries i of mask, K = mask.size,
    from 4B cosines and sines, B = isqrt(K-1) + 1, instead of two per term.

    Write i = a B + b with a, b < B (B^2 >= K).  Then e(r i / K) is the row
    root e(((r B mod K) a mod K) / K) times the column root e((r b mod K) / K),
    both angle integers reduced mod K exactly; every intermediate is below
    K B, under 2^63 for any K whose mask fits in memory.  The mask,
    zero-padded to a B x B grid (at most one row past ceil(K/B)), times the
    column roots gives each row's sum R_a = C_a + i S_a in one matrix
    product, and one 2 x 2 product of the row roots [cos; sin] with [C, S]
    gives the four dot products cC, cS, sC and sS; the real part is cC - sS
    and the imaginary part sC + cS.

    Rounding, to first order in u = 2^-53 (Higham, ch. 3 and 4), for J set
    entries, n_a of them in row a.  A root's angle 2 pi t / K is computed
    from pi, a division and a product, so it is off by less than 3u 2pi <
    19u; with np.cos and np.sin each within 2u, a computed root is within
    d = 22u of the true one.  The real part, and alike the imaginary part,
    is then off by at most
      d J        from the column roots, each times a root of modulus 1;
      (B-1) u J  from the row sums: a sum of B terms in any order errs by
                 (B-1) u sum|terms|, and with f the row angle and g a column
                 angle, |cos f| |cos g| + |sin f| |sin g| <= 1;
      d J        from the row roots, since |R_a| <= n_a;
      B u J      from the two dot products of B terms: each errs by at most
                 B u sum|terms| in any order, and for each a the terms of
                 the pair add up to |c_a| |C_a| + |s_a| |S_a| <= |R_a| <= n_a;
      u J        from the final add or subtract.
    In all, with the higher-order terms, within (2B + 48) u J of the exact sum.
    """
    import numpy as np

    K = mask.size
    B = math.isqrt(K - 1) + 1
    ang = (2.0 * np.pi / K) * (np.array([[r], [r * B % K]]) * np.arange(B) % K)
    # rows: cos of the column roots, cos of the row roots, then sin of each
    E = np.concatenate([np.cos(ang), np.sin(ang)])
    grid = np.empty(B * B)
    grid[:K] = mask
    grid[K:] = 0.0
    rows = E[::2] @ grid.reshape(B, B).T
    (cC, cS), (sC, sS) = (E[1::2] @ rows.T).tolist()
    return complex(cC - sS, sC + cS)


def _spectrum(k: int, s: int, mask: np.ndarray) -> np.ndarray:
    """Real part of the rfft of the s-coprime mask mod K = k^s, bins 0..K//2.

    The residue set is closed under m -> -m, so c_k^(s) is real and even and
    bin r holds c_k^(s)(r) = c_k^(s)(K - r).  Bin 0 must equal J_s(k) and
    every imaginary part vanish to within the FFT's rounding bound
    u log2(K) sqrt(K) ||mask||_2 (Higham, ch. 24), with ||mask||_2 = sqrt(J_s(k)).
    """
    import numpy as np

    X = np.fft.rfft(mask)
    K, J = mask.size, np.count_nonzero(mask)
    bound = 2.0**-52 * math.log2(K) * math.sqrt(K) * math.sqrt(J)
    err = max(abs(X[0] - J), float(np.abs(X.imag).max()))
    if err > bound:
        raise InternalConsistencyError(f"spectrum of k={k}, s={s} is off by {err:.3e}, past its bound {bound:.3e}")
    spec = X.real.copy()
    spec.flags.writeable = False
    return spec


def csum_direct(k: int, j: int, s: int = 1, cap: int = DEFAULT_CAP) -> complex:
    """c_k^(s)(j) summed over the unit circle.

    The first call for a (k, s) adds its J_s(k) roots of unity from about
    4 sqrt(k^s) cosines and sines (see _root_sum), within (2B + 48) 2^-53
    J_s(k) of the exact sum in each part, B = isqrt(k^s - 1) + 1.  A later
    call while its mask is among the four most recent reads one bin of the
    real FFT spectrum of the s-coprime indicator, which that call builds
    once and keeps in ramsum.store; every call for a kept key is one array
    read.  Refuses once k^s exceeds cap rather than silently truncating the
    range.
    """
    K = _period(k, s, cap, "direct summation")
    r = j % K
    spec = _kept.get((k, s))
    if spec is None:
        ctx = _direct_context(k, s)
        if ctx.cold:
            ctx.cold = False
            return _root_sum(ctx.mask, r)
        spec = _spectrum(k, s, ctx.mask)
        store.keep("spectrum", (k, s), spec, spec.nbytes)
    return complex(spec.item(min(r, K - r)))


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
        return CsumEvaluation(k, s, j, v, method)
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
    _check_args(k, s)
    return 1 if gen_gcd(n, k, s) == 1 else 0
