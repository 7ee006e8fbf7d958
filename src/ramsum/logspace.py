"""Exact log-space vectors over {log p : p prime} together with log(2*pi).

A LogLinear value is a finite rational combination c_1*log(p_1) + ... with an
optional c*log(2pi) term.  The symbols are linearly independent over Q, so
coefficient-wise equality decides identities between the closed forms arising
here with no floating point involved.  log(2pi) is kept atomic: it is never
split into log 2 plus a transcendental remainder.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import factorize, jordan_totient, moebius_divisors, primes_up_to
from .csum import _digit_budget
from .exactnum import rat_str

TWO_PI = "2pi"


def _check_symbol(sym) -> None:
    if sym == TWO_PI:
        return
    if not isinstance(sym, int) or sym < 2 or factorize(sym).factors != ((sym, 1),):
        raise ValueError(f"LogLinear symbols are primes or {TWO_PI!r}, got {sym!r}")


def _sort_key(sym):
    return (1, 0) if sym == TWO_PI else (0, sym)


class LogLinear:
    """Immutable rational-coefficient combination of log symbols."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        clean: dict = {}
        if coeffs:
            for sym, c in coeffs.items():
                c = Fraction(c)
                if c:
                    _check_symbol(sym)
                    clean[sym] = c
        self._c = clean

    @classmethod
    def _raw(cls, clean: dict) -> "LogLinear":
        out = cls.__new__(cls)
        out._c = clean
        return out

    def coefficients(self) -> dict:
        """Copy of the symbol -> Fraction mapping (zero terms never stored)."""
        return dict(self._c)

    def __add__(self, other):
        if not isinstance(other, LogLinear):
            return NotImplemented
        c = dict(self._c)
        for sym, v in other._c.items():
            nv = c.get(sym, 0) + v
            if nv:
                c[sym] = nv
            else:
                c.pop(sym, None)
        return LogLinear._raw(c)

    def __neg__(self):
        return LogLinear._raw({sym: -v for sym, v in self._c.items()})

    def __sub__(self, other):
        if not isinstance(other, LogLinear):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, LogLinear):
            return NotImplemented
        return self._c == other._c

    __hash__ = None

    def __str__(self) -> str:
        """Canonical text form: terms ordered by prime, log(2pi) last."""
        if not self._c:
            return "0"
        parts = []
        for sym in sorted(self._c, key=_sort_key):
            parts.append(f"{rat_str(self._c[sym])}*log({sym})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LogLinear({self})"


def float_value(x: LogLinear) -> float:
    """Numeric value via exactly-rounded summation of the terms."""
    terms = []
    for sym, c in x._c.items():
        base = math.log(math.tau) if sym == TWO_PI else math.log(sym)
        terms.append(float(c) * base)
    return math.fsum(terms)


def legendre_exponents(n: int) -> dict[int, int]:
    """The exponent of each prime p <= n in n!, by Legendre's count sum_i n // p^i."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = {}
    for p in primes_up_to(n):
        e = 0
        q = p
        while q <= n:
            e += n // q
            q *= p
        out[p] = e
    return out


def mu_log_lemma_sides(k: int, s: int) -> tuple[LogLinear, LogLinear]:
    """Both sides of sum_{d|k} mu(d) log(d)/d^s = -(J_s(k)/k^s) sum_{p|k} log(p)/(p^s - 1).

    The left side keeps only squarefree divisors (mu kills the rest), the
    k/d of moebius_divisors(k); the right side is the closed form.  Both are
    exact LogLinear vectors over the primes dividing k, each summed in
    integers over R = rad(k)^s: a squarefree e | k adds mu(e) (rad(k)/e)^s
    to each of its primes, and since J_s(k) R / k^s = prod_p (p^s - 1), the
    right side at p is minus that product over p^s - 1.
    """
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive")
    fac = factorize(k)
    primes = fac.primes()
    rad = math.prod(primes)
    _digit_budget(rad, s, f"rad(k)^s in the mu-log lemma at k={k}, s={s}")
    lhs_num = dict.fromkeys(primes, 0)
    for d, mu in moebius_divisors(fac):
        e = k // d
        w = mu * (rad // e) ** s
        for p in primes:
            if e % p == 0:
                lhs_num[p] += w
    R = rad**s
    P = jordan_totient(s, fac) * R // k**s
    lhs = LogLinear._raw({p: Fraction(v, R) for p, v in lhs_num.items() if v})
    rhs = LogLinear._raw({p: Fraction(-(P // (p**s - 1)), R) for p in primes})
    return lhs, rhs
