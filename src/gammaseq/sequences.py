"""Evaluators for the named sequences converging to the Euler constant.

Every sequence here has the shape H_m + c - ln x with m = n - 1 or
n - 2, a correction c and a log argument x.  Each kind gives c and x at
n as integer pairs (num, den) with den > 0, x reduced (`_split`).
Certified values come from one resumable walk over any nondecreasing
indices, `Walk`, which gives integer pairs at scale 2**-q: H_m is the
kernel's pair, carried across the gaps by `harmonic_fixed`, plus the
tail, whose ends are `numerics.ln_ends`: floor and ceiling of
(c - ln x) * 2**q, with no Fraction per index.  The variants with
irrational parameters (UPlus / UMinus) have no exact split; their c and
x at each end are integer pairs built once per walk from an enclosure
of sqrt(6).  `values` rounds the walk's pairs to p bits in integers, as
(m, e) with the value m * 2**e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels_py as kernels, numerics
from .errors import DomainError
from .numerics import harmonic_exact, ln_ends, round_bits

__all__ = [
    "SequenceKind",
    "GammaN",
    "DeTempleR",
    "VernescuV",
    "MuFamily",
    "VFamily",
    "SOptimal",
    "UPlus",
    "UMinus",
    "Walk",
    "values",
]


class SequenceKind:
    """Base tag for sequence identifiers; concrete kinds are dataclasses."""

    n_min = 1

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class GammaN(SequenceKind):
    """H_n - ln n."""


@dataclass(frozen=True)
class DeTempleR(SequenceKind):
    """H_n - ln(n + 1/2) (DeTemple 1993)."""


@dataclass(frozen=True)
class VernescuV(SequenceKind):
    """H_{n-1} + 1/(2n) - ln n (Vernescu 1999)."""


@dataclass(frozen=True)
class MuFamily(SequenceKind):
    """H_{n-1} + 1/(a n) - ln(n + b) (Mortici 2010), rational a != 0."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0:
            raise DomainError("MuFamily requires a != 0")


@dataclass(frozen=True)
class VFamily(SequenceKind):
    """H_{n-2} + (a n + b)/(n(n-1)) - ln n, defined from n = 3.

    Values at n = 0, 1, 2 are left as conventions (the correction term
    degenerates there), so requesting them is a domain error.
    """

    a: Fraction
    b: Fraction
    n_min = 3

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))


@dataclass(frozen=True)
class SOptimal(SequenceKind):
    """H_{n-2} + 13/(12(n-1)) + 5/(12n) - ln n, the fastest member of VFamily."""

    n_min = 3


@dataclass(frozen=True)
class UPlus(SequenceKind):
    """MuFamily at a = 6 + 2 sqrt(6), b = -1/sqrt(6); named by the sign in a."""


@dataclass(frozen=True)
class UMinus(SequenceKind):
    """MuFamily at a = 6 - 2 sqrt(6), b = 1/sqrt(6)."""


def _check_domain(kind: SequenceKind, n: int) -> None:
    if not isinstance(n, int):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < kind.n_min:
        raise DomainError(
            f"{kind.describe()} is defined for n >= {kind.n_min} "
            f"(smaller indices are left as conventions), got n = {n}"
        )


def _split(kind: SequenceKind):
    """n -> (m, c, x): the sequence at n is H_m + c - ln x, with the
    correction c and the log argument x as integer pairs (num, den),
    den > 0; c need not be reduced, x is."""
    if isinstance(kind, (GammaN, DeTempleR)):
        # H_n = H_{n-1} + 1/n, the same split as the Mu family's
        if isinstance(kind, DeTempleR):
            return lambda n: (n - 1, (1, n), (2 * n + 1, 2))
        return lambda n: (n - 1, (1, n), (n, 1))
    if isinstance(kind, VernescuV):
        return lambda n: (n - 1, (1, 2 * n), (n, 1))
    if isinstance(kind, MuFamily):
        a_num, a_den = kind.a.as_integer_ratio()
        if a_num < 0:  # 1/(a n) = a_den/(a_num n), its denominator made positive
            a_num, a_den = -a_num, -a_den
        b_num, b_den = kind.b.as_integer_ratio()

        def mu(n):
            # n + b = (n b_den + b_num)/b_den is coprime because b is
            x_num = n * b_den + b_num
            if x_num <= 0:
                raise DomainError(
                    f"log argument n + b = {Fraction(x_num, b_den)} must be positive")
            return n - 1, (a_den, a_num * n), (x_num, b_den)

        return mu
    if isinstance(kind, VFamily):
        a_num, a_den = kind.a.as_integer_ratio()
        b_num, b_den = kind.b.as_integer_ratio()
        return lambda n: (n - 2, (a_num * b_den * n + b_num * a_den,
                                  a_den * b_den * n * (n - 1)), (n, 1))
    if isinstance(kind, SOptimal):
        # 13/(12(n-1)) + 5/(12n) over 12 n (n-1)
        return lambda n: (n - 2, (18 * n - 5, 12 * n * (n - 1)), (n, 1))
    if isinstance(kind, (UPlus, UMinus)):
        raise DomainError(
            f"{kind.describe()} has irrational parameters and no exact split; "
            "evaluate it with Walk or values"
        )
    raise DomainError(f"unknown sequence kind {kind!r}")


def _tails(kind: SequenceKind, q: int):
    """n -> (m, lo, hi) with [lo, hi] * 2**-q enclosing correction - ln(argument)."""
    if not isinstance(kind, (UPlus, UMinus)):
        split = _split(kind)

        def tail(n):
            _check_domain(kind, n)
            m, c, x = split(n)
            return (m, *ln_ends(c, c, x, q))

        return tail
    k = q + 8
    one, s = 1 << k, math.isqrt(6 << 2 * k)  # sqrt(6) lies in [s, s + 1] / 2**k
    # a and b at each end of sqrt(6)'s enclosure, a as numerators over 2**k
    if isinstance(kind, UPlus):  # a = 6 + 2 sqrt(6), b = -1/sqrt(6)
        a_lo, a_hi = 6 * one + 2 * s, 6 * one + 2 * s + 2
        b_lo, b_hi = Fraction(-one, s), Fraction(-one, s + 1)
    else:  # a = 6 - 2 sqrt(6), b = 1/sqrt(6)
        a_lo, a_hi = 6 * one - 2 * s - 2, 6 * one - 2 * s
        b_lo, b_hi = Fraction(one, s + 1), Fraction(one, s)
    # n + e/d = (n d + e)/d is in lowest terms with e/d, as gcd(n d + e, d) = gcd(e, d)
    (e_lo, d_lo), (e_hi, d_hi) = b_lo.as_integer_ratio(), b_hi.as_integer_ratio()

    def tail(n):
        # 1/(a n) - ln(n + b) decreases in a and in b: lo takes a_hi and b_hi
        _check_domain(kind, n)
        c_lo, c_hi = (one, a_hi * n), (one, a_lo * n)
        return (n - 1, ln_ends(c_lo, c_lo, (n * d_hi + e_hi, d_hi), q)[0],
                ln_ends(c_hi, c_hi, (n * d_lo + e_lo, d_lo), q)[1])

    return tail


class Walk:
    """Certified integer bounds (lo, hi) on 2**q times the value at
    nondecreasing indices passed one at a time, rounded outward onto
    scale 2**-q.

    H_m is carried across the gaps as the kernel's exact integer pair and
    the tail is computed only at the indices asked for, so the pair at n
    does not depend on the other indices: it is Walk(kind, q)(n).  A walk
    may be paused and resumed at any larger index.
    """

    def __init__(self, kind: SequenceKind, q: int):
        self._tail = _tails(kind, q)
        self._q = q
        self._h_lo = self._h_hi = self._m = 0

    def __call__(self, n: int) -> tuple[int, int]:
        m, t_lo, t_hi = self._tail(n)
        if m < self._m:
            raise DomainError(f"walk indices must not decrease, got {n} after a larger one")
        d_lo, d_hi = kernels.harmonic_fixed(m, self._q, self._m)
        self._h_lo, self._h_hi, self._m = self._h_lo + d_lo, self._h_hi + d_hi, m
        return self._h_lo + t_lo, self._h_hi + t_hi


def values(kind: SequenceKind, n_from: int, n_to: int, p: int):
    """Sequence values at n = n_from..n_to rounded to p bits, relative
    error <= 2**(1-p) each, from one `Walk`: the midpoint of each pair
    rounded by `numerics.round_bits`, as (m, e) with the value m * 2**e."""
    numerics._check_precision(p)
    q = p + numerics.GUARD_BITS + n_to.bit_length()
    walk = Walk(kind, q)
    for n in range(n_from, n_to + 1):
        lo, hi = walk(n)
        q_n = q
        # twice the midpoint, lo + hi, against the width at scale 2**-q_n:
        # an exact pair passes at once, a wider one straddling 0 never does
        while (hi - lo) << (p + 1) > abs(lo + hi):
            if lo <= 0 <= hi and not isinstance(kind, (UPlus, UMinus)):
                m, (c_num, c_den), x = _split(kind)(n)  # exactly 0 needs ln x = 0
                if x == (1, 1) and (harmonic_exact(m) if m else 0) * c_den + c_num == 0:
                    lo = hi = 0
                    break
            q_n *= 2  # value is unusually close to zero; retry tighter
            lo, hi = Walk(kind, q_n)(n)
        yield round_bits(lo + hi, q_n + 1, p)

