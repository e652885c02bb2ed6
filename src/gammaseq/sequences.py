"""Evaluators for the named sequences converging to the Euler constant.

Every sequence here is a point (a, b) of one of two families: the mu
family H_{n-1} + 1/(a n) - ln(n + b) and the v family
H_{n-2} + (a n + b)/(n(n - 1)) - ln n.  gamma_n is mu at (1, 0), R_n mu
at (1, 1/2), V_n mu at (2, 0), s_n v at (3/2, -5/12).  A rational point
splits the value at n into H_{n-1} + c - ln x, c and x integer pairs
(num, den) with den > 0, x reduced (`_split`, one closure per family; a v
point's c takes in H_{n-2} = H_{n-1} - 1/(n - 1)).  Certified values come
from one resumable walk over any nondecreasing indices, `Walk`, which
gives integer pairs at scale 2**-q: H_{n-1} is the kernel's pair, carried
across the gaps by `harmonic_fixed`, plus the tail, whose ends are
`numerics.ln_ends`: floor and ceiling of (c - ln x) * 2**q, with no
Fraction per index.  UPlus and UMinus are mu points with irrational a and
b; their tails take the logarithm of the integer 6n^2 - 1 and a short
series in 1/(6n^2), with one enclosure of sqrt(6) per walk
(`_sqrt6_tails`).  `deviation` gives x_n - gamma itself for the exact
points, as `bounds` reads it: from n = N(q) (`envelope_start`) on it is
psi(n) - ln n from the kernel's asymptotic series plus c - ln(x/n) from
the same split (one short atanh where x != n), with no harmonic sum, no
logarithm of n and no gamma, at O(K) work whatever n is; below N(q) it
is the walk less gamma enclosed at the walk's scale.  `values` rounds
to p bits, as (m, e) with the value m * 2**e, `deviation`'s pairs plus
gamma's ends for the exact points and the walk's for UPlus and UMinus.
"""

from __future__ import annotations

import math

from . import _kernels_py as kernels, numerics
from .errors import DomainError
from .numerics import gamma_reference, ln_ends, ln_fixed, round_bits

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
    "deviation",
    "envelope_start",
    "values",
]


class SequenceKind:
    """Base of the sequence identifiers.

    A kind is a small immutable `__slots__` object: two kinds are equal,
    and hash alike, when they have one type and equal parameters (named
    in `params`), and its repr names the type and the parameters, as
    error messages print it.  `exact` describes the kind as (family, a,
    b), family "mu" or "v" and a, b reduced integer pairs (num, den),
    den > 0: class data for the named kinds; MuFamily and VFamily, the
    kinds with parameters, build it from theirs (Fractions, so only they
    load `fractions`).  UPlus and UMinus have none; `sqrt6_sign` is the
    sign of sqrt(6) in their a.
    """

    __slots__ = ()
    n_min = 1
    params = ()
    exact = None
    sqrt6_sign = 0

    def describe(self) -> str:
        return type(self).__name__

    def _params(self) -> tuple:
        return tuple(getattr(self, name) for name in self.params)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self):
        return hash(self._params())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.params)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")


class _RationalPair(SequenceKind):
    """A family's point with rational parameters a and b, held as Fractions."""

    __slots__ = ("a", "b", "exact")
    params = ("a", "b")

    def __init__(self, a, b):
        from fractions import Fraction  # only the families with parameters need it

        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "exact", (self.family, self.a.as_integer_ratio(),
                                           self.b.as_integer_ratio()))


class GammaN(SequenceKind):
    """H_n - ln n."""

    __slots__ = ()
    exact = "mu", (1, 1), (0, 1)


class DeTempleR(SequenceKind):
    """H_n - ln(n + 1/2) (DeTemple 1993)."""

    __slots__ = ()
    exact = "mu", (1, 1), (1, 2)


class VernescuV(SequenceKind):
    """H_{n-1} + 1/(2n) - ln n (Vernescu 1999)."""

    __slots__ = ()
    exact = "mu", (2, 1), (0, 1)


class MuFamily(_RationalPair):
    """H_{n-1} + 1/(a n) - ln(n + b) (Mortici 2010), rational a != 0."""

    __slots__ = ()
    family = "mu"

    def __init__(self, a, b):
        super().__init__(a, b)
        if self.a == 0:
            raise DomainError("MuFamily requires a != 0")


class VFamily(_RationalPair):
    """H_{n-2} + (a n + b)/(n(n-1)) - ln n, defined from n = 3.

    Values at n = 0, 1, 2 are left as conventions (the correction term
    degenerates there), so requesting them is a domain error.
    """

    __slots__ = ()
    family = "v"
    n_min = 3


class SOptimal(SequenceKind):
    """H_{n-2} + 13/(12(n-1)) + 5/(12n) - ln n, the fastest member of VFamily."""

    __slots__ = ()
    n_min = 3
    exact = "v", (3, 2), (-5, 12)


class UPlus(SequenceKind):
    """MuFamily at a = 6 + 2 sqrt(6), b = -1/sqrt(6); named by the sign in a."""

    __slots__ = ()
    sqrt6_sign = 1


class UMinus(SequenceKind):
    """MuFamily at a = 6 - 2 sqrt(6), b = 1/sqrt(6)."""

    __slots__ = ()
    sqrt6_sign = -1


def _check_domain(kind: SequenceKind, n: int) -> None:
    if not isinstance(n, int):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < kind.n_min:
        raise DomainError(
            f"{kind.describe()} is defined for n >= {kind.n_min} "
            f"(smaller indices are left as conventions), got n = {n}"
        )


def _split(kind: SequenceKind):
    """n -> (c, x): the sequence at n is H_{n-1} + c - ln x, with the
    correction c and the log argument x as integer pairs (num, den),
    den > 0; c need not be reduced, x is.  This is the one reader of a
    kind's (family, a, b)."""
    if kind.exact is None:
        if kind.sqrt6_sign:
            raise DomainError(f"{kind.describe()} has irrational parameters and no exact "
                              "split; evaluate it with Walk or values")
        raise DomainError(f"unknown sequence kind {kind!r}")
    family, (a_num, a_den), (b_num, b_den) = kind.exact
    if family == "v":
        # H_{n-2} = H_{n-1} - 1/(n - 1) folded in: ((a - 1) n + b)/(n(n - 1))
        # over the common denominator a_den b_den
        p, r, d = (a_num - a_den) * b_den, b_num * a_den, a_den * b_den
        return lambda n: ((p * n + r, d * n * (n - 1)), (n, 1))
    if a_num < 0:  # 1/(a n) = a_den/(a_num n), its denominator made positive
        a_num, a_den = -a_num, -a_den

    def mu(n):
        # n + b = (n b_den + b_num)/b_den, which must be positive, is coprime because b is
        x_num = n * b_den + b_num
        if x_num <= 0:
            text = f"{x_num}/{b_den}" if b_den != 1 else str(x_num)
            raise DomainError(f"log argument n + b = {text} must be positive")
        return (a_den, a_num * n), (x_num, b_den)

    return mu


def _tails(kind: SequenceKind, q: int):
    """n -> (lo, hi) with [lo, hi] * 2**-q enclosing correction - ln(argument),
    the sequence at n less H_{n-1}."""
    if kind.sqrt6_sign:
        return _sqrt6_tails(kind, q)
    split = _split(kind)

    def tail(n):
        _check_domain(kind, n)
        c, x = split(n)
        return ln_ends(c, c, x, q)

    return tail


def _sqrt6_tails(kind: SequenceKind, q: int):
    """The tails of UPlus and UMinus, whose `sqrt6_sign` is +1 and -1, through 6n^2 - 1.

    With t = 1/(n sqrt 6), (n - 1/sqrt 6)(n + 1/sqrt 6) = (6n^2 - 1)/6 and
    ln((1 - t)/(1 + t)) = -2 atanh t, and with 1/(6 +- 2 sqrt 6) =
    (3 -+ sqrt 6)/6 and atanh t = t (1 + R), where

        R = sum_{j >= 1} (6n^2)**-j / (2j + 1),

    the tail 1/(a n) - ln(n + b) of either kind is

        T = (ln 6 - ln(6n^2 - 1))/2 + (3 + sign sqrt(6) R)/(6n).

    Enclosures, all at w = q + bitlen(q) + 2, the scale `ln_fixed` returns
    for an argument outside [1, 2): ln 6, once per walk, and ln(6n^2 - 1)
    per index, each less than 2**(w - q) wide for 6n^2 < 2**(3q);
    sqrt(6) 2**w in [s, s + 1], s = isqrt(6 * 2**(2w)), once per walk; and
    R 2**w in [r, r + J], from the exact floors p_j = floor(2**w / (6n^2)**j):
    r sums floor(p_j / (2j + 1)), each low by less than one, over
    j < J, the first j with p_j = 0, and the terms from J on sum to less
    than (6/5) / (2J + 1) < 1.  T 2**q is v / (6n 2**(2w - q)) with

        v = 3n (ln 6 - ln(6n^2 - 1)) 2**(2w) + 3 * 2**(2w) + sign sqrt(6) R 2**(2w),

    and lo and hi are the floor and ceiling of v's ends over that
    denominator.  Width: the logarithms add less than
    2 * 3n 2**(2w - q) / (6n 2**(2w - q)) = 1, sqrt(6) R adds at most
    ((s + 1)(r + J) - s r) / (6n 2**(2w - q)) < 3 J 2**w / (6 * 2**(2w - q))
    = J / 2**(w - q + 1), where J <= w / log2(6) + 1 < q and
    2**(w - q) > 4q, so less than 1/8, and the two roundings less than 2:
    hi - lo <= 3.
    """
    l6_lo, l6_hi, w = ln_fixed(6, 1, q)
    s = math.isqrt(6 << 2 * w)
    three = 3 << 2 * w
    den_shift = 2 * w - q

    def tail(n):
        _check_domain(kind, n)
        six_nn = 6 * n * n
        x_lo, x_hi, _ = ln_fixed(six_nn - 1, 1, q)
        r, j, p = 0, 1, (1 << w) // six_nn  # p = p_j, and R 2**w is in [r, r + j] once p = 0
        while p:
            r += p // (2 * j + 1)
            j += 1
            p //= six_nn
        root_lo, root_hi = s * r, (s + 1) * (r + j)  # sqrt(6) R 2**(2w)
        if kind.sqrt6_sign < 0:
            root_lo, root_hi = -root_hi, -root_lo
        den = 6 * n << den_shift
        lo = ((3 * n * (l6_lo - x_hi) << w) + three + root_lo) // den
        hi = -((-(3 * n * (l6_hi - x_lo) << w) - three - root_hi) // den)
        return lo, hi

    return tail


class Walk:
    """Certified integer bounds (lo, hi) on 2**q times the value at
    nondecreasing indices passed one at a time, rounded outward onto
    scale 2**-q.

    H_{n-1} is carried across the gaps as the kernel's exact integer pair
    and the tail is computed only at the indices asked for, so the pair at
    n does not depend on the other indices: it is Walk(kind, q)(n).  A walk
    may be paused and resumed at any larger index.
    """

    def __init__(self, kind: SequenceKind, q: int):
        self._tail = _tails(kind, q)
        self._q = q
        self._h_lo = self._h_hi = self._m = 0

    def __call__(self, n: int) -> tuple[int, int]:
        t_lo, t_hi = self._tail(n)
        m = n - 1
        if m < self._m:
            raise DomainError(f"walk indices must not decrease, got {n} after a larger one")
        d_lo, d_hi = kernels.harmonic_fixed(m, self._q, self._m)
        self._h_lo, self._h_hi, self._m = self._h_lo + d_lo, self._h_hi + d_hi, m
        return self._h_lo + t_lo, self._h_hi + t_hi


def envelope_start(q: int) -> int:
    """N(q) = (q + 1) 2**max(0, (q - 260) // 80): the least index from which
    `deviation` at scale 2**-q takes the asymptotic envelope instead of the
    walk.  It is at least q + 1, where `kernels.digamma_log_fixed` reaches
    2**-q, and past that it is a cost rule in n and q alone, measured on the
    dearest kind, a mu point with b != 0 (an atanh on top of the series):
    there the envelope costs at most the walk per row from n = q + 1 up to
    q = 300, and from about 2 (q + 1), 4 (q + 1) and 8 (q + 1) at q = 350,
    470 and 544, as both get dearer with q and the series' K falls only as
    q / (2 log2 n).  Above q = 544 the rule is extrapolated, so the walk
    stays the route of high-precision sweeps."""
    return (q + 1) << max(0, (q - 260) // 80)


def deviation(kind: SequenceKind, q: int):
    """n -> (lo, hi) with lo <= (x_n - gamma) * 2**q <= hi, for the kinds with
    an exact split, at nondecreasing n.

    As H_{n-1} - gamma = psi(n), every such x_n = H_{n-1} + c - ln x gives

        x_n - gamma = D(n) + c - ln(x/n),  ln(x/n) = 2 atanh((x - n)/(x + n)),

    with D(n) = psi(n) - ln n, and no gamma and no logarithm of n.  (For
    SOptimal c and the first two terms of D combine into 1/(12 n**2 (n - 1)).)
    From n = N(q) = `envelope_start`(q) on, D(n) is
    `kernels.digamma_log_fixed`(n, q), at most 4 ulps wide there (N(q) > q).
    Where x = n (v points, and mu points with b = 0) c is floored and
    ceiled; otherwise c less the logarithm is, with the atanh one
    `kernels.atanh_fixed` chain at w = q + bitlen(q) + 2, rounded outward
    to q (or `numerics.ln_ends` of x/n where |x - n| / (x + n) > 1/2): a v
    pair is at most 5 ulps wide and a mu pair at most 6.  Below N(q) the
    series cannot reach 2**-q, so the pair is `Walk`(kind, q) less gamma
    enclosed at that scale (`numerics.gamma_reference`(q)), rounded outward
    to q, carried from row to row, about n + 5 ulps wide.  The domain
    checks and messages are `_split`'s, whose DomainError UPlus and UMinus
    raise.
    """
    split = _split(kind)  # the kinds without an exact split raise here
    start = envelope_start(q)
    w_q = q + q.bit_length() + 2
    head = []  # the walk and gamma's ends, made at the first row below start

    def walked(n):
        if not head:
            head.extend((Walk(kind, q), *gamma_reference(q)))
        walk, g_lo, g_hi, q_g = head
        lo, hi = walk(n)
        shift = q_g - q
        return ((lo << shift) - g_hi) >> shift, -((g_lo - (hi << shift)) >> shift)

    digamma_log, n_min = kernels.digamma_log_fixed, kind.n_min

    def at(n):
        if n < start:
            return walked(n)  # the walk checks the domain
        if type(n) is not int or n < n_min:
            _check_domain(kind, n)
        d_lo, d_hi = digamma_log(n, q)
        (c_num, c_den), (x_num, x_den) = split(n)
        u = x_num - n * x_den
        if not u:  # x = n: c's floor and ceiling from one divmod
            below, rest = divmod(c_num << q, c_den)
            return d_lo + below, d_hi + below + (rest > 0)
        w = x_num + n * x_den  # (x - n)/(x + n) = u/w
        if 2 * abs(u) > w:
            g = math.gcd(x_num, n * x_den)
            e_lo, e_hi = ln_ends((c_num, c_den), (c_num, c_den),
                                 (x_num // g, n * x_den // g), q)
            return d_lo + e_lo, d_hi + e_hi
        # c - 2 atanh(u/w) at scale 2**-w_q, floored and ceiled onto 2**-q
        t_lo, t_hi = kernels.atanh_fixed(abs(u), w, w_q)
        l_lo, l_hi = (2 * t_lo, 2 * t_hi) if u > 0 else (-2 * t_hi, -2 * t_lo)
        c, den = c_num << w_q, c_den << w_q - q
        return d_lo + (c - c_den * l_hi) // den, d_hi - ((c_den * l_lo - c) // den)

    return at


def values(kind: SequenceKind, n_from: int, n_to: int, p: int):
    """Sequence values at n = n_from..n_to rounded to p bits, relative
    error <= 2**(1-p) each, as (m, e) with the value m * 2**e: the midpoint
    of a certified pair at scale 2**-q, q = p + GUARD_BITS + bitlen(n_to),
    rounded by `numerics.round_bits`.  An exact kind's pair is `deviation`
    plus gamma's ends at q from `numerics.gamma_reference`(q), at most 8
    ulps wide from N(q) on, far inside the 2**(q - p) ulps the rounding
    leaves; UPlus and UMinus take `Walk`.  A pair too wide to round, as
    near 0, is walked again at twice the scale."""
    numerics._check_precision(p)
    q = p + numerics.GUARD_BITS + n_to.bit_length()
    if kind.exact:
        pair, (g_lo, g_hi, q_g) = deviation(kind, q), gamma_reference(q)
        g_lo, g_hi = g_lo >> q_g - q, -(-g_hi >> q_g - q)
    else:
        pair, g_lo, g_hi = Walk(kind, q), 0, 0
    for n in range(n_from, n_to + 1):
        lo, hi = pair(n)
        lo, hi, q_n = lo + g_lo, hi + g_hi, q
        # twice the midpoint, lo + hi, against the width at scale 2**-q_n:
        # an exact pair passes at once, a wider one straddling 0 never does
        while (hi - lo) << (p + 1) > abs(lo + hi):
            if lo <= 0 <= hi and kind.exact:
                (c_num, c_den), x = _split(kind)(n)  # exactly 0 needs ln x = 0
                h_num, h_den = numerics._hsum(1, n - 1)
                if x == (1, 1) and h_num * c_den + c_num * h_den == 0:
                    lo = hi = 0
                    break
            q_n *= 2  # value is unusually close to zero; retry tighter
            lo, hi = Walk(kind, q_n)(n)
        yield round_bits(lo + hi, q_n + 1, p)
