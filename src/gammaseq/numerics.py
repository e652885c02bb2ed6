"""Exact and certified numerics.

The certified path has one interval representation: integers at an
explicit scale, the kernels' protocol, where a pair (lo, hi) at scale
2**-q brackets the true value.  ``Fraction`` values hold exact
rationals only: series coefficients and exact harmonic numbers, which
`eval` prints as rational parts and `sequences.values` reads to tell an
exact zero; `fractions` is imported only where one is made, so that
neither the sweep nor the constant's enclosure loads it.  `ln_fixed` is
the integer core for logarithms, at a scale of its own: it divides the
argument by a power of two and the nearest anchor j / 2**7, whose
logarithm and ln 2 it caches per scale, and sums one short atanh series
for the rest; `ln_ends`, the one routine that combines it with an
exact rational c, gives the floor and ceiling of (c - ln x) * 2**q to
the sequence walk and the constant's enclosure, with c and x as integer
pairs (num, den).  `gamma_reference` gives the
constant at any precision through one route, the exponential-integral
identity, and `gamma_bootstrap` gives it from s_n at an explicit n for
`enclose --n` only; both in the same protocol, as (lo, hi, q).
`harmonic_ends` gives the bootstrap its H_m as a short head summed term
by term plus an Euler-Maclaurin tail, H_m - H_a = psi(m + 1) - psi(a + 1),
with psi - ln by the asymptotic series of DLMF 5.11.2; gamma cancels in
the difference, and head and series both have O(q) terms whatever m is.
`round_bits` rounds an integer at a scale to an explicit number of bits
(the first of `eval`'s two roundings, see `sequences.values`), and
`decimal_text` prints num/den in any of the rounding modes of `_round`;
the row templates of `cli` print their integers with the same rules.  A
`BigReal` is a value rounded once to an explicit number of bits, in
`_round`'s modes; no command uses it any more, and it stays as the
reference that `round_bits` and the row templates are tested against.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import _kernels_py as kernels
from .errors import DomainError

__all__ = [
    "BigReal",
    "decimal_text",
    "round_bits",
    "harmonic_exact",
    "harmonic_ends",
    "ln_fixed",
    "ln_ends",
    "gamma_reference",
    "gamma_bootstrap",
]

MIN_PRECISION = 32

# Guard bits added on top of a requested output precision before any
# composite evaluation; one rounding at the end then cannot disturb the
# promised bound.
GUARD_BITS = 32


def _check_precision(p: int) -> None:
    if not isinstance(p, int) or p < MIN_PRECISION:
        raise DomainError(f"precision must be an integer >= {MIN_PRECISION}, got {p!r}")


def _round(num: int, den: int, rounding: str) -> tuple[bool, int]:
    """num/den (den > 0, not necessarily reduced) rounded to an integer, as
    (negative, magnitude): "nearest" ties to even, "floor" and "ceiling"
    round toward -inf and +inf, "half-up" rounds the magnitude with ties
    away from zero and keeps num's sign when the magnitude rounds to 0."""
    negative = num < 0
    q, r = divmod(-num if negative else num, den)
    if rounding == "nearest":
        up = 2 * r > den or (2 * r == den and q & 1)
    elif rounding == "half-up":
        up = 2 * r >= den
    elif rounding == "floor":
        up = negative and r
    elif rounding == "ceiling":
        up = not negative and r
    else:
        raise ValueError(f"unknown rounding mode {rounding!r}")
    if up:
        q += 1
    return negative and (q > 0 or rounding == "half-up"), q


def decimal_text(num: int, den: int, places: int, rounding: str = "nearest") -> str:
    """num/den (den > 0) as a fixed-point decimal with `places` digits after
    the point, rounded as `BigReal.from_fraction` rounds bits."""
    negative, q = _round(num * 10**places, den, rounding)
    digits = str(q).rjust(places + 1, "0")
    sign = "-" if negative else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"


def round_bits(x: int, s: int, p: int) -> tuple[int, int]:
    """x * 2**-s rounded to p bits, nearest with ties to even, as (m, e)
    with |m| < 2**p and the value m * 2**e; (0, 0) for x = 0.  The value
    of BigReal.from_fraction(Fraction(x, 2**s), p), in integers."""
    if not x:
        return 0, 0
    drop = abs(x).bit_length() - p
    if drop <= 0:
        return x, -s  # exact in p bits
    negative = x < 0
    a = -x if negative else x
    m = a >> drop
    rest = a & ((1 << drop) - 1)
    half = 1 << (drop - 1)
    if rest > half or (rest == half and m & 1):
        m += 1
        if m >> p:  # rounded up to 2**p
            m >>= 1
            drop += 1
    return -m if negative else m, drop - s


# ---------------------------------------------------------------------------
# BigReal


class BigReal:
    """A value rounded once to `prec` bits: mant * 2**exp with |mant| < 2**prec.

    `from_fraction` rounds an exact value in the requested direction;
    `to_fraction` and `decimal_str` read it back.  There is no
    arithmetic: compute exactly, then round once.  Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("mant", "exp", "prec")

    def __init__(self, mant: int, exp: int, prec: int):
        _check_precision(prec)
        if mant == 0:
            exp = 0
        elif abs(mant).bit_length() > prec:
            raise ValueError("mantissa wider than the stated precision")
        object.__setattr__(self, "mant", mant)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, name, value):
        raise AttributeError("BigReal is immutable")

    @classmethod
    def from_fraction(cls, value, prec: int, rounding: str = "nearest") -> "BigReal":
        """Round an exact value to `prec` bits.

        rounding is "nearest" (ties to even), "floor" (toward -inf),
        "ceiling" (toward +inf) or "half-up" (ties away from zero).
        """
        from fractions import Fraction

        _check_precision(prec)
        value = Fraction(value)
        if value == 0:
            return cls(0, 0, prec)
        num, den = value.numerator, value.denominator
        e = abs(num).bit_length() - den.bit_length()
        if (abs(num) << max(0, -e)) < (den << max(0, e)):
            e -= 1
        # now 2**e <= |value| < 2**(e+1); the result has exactly prec bits
        exp = e - prec + 1
        negative, q = _round(num << max(0, -exp), den << max(0, exp), rounding)
        if q.bit_length() > prec:  # rounded up to a power of two
            q >>= 1
            exp += 1
        return cls(-q if negative else q, exp, prec)

    def to_fraction(self) -> Fraction:
        from fractions import Fraction

        if self.exp >= 0:
            return Fraction(self.mant << self.exp)
        return Fraction(self.mant, 1 << -self.exp)

    def decimal_str(self, places: int, rounding: str = "nearest") -> str:
        """Fixed-point decimal string with `places` digits after the point."""
        if self.exp >= 0:
            return decimal_text(self.mant << self.exp, 1, places, rounding)
        return decimal_text(self.mant, 1 << -self.exp, places, rounding)


# ---------------------------------------------------------------------------
# harmonic numbers


def _check_n(n) -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")


def _hsum(a: int, b: int) -> tuple[int, int]:
    # unreduced numerator/denominator of 1/a + ... + 1/b, combined pairwise
    # so only one gcd is paid at the very end
    if b - a < 8:
        num, den = 0, 1
        for k in range(a, b + 1):
            num = num * k + den
            den *= k
        return num, den
    mid = (a + b) // 2
    n1, d1 = _hsum(a, mid)
    n2, d2 = _hsum(mid + 1, b)
    return n1 * d2 + n2 * d1, d1 * d2


def harmonic_exact(n: int) -> Fraction:
    """Exact harmonic number 1 + 1/2 + ... + 1/n, summed afresh on each call
    (certified paths carry H_n as kernel intervals, see `sequences.Walk`)."""
    from fractions import Fraction

    _check_n(n)
    return Fraction(*_hsum(1, n))


# ---------------------------------------------------------------------------
# logarithms


_ln2_fixed = lru_cache(maxsize=64)(kernels.ln2_fixed)

# R: `ln_fixed` reduces m = x / 2**e in [1, 2) by the nearest anchor j / 2**R,
# 2**R <= j <= 2**(R+1), so the atanh series left per call has ratio t <= 2**-(R+2)
_ANCHOR_BITS = 7


@lru_cache(maxsize=1024)
def _ln_anchor(j: int, cq: int) -> tuple[int, int]:
    """Enclosure of ln(j / 2**R) * 2**cq, as 2 atanh((j - 2**R) / (j + 2**R))."""
    one = 1 << _ANCHOR_BITS
    lo, hi = kernels.atanh_fixed(j - one, j + one, cq)
    return 2 * lo, 2 * hi


def ln_fixed(num: int, den: int, q: int) -> tuple[int, int, int]:
    """Enclosure (lo, hi, q_eff) of ln(num/den) * 2**q_eff for coprime
    num, den > 0, at a scale q_eff >= q.

    For x = num/den > 1, m = x / 2**e lies in [1, 2) and the anchor
    j = round(m 2**R) in [2**R, 2**(R+1)] (R = `_ANCHOR_BITS`).  Then

        ln x = e ln 2 + ln(j / 2**R) + 2 atanh(u / w),

    with u = num 2**R - j den 2**e and w = num 2**R + j den 2**e, and as
    |m 2**R - j| <= 1/2 and m 2**R + j >= 2**(R+1), |u| / w <= 2**-(R+2).
    ln 2 and ln(j / 2**R) are cached pairs at the wide scale
    cq = (q_eff | 63) + 65, which depends on q_eff alone; the atanh pair
    (s, s + d + 1) of `kernels.atanh_fixed` is at q_eff, negated with
    its ends swapped for u < 0.  x < 1 is -ln(1/x).

    Width.  The chain's d-th power is at most t^d 2**q_eff <= 2**(q_eff - 9d)
    (9 = R + 2), so it stops by the first odd d >= 3 with 9d >= q_eff, and
    d <= max(3, q_eff/9 + 2); the doubled pair is 2(d + 1) wide.
    e ln 2 + ln(j / 2**R) at cq is the sum of e + 1 pairs, e of ln 2,
    each at most 5 cq + 112 wide, and the anchor's, at most 2(cq + 3)
    wide; each is narrower than 2**(cq - q_eff) (cq < 2**62), so the
    floor and ceiling of the sum at q_eff are at most e + 2 ulps apart.
    Hence

        hi - lo <= 2(d + 1) + e + 2 <= 2 q_eff/9 + e + 8   (q_eff >= 9).

    q_eff is at least q + bitlen(q) + 2, and 2**(bitlen(q) + 2) > 4q, so
    for q >= 8 and e < 3q the pair is less than 2**-q wide.  The working
    scale is raised further when num/den is close to 1, so the result
    is accurate relative to |ln x|, not just absolutely; there e = 0 and
    j = 2**R, and the atanh pair is all there is.
    """
    if num <= 0:
        from fractions import Fraction

        raise DomainError(f"ln requires a positive argument, got {Fraction(num, den)}")
    if num == den:
        return 0, 0, q
    if num < den:
        lo, hi, q_eff = ln_fixed(den, num, q)
        return -hi, -lo, q_eff
    e = num.bit_length() - den.bit_length()
    if (den << e) > num:
        e -= 1
    shifted = den << e
    q_eff = q + q.bit_length() + 2
    if e == 0:
        # keep relative accuracy when ln x ~ 2 (x - 1)/(x + 1) is tiny
        q_eff += max(0, (num + den).bit_length() - (num - den).bit_length())
    big = num << _ANCHOR_BITS
    j = ((big << 1) // shifted + 1) >> 1
    anchored = j * shifted
    u = big - anchored
    w = big + anchored
    at_lo, at_hi = kernels.atanh_fixed(abs(u), w, q_eff)
    lo, hi = (-2 * at_hi, -2 * at_lo) if u < 0 else (2 * at_lo, 2 * at_hi)
    if e or j != 1 << _ANCHOR_BITS:
        # e ln 2 + ln(j / 2**R) at the wide scale, rounded outward to q_eff
        cq = (q_eff | 63) + 65
        l2_lo, l2_hi = _ln2_fixed(cq)
        a_lo, a_hi = _ln_anchor(j, cq)
        shift = cq - q_eff
        lo += (e * l2_lo + a_lo) >> shift
        hi -= (-(e * l2_hi + a_hi)) >> shift
    return lo, hi, q_eff


def ln_ends(c_lo: tuple[int, int], c_hi: tuple[int, int], x: tuple[int, int],
            q: int) -> tuple[int, int]:
    """Floor of (c_lo - ln x) * 2**q and ceiling of (c_hi - ln x) * 2**q, from
    one ln x.  Each argument is an exact rational as an integer pair
    (num, den) with den > 0; c_lo and c_hi need not be reduced, x must be,
    as `ln_fixed` reads its bit lengths."""
    (lo_num, lo_den), (hi_num, hi_den) = c_lo, c_hi
    ln_lo, ln_hi, q_ln = ln_fixed(*x, q)
    # c - ln at scale 2**-q_ln over c's denominator
    shift = q_ln - q
    lo = ((lo_num << q_ln) - lo_den * ln_hi) // (lo_den << shift)
    hi = -((hi_den * ln_lo - (hi_num << q_ln)) // (hi_den << shift))
    return lo, hi


# ---------------------------------------------------------------------------
# the reference enclosure for the Euler-Mascheroni constant

# gamma_reference uses the exponential-integral identity
#   gamma = sum_{k>=1} (-1)^(k+1) x^k/(k k!) - ln x - E1(x),
# whose remainder satisfies 0 < E1(x) < exp(-x)/x, giving any precision
# in O(p) cheap terms.

# 14426/10000 < log2(e), so exp(-x) <= 2**-(x*14426//10000)
_LOG2_E_FLOOR = (14426, 10000)


def _gamma_ends(lo: int, hi: int, q: int) -> tuple[int, int, int]:
    # the one order check, which gamma_reference and gamma_bootstrap return through
    if lo > hi:
        raise ValueError("enclosure endpoints out of order")
    return lo, hi, q


# the scale of `harmonic_ends`' head and tail above the scale it returns
EM_GUARD_BITS = 16


def harmonic_ends(m: int, q: int) -> tuple[int, int]:
    """Enclosure (lo, hi) of H_m * 2**q for m >= 0, as a head summed term
    by term and an Euler-Maclaurin tail, at O(q) work whatever m is.

    With w = q + EM_GUARD_BITS, the head a = w and m > a, H_m - H_a =
    psi(m + 1) - psi(a + 1), in which gamma cancels, so

        H_m = H_a + ln((m + 1)/(a + 1)) + D(m + 1) - D(a + 1),

    D(x) = psi(x) - ln x (`kernels.digamma_log_fixed`, DLMF 5.11.2).  All
    four are enclosed at w: H_a by `kernels.harmonic_fixed`, a ulps wide,
    each D within 4 ulps, as the kernel's table, sized from w, ends below
    one ulp from x = w + 1 on, and the logarithm within 2 ulps
    (m < 2**(3q), see `ln_fixed`); the sum is rounded outward to q, so
    hi - lo <= ((w + 10) >> EM_GUARD_BITS) + 2.  For m <= a,
    `kernels.harmonic_fixed`(m, q) sums H_m directly, m ulps wide.
    """
    a = wq = q + EM_GUARD_BITS
    if m <= a:
        return kernels.harmonic_fixed(m, q)
    h_lo, h_hi = kernels.harmonic_fixed(a, wq)
    g = gcd(m + 1, a + 1)
    ln_lo, ln_hi, q_ln = ln_fixed((m + 1) // g, (a + 1) // g, wq)
    d_lo, d_hi = kernels.digamma_log_fixed(m + 1, wq)
    e_lo, e_hi = kernels.digamma_log_fixed(a + 1, wq)
    shift = q_ln - wq
    lo = h_lo + (ln_lo >> shift) + d_lo - e_hi
    hi = h_hi - (-ln_hi >> shift) + d_hi - e_lo
    return lo >> EM_GUARD_BITS, -(-hi >> EM_GUARD_BITS)


def gamma_bootstrap(n: int, p: int) -> tuple[int, int, int]:
    """Enclosure (lo, hi, q) of the Euler-Mascheroni constant from s_n at
    an explicit n, lo <= gamma * 2**q <= hi, for `enclose --n`.

    s_n = H_{n-2} + 13/(12(n-1)) + 5/(12n) - ln n satisfies, for n >= 9,
    1/(12n^3) + 11/(120n^4) < s_n - gamma < 1/(12n^3) + 13/(120n^4), so
    the width is 1/(60 n^4) plus evaluation slack; n < 9 is rejected, as
    the upper bracket only holds from there.  H_{n-2} comes from
    `harmonic_ends`, a head of O(q) terms and an Euler-Maclaurin tail whose
    identity is free of gamma, so the enclosure is derived from s_n alone
    at O(q) work whatever n is.
    """
    if not isinstance(n, int) or n < 9:
        raise DomainError(f"bootstrap enclosure requires n >= 9, got {n!r}")
    _check_precision(p)
    q = p + GUARD_BITS + n.bit_length()
    h_lo, h_hi = harmonic_ends(n - 2, q)
    # 13/(12(n-1)) + 5/(12n) - 1/(12n^3) - k/(120n^4) for k = 13, 11, over 120 n^4 (n-1)
    rest = 10 * n * (18 * n**3 - 5 * n**2 - n + 1)
    den = 120 * n**4 * (n - 1)
    lo, hi = ln_ends((rest - 13 * (n - 1), den), (rest - 11 * (n - 1), den), (n, 1), q)
    return _gamma_ends(h_lo + lo, h_hi + hi, q)


@lru_cache(maxsize=64)
def gamma_reference(p: int) -> tuple[int, int, int]:
    """Certified enclosure (lo, hi, q) of the Euler-Mascheroni constant,
    lo <= gamma * 2**q <= hi, of width (hi - lo) * 2**-q <= 2**(2-p).

    Deterministic for a given p.  Every p takes the exponential-integral
    route, with x chosen so that exp(-x)/x <= 2**-(p+3).  The series
    minus ln x is gamma + E1(x), the upper end; the lower end subtracts
    exp(-x)/x from it.  So gamma lies near the lower end, about E1(x)
    below the upper one.
    """
    _check_precision(p)
    c_num, c_den = _LOG2_E_FLOOR
    x = (p + 3) * c_den // c_num + 2
    shift = x * c_num // c_den  # exp(-x) <= 2**-shift, shift >= p+3
    q = p + GUARD_BITS + 16
    # the kernel's pair is 5 ulps wide at q_series; 32 bits more than q
    # keep those ulps from reaching the q-bit ends
    q_series = q + 32
    s_lo, s_hi = kernels.gamma_series_fixed(x, q_series)
    # the lower end takes off 1/(x 2**shift), an upper bound on E1(x)
    tail_den = x << shift
    return _gamma_ends(*ln_ends((s_lo * tail_den - (1 << q_series), tail_den << q_series),
                                (s_hi, 1 << q_series), (x, 1), q), q)
