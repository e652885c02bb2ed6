import math
from fractions import Fraction


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpmath float (they are dyadic)."""
    sign, man, exp, _bc = x._mpf_
    return Fraction((-1) ** sign * man, 1) * Fraction(2) ** exp


def dyadic_ends(lo: int, hi: int, q: int) -> tuple[Fraction, Fraction]:
    """The ends of an enclosure (lo, hi, q), lo/2**q and hi/2**q, as exact Fractions."""
    return Fraction(lo, 1 << q), Fraction(hi, 1 << q)


def dyadic_value(m: int, e: int) -> Fraction:
    """The value m * 2**e of a pair (m, e), as `sequences.values` gives it, as an exact Fraction."""
    return Fraction(m) * Fraction(2) ** e


def walk_ends(kind, n: int, q: int) -> tuple[Fraction, Fraction]:
    """The certified ends of the sequence `kind` at n from one `sequences.Walk` at
    scale 2**-q, as exact Fractions."""
    from gammaseq.sequences import Walk

    return dyadic_ends(*Walk(kind, q)(n), q)


def split_at(kind, n: int) -> tuple[Fraction, Fraction]:
    """(c, x) with the sequence `kind` at n equal to H_{n-1} + c - ln x: the integer
    pairs of `sequences._split`, as Fractions."""
    from gammaseq.sequences import _split

    c, x = _split(kind)(n)
    return Fraction(*c), Fraction(*x)


def _mp_frac(x):
    import mpmath as mp

    return mp.mpf(x.numerator) / x.denominator


def mp_value(kind, n: int):
    """The sequence `kind` at n in mpmath at its working precision, from the
    published formulas, independent of the split's H_{n-1} + correction form."""
    import mpmath as mp

    from gammaseq.sequences import (
        DeTempleR, GammaN, MuFamily, SOptimal, UPlus, VernescuV, VFamily,
    )

    h = mp.harmonic
    if isinstance(kind, GammaN):
        return h(n) - mp.ln(n)
    if isinstance(kind, DeTempleR):
        return h(n) - mp.ln(n + mp.mpf(1) / 2)
    if isinstance(kind, VernescuV):
        return h(n - 1) + mp.mpf(1) / (2 * n) - mp.ln(n)
    if isinstance(kind, SOptimal):
        return h(n - 2) + mp.mpf(13) / (12 * (n - 1)) + mp.mpf(5) / (12 * n) - mp.ln(n)
    if isinstance(kind, MuFamily):
        return h(n - 1) + 1 / (_mp_frac(kind.a) * n) - mp.ln(n + _mp_frac(kind.b))
    if isinstance(kind, VFamily):
        return (h(n - 2) + (_mp_frac(kind.a) * n + _mp_frac(kind.b)) / (n * (n - 1))
                - mp.ln(n))
    r6 = mp.sqrt(6)
    if isinstance(kind, UPlus):
        return h(n - 1) + 1 / ((6 + 2 * r6) * n) - mp.ln(n - 1 / r6)
    return h(n - 1) + 1 / ((6 - 2 * r6) * n) - mp.ln(n + 1 / r6)


def ln_bracket(x, q: int) -> tuple[Fraction, Fraction]:
    """ln x for an exact rational x > 0, enclosed by `numerics.ln_fixed`, as exact
    Fractions."""
    from gammaseq.numerics import ln_fixed

    x = Fraction(x)
    return dyadic_ends(*ln_fixed(x.numerator, x.denominator, q))


def sqrt_bracket(x, q: int) -> tuple[Fraction, Fraction]:
    """sqrt x for an exact rational x >= 0 between s/2**q and (s + 1)/2**q, with s
    the floor of sqrt(x) * 2**q from math.isqrt."""
    x = Fraction(x)
    s = math.isqrt((x.numerator << 2 * q) // x.denominator)
    return Fraction(s, 1 << q), Fraction(s + 1, 1 << q)
