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
