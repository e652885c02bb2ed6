from fractions import Fraction


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpmath float (they are dyadic)."""
    sign, man, exp, _bc = x._mpf_
    return Fraction((-1) ** sign * man, 1) * Fraction(2) ** exp
