"""Exact polynomial algebra and positivity certificates.

The certification route for the two-sided bracket on the optimal
sequence works entirely in rational arithmetic: the step functions
whose signs control the bracket are differentiated symbolically (their
only non-rational piece, ln(1 + 1/x), has the rational derivative
-1/(x(x+1))).  Every pole of the derivative divides the known common
denominator D = 60 x^5 (x - 1)^2 (x + 1)^5, so the derivative times D is
a polynomial, built term by term and compared coefficient-wise against a
closed-form numerator.  Positivity of that numerator on (c, inf) is
certified by expanding it in powers of (x - c) and checking all
coefficients are nonnegative.  A failed check is only a refusal, never
a disproof: the criterion is sufficient, not necessary.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CertificateError, DomainError

__all__ = [
    "Polynomial",
    "taylor_shift",
    "positivity_certificate",
    "PositivityCertificate",
    "PositivityRefusal",
    "StepFunction",
    "step_function",
    "derivative_of_f",
    "derivative_numerator",
    "derivative_denominator",
    "tail_sign_verdict",
    "TailSignVerdict",
]

NEG_INF = float("-inf")


class Polynomial:
    """Dense univariate polynomial over Fraction, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def degree(self):
        """Degree, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[k] + other[k] for k in range(n))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # degree <= 0 equals its scalar, so it hashes like one
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)


def _as_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial((value,))
    return None


def taylor_shift(p: Polynomial, c) -> Polynomial:
    """Coefficients d_k with p(x) = sum d_k (x - c)^k (synthetic division)."""
    c = Fraction(c)
    out = list(p.coeffs)
    n = len(out)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return Polynomial(out)


# ---------------------------------------------------------------------------
# positivity certificates


class PositivityCertificate:
    """Proof object: all (x - center)-coefficients nonnegative, one positive,
    hence the polynomial is strictly positive on (center, inf)."""

    __slots__ = ("polynomial", "center", "shifted_coeffs")

    def __init__(self, polynomial: Polynomial, center: Fraction, shifted_coeffs: tuple):
        self.polynomial, self.center, self.shifted_coeffs = polynomial, center, shifted_coeffs


class PositivityRefusal:
    """Inconclusive outcome (NOT a disproof): some shifted coefficient is
    negative, or the polynomial is zero."""

    __slots__ = ("polynomial", "center", "shifted_coeffs", "first_negative_index")

    def __init__(self, polynomial: Polynomial, center: Fraction, shifted_coeffs: tuple,
                 first_negative_index: int | None):
        self.polynomial, self.center, self.shifted_coeffs = polynomial, center, shifted_coeffs
        self.first_negative_index = first_negative_index


def positivity_certificate(p: Polynomial, c):
    """Certify p(x) > 0 for all x > c by nonnegative shifted coefficients."""
    c = Fraction(c)
    shifted = taylor_shift(p, c).coeffs
    for k, d in enumerate(shifted):
        if d < 0:
            return PositivityRefusal(p, c, shifted, k)
    if not any(shifted):
        return PositivityRefusal(p, c, shifted, None)
    return PositivityCertificate(p, c, shifted)


# ---------------------------------------------------------------------------
# the two step functions controlling the bracket on s_n - gamma

# s_{n+1} - s_n = 2/(3n) - 1/(12(n-1)) + 5/(12(n+1)) - ln(1 + 1/n), and the
# step of each bracketed gap adds the telescoping difference of the bracket
# itself.  Each step function is a sum of shifted reciprocals plus
# -ln(1 + 1/x), so its derivative is exactly rational, with every pole
# among the roots of D = 60 x^5 (x - 1)^2 (x + 1)^5.

# D's factor and its roots with their multiplicities, and D as text
_DENOMINATOR_SCALE = 60
_DENOMINATOR_ROOTS = {0: 5, 1: 2, -1: 5}
DENOMINATOR_TEXT = " ".join([str(_DENOMINATOR_SCALE), *(
    ("x" if r == 0 else f"(x{-r:+d})") + f"^{e}" for r, e in _DENOMINATOR_ROOTS.items())])


def _denominator_over(poles: dict) -> Polynomial:
    """D / prod (x - r)^e over the poles {r: e}, a polynomial only if D holds
    every pole with at least its multiplicity; CertificateError otherwise."""
    left = dict(_DENOMINATOR_ROOTS)
    for root, e in poles.items():
        if left.get(root, 0) < e:
            raise CertificateError(
                f"pole (x - {root})^{e} is not a factor of {DENOMINATOR_TEXT}")
        left[root] -= e
    x = Polynomial.x()
    out = Polynomial.constant(_DENOMINATOR_SCALE)
    for root, e in left.items():
        out = out * (x - root) ** e
    return out


class ReciprocalTerm:
    """coeff / (x - center)**power."""

    __slots__ = ("coeff", "center", "power")

    def __init__(self, coeff: Fraction, center: Fraction, power: int):
        self.coeff, self.center, self.power = coeff, center, power


class StepFunction:
    """Sum of shifted reciprocal terms plus log_coeff * ln(1 + 1/x)."""

    __slots__ = ("name", "terms", "log_coeff")

    def __init__(self, name: str, terms: tuple, log_coeff: Fraction):
        self.name, self.terms, self.log_coeff = name, terms, log_coeff

    def derivative(self) -> Polynomial:
        """The derivative times D = 60 x^5 (x - 1)^2 (x + 1)^5, summed term by
        term; CertificateError for a pole that D does not hold."""
        total = Polynomial()
        for t in self.terms:
            total += -t.power * t.coeff * _denominator_over({t.center: t.power + 1})
        # d/dx ln(1 + 1/x) = -1/(x(x+1))
        return total - self.log_coeff * _denominator_over({0: 1, -1: 1})

    def vanishes_at_infinity(self) -> bool:
        """Structural check: every additive piece tends to zero.

        Reciprocal terms vanish because their power is >= 1; the log
        term vanishes because ln(1 + 1/x) -> ln 1 = 0.
        """
        return all(t.power >= 1 for t in self.terms)


def _bracket_terms(quartic_coeff: Fraction) -> tuple:
    f = Fraction
    return (
        ReciprocalTerm(f(2, 3), f(0), 1),
        ReciprocalTerm(f(-1, 12), f(1), 1),
        ReciprocalTerm(f(5, 12), f(-1), 1),
        ReciprocalTerm(f(-1, 12), f(-1), 3),
        ReciprocalTerm(-quartic_coeff, f(-1), 4),
        ReciprocalTerm(f(1, 12), f(0), 3),
        ReciprocalTerm(quartic_coeff, f(0), 4),
    )


def step_function(variant: str) -> StepFunction:
    """The step function for a bracket side: "f" (lower, 11/120) or "g"
    (upper, 13/120)."""
    if variant == "f":
        return StepFunction("f", _bracket_terms(Fraction(11, 120)), Fraction(-1))
    if variant == "g":
        return StepFunction("g", _bracket_terms(Fraction(13, 120)), Fraction(-1))
    raise DomainError(f"variant must be 'f' or 'g', got {variant!r}")


def derivative_of_f(variant: str) -> Polynomial:
    """Exact derivative of the requested step function times D."""
    return step_function(variant).derivative()


# Closed forms the derivatives are checked against: f' equals
# P(x) / (60 x^5 (x-1)^2 (x+1)^5) with P expanded around x = 1, and
# g' equals -Q(x) over the same denominator with Q expanded around x = 9.
F_NUMERATOR_SHIFT_CENTER = 1
F_NUMERATOR_SHIFTED_COEFFS = (160, 1200, 2348, 2055, 875, 150)
G_NUMERATOR_SHIFT_CENTER = 9
G_NUMERATOR_SHIFTED_COEFFS = (772064, 1725456, 802376, 164805, 17405, 930, 20)


def derivative_denominator() -> Polynomial:
    """D = 60 x^5 (x - 1)^2 (x + 1)^5, the common denominator of both derivatives."""
    return _denominator_over({})


def derivative_numerator(variant: str) -> Polynomial:
    """The closed-form numerator (P for "f", Q for "g") in standard powers."""
    if variant == "f":
        center, coeffs = F_NUMERATOR_SHIFT_CENTER, F_NUMERATOR_SHIFTED_COEFFS
    elif variant == "g":
        center, coeffs = G_NUMERATOR_SHIFT_CENTER, G_NUMERATOR_SHIFTED_COEFFS
    else:
        raise DomainError(f"variant must be 'f' or 'g', got {variant!r}")
    return taylor_shift(Polynomial(coeffs), -center)


def check_derivative_identity(variant: str) -> bool:
    """Coefficient-wise identity between the symbolic derivative times D and
    the closed-form numerator (+P for "f", -Q for "g")."""
    numer = derivative_numerator(variant)
    return derivative_of_f(variant) == (numer if variant == "f" else -numer)


class TailSignVerdict:
    """Composed conclusion about one side of the bracket on s_n - gamma:
    derivative_sign is the sign of the step function's derivative on
    (threshold, inf), function_sign that of the step function there."""

    __slots__ = ("variant", "numerator_certificate", "denominator_certificate",
                 "identity_checked", "derivative_sign", "threshold", "vanishes_at_infinity",
                 "function_sign", "conclusion")

    def __init__(self, variant: str, numerator_certificate: PositivityCertificate,
                 denominator_certificate: PositivityCertificate, identity_checked: bool,
                 derivative_sign: int, threshold: int, vanishes_at_infinity: bool,
                 function_sign: int, conclusion: str):
        self.variant, self.identity_checked = variant, identity_checked
        self.numerator_certificate = numerator_certificate
        self.denominator_certificate = denominator_certificate
        self.derivative_sign, self.function_sign = derivative_sign, function_sign
        self.threshold, self.vanishes_at_infinity = threshold, vanishes_at_infinity
        self.conclusion = conclusion


def tail_sign_verdict(variant: str) -> TailSignVerdict:
    """Certify the sign chain for one bracket side.

    For "f": numerator positive on (1, inf) and the denominator too, so
    the derivative is positive, the step function increases to its
    limit 0 and is therefore negative; the gap above the lower bracket
    strictly decreases from n = 2 on.  For "g" the signs flip (the
    derivative is -Q/D) and the gap below the upper bracket strictly
    increases from n = 9 on.
    """
    fn = step_function(variant)
    if not check_derivative_identity(variant):
        raise CertificateError(f"derivative of {variant} does not match its closed form")
    threshold = F_NUMERATOR_SHIFT_CENTER if variant == "f" else G_NUMERATOR_SHIFT_CENTER
    numer_cert = positivity_certificate(derivative_numerator(variant), threshold)
    den_cert = positivity_certificate(derivative_denominator(), threshold)
    if not isinstance(numer_cert, PositivityCertificate) or not isinstance(
        den_cert, PositivityCertificate
    ):
        raise CertificateError(f"positivity certificate unavailable for {variant!r}")
    if not fn.vanishes_at_infinity():
        raise CertificateError(f"{variant} does not vanish at infinity structurally")
    if variant == "f":
        conclusion = (
            "gap above the lower bracket is strictly decreasing for n >= 2 "
            "with limit 0, hence positive: the lower bound holds for n >= 3"
        )
        derivative_sign, function_sign = 1, -1
    else:
        conclusion = (
            "gap below the upper bracket is strictly increasing for n >= 9 "
            "with limit 0, hence negative: the upper bound holds for n >= 9"
        )
        derivative_sign, function_sign = -1, 1
    return TailSignVerdict(
        variant=variant,
        numerator_certificate=numer_cert,
        denominator_certificate=den_cert,
        identity_checked=True,
        derivative_sign=derivative_sign,
        threshold=threshold,
        vanishes_at_infinity=True,
        function_sign=function_sign,
        conclusion=conclusion,
    )
