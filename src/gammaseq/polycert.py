"""Exact polynomial algebra and positivity certificates.

The certification route for the two-sided bracket on the optimal
sequence works entirely in rational arithmetic.  Each side of the
bracket is one row of `_SIDES`; its step function is the sum of the
terms c/(x - r)^k of `step_terms` less ln(1 + 1/x), whose derivative
-1/(x(x+1)) is rational.  Every pole of the derivative divides the
common denominator D = 60 x^5 (x - 1)^2 (x + 1)^5, so the derivative
times D is a polynomial, built term by term and compared coefficient-wise
against the side's closed-form numerator, +P or -Q.  Positivity of P or Q
on (c, inf) is certified by expanding it in powers of (x - c) and
checking all coefficients are nonnegative.  A failed check is only a
refusal, never a disproof: the criterion is sufficient, not necessary.
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
    "step_terms",
    "derivative",
    "derivative_of_f",
    "derivative_numerator",
    "derivative_denominator",
    "numerator_certificate",
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

# One row per side S(n) = 1/(12 n^3) + t/n^4 of the bracket: "f" the lower
# side, "g" the upper.  Each row holds t; the sign of the step function's
# derivative on (centre, inf); the centre; the (x - centre)-coefficients of
# the closed form (P for "f", Q for "g") that the derivative times D equals
# up to that sign; and the conclusion the sign chain proves.
_SIDES = {
    "f": (Fraction(11, 120), 1, 1, (160, 1200, 2348, 2055, 875, 150),
          "gap above the lower bracket is strictly decreasing for n >= 2 "
          "with limit 0, hence positive: the lower bound holds for n >= 3"),
    "g": (Fraction(13, 120), -1, 9, (772064, 1725456, 802376, 164805, 17405, 930, 20),
          "gap below the upper bracket is strictly increasing for n >= 9 "
          "with limit 0, hence negative: the upper bound holds for n >= 9"),
}
F_NUMERATOR_SHIFTED_COEFFS = _SIDES["f"][3]
G_NUMERATOR_SHIFTED_COEFFS = _SIDES["g"][3]


def _side(variant: str) -> tuple:
    try:
        return _SIDES[variant]
    except KeyError:
        raise DomainError(f"variant must be 'f' or 'g', got {variant!r}") from None


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


def step_terms(variant: str) -> tuple:
    """The step function of one side, less its -ln(1 + 1/x), as terms
    (c, r, k) that stand for c/(x - r)^k.

    The step of the gap s_n - gamma - S(n) is s_(n+1) - s_n, which is
    2/(3n) - 1/(12(n-1)) + 5/(12(n+1)) - ln(1 + 1/n), plus the telescoping
    S(n) - S(n+1) of the side S(n) = 1/(12 n^3) + t/n^4.
    """
    t, f = _side(variant)[0], Fraction
    return ((f(2, 3), 0, 1), (f(-1, 12), 1, 1), (f(5, 12), -1, 1),
            (f(1, 12), 0, 3), (t, 0, 4), (f(-1, 12), -1, 3), (-t, -1, 4))


def derivative(terms) -> Polynomial:
    """D = 60 x^5 (x - 1)^2 (x + 1)^5 times d/dx(sum c/(x - r)^k - ln(1 + 1/x))
    over the terms (c, r, k), summed term by term; CertificateError for a
    pole that D does not hold."""
    total = _denominator_over({0: 1, -1: 1})  # -d/dx ln(1 + 1/x) = 1/(x(x+1))
    for c, r, k in terms:
        total -= k * c * _denominator_over({r: k + 1})
    return total


def derivative_of_f(variant: str) -> Polynomial:
    """Exact derivative of the requested step function times D."""
    return derivative(step_terms(variant))


def derivative_denominator() -> Polynomial:
    """D = 60 x^5 (x - 1)^2 (x + 1)^5, the common denominator of both derivatives."""
    return _denominator_over({})


def derivative_numerator(variant: str) -> Polynomial:
    """The closed-form numerator (P for "f", Q for "g") in standard powers."""
    _, _, centre, coeffs, _ = _side(variant)
    return taylor_shift(Polynomial(coeffs), -centre)


def numerator_certificate(variant: str):
    """The positivity certificate (or refusal) of P or Q at its centre."""
    return positivity_certificate(derivative_numerator(variant), _side(variant)[2])


class TailSignVerdict:
    """Composed conclusion about one side of the bracket on s_n - gamma:
    derivative_sign is the sign of the step function's derivative on
    (threshold, inf), function_sign that of the step function there.  A
    verdict is made only once the identity and the vanishing are checked."""

    __slots__ = ("numerator_certificate", "identity_checked", "derivative_sign",
                 "threshold", "vanishes_at_infinity", "function_sign", "conclusion")

    def __init__(self, numerator_certificate: PositivityCertificate, derivative_sign: int,
                 threshold: int, conclusion: str):
        self.numerator_certificate, self.threshold = numerator_certificate, threshold
        self.derivative_sign, self.function_sign = derivative_sign, -derivative_sign
        self.identity_checked = self.vanishes_at_infinity = True
        self.conclusion = conclusion


def tail_sign_verdict(variant: str) -> TailSignVerdict:
    """Certify the sign chain for one bracket side: the derivative times D
    is the side's sign times P or Q, both P or Q and D are positive past the
    centre, and every piece vanishes at infinity.  So the step function has
    the opposite sign, and the gap is monotone with limit 0 from there on."""
    _, sign, centre, _, conclusion = _side(variant)
    terms = step_terms(variant)
    if derivative(terms) != sign * derivative_numerator(variant):
        raise CertificateError(f"derivative of {variant} does not match its closed form")
    numer_cert = numerator_certificate(variant)
    if not all(isinstance(cert, PositivityCertificate) for cert in (
            numer_cert, positivity_certificate(derivative_denominator(), centre))):
        raise CertificateError(f"positivity certificate unavailable for {variant!r}")
    # each term c/(x - r)^k with k >= 1 tends to 0, and so does ln(1 + 1/x)
    if not all(k >= 1 for _, _, k in terms):
        raise CertificateError(f"{variant} does not vanish at infinity structurally")
    return TailSignVerdict(numer_cert, sign, centre, conclusion)
