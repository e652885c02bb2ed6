"""Polynomial algebra, Taylor shifts, and the sign-chain certificates."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import dyadic_ends, walk_ends
from gammaseq.bounds import get_entry
from gammaseq.errors import CertificateError, DomainError
from gammaseq.numerics import gamma_reference
from gammaseq.polycert import (
    F_NUMERATOR_SHIFTED_COEFFS,
    G_NUMERATOR_SHIFTED_COEFFS,
    Polynomial,
    PositivityCertificate,
    PositivityRefusal,
    derivative,
    derivative_denominator,
    derivative_numerator,
    derivative_of_f,
    numerator_certificate,
    positivity_certificate,
    step_terms,
    tail_sign_verdict,
    taylor_shift,
)
from gammaseq.sequences import SOptimal, _split

F = Fraction
X = Polynomial.x()


def random_poly(rng, degree):
    return Polynomial(
        [F(rng.randrange(-20, 21), rng.randrange(1, 8)) for _ in range(degree + 1)]
    )


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_poly_basics():
    assert (X - 1) * (X + 1) == X**2 - 1
    assert Polynomial((1, 2, 1)).evaluate(F(1, 2)) == F(9, 4)
    assert Polynomial().degree == float("-inf")
    assert (X**3).degree == 3


def test_taylor_shift_hand_value():
    assert taylor_shift(X**2, 1).coeffs == (1, 2, 1)


def test_taylor_shift_round_trips():
    rng = random.Random(53)
    for _ in range(50):
        p = random_poly(rng, rng.randrange(0, 7))
        c = F(rng.randrange(-10, 11), rng.randrange(1, 6))
        assert taylor_shift(taylor_shift(p, c), -c) == p


def test_taylor_shift_preserves_evaluation():
    rng = random.Random(59)
    p = random_poly(rng, 5)
    c = F(3, 7)
    shifted = taylor_shift(p, c)
    for _ in range(20):
        x = F(rng.randrange(-40, 40), rng.randrange(1, 12))
        assert p.evaluate(x) == sum(
            d * (x - c) ** k for k, d in enumerate(shifted.coeffs)
        )


# ---------------------------------------------------------------------------
# positivity certificates


def test_certificates_recover_closed_form_coefficients():
    cert_p = positivity_certificate(derivative_numerator("f"), 1)
    assert isinstance(cert_p, PositivityCertificate)
    assert cert_p.shifted_coeffs == F_NUMERATOR_SHIFTED_COEFFS
    cert_q = positivity_certificate(derivative_numerator("g"), 9)
    assert isinstance(cert_q, PositivityCertificate)
    assert cert_q.shifted_coeffs == G_NUMERATOR_SHIFTED_COEFFS
    # certify --target P|Q prints the certificate that the verdicts check
    for variant, cert in (("f", cert_p), ("g", cert_q)):
        own = numerator_certificate(variant)
        assert (own.center, own.shifted_coeffs) == (cert.center, cert.shifted_coeffs)


def test_numerator_polynomials_match_independent_construction():
    # build P from its (x-1)-power form with generic polynomial arithmetic
    p = Polynomial()
    for k, c in enumerate(F_NUMERATOR_SHIFTED_COEFFS):
        p = p + c * (X - 1) ** k
    assert p == derivative_numerator("f")
    q = Polynomial()
    for k, c in enumerate(G_NUMERATOR_SHIFTED_COEFFS):
        q = q + c * (X - 9) ** k
    assert q == derivative_numerator("g")


def test_certificate_refusal_is_not_a_disproof():
    refusal = positivity_certificate(X**2 - 1, 0)
    assert isinstance(refusal, PositivityRefusal)
    assert refusal.first_negative_index == 0
    # yet x^2 - 1 > 0 on (1, inf); a shifted center certifies it
    assert isinstance(positivity_certificate(X**2 - 1, 1), PositivityCertificate)


def test_certificate_soundness_random_points():
    rng = random.Random(61)
    for poly, c in ((derivative_numerator("f"), F(1)), (derivative_denominator(), F(1))):
        cert = positivity_certificate(poly, c)
        assert isinstance(cert, PositivityCertificate)
        for _ in range(100):
            x = c + F(rng.randrange(1, 10**6), rng.randrange(1, 10**4))
            assert poly.evaluate(x) > 0


def test_zero_polynomial_refused():
    assert isinstance(positivity_certificate(Polynomial(), 0), PositivityRefusal)


# ---------------------------------------------------------------------------
# the step functions and their sign chains


def test_derivative_identity_exact():
    # the derivatives times D are the closed-form numerators, +P and -Q
    assert derivative_of_f("f") == derivative_numerator("f")
    assert derivative_of_f("g") == -derivative_numerator("g")
    assert derivative_of_f("f").degree == 5 and derivative_of_f("g").degree == 6


def test_derivative_rejects_a_pole_outside_the_denominator():
    # D = 60 x^5 (x-1)^2 (x+1)^5 lacks (x - 2), and holds x only to the 5th power
    assert derivative(()) * X * (X + 1) == derivative_denominator()
    for term in ((F(1), 2, 1), (F(1), 0, 5), (F(1), 1, 2)):
        with pytest.raises(CertificateError):
            derivative((term,))


def _step_rational(variant):
    """n -> 1/n + c(n+1) - c(n) + S(n) - S(n+1) at any rational n, with c
    from the package's own split of s_n = H_(n-1) + c(n) - ln n and S the
    side of theorem22: the step of s_n - gamma - S(n) less ln(1 + 1/n)."""
    split, entry = _split(SOptimal()), get_entry("theorem22")
    side = entry.lower if variant == "f" else entry.upper
    assert split(5)[1] == (5, 1)  # the log argument is n itself

    def c(n):
        return F(*split(n)[0])

    def S(n):
        return F(*side(n, None))

    return lambda n: 1 / F(n) + c(n + 1) - c(n) + S(n) - S(n + 1)


def test_step_terms_are_the_step_of_the_gap():
    # the step function's log coefficient -1 is the -ln(1 + 1/n) of the step
    for variant in ("f", "g"):
        rational, terms = _step_rational(variant), step_terms(variant)
        for n in range(2, 201):
            assert sum(c / (n - r) ** k for c, r, k in terms) == rational(n), (variant, n)


def test_step_derivative_matches_finite_difference():
    fd = derivative_of_f("f")
    rational = _step_rational("f")
    h = F(1, 2**16)
    x = F(2)

    def mpq(v):
        return mp.mpf(v.numerator) / v.denominator

    def value(x):  # the step of the gap s_n - gamma - S(n) in mpmath, to about 2^-200
        return mpq(rational(x)) - mp.log(1 + 1 / mpq(x))

    with mp.workprec(256):
        diff = (value(x + h) - value(x - h)) / (2 * mpq(h))
        exact = mpq(fd.evaluate(x) / derivative_denominator().evaluate(x))
        assert abs(diff - exact) <= mp.mpf(10) ** -8


def test_step_functions_vanish_at_infinity_structurally():
    assert all(k >= 1 for _, _, k in step_terms("f"))
    assert all(k >= 1 for _, _, k in step_terms("g"))


def test_tail_sign_verdicts():
    vf = tail_sign_verdict("f")
    assert vf.derivative_sign == 1 and vf.function_sign == -1
    assert vf.threshold == 1
    assert "decreasing for n >= 2" in vf.conclusion
    vg = tail_sign_verdict("g")
    assert vg.derivative_sign == -1 and vg.function_sign == 1
    assert vg.threshold == 9
    assert "increasing for n >= 9" in vg.conclusion


def test_verdicts_corroborated_numerically():
    # the certified monotonicity shows up in the actual gap sequences
    g_lo, g_hi = dyadic_ends(*gamma_reference(128))

    def gaps(n, coeff):
        lo, hi = walk_ends(SOptimal(), n, 170)
        bracket = F(1, 12 * n**3) + coeff * F(1, n**4)
        return lo - g_hi - bracket, hi - g_lo - bracket

    z10 = gaps(10, F(11, 120))
    z11 = gaps(11, F(11, 120))
    assert z10[0] > z11[1]  # z strictly decreasing
    t10 = gaps(10, F(13, 120))
    t11 = gaps(11, F(13, 120))
    assert t10[1] < t11[0]  # t strictly increasing


def test_unknown_variant_rejected():
    with pytest.raises(DomainError):
        step_terms("h")
    with pytest.raises(DomainError):
        derivative_numerator("h")
