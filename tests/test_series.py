"""Expansion machinery: exact coefficients, ring laws, truncation tracking."""

import random
from fractions import Fraction

import pytest

from conftest import dyadic_ends, ln_bracket, walk_ends
from gammaseq import sequences
from gammaseq.errors import DomainError, ParamDegreeError, UnsupportedOrderError
from gammaseq.series import (
    PARAM_A,
    PARAM_B,
    AsymptoticSeries,
    ParamPoly,
    expand_log_ratio,
    expand_reciprocal_shift,
    inverse_power,
    v_family_difference,
)

F = Fraction


def partial_sum(series, n):
    """The truncated sum of a rational series at n, exactly."""
    return sum(v / F(n) ** k for k, v in series.coefficients().items())


def rational_series(rng, order, k_lo=1):
    coeffs = {}
    for k in range(k_lo, order + 1):
        if rng.random() < 0.7:
            coeffs[k] = F(rng.randrange(-9, 10), rng.randrange(1, 9))
    return AsymptoticSeries(coeffs, order)


# ---------------------------------------------------------------------------
# ParamPoly


def test_parampoly_str_and_arithmetic():
    p = PARAM_A + 2 * PARAM_B - F(2, 3)
    assert str(p) == "a + 2*b - 2/3"
    assert p.substitute(a=F(3, 2), b=F(-5, 12)).as_fraction() == 0
    q = PARAM_A * PARAM_B
    assert q.coefficient(1, 1) == 1


def test_parampoly_degree_cap():
    square = PARAM_A * PARAM_A
    with pytest.raises(ParamDegreeError):
        square * PARAM_A


def test_parampoly_linear_parts():
    ca, cb, const = (PARAM_A + 2 * PARAM_B - F(2, 3)).linear_parts()
    assert (ca, cb, const) == (1, 2, F(-2, 3))
    with pytest.raises(ValueError):
        (PARAM_A * PARAM_A).linear_parts()


# ---------------------------------------------------------------------------
# elementary expansions


def test_reciprocal_shift_c_zero_is_inverse_n():
    assert expand_reciprocal_shift(0, 4) == inverse_power(1, 4)


def test_reciprocal_shift_hand_values():
    plus = expand_reciprocal_shift(1, 3)
    assert plus.coefficients() == {1: F(1), 2: F(-1), 3: F(1)}
    minus = expand_reciprocal_shift(-1, 3)
    assert minus.coefficients() == {1: F(1), 2: F(1), 3: F(1)}


def test_reciprocal_shift_numeric_truncation():
    # |1/(n+c) - partial sum| <= |c|^K / (n - |c|) / n^K for n > 2|c|
    rng = random.Random(23)
    for _ in range(10):
        c = F(rng.randrange(-50, 50), rng.randrange(1, 20))
        series = expand_reciprocal_shift(c, 6)
        for n in (200, 400):
            err = abs(F(1, 1) / (n + c) - partial_sum(series, n))
            assert err <= abs(c) ** 6 / (F(n) ** 6 * (n - abs(c)))


def test_log_ratio_hand_values():
    assert expand_log_ratio(0, 5).is_zero
    s = expand_log_ratio(1, 3)
    assert s.coefficients() == {1: F(1), 2: F(-1, 2), 3: F(1, 3)}
    half = expand_log_ratio(F(1, 2), 2)
    assert half.coefficients() == {1: F(1, 2), 2: F(-1, 8)}


def test_log_ratio_numeric_truncation():
    series = expand_log_ratio(1, 8)
    for n in (64, 256):
        lo, hi = ln_bracket(F(n + 1, n), 200)
        approx = partial_sum(series, n)
        assert abs((lo + hi) / 2 - approx) <= F(2, n**9)


# ---------------------------------------------------------------------------
# series arithmetic


def test_add_and_mul_trivial():
    one_over_n = inverse_power(1, 4)
    assert (one_over_n + one_over_n).coefficients() == {1: F(2)}
    assert one_over_n.scale(F(1, 2)).coefficients() == {1: F(1, 2)}


def test_ring_laws_random():
    rng = random.Random(29)
    for _ in range(25):
        a = rational_series(rng, 6)
        b = rational_series(rng, 6)
        c = rational_series(rng, 6)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a - b == a + (-b)
        assert (a - a).is_zero


def test_scale_lifts_ring():
    s = inverse_power(2, 5)
    scaled = s.scale(PARAM_A + 1)
    assert scaled.ring == "parametric"
    assert scaled.coeff(2) == PARAM_A + 1


def test_coeff_beyond_order_raises():
    s = inverse_power(1, 3)
    with pytest.raises(UnsupportedOrderError):
        s.coeff(4)


# ---------------------------------------------------------------------------
# the family difference expansion


def test_v_family_difference_symbolic_coefficients():
    d = v_family_difference(5)
    assert d.coeff(2) == PARAM_A - F(3, 2)
    assert d.coeff(3) == PARAM_A + 2 * PARAM_B - F(2, 3)
    assert d.coeff(4) == PARAM_A - F(5, 4)
    assert d.coeff(5) == PARAM_A + 2 * PARAM_B - F(4, 5)
    assert d.k_min == 2  # the 1/n terms cancel exactly


def test_v_family_difference_at_a_three_halves():
    d = v_family_difference(5).substitute(a=F(3, 2))
    assert d.coeff(3) == 2 * PARAM_B + F(5, 6)
    assert d.coeff(4) == F(1, 4)
    assert d.coeff(5) == 2 * PARAM_B + F(7, 10)


def test_v_family_difference_at_optimum():
    d = v_family_difference(5).substitute(a=F(3, 2), b=F(-5, 12))
    assert d.coefficients() == {4: F(1, 4), 5: F(-2, 15)}


def test_v_family_difference_substitution_commutes():
    rng = random.Random(31)
    sym = v_family_difference(6)
    for _ in range(20):
        a = F(rng.randrange(-20, 20), rng.randrange(1, 12))
        b = F(rng.randrange(-20, 20), rng.randrange(1, 12))
        sub = sym.substitute(a=a, b=b)
        for k in range(2, 7):
            expected = sym.coeff(k).substitute(a=a, b=b).as_fraction()
            got = sub.coeff(k)
            got = got.as_fraction() if isinstance(got, ParamPoly) else got
            assert got == expected


def test_v_family_difference_numeric_consistency():
    # the truncated expansion misses the true forward difference by at
    # most C n^-6; the next coefficient is 1/3, so C = 1/2 has margin
    trunc = v_family_difference(5).substitute(a=F(3, 2), b=F(-5, 12))
    kind = sequences.VFamily(F(3, 2), F(-5, 12))
    C = F(1, 2)
    for n in (50, 100, 200):
        lo1, hi1 = walk_ends(kind, n, 300)
        lo2, hi2 = walk_ends(kind, n + 1, 300)
        mid = ((lo1 + hi1) - (lo2 + hi2)) / 2
        assert abs(mid - partial_sum(trunc, n)) <= C * F(1, n**6)


def test_v_family_difference_rejects_tiny_order():
    with pytest.raises(DomainError):
        v_family_difference(1)


# ---------------------------------------------------------------------------
# the sequence against its asymptotic expansion


def test_gamma_n_deviation_matches_sequence():
    from gammaseq.numerics import gamma_reference

    # (H_n - ln n) - gamma = 1/(2n) - 1/(12 n^2) + 1/(120 n^4) - 1/(252 n^6) + O(n^-8),
    # the digamma expansion (Abramowitz & Stegun 6.3.18) with H_n = gamma + 1/n + psi(n)
    g = AsymptoticSeries({1: F(1, 2), 2: F(-1, 12), 4: F(1, 120), 6: F(-1, 252)}, 6)
    gamma_mid = sum(dyadic_ends(*gamma_reference(160))) / 2
    for n in (50, 80):
        lo, hi = walk_ends(sequences.GammaN(), n, 220)
        dev_mid = (lo + hi) / 2 - gamma_mid
        assert abs(dev_mid - partial_sum(g, n)) <= F(1, 200 * n**7)
