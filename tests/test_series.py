"""Expansion machinery: exact coefficients, ring laws, truncation tracking."""

import random
from fractions import Fraction

import pytest

from conftest import dyadic_ends, ln_bracket, walk_ends
from gammaseq import sequences
from gammaseq.errors import DomainError, UnsupportedOrderError
from gammaseq.series import (
    AsymptoticSeries,
    FamilyExpansion,
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


def test_coeff_beyond_order_raises():
    s = inverse_power(1, 3)
    with pytest.raises(UnsupportedOrderError):
        s.coeff(4)


# ---------------------------------------------------------------------------
# the family difference expansion


def test_parampoly_linear_parts():
    # the coefficient a + 2b - 2/3 at n^-3, held as its three linear parts
    family = FamilyExpansion(inverse_power(3, 4), inverse_power(3, 4, 2),
                             inverse_power(3, 4, F(-2, 3)))
    ca, cb, const = family.coeff(3)
    assert (ca, cb, const) == (1, 2, F(-2, 3))
    assert all(type(v) is F for v in (ca, cb, const))
    assert family.coeff(2) == (0, 0, 0)
    assert family.substitute(F(1, 2), F(1, 3)).coeff(3) == F(1, 2)
    with pytest.raises(UnsupportedOrderError):
        family.coeff(5)


def test_v_family_difference_symbolic_coefficients():
    # each coefficient is a triple (ca, cb, c) meaning ca*a + cb*b + c
    d = v_family_difference(5)
    assert d.coeff(2) == (1, 0, F(-3, 2))
    assert d.coeff(3) == (1, 2, F(-2, 3))
    assert d.coeff(4) == (1, 0, F(-5, 4))
    assert d.coeff(5) == (1, 2, F(-4, 5))
    assert d.coeff(1) == (0, 0, 0)  # the 1/n terms cancel exactly
    for part in (d.a_part, d.b_part, d.constant):
        assert part.order == 5
        assert all(type(v) is F for v in part.coefficients().values())


def test_v_family_difference_matches_its_closed_form():
    # by hand from 1/(n-1), 1/n, 1/(n+1) and ln(1 + 1/n): the a-part is
    # 1/(n-1) - 1/n, the b-part 1/(n-1) - 2/n + 1/(n+1), the constant
    # ln(1 + 1/n) - 1/(n-1)
    d = v_family_difference(40)
    assert d.coeff(1) == (0, 0, 0)
    for k in range(2, 41):
        assert d.coeff(k) == (1, 1 - (-1) ** k, -1 + F((-1) ** (k + 1), k))


def test_v_family_difference_at_a_three_halves():
    d = v_family_difference(5)
    assert d.coeff(3)[1:] == (2, F(-2, 3))
    for b in (F(0), F(7, 3)):
        sub = d.substitute(F(3, 2), b)
        assert sub.coeff(2) == 0
        assert sub.coeff(3) == 2 * b + F(5, 6)
        assert sub.coeff(4) == F(1, 4)
        assert sub.coeff(5) == 2 * b + F(7, 10)


def test_v_family_difference_at_optimum():
    d = v_family_difference(5).substitute(F(3, 2), F(-5, 12))
    assert d.coefficients() == {4: F(1, 4), 5: F(-2, 15)}


def test_v_family_difference_substitution_commutes():
    rng = random.Random(31)
    sym = v_family_difference(6)
    for _ in range(20):
        a = F(rng.randrange(-20, 20), rng.randrange(1, 12))
        b = F(rng.randrange(-20, 20), rng.randrange(1, 12))
        sub = sym.substitute(a, b)
        assert sub.order == 6
        for k in range(2, 7):
            ca, cb, c = sym.coeff(k)
            assert sub.coeff(k) == ca * a + cb * b + c


def test_v_family_difference_numeric_consistency():
    # the series converges for n > 1 and every |c_k| <= M = |a| + 2|b| + 2, so
    # the expansion to order 5 misses the forward difference by at most
    # (|c_6| + M/(n - 1)) n^-6, plus the width of the walked values
    rng = random.Random(37)
    params = [(F(3, 2), F(-5, 12))]  # the optimum, where c_6 = 1/3
    params += [(F(rng.randrange(-20, 20), rng.randrange(1, 12)),
                F(rng.randrange(-20, 20), rng.randrange(1, 12))) for _ in range(3)]
    for a, b in params:
        trunc = v_family_difference(5).substitute(a, b)
        c6 = abs(v_family_difference(6).substitute(a, b).coeff(6))
        M = abs(a) + 2 * abs(b) + 2
        kind = sequences.VFamily(a, b)
        for n in (50, 100, 200):
            lo1, hi1 = walk_ends(kind, n, 300)
            lo2, hi2 = walk_ends(kind, n + 1, 300)
            mid = ((lo1 + hi1) - (lo2 + hi2)) / 2
            bound = (c6 + M / (n - 1)) / n**6 + F(1, 2**250)
            assert abs(mid - partial_sum(trunc, n)) <= bound


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
