"""Rate extraction, the empirical fit, and the parameter optimizer."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dyadic_ends, mp_value, mpf_to_fraction
from gammaseq import rates, series
from gammaseq.errors import DomainError, NoOptimumError, PrecisionError, RateInconclusiveError
from gammaseq.rates import empirical_rate, optimize_parameters, rate_from_series
from gammaseq.sequences import (
    DeTempleR, GammaN, MuFamily, SOptimal, UMinus, UPlus, VernescuV, VFamily, Walk,
)
from gammaseq.series import AsymptoticSeries, FamilyExpansion, v_family_difference

F = Fraction
GRID = [2**k for k in range(4, 11)]


def test_rate_generic_a():
    s = v_family_difference(5).substitute(a=F(2), b=F(7))
    r = rate_from_series(s)
    assert (r.k, r.l) == (2, F(1, 2))
    assert r.sequence_rate == 1
    assert r.sequence_limit == F(1, 2)  # a - 3/2 at a = 2


def test_rate_a_three_halves():
    s = v_family_difference(5).substitute(a=F(3, 2), b=F(1))
    r = rate_from_series(s)
    assert (r.k, r.l) == (3, 2 * F(1) + F(5, 6))
    assert r.sequence_limit == F(1) + F(5, 12)  # b + 5/12


def test_rate_at_optimum():
    s = v_family_difference(5).substitute(a=F(3, 2), b=F(-5, 12))
    r = rate_from_series(s)
    assert (r.k, r.l) == (4, F(1, 4))
    assert r.sequence_rate == 3
    assert r.sequence_limit == F(1, 12)


def test_rate_case_analysis_random():
    rng = random.Random(67)
    sym = v_family_difference(6)
    for _ in range(50):
        a = F(rng.randrange(-30, 30), rng.randrange(1, 10))
        b = F(rng.randrange(-30, 30), rng.randrange(1, 10))
        r = rate_from_series(sym.substitute(a=a, b=b))
        if a != F(3, 2):
            assert (r.k, r.l) == (2, a - F(3, 2))
        elif b != F(-5, 12):
            assert (r.k, r.l) == (3, 2 * b + F(5, 6))
        else:
            assert (r.k, r.l) == (4, F(1, 4))


def test_rate_errors():
    with pytest.raises(RateInconclusiveError):
        rate_from_series(AsymptoticSeries({}, 5))
    with pytest.raises(DomainError):
        rate_from_series(AsymptoticSeries({1: F(1)}, 4))  # k must exceed 1


def test_empirical_rate_for_v_family_members():
    for b in (F(0), F(-1)):
        report = empirical_rate(VFamily(F(3, 2), b), GRID, 256)
        assert abs(report.difference_order - 3) <= 0.05
        assert report.reliable


def test_empirical_rate_requires_significant_bits():
    with pytest.raises(PrecisionError, match="n = 2048"):
        empirical_rate(SOptimal(), [256, 512, 1024, 2048], 32)


def test_empirical_rate_headroom_covers_harmonic_width():
    # each difference takes the harmonic step exactly, so its pair is a few
    # ulps wide at any n, and 32 bits still carry the fit up to n = 1024
    report = empirical_rate(SOptimal(), GRID, 32)
    assert abs(report.difference_order - 4) <= 0.05
    assert report.reliable


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=24)


@st.composite
def difference_points(draw):
    """Any of the eight kinds, an index from its n_min to 10**5 and a scale."""
    kind = draw(st.one_of(
        st.sampled_from([GammaN(), DeTempleR(), VernescuV(), SOptimal(), UPlus(),
                         UMinus()]),
        st.builds(MuFamily, _rationals.filter(bool), _rationals),
        st.builds(VFamily, _rationals, _rationals),
    ))
    n_min = kind.n_min
    if isinstance(kind, MuFamily):
        n_min = max(n_min, int(-kind.b) + 1)  # keeps n + b > 0
    return kind, draw(st.integers(n_min, 10**5)), draw(st.integers(64, 512))


@settings(max_examples=60, deadline=None)
@given(point=difference_points())
@example(point=(GammaN(), 1, 64))  # H_0 - H_1 = -1
@example(point=(SOptimal(), 3, 256))
@example(point=(UMinus(), 10**5, 512))
@example(point=(MuFamily(F(-7, 5), F(-11, 4)), 3, 100))  # n + b = 1/4
def test_walk_free_differences_contain_mpmath_and_meet_the_walk(point):
    kind, n, q = point
    [(_, lo, hi)] = rates._differences(kind, q, [n])
    mp.mp.prec = 2 * q
    oracle = mpf_to_fraction(mp_value(kind, n) - mp_value(kind, n + 1))
    slack = F(1, 2 ** (2 * q - 8))  # the oracle's own rounding, far below an ulp at q
    d_lo, d_hi = dyadic_ends(lo, hi, q)
    assert d_lo - slack <= oracle <= d_hi + slack
    assert hi - lo <= 7
    walk = Walk(kind, q)
    (lo1, hi1), (lo2, hi2) = walk(n), walk(n + 1)
    assert lo <= hi1 - lo2 and lo1 - hi2 <= hi


def test_empirical_rate_grid_validation():
    with pytest.raises(DomainError):
        empirical_rate(SOptimal(), [16, 32, 64], 128)  # too short
    with pytest.raises(DomainError):
        empirical_rate(SOptimal(), [16, 16, 32, 64], 128)  # not increasing


def test_optimizer_exact_result():
    result = optimize_parameters(5)
    assert result.a == F(3, 2)
    assert result.b == F(-5, 12)
    assert result.surviving_index == 4
    assert result.surviving_coeff == F(1, 4)
    assert result.rate.sequence_limit == F(1, 12)
    # by construction, but asserted independently:
    check = v_family_difference(5).substitute(a=result.a, b=result.b)
    assert check.coeff(2) == 0 and check.coeff(3) == 0


def test_optimizer_higher_order_agrees():
    result = optimize_parameters(8)
    assert (result.a, result.b) == (F(3, 2), F(-5, 12))


def test_optimizer_rejects_small_order():
    with pytest.raises(DomainError):
        optimize_parameters(3)


def _family(c2, c3):
    """A family whose n^-2 and n^-3 coefficients are the triples c2 and c3
    (ca, cb, c), and whose n^-4 coefficient is a + b + 1."""
    def part(i):
        return AsymptoticSeries({2: c2[i], 3: c3[i], 4: 1}, 5)
    return FamilyExpansion(part(0), part(1), part(2))


def test_optimizer_solves_the_two_linear_equations(monkeypatch):
    # 2a + 1 = 0 gives a = -1/2; a + 4b + 1 = 0 then gives b = -1/8
    monkeypatch.setattr(series, "v_family_difference",
                        lambda order: _family((2, 0, 1), (1, 4, 1)))
    result = optimize_parameters(5)
    assert (result.a, result.b) == (F(-1, 2), F(-1, 8))
    assert (result.surviving_index, result.surviving_coeff) == (4, F(3, 8))


@pytest.mark.parametrize("c2,c3,message", [
    ((1, 1, 0), (1, 2, 0), "does not determine a"),  # a and b in the leading term
    ((0, 1, 0), (1, 2, 0), "does not determine a"),  # b alone
    ((2, 0, 1), (1, 0, 1), "does not determine b"),  # no b in the second term
])
def test_optimizer_refuses_coefficients_that_fix_no_optimum(monkeypatch, c2, c3, message):
    monkeypatch.setattr(series, "v_family_difference", lambda order: _family(c2, c3))
    with pytest.raises(NoOptimumError, match=message):
        optimize_parameters(5)
