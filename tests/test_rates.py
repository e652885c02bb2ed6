"""Rate extraction, the empirical fit, and the parameter optimizer."""

import random
from fractions import Fraction

import pytest

from gammaseq import series
from gammaseq.errors import DomainError, NoOptimumError, PrecisionError, RateInconclusiveError
from gammaseq.rates import empirical_rate, optimize_parameters, rate_from_series
from gammaseq.sequences import SOptimal, VFamily
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
    # the walk's harmonic pair is about n ulps wide; the working precision
    # grows with the grid, so 32 bits still carry the fit up to n = 1024
    report = empirical_rate(SOptimal(), GRID, 32)
    assert abs(report.difference_order - 4) <= 0.05
    assert report.reliable


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
