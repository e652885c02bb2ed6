"""Convergence-rate analysis and the family parameter optimizer.

The exact route reads the rate off a difference expansion: when
x_n - x_{n+1} ~ l * n^(-k) with k > 1, the sequence itself satisfies
n^(k-1) (x_n - x) -> l/(k-1) (a Cesaro-Stolz style limit), so the
first nonzero coefficient of the difference series gives both the
rate and the limit exactly.  The optimizer reads the family's n^-2 and
n^-3 coefficients as linear forms ca*a + cb*b + c and solves them for a,
then b.  The empirical route fits the same exponent from certified
numeric differences as a cross-check: every sequence is H_{n-1} plus a
tail T(n), so x_n - x_{n+1} = T(n) - T(n + 1) - 1/n sums no harmonic
terms; it loads neither the series nor `fractions`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError, NoOptimumError, PrecisionError, RateInconclusiveError

if TYPE_CHECKING:  # annotations only: `rate` loads no series, `optimize` no walk
    from fractions import Fraction

    from .sequences import SequenceKind
    from .series import AsymptoticSeries

__all__ = [
    "RateReport",
    "rate_from_series",
    "EmpiricalRate",
    "empirical_rate",
    "OptimizeResult",
    "optimize_parameters",
]

# a residual above this marks a slope fit as unreliable
RESIDUAL_LIMIT = 0.1

SIGNIFICANT_BITS_REQUIRED = 16


class RateReport:
    """Exact rate data read off a difference expansion.

    k is the difference order (first nonzero index), l its
    coefficient; the sequence converges like n^(-(k-1)) with
    n^(k-1) (x_n - x) -> l/(k-1).
    """

    __slots__ = ("k", "l", "sequence_rate", "sequence_limit")

    def __init__(self, k: int, l: Fraction, sequence_rate: int, sequence_limit: Fraction):
        self.k, self.l = k, l
        self.sequence_rate, self.sequence_limit = sequence_rate, sequence_limit


def rate_from_series(series: AsymptoticSeries) -> RateReport:
    """Rate and limit from the first nonzero coefficient of a difference series."""
    k = series.k_min
    if k is None:
        raise RateInconclusiveError(
            f"series vanishes through order {series.order}; "
            "the rate lies beyond the truncation"
        )
    if k <= 1:
        raise DomainError(
            "difference order must exceed 1 for the limit transfer to apply"
        )
    l = series.coeff(k)
    return RateReport(k=k, l=l, sequence_rate=k - 1, sequence_limit=l / (k - 1))


class EmpiricalRate:
    """Least-squares slope of log|x_n - x_{n+1}| against log n, negated."""

    __slots__ = ("difference_order", "sequence_rate", "residual", "grid", "precision")

    def __init__(self, difference_order: float, sequence_rate: float, residual: float,
                 grid: tuple, precision: int):
        self.difference_order, self.sequence_rate = difference_order, sequence_rate
        self.residual, self.grid, self.precision = residual, grid, precision

    @property
    def reliable(self) -> bool:
        return self.residual <= RESIDUAL_LIMIT


def _log2_ratio(num: int, den: int) -> float:
    """log2(num/den) for positive integers num and den."""
    shift = num.bit_length() - den.bit_length()
    if shift >= 0:
        scaled = (num << 64) // (den << shift)
    else:
        scaled = (num << (64 - shift)) // den
    return shift + math.log2(scaled) - 64


def _differences(kind: SequenceKind, q: int, grid):
    """(n, lo, hi) for each n of grid, [lo, hi] * 2**-q enclosing x_n - x_{n+1}
    without a harmonic sum: x_n = H_{n-1} + T(n), so the difference is
    T(n) - T(n + 1) - 1/n, from the tails T of `sequences._tails`, each at
    most 3 ulps wide (n < 2**(3q), see `numerics.ln_fixed`), and the step's
    ceiling and floor at 2**q on the low and high ends: at most 7 ulps wide
    whatever n is."""
    from . import sequences

    tail, one = sequences._tails(kind, q), 1 << q
    for n in grid:
        (lo1, hi1), (lo2, hi2) = tail(n), tail(n + 1)
        yield n, lo1 - hi2 + (-one) // n, hi1 - lo2 - one // n


def empirical_rate(kind: SequenceKind, n_grid, p: int) -> EmpiricalRate:
    """Fit the difference order of a sequence on a grid of indices.

    Differences are the pairs of `_differences` at q = p + 31, less than
    2**-(p + 28) wide; if any of them has fewer than 16 significant bits
    at precision p the fit would be numerical noise, so a PrecisionError
    asks the caller to raise p.  The precision follows the package's
    rule, an integer p >= numerics.MIN_PRECISION.
    """
    from . import numerics

    numerics._check_precision(p)
    grid = list(n_grid)
    if len(grid) < 4 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing with at least 4 points")
    q = p + 31
    xs = []
    ys = []
    for n, d_lo, d_hi in _differences(kind, q, grid):
        width, twice_mid = d_hi - d_lo, d_lo + d_hi  # both at scale 2**-q
        if twice_mid == 0 or abs(twice_mid) < width << (SIGNIFICANT_BITS_REQUIRED + 1):
            raise PrecisionError(
                f"difference at n = {n} has fewer than "
                f"{SIGNIFICANT_BITS_REQUIRED} significant bits; raise the precision"
            )
        xs.append(math.log(n))
        ys.append(_log2_ratio(abs(twice_mid), 2 << q) * math.log(2))
    n_pts = len(xs)
    x_mean = sum(xs) / n_pts
    y_mean = sum(ys) / n_pts
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    residual = math.sqrt(
        sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / n_pts
    )
    order = -slope
    return EmpiricalRate(
        difference_order=order,
        sequence_rate=order - 1,
        residual=residual,
        grid=tuple(grid),
        precision=p,
    )


class OptimizeResult:
    """Optimal family parameters plus the first surviving coefficient."""

    __slots__ = ("a", "b", "surviving_index", "surviving_coeff", "rate")

    def __init__(self, a: Fraction, b: Fraction, surviving_index: int,
                 surviving_coeff: Fraction, rate: RateReport):
        self.a, self.b, self.rate = a, b, rate
        self.surviving_index, self.surviving_coeff = surviving_index, surviving_coeff


def optimize_parameters(order: int = 5) -> OptimizeResult:
    """Zero the two leading difference coefficients of VFamily.

    Works greedily in ascending power order, mirroring the case split
    that classifies the family's rates: the n^-2 coefficient fixes a,
    substituting it makes the n^-3 coefficient linear in b.  Returns
    the exact optimum together with the first surviving coefficient
    and the transferred sequence limit.
    """
    from .series import v_family_difference

    if order < 4:
        raise DomainError("order must be >= 4 to expose the surviving coefficient")
    family = v_family_difference(order)
    ca, cb, c = family.coeff(2)
    if not ca or cb:
        raise NoOptimumError("leading coefficient does not determine a")
    a_star = -c / ca
    ca, cb, c = family.coeff(3)
    if not cb:
        raise NoOptimumError("second coefficient does not determine b")
    b_star = -(ca * a_star + c) / cb
    optimal = family.substitute(a_star, b_star)
    # both zeroed coefficients must vanish after substitution
    if optimal.coeff(2) != 0 or optimal.coeff(3) != 0:
        raise NoOptimumError("substituted coefficients failed to vanish")
    k = optimal.k_min
    if k is None:
        raise RateInconclusiveError("difference series vanished entirely")
    return OptimizeResult(
        a=a_star,
        b=b_star,
        surviving_index=k,
        surviving_coeff=optimal.coeff(k),
        rate=rate_from_series(optimal),
    )
