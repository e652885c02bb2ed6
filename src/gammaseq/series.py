"""Formal truncated expansions in powers of 1/n with exact coefficients.

An `AsymptoticSeries` stores sum_{k} c_k n^(-k) + O(n^(-(order+1)))
with Fraction coefficients.  The family parameters a and b enter the
family linearly, so its difference expansion is three such series, the
a-part, the b-part and the constant part, held in a `FamilyExpansion`.
Truncation orders are tracked through every operation so a coefficient
is only ever reported when it is actually certified by the inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, UnsupportedOrderError

__all__ = [
    "AsymptoticSeries",
    "FamilyExpansion",
    "inverse_power",
    "expand_reciprocal_shift",
    "expand_log_ratio",
    "v_family_difference",
]

DEFAULT_ORDER = 8


class AsymptoticSeries:
    """Truncated expansion sum c_k n^(-k) + O(n^(-(order+1)))."""

    __slots__ = ("_coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        clean = {}
        for k, v in dict(coeffs).items():
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"power index must be a nonnegative integer, got {k!r}")
            if k <= order:
                v = Fraction(v)
                if v:
                    clean[k] = v
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("AsymptoticSeries is immutable")

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def k_min(self):
        """Index of the first stored coefficient, or None for the zero series."""
        return min(self._coeffs) if self._coeffs else None

    def coefficients(self):
        return dict(self._coeffs)

    def coeff(self, k: int) -> Fraction:
        """Coefficient at n^(-k); k beyond the order is not certified."""
        if k > self.order:
            raise UnsupportedOrderError(
                f"coefficient {k} lies beyond truncation order {self.order}"
            )
        return self._coeffs.get(k, Fraction(0))

    def _binop(self, other, sign: int) -> "AsymptoticSeries":
        if not isinstance(other, AsymptoticSeries):
            return NotImplemented
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0) + sign * v
        return AsymptoticSeries(out, min(self.order, other.order))

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return AsymptoticSeries({k: -v for k, v in self._coeffs.items()}, self.order)

    def scale(self, factor) -> "AsymptoticSeries":
        factor = Fraction(factor)
        return AsymptoticSeries(
            {k: factor * v for k, v in self._coeffs.items()}, self.order
        )

    def __eq__(self, other):
        if not isinstance(other, AsymptoticSeries):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs


class FamilyExpansion:
    """a * a_part + b * b_part + constant: an expansion linear in a and b."""

    __slots__ = ("a_part", "b_part", "constant")

    def __init__(self, a_part: AsymptoticSeries, b_part: AsymptoticSeries,
                 constant: AsymptoticSeries):
        self.a_part, self.b_part, self.constant = a_part, b_part, constant

    def coeff(self, k: int) -> tuple[Fraction, Fraction, Fraction]:
        """The n^(-k) coefficient as (ca, cb, c), meaning ca*a + cb*b + c."""
        return self.a_part.coeff(k), self.b_part.coeff(k), self.constant.coeff(k)

    def substitute(self, a, b) -> AsymptoticSeries:
        """The rational series at exact values of a and b."""
        return self.a_part.scale(a) + self.b_part.scale(b) + self.constant


def inverse_power(k: int, order: int, coeff=1) -> AsymptoticSeries:
    """The series coeff * n^(-k)."""
    return AsymptoticSeries({k: coeff}, order)


def expand_reciprocal_shift(c, order: int) -> AsymptoticSeries:
    """Expansion of 1/(n + c): sum_{k>=1} (-c)^(k-1) n^(-k)."""
    if order < 1:
        raise DomainError("order must be >= 1")
    c = Fraction(c)
    coeffs = {}
    power = Fraction(1)
    for k in range(1, order + 1):
        coeffs[k] = power
        power *= -c
    return AsymptoticSeries(coeffs, order)


def expand_log_ratio(c, order: int) -> AsymptoticSeries:
    """Expansion of ln((n + c)/n): sum_{k>=1} (-1)^(k+1) c^k / (k n^k)."""
    if order < 1:
        raise DomainError("order must be >= 1")
    c = Fraction(c)
    coeffs = {}
    power = c
    for k in range(1, order + 1):
        coeffs[k] = power / k
        power *= -c
    return AsymptoticSeries(coeffs, order)


def v_family_difference(order: int = DEFAULT_ORDER) -> FamilyExpansion:
    """Forward difference v_n(a, b) - v_{n+1}(a, b), split by parameter.

    Built from the partial-fraction pieces of the two rational
    corrections, (an+b)/(n(n-1)) = (a+b)/(n-1) - b/n at n and
    (a(n+1)+b)/(n(n+1)) = (a+b)/n - b/(n+1) at n+1, the harmonic step
    1/(n-1), and the Mercator series of ln((n+1)/n).  The leading
    coefficients come out as (a - 3/2) at n^-2, (a + 2b - 2/3) at n^-3,
    (a - 5/4) at n^-4 and (a + 2b - 4/5) at n^-5.
    """
    if order < 2:
        raise DomainError("order must be >= 2 to see the leading coefficient")
    recip_minus = expand_reciprocal_shift(-1, order)  # 1/(n-1)
    recip_plus = expand_reciprocal_shift(1, order)  # 1/(n+1)
    inv_n = inverse_power(1, order)
    return FamilyExpansion(
        a_part=recip_minus - inv_n,
        b_part=recip_minus - inv_n.scale(2) + recip_plus,
        constant=expand_log_ratio(1, order) - recip_minus,
    )
