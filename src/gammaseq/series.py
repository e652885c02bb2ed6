"""Formal truncated expansions in powers of 1/n with exact coefficients.

An `AsymptoticSeries` stores sum_{k} c_k n^(-k) + O(n^(-(order+1))).
Coefficients are either plain Fractions or `ParamPoly` values,
polynomials in the two family parameters a and b; a series is always
homogeneous in its coefficient ring and arithmetic lifts rationals
into the parametric ring when the two meet.  Truncation orders are
tracked through every operation so a coefficient is only ever reported
when it is actually certified by the inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ParamDegreeError, RingMismatchError, UnsupportedOrderError

__all__ = [
    "ParamPoly",
    "AsymptoticSeries",
    "inverse_power",
    "expand_reciprocal_shift",
    "expand_log_ratio",
    "v_family_difference",
]

DEFAULT_ORDER = 8

_MONOMIAL_NAMES = {(1, 0): "a", (0, 1): "b", (2, 0): "a^2", (1, 1): "a*b", (0, 2): "b^2"}


class ParamPoly:
    """Polynomial in the parameters a and b over Fraction, total degree <= 2.

    The degree cap mirrors how the parameters enter the sequence
    family (linearly); an operation that would exceed it raises
    ParamDegreeError instead of silently truncating.
    """

    MAX_TOTAL_DEGREE = 2

    __slots__ = ("_terms",)

    def __init__(self, terms):
        clean = {}
        for key, c in dict(terms).items():
            i, j = key
            if i < 0 or j < 0:
                raise ValueError("monomial exponents must be nonnegative")
            if i + j > self.MAX_TOTAL_DEGREE:
                raise ParamDegreeError(
                    f"monomial a^{i} b^{j} exceeds total degree {self.MAX_TOTAL_DEGREE}"
                )
            c = Fraction(c)
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    @classmethod
    def const(cls, c) -> "ParamPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def variable(cls, name: str) -> "ParamPoly":
        if name == "a":
            return cls({(1, 0): Fraction(1)})
        if name == "b":
            return cls({(0, 1): Fraction(1)})
        raise ValueError(f"unknown parameter {name!r}")

    def terms(self):
        return dict(self._terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self._terms)

    @property
    def total_degree(self) -> int:
        return max((i + j for (i, j) in self._terms), default=0)

    def as_fraction(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self._terms.get((0, 0), Fraction(0))

    @staticmethod
    def _coerce(other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in o._terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return ParamPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in o._terms.items():
                k = (i1 + i2, j1 + j2)
                if sum(k) > self.MAX_TOTAL_DEGREE:
                    raise ParamDegreeError(
                        f"product of {self} and {o} exceeds total degree "
                        f"{self.MAX_TOTAL_DEGREE}"
                    )
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return ParamPoly(out)

    __rmul__ = __mul__

    def substitute(self, a=None, b=None) -> "ParamPoly":
        """Replace parameters by exact rational values; None leaves them free."""
        out: dict = {}
        for (i, j), c in self._terms.items():
            if a is not None:
                c *= Fraction(a) ** i
                i = 0
            if b is not None:
                c *= Fraction(b) ** j
                j = 0
            out[(i, j)] = out.get((i, j), Fraction(0)) + c
        return ParamPoly(out)

    def linear_parts(self) -> tuple[Fraction, Fraction, Fraction]:
        """Return (coef_a, coef_b, constant); error if any quadratic term."""
        if self.total_degree > 1:
            raise ValueError(f"{self} is not linear in (a, b)")
        return (
            self.coefficient(1, 0),
            self.coefficient(0, 1),
            self.coefficient(0, 0),
        )

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        # a constant equals its scalar, so it hashes like one
        if self.is_constant:
            return hash(self.as_fraction())
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        order = sorted(self._terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
        parts = []
        for key in order:
            c = self._terms[key]
            name = _MONOMIAL_NAMES.get(key, "")
            if name:
                body = name if abs(c) == 1 else f"{abs(c)}*{name}"
            else:
                body = str(abs(c))
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"ParamPoly({self})"


PARAM_A = ParamPoly.variable("a")
PARAM_B = ParamPoly.variable("b")


def _coerce_coeff(value):
    if isinstance(value, ParamPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise RingMismatchError(f"unsupported coefficient type {type(value).__name__}")


class AsymptoticSeries:
    """Truncated expansion sum c_k n^(-k) + O(n^(-(order+1)))."""

    __slots__ = ("_coeffs", "order")

    def __init__(self, coeffs, order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        clean = {}
        parametric = False
        for k, v in dict(coeffs).items():
            if not isinstance(k, int) or k < 0:
                raise ValueError(f"power index must be a nonnegative integer, got {k!r}")
            if k > order:
                continue
            v = _coerce_coeff(v)
            if isinstance(v, ParamPoly):
                parametric = True
            if v == 0:
                continue
            clean[k] = v
        if parametric:
            clean = {
                k: v if isinstance(v, ParamPoly) else ParamPoly.const(v)
                for k, v in clean.items()
            }
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("AsymptoticSeries is immutable")

    @property
    def ring(self) -> str:
        return "parametric" if any(
            isinstance(v, ParamPoly) for v in self._coeffs.values()
        ) else "rational"

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def k_min(self):
        """Index of the first stored coefficient, or None for the zero series."""
        return min(self._coeffs) if self._coeffs else None

    def coefficients(self):
        return dict(self._coeffs)

    def coeff(self, k: int):
        """Coefficient at n^(-k); k beyond the order is not certified."""
        if k > self.order:
            raise UnsupportedOrderError(
                f"coefficient {k} lies beyond truncation order {self.order}"
            )
        default = ParamPoly({}) if self.ring == "parametric" else Fraction(0)
        return self._coeffs.get(k, default)

    def _binop(self, other, sign: int) -> "AsymptoticSeries":
        if not isinstance(other, AsymptoticSeries):
            raise RingMismatchError("can only combine with another AsymptoticSeries")
        order = min(self.order, other.order)
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0) + sign * v
        return AsymptoticSeries(out, order)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return AsymptoticSeries({k: -v for k, v in self._coeffs.items()}, self.order)

    def scale(self, factor) -> "AsymptoticSeries":
        factor = _coerce_coeff(factor)
        return AsymptoticSeries(
            {k: factor * v for k, v in self._coeffs.items()}, self.order
        )

    def substitute(self, a=None, b=None) -> "AsymptoticSeries":
        out = {}
        for k, v in self._coeffs.items():
            if isinstance(v, ParamPoly):
                v = v.substitute(a=a, b=b)
                if v.is_constant:
                    v = v.as_fraction()
            out[k] = v
        return AsymptoticSeries(out, self.order)

    def __eq__(self, other):
        if not isinstance(other, AsymptoticSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        keys = set(self._coeffs) | set(other._coeffs)
        for k in keys:
            a = self._coeffs.get(k, 0)
            b = other._coeffs.get(k, 0)
            if isinstance(a, ParamPoly) or isinstance(b, ParamPoly):
                a = a if isinstance(a, ParamPoly) else ParamPoly.const(a)
                b = b if isinstance(b, ParamPoly) else ParamPoly.const(b)
            if a != b:
                return False
        return True

    def __hash__(self):
        return hash((self.order, frozenset(self._coeffs.items())))

    def __str__(self):
        if not self._coeffs:
            return f"O(n^-{self.order + 1})"
        parts = [f"({v})/n^{k}" for k, v in sorted(self._coeffs.items())]
        return " + ".join(parts) + f" + O(n^-{self.order + 1})"

    def __repr__(self):
        return f"AsymptoticSeries<{self}>"


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


def v_family_difference(order: int = DEFAULT_ORDER) -> AsymptoticSeries:
    """Forward difference v_n(a, b) - v_{n+1}(a, b) as a parametric series.

    Built term by term from the partial-fraction pieces of the two
    rational corrections, the harmonic step 1/(n-1), and the Mercator
    series of ln((n+1)/n).  The leading coefficients come out as
    (a - 3/2) at n^-2, (a + 2b - 2/3) at n^-3, (a - 5/4) at n^-4 and
    (a + 2b - 4/5) at n^-5.
    """
    if order < 2:
        raise DomainError("order must be >= 2 to see the leading coefficient")
    a_plus_b = PARAM_A + PARAM_B
    recip_minus = expand_reciprocal_shift(Fraction(-1), order)  # 1/(n-1)
    recip_plus = expand_reciprocal_shift(Fraction(1), order)  # 1/(n+1)
    inv_n = inverse_power(1, order)
    # (an+b)/(n(n-1)) = (a+b)/(n-1) - b/n
    correction_n = recip_minus.scale(a_plus_b) - inv_n.scale(PARAM_B)
    # (a(n+1)+b)/(n(n+1)) = (a+b)/n - b/(n+1)
    correction_n1 = inv_n.scale(a_plus_b) - recip_plus.scale(PARAM_B)
    log_step = expand_log_ratio(Fraction(1), order)  # ln((n+1)/n)
    return correction_n - recip_minus - correction_n1 + log_step
