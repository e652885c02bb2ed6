"""Certified arithmetic for sequences converging to the Euler-Mascheroni constant.

The package splits into a certified numeric core (exact rationals,
dyadic big reals, interval logarithms, a reference enclosure of the
constant), exact asymptotic machinery (difference expansions with
parametric coefficients, rate extraction, the family optimizer),
polynomial positivity certificates for the two-sided bracket on the
optimal sequence, and a catalog of published inequalities that can be
swept with certified verdicts.  The hot integer loops are pure Python
in ``gammaseq._kernels_py``.
"""

__version__ = "0.1.0"

from .numerics import (
    BigReal,
    gamma_bootstrap,
    gamma_reference,
    harmonic_exact,
)
from .sequences import (
    DeTempleR,
    GammaN,
    MuFamily,
    SOptimal,
    SequenceKind,
    SplitValue,
    UMinus,
    UPlus,
    VernescuV,
    VFamily,
    error_fraction,
    evaluate,
    split_eval,
    verify_error_identity,
)
from .series import (
    AsymptoticSeries,
    ParamPoly,
    digamma_tail,
    expand_log_ratio,
    expand_reciprocal_shift,
    gamma_n_deviation,
    shift_index,
    v_family_difference,
)
from .rates import empirical_rate, optimize_parameters, rate_from_series
from .polycert import (
    Polynomial,
    RationalFunction,
    derivative_of_f,
    positivity_certificate,
    tail_sign_verdict,
    taylor_shift,
)
from .bounds import catalog, check, get_entry, sweep

__all__ = [
    "__version__",
    "BigReal",
    "gamma_bootstrap",
    "gamma_reference",
    "harmonic_exact",
    "SequenceKind",
    "GammaN",
    "DeTempleR",
    "VernescuV",
    "MuFamily",
    "VFamily",
    "SOptimal",
    "UPlus",
    "UMinus",
    "SplitValue",
    "split_eval",
    "evaluate",
    "error_fraction",
    "verify_error_identity",
    "AsymptoticSeries",
    "ParamPoly",
    "expand_reciprocal_shift",
    "expand_log_ratio",
    "shift_index",
    "v_family_difference",
    "digamma_tail",
    "gamma_n_deviation",
    "rate_from_series",
    "empirical_rate",
    "optimize_parameters",
    "Polynomial",
    "RationalFunction",
    "taylor_shift",
    "positivity_certificate",
    "derivative_of_f",
    "tail_sign_verdict",
    "catalog",
    "get_entry",
    "check",
    "sweep",
]
