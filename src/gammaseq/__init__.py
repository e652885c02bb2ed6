"""Certified arithmetic for sequences converging to the Euler-Mascheroni constant.

The package splits into a certified numeric core (exact rationals,
integer intervals at an explicit scale, integer logarithms, a reference
enclosure of the constant), exact asymptotic machinery (difference
expansions with rational coefficients, rate extraction, the family
optimizer), polynomial positivity certificates for the two-sided
bracket on the optimal sequence, and a catalog of published
inequalities that can be swept with certified verdicts.  The hot
integer loops are pure Python in ``gammaseq._kernels_py``.

The exported names are loaded on first access (PEP 562), so importing
the package, or ``gammaseq.cli`` for one command, compiles and runs
only the modules that are used.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_HOMES = {name: module for module, names in (
    ("numerics", "BigReal gamma_bootstrap gamma_reference harmonic_exact"),
    ("sequences", "SequenceKind GammaN DeTempleR VernescuV MuFamily VFamily SOptimal"
                  " UPlus UMinus"),
    ("series", "AsymptoticSeries expand_reciprocal_shift expand_log_ratio"
               " v_family_difference"),
    ("rates", "rate_from_series empirical_rate optimize_parameters"),
    ("polycert", "Polynomial taylor_shift positivity_certificate"
                 " derivative_of_f tail_sign_verdict"),
    ("bounds", "catalog get_entry check sweep"),
) for name in names.split()}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
