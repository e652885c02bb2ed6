"""`optimize`: the best family parameters and the surviving coefficient."""

from . import rates
from .cli import EXIT_OK, _emit, _frac_str


def run(args) -> int:
    result = rates.optimize_parameters(args.order)
    rows = [{
        "a": _frac_str(result.a),
        "b": _frac_str(result.b),
        "surviving_index": result.surviving_index,
        "surviving_coeff": _frac_str(result.surviving_coeff),
        "sequence_rate": result.rate.sequence_rate,
        "sequence_limit": _frac_str(result.rate.sequence_limit),
    }]
    _emit(args.format, "optimize", {"order": args.order}, rows, dict,
          ["a", "b", "surviving_index", "surviving_coeff",
           "sequence_rate", "sequence_limit"])
    return EXIT_OK
