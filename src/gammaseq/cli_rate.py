"""`rate`: the empirical convergence order of a sequence over a geometric grid."""

from . import rates
from .cli import EXIT_OK, _emit, _frac_str, _resolve_kind
from .errors import DomainError


def run(args) -> int:
    kind = _resolve_kind(args)
    if args.grid_start < 1:
        raise DomainError("--grid-start must be at least 1")
    if args.grid_factor < 2:
        raise DomainError("--grid-factor must be at least 2")
    grid = []
    n = args.grid_start
    while n <= args.grid_stop:
        grid.append(n)
        n *= args.grid_factor
    report = rates.empirical_rate(kind, grid, args.precision)
    rows = [{
        "difference_order": f"{report.difference_order:.6f}",
        "sequence_rate": f"{report.sequence_rate:.6f}",
        "residual": f"{report.residual:.6f}",
        "reliable": report.reliable,
    }]
    params = {"seq": args.seq, "grid_start": args.grid_start,
              "grid_stop": args.grid_stop, "grid_factor": args.grid_factor,
              "precision": args.precision}
    if args.a is not None:
        params["a"] = _frac_str(args.a)
        params["b"] = _frac_str(args.b)
    _emit(args.format, "rate", params, rows,
          lambda: {"grid": list(report.grid), "precision_bits": args.precision},
          ["difference_order", "sequence_rate", "residual", "reliable"])
    return EXIT_OK
