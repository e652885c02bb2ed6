"""`expand`: the difference expansion of the two-parameter family."""

from . import series
from .cli import EXIT_OK, _emit, _frac_str
from .errors import DomainError


def _linear_str(ca, cb, c) -> str:
    """A nonzero ca*a + cb*b + c as text, a's term first: "a + 2*b - 2/3"."""
    terms = []
    for coef, name in ((ca, "a"), (cb, "b"), (c, None)):
        if coef:
            mag = abs(coef)
            body = str(mag) if name is None else name if mag == 1 else f"{mag}*{name}"
            terms.append(f"{'-' if coef < 0 else '+'} {body}")
    text = " ".join(terms)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def run(args) -> int:
    order = args.order if args.order is not None else series.DEFAULT_ORDER
    expansion = series.v_family_difference(order)
    symbolic = args.a is None and args.b is None
    if symbolic:
        triples = ((k, expansion.coeff(k)) for k in range(order + 1))
        rows = [{"k": k, "coefficient": _linear_str(*t)} for k, t in triples if any(t)]
    else:
        if args.a is None or args.b is None:
            raise DomainError("provide both --a and --b, or neither")
        coeffs = expansion.substitute(args.a, args.b).coefficients()
        rows = [{"k": k, "coefficient": _frac_str(c)} for k, c in sorted(coeffs.items())]
    params = {"order": order, "symbolic": symbolic}
    if not symbolic:
        params["a"] = _frac_str(args.a)
        params["b"] = _frac_str(args.b)
    _emit(args.format, "expand", params, rows,
          lambda: {"remainder": f"O(n^-{order + 1})"}, ["k", "coefficient"])
    return EXIT_OK
