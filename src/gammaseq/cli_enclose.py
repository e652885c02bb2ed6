"""`enclose`: a certified enclosure of the Euler-Mascheroni constant."""

from . import numerics
from .cli import EXIT_OK, _decimal_digits, _emit


def _width_str(num: int, den: int) -> str:
    """num/den > 0 as d.ddde[+-]XX rounded to nearest from its exact value: the
    bytes of f"{float(num / den):.3e}" wherever that float is normal, without
    its underflow."""
    e = (num.bit_length() - den.bit_length() - 1) * 30103 // 100000 - 1  # <= log10(num/den)

    def scaled(rounding):  # num/den * 10**(3 - e) rounded to an integer
        return numerics._round(num * 10**max(3 - e, 0), den * 10**max(e - 3, 0), rounding)[1]

    while scaled("floor") >= 10000:
        e += 1
    mant = scaled("nearest")
    if mant == 10000:
        mant, e = 1000, e + 1
    return f"{mant // 1000}.{mant % 1000:03d}e{e:+03d}"


def run(args) -> int:
    if args.n is not None:
        lo, hi, q = numerics.gamma_bootstrap(args.n, args.precision)
        params = {"n": args.n, "precision": args.precision}
    else:
        lo, hi, q = numerics.gamma_reference(args.precision)
        params = {"precision": args.precision}
    digits = _decimal_digits(args.precision) + 4
    unit = 1 << q
    width = _width_str(hi - lo, unit)
    rows = [{
        "lo": numerics.decimal_text(lo, unit, digits, "floor"),
        "hi": numerics.decimal_text(hi, unit, digits, "ceiling"),
        "width": width,
    }]
    _emit(args.format, "enclose", params, rows,
          lambda: {"precision_bits": args.precision, "enclosure_width": width,
                   "decimal_digits": digits},
          ["lo", "hi", "width"])
    return EXIT_OK
