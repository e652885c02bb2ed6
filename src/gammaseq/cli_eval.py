"""`eval`: a sequence's values over a range, with its exact rational parts."""

import math

from . import numerics, sequences
from .cli import EXIT_OK, _decimal_digits, _frac_str, _ratio_str, _resolve_kind
from .cli_rows import _line_template, _printers, _stream
from .errors import DomainError


def _decimal_add():
    """add(num, den, b_num, b_den): the sum of two reduced rationals, dens > 0,
    reduced as Fraction adds (Knuth 4.5.1), in integer Decimals, which print
    with no digit limit; each add is linear in their length, and a rounding raises."""
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Inexact, Rounded

    ctx = Context(MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    ctx.traps[Inexact] = ctx.traps[Rounded] = True
    mul, rem, div = ctx.multiply, ctx.remainder, ctx.divide_int

    def add(num, den, b_num: int, b_den: int):
        g = math.gcd(int(rem(den, b_den)), b_den)
        s = div(den, g)
        t = ctx.add(mul(num, b_den // g), mul(s, b_num))
        g2 = math.gcd(int(rem(t, g)), g)
        return div(t, g2), mul(s, b_den // g2)

    return add


def run(args) -> int:
    kind = _resolve_kind(args)
    n_last = args.to if args.to is not None else args.n
    if n_last < args.n:
        raise DomainError("--to must not be smaller than --n")
    digits = _decimal_digits(args.precision)
    nearest = _printers(digits)[1]
    columns = ["n", "value", "rational_part", "log_argument"]
    split = sequences._split(kind) if kind.exact else None  # UPlus, UMinus have none
    fill = _line_template(args.format, columns, columns if split else columns[:2])

    def lines():
        rows = zip(range(args.n, n_last + 1),
                   sequences.values(kind, args.n, n_last, args.precision))
        if split is None:
            for n, (m, e) in rows:
                yield fill((n, nearest(m, e)))
            return
        # the rational part r_n = H_{n-1} + c_n, carried as a reduced pair of integer
        # Decimals: the first row, once made, sums H_{n-1} + c_n afresh; each later row
        # adds r_n - r_{n-1} = 1/(n - 1) + c_n - c_{n-1}, formed and reduced in ints
        add, rational = None, (0, 1)
        for n, (m, e) in rows:
            (c_num, c_den), x = split(n)
            if add is None:
                add = _decimal_add()
                h_num, h_den = numerics._hsum(1, n - 1)
                num, den = h_num * c_den + c_num * h_den, h_den * c_den
            else:
                j, (l_num, l_den) = n - 1, last  # l: c_{n-1}
                num = (c_den + c_num * j) * l_den - l_num * c_den * j
                den = j * c_den * l_den
            g = math.gcd(num, den)
            rational = add(*rational, num // g, den // g)
            last = c_num, c_den
            yield fill((n, nearest(m, e), _ratio_str(*rational), _ratio_str(*x)))

    params = {"seq": args.seq, "n": args.n, "to": n_last, "precision": args.precision}
    if args.a is not None:
        params["a"] = _frac_str(args.a)
        params["b"] = _frac_str(args.b)
    _stream(args.format, "eval", params, lines(),
            lambda: {"precision_bits": args.precision, "decimal_digits": digits}, columns)
    return EXIT_OK
