"""Command-line interface.

Every command prints a deterministic envelope: the command name, the
parameters it ran with, a list of result rows, and metadata (precision,
enclosure width, version).  Exact quantities are serialized as fraction
strings "p/q", inexact ones as decimal strings with an explicit digit
count, so identical inputs give byte-identical output.

Rows are streamed: `sweep-bounds` and `eval` make their rows one at a
time, and neither keeps the rows it has written, so memory stays flat
in the range (peak RSS about 17 MB for a `theorem22` sweep of 10^4
rows and of 5 * 10^4 rows alike).  Each of
their rows goes from integers to one line: the command builds one
%-template per format (`_line_template`: a CSV line, or a JSON object
with its keys in sorted order) and fills it with texts printed straight
from the row's integers (`_printers`): a sweep row through one
`row_line` closure, an `eval` value through `nearest`, with no dict,
csv.writer, Fraction or BigReal per row.  CSV writes each row as it is made, so a failure
partway through a range leaves the earlier rows on stdout, and an error
in the first row prints no header; the command still exits with its
code and one line on stderr (141 for a closed pipe).  JSON spools the
formatted rows to a temporary file and prints the whole envelope at the
end, and nothing on a failure.  The one-row commands build a dict per
row and print it with csv.writer or json's quoting, since some of their
fields need quoting (`certify`'s coefficient lists as CSV).  `csv` and
`json` are imported only where they write.

Exit codes: 0 success, 1 a sweep found a certified-false row, 2 usage
error, or a decimal of `enclose` printed at more than about 14,320
bits would pass Python's 4300-digit integer-string limit, 3 undecided
rows remained at the precision cap, or the requested precision could
not decide the result, 141 (128 + SIGPIPE) the reader of stdout closed
it before the output ended, as `gammaseq ... | head` does; no
traceback is printed.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys

from . import __version__
from .errors import DomainError, PrecisionError

# Each command imports the modules it runs in its own body, so a start
# loads and compiles only those: `enclose` needs numerics alone, and
# `--help` none of the library.  Likewise `decimal` is imported only for
# `eval`'s exact rational parts and for decimals too long for str(), and
# `fractions` only where an --a or --b parameter or an exact rational is read.

DEFAULT_PRECISION = 128

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_BROKEN_PIPE = 128 + 13  # as a shell reports a process ended by SIGPIPE

# the --seq names and the sequences.SequenceKind each names
_SEQ_KINDS = {"gamma": "GammaN", "r": "DeTempleR", "v": "VernescuV", "mu": "MuFamily",
              "vfam": "VFamily", "s": "SOptimal", "uplus": "UPlus", "uminus": "UMinus"}


def _parse_fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _resolve_kind(args):
    """The sequences.SequenceKind that --seq, --a and --b name."""
    from . import sequences

    name = args.seq
    cls = getattr(sequences, _SEQ_KINDS[name])
    if cls.params and (args.a is None or args.b is None):
        raise DomainError(f"--seq {name} requires --a and --b")
    if not cls.params and (args.a is not None or args.b is not None):
        raise DomainError(f"--seq {name} does not take --a/--b")
    return cls(*(getattr(args, param) for param in cls.params))  # the families' a and b


def _decimal_digits(precision: int) -> int:
    # 2**-p rendered with a little headroom
    return max(4, precision * 3 // 10)


def _width_str(num: int, den: int) -> str:
    """num/den > 0 as d.ddde[+-]XX rounded to nearest from its exact value: the
    bytes of f"{float(num / den):.3e}" wherever that float is normal, without
    its underflow."""
    from . import numerics

    e = (num.bit_length() - den.bit_length() - 1) * 30103 // 100000 - 1  # <= log10(num/den)

    def scaled(rounding):  # num/den * 10**(3 - e) rounded to an integer
        return numerics._round(num * 10**max(3 - e, 0), den * 10**max(e - 3, 0), rounding)[1]

    while scaled("floor") >= 10000:
        e += 1
    mant = scaled("nearest")
    if mant == 10000:
        mant, e = 1000, e + 1
    return f"{mant // 1000}.{mant % 1000:03d}e{e:+03d}"


def _ratio_str(num: int, den: int) -> str:
    """A reduced num/den, den > 0, as "num/den", or "num" when den is 1."""
    return f"{num}/{den}" if den != 1 else str(num)


def _frac_str(x) -> str:
    """A Fraction or an int as "num/den", or "num"."""
    return _ratio_str(x.numerator, x.denominator)


# the integer-part digits that `_printers` allows for before it converts through decimal
_INT_PART_DIGITS = 64


def _printers(places: int, fill=None):
    """(text, nearest, row_line): the decimal texts of the streamed rows,
    with `places` >= 1 digits after the point, made once per command.

    text(negative, q) prints q * 10**-places, with a minus sign when
    `negative`, even where q is 0.  row_line(r) is `fill`'s line of the
    bounds.SweepRow r, its seven columns in `cmd_sweep_bounds`' order,
    printed from r's integers: each dyadic column m * 2**-s as
    text(m < 0, ((|m| 10**places << 1) + 2**s) >> (s + 1)) and each side
    num/den, den > 0, with one integer division; both round as
    decimal_text(..., "half-up"), ties away from zero, and a negative
    value keeps its sign when it prints as zero (-0.000).  value_hi
    reuses value_lo's text where their rounded integers and signs agree.
    nearest(m, e) prints m * 2**e as decimal_text(..., "nearest"), ties to
    even, and a value that prints as zero has no sign.

    Their integers have `places` digits and those of the value's integer
    part.  Where that may pass Python's limit for integer strings
    (4,300 digits by default, at about 14,330 bits of precision), they
    are converted through `decimal`, which has no such limit.
    """
    ten = 10**places
    twice = ten << 1
    width = places + 1
    digits_of = str
    limit = sys.get_int_max_str_digits()
    if limit and places + _INT_PART_DIGITS >= limit:
        from decimal import Decimal

        def digits_of(q: int) -> str:
            return str(Decimal(q))

    def text(negative: bool, q: int) -> str:
        digits = digits_of(q).rjust(width, "0")
        return f"{'-' if negative else ''}{digits[:-places]}.{digits[-places:]}"

    def row_line(r) -> str:
        lo, hi, margin, lower, upper = r.value_lo, r.value_hi, r.margin, r.lower, r.upper
        half, shift = 1 << r.scale, r.scale + 1
        q_lo = (abs(lo) * twice + half) >> shift
        q_hi = (abs(hi) * twice + half) >> shift
        lo_text = text(lo < 0, q_lo)
        hi_text = lo_text if q_hi == q_lo and (hi < 0) == (lo < 0) else text(hi < 0, q_hi)
        if lower is not None:
            lower = text(lower[0] < 0, (abs(lower[0]) * twice + lower[1]) // (lower[1] << 1))
        if upper is not None:
            upper = text(upper[0] < 0, (abs(upper[0]) * twice + upper[1]) // (upper[1] << 1))
        return fill((r.n, lower or "", lo_text, hi_text, upper or "", r.verdict,
                     text(margin < 0, (abs(margin) * twice + half) >> shift)))

    def nearest(m: int, e: int) -> str:
        t = abs(m) * ten
        if e >= 0:
            return text(m < 0, t << e)
        q = t >> -e
        rest = t - (q << -e)
        half = 1 << (-e - 1)
        if rest > half or (rest == half and q & 1):
            q += 1
        return text(m < 0 and q > 0, q)

    return text, nearest, row_line


def _line_template(fmt: str, columns: list, keys: list):
    """fill(fields): the line of one streamed row, whose fields come as a
    tuple in the order of `keys`, a subset of `columns` in their order:
    "n" is an integer, every other field a text that needs no CSV quoting
    and no JSON escaping (a decimal, a fraction "p/q", empty, or a
    hyphenated verdict word).

    The line is a %-template, made once.  CSV is one line with a field per
    column, empty where a column is not in `keys`.  JSON is the row object
    as json.dumps(envelope, indent=2, sort_keys=True) nests it, keys
    sorted, after the separator ",\n    " (`_write_json` drops the first
    row's comma), and one itemgetter puts the fields in that order.
    """
    if fmt == "csv":
        return (",".join("%s" if column in keys else "" for column in columns) + "\n").__mod__
    template = ",\n    {\n      " + ",\n      ".join(
        f'"{key}": ' + ("%s" if key == "n" else '"%s"') for key in sorted(keys)) + "\n    }"
    pick = operator.itemgetter(*map(keys.index, sorted(keys)))
    return lambda fields: template % pick(fields)


def _json_text(value, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True) nested at `indent`."""
    import json

    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _write_json(command: str, parameters: dict, rows, metadata) -> None:
    """Print json.dumps(envelope, indent=2, sort_keys=True) and a newline.

    `rows` are the texts of the row objects, each after the separator
    ",\n    ".  "metadata" sorts before "rows", so the rows are spooled to
    a temporary file, and `metadata`, a function returning the metadata
    dict, is called after the last row; a failure prints nothing.
    """
    import shutil
    import tempfile

    out = sys.stdout
    with tempfile.TemporaryFile("w+", encoding="ascii") as spool:
        spool.writelines(rows)
        out.write("{\n")
        for key, value in (("command", command),  # the envelope's keys in sorted order
                           ("metadata", {"version": __version__, **metadata()}),
                           ("parameters", parameters)):
            out.write(f'  "{key}": {_json_text(value, "  ")},\n')
        if not spool.tell():
            out.write('  "rows": []\n}\n')
        else:
            out.write('  "rows": [')
            spool.seek(0)
            spool.read(1)  # the first row's comma
            shutil.copyfileobj(spool, out)
            out.write("\n  ]\n}\n")


def _emit(fmt: str, command: str, parameters: dict, rows, metadata, columns: list) -> None:
    """Write the envelope of `rows`, an iterable of dicts, to stdout: CSV
    as csv.writer writes the header `columns` and each row, JSON as
    `_write_json`.  The one-row commands print through here, since some
    of their fields need quoting (`certify`'s coefficient lists)."""
    if fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(column, "") for column in columns] for row in rows)
        return
    _write_json(command, parameters, (",\n    " + _json_text(row, "    ") for row in rows),
                metadata)


def _stream(fmt: str, command: str, parameters: dict, lines, metadata, columns: list) -> None:
    """Write the envelope of a streamed command, whose rows come as lines
    filled into its `_line_template`.  CSV writes each line as it is made,
    and the header `columns` only once the first row is made, so that an
    error in it prints no header; JSON as `_write_json`."""
    if fmt == "csv":
        out = sys.stdout
        first = next(lines, None)
        out.write(",".join(columns) + "\n")
        if first is not None:
            out.write(first)
            out.writelines(lines)
        return
    _write_json(command, parameters, lines, metadata)


# ---------------------------------------------------------------------------
# commands


def cmd_eval(args) -> int:
    from . import sequences
    from .numerics import harmonic_exact

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
        ns = range(args.n, n_last + 1)
        values = sequences.values(kind, args.n, n_last, args.precision)
        if split is None:
            for n, (m, e) in zip(ns, values):
                yield fill((n, nearest(m, e)))
            return
        # H_{n-1}, summed along the range, and the rational part as integer Decimals: each
        # step is linear in their length, and str() copies their base 10**19 limbs.
        from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded

        ctx = Context(MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
        ctx.traps[Inexact] = ctx.traps[Rounded] = True  # a rounding raises
        mul, rem, div = ctx.multiply, ctx.remainder, ctx.divide_int

        def add(num, den, b_num: int, b_den: int):  # both reduced, dens > 0: the sum reduced
            g = math.gcd(int(rem(den, b_den)), b_den)  # as Fraction adds (Knuth 4.5.1)
            s = div(den, g)
            t = ctx.add(mul(num, b_den // g), mul(s, b_num))
            g2 = math.gcd(int(rem(t, g)), g)
            return div(t, g2), mul(s, b_den // g2)

        harmonic = Decimal(0), Decimal(1)  # H_0
        for n, (m, e) in zip(ns, values):
            (c_num, c_den), x = split(n)
            if n > args.n:
                harmonic = add(*harmonic, 1, n - 1)
            elif n > 1:  # the first row adds H_{n-1}, summed afresh
                harmonic = add(*harmonic, *harmonic_exact(n - 1).as_integer_ratio())
            g = math.gcd(c_num, c_den)
            rational = add(*harmonic, c_num // g, c_den // g)
            yield fill((n, nearest(m, e), _ratio_str(*rational), _ratio_str(*x)))

    params = {"seq": args.seq, "n": args.n, "to": n_last, "precision": args.precision}
    if args.a is not None:
        params["a"] = _frac_str(args.a)
        params["b"] = _frac_str(args.b)
    _stream(args.format, "eval", params, lines(),
            lambda: {"precision_bits": args.precision, "decimal_digits": digits}, columns)
    return EXIT_OK


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


def cmd_expand(args) -> int:
    from . import series

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


def cmd_optimize(args) -> int:
    from . import rates

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


def cmd_rate(args) -> int:
    from . import rates

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


def cmd_sweep_bounds(args) -> int:
    from . import bounds

    try:
        entry = bounds.get_entry(args.entry)
    except KeyError as exc:
        raise DomainError(exc.args[0]) from exc
    n_from = args.n_from if args.n_from is not None else entry.n_min
    if args.n_from is None and args.n_to < n_from:
        raise DomainError(
            f"{entry.entry_id!r} is stated for n >= {n_from}, but --to is {args.n_to}")
    cap, swept = bounds.sweep_rows(entry, n_from, args.n_to, args.precision,
                                   precision_cap=args.precision_cap)
    digits = _decimal_digits(args.precision)
    columns = ["n", "lower", "value_lo", "value_hi", "upper", "verdict", "margin"]
    text, _, row_line = _printers(digits, _line_template(args.format, columns, columns))
    report = bounds.SweepReport()

    def lines():
        add = report.add
        for r in swept:
            add(r)
            yield row_line(r)

    def metadata():
        meta = {
            "precision_bits": args.precision,
            "precision_cap": cap,
            "counts": report.counts,
            "decimal_digits": digits,
            "citation": entry.citation,
        }
        least = report.least
        if least is not None:
            m, s = least.margin, least.scale  # rounded as row_line rounds the margin column
            meta["min_margin"] = text(m < 0, (abs(m) * 10**digits * 2 + (1 << s)) >> (s + 1))
            meta["min_margin_n"] = least.n
        if entry.note:
            meta["note"] = entry.note
        return meta

    _stream(args.format, "sweep-bounds",
            {"entry": args.entry, "from": n_from, "to": args.n_to,
             "precision": args.precision},
            lines(), metadata, columns)
    if report.counts[bounds.CERTIFIED_FALSE]:
        return EXIT_FALSIFIED
    if report.counts[bounds.UNDECIDED]:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import polycert

    target = args.target
    if target in ("P", "Q"):
        variant = "f" if target == "P" else "g"
        poly = polycert.derivative_numerator(variant)
        center = (polycert.F_NUMERATOR_SHIFT_CENTER if variant == "f"
                  else polycert.G_NUMERATOR_SHIFT_CENTER)
        cert = polycert.positivity_certificate(poly, center)
        ok = isinstance(cert, polycert.PositivityCertificate)
        columns = ["center", "certificate", "shifted_coefficients", "target"]
        rows = [{
            "target": target,
            "center": center,
            "shifted_coefficients": [_frac_str(c) for c in cert.shifted_coeffs],
            "certificate": ok,
        }]
    else:
        verdict = polycert.tail_sign_verdict(target)
        columns = ["conclusion", "derivative_sign", "function_sign", "identity",
                   "identity_checked", "numerator_shifted_coefficients", "shift_center",
                   "target", "vanishes_at_infinity"]
        rows = [{
            "target": target,
            "identity": ("-" if verdict.derivative_sign < 0 else "")
                        + f"numerator/({polycert.DENOMINATOR_TEXT})",
            "identity_checked": verdict.identity_checked,
            "numerator_shifted_coefficients": [
                _frac_str(c) for c in verdict.numerator_certificate.shifted_coeffs
            ],
            "shift_center": _frac_str(verdict.numerator_certificate.center),
            "derivative_sign": verdict.derivative_sign,
            "vanishes_at_infinity": verdict.vanishes_at_infinity,
            "function_sign": verdict.function_sign,
            "conclusion": verdict.conclusion,
        }]
    _emit(args.format, "certify", {"target": target}, rows, dict, columns)
    return EXIT_OK


def cmd_enclose(args) -> int:
    from . import numerics

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


# ---------------------------------------------------------------------------
# parser


def _add_seq_options(sub, with_n: bool = True):
    sub.add_argument("--seq", required=True, choices=_SEQ_KINDS)
    sub.add_argument("--a", type=_parse_fraction, default=None,
                     help="rational parameter, e.g. 3/2")
    sub.add_argument("--b", type=_parse_fraction, default=None,
                     help="rational parameter; write negatives as --b=-5/12")
    if with_n:
        sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--to", type=int, default=None,
                         help="evaluate the whole range n..to")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammaseq",
        description="Certified arithmetic for sequences converging to the "
                    "Euler-Mascheroni constant.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    p_eval = commands.add_parser("eval", help="evaluate a sequence")
    _add_seq_options(p_eval)
    p_eval.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(func=cmd_eval)

    p_expand = commands.add_parser(
        "expand", help="difference expansion of the two-parameter family")
    p_expand.add_argument("--order", type=int, default=None)  # series.DEFAULT_ORDER
    p_expand.add_argument("--a", type=_parse_fraction, default=None)
    p_expand.add_argument("--b", type=_parse_fraction, default=None)
    p_expand.add_argument("--format", choices=("json", "csv"), default="json")
    p_expand.set_defaults(func=cmd_expand)

    p_opt = commands.add_parser(
        "optimize", help="best family parameters and surviving coefficient")
    p_opt.add_argument("--order", type=int, default=5)
    p_opt.add_argument("--format", choices=("json", "csv"), default="json")
    p_opt.set_defaults(func=cmd_optimize)

    p_rate = commands.add_parser("rate", help="empirical convergence order")
    _add_seq_options(p_rate, with_n=False)
    p_rate.add_argument("--grid-start", type=int, default=16)
    p_rate.add_argument("--grid-stop", type=int, default=1024)
    p_rate.add_argument("--grid-factor", type=int, default=2)
    p_rate.add_argument("--precision", type=int, default=256)
    p_rate.add_argument("--format", choices=("json", "csv"), default="json")
    p_rate.set_defaults(func=cmd_rate)

    p_sweep = commands.add_parser(
        "sweep-bounds", help="certify a catalog inequality across a range")
    p_sweep.add_argument("--entry", required=True)
    p_sweep.add_argument("--from", dest="n_from", type=int, default=None)
    p_sweep.add_argument("--to", dest="n_to", type=int, required=True)
    p_sweep.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p_sweep.add_argument("--precision-cap", type=int, default=None)
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.set_defaults(func=cmd_sweep_bounds)

    p_cert = commands.add_parser(
        "certify", help="positivity certificates and sign verdicts")
    p_cert.add_argument("--target", required=True, choices=("P", "Q", "f", "g"))
    p_cert.add_argument("--format", choices=("json", "csv"), default="json")
    p_cert.set_defaults(func=cmd_certify)

    p_enc = commands.add_parser(
        "enclose", help="certified enclosure of the Euler-Mascheroni constant")
    p_enc.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p_enc.add_argument("--n", type=int, default=None,
                       help="derive the enclosure from s_n at this explicit n")
    p_enc.add_argument("--format", choices=("json", "csv"), default="json")
    p_enc.set_defaults(func=cmd_enclose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: a printed number would exceed Python's "
              f"{sys.get_int_max_str_digits()}-digit limit for integer strings",
              file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; point stdout at devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
