"""The streamed rows of `eval` and `sweep-bounds`.

Neither command keeps the rows it has written, so memory stays flat in
the range.  Each row goes from integers to one line: a %-template made
once per format (`_line_template`), filled with texts printed straight
from the row's integers (`_printers`), with no dict, csv.writer or
Fraction per row.  CSV writes each row as it is made, so a failure
partway leaves the earlier rows on stdout, and one in the first row no
header; JSON spools the rows and prints the whole envelope at the end,
and nothing on a failure (`_stream`).
"""

import operator
import sys

from .cli import _write_json

# the integer-part digits that `_printers` allows for before it converts through decimal
_INT_PART_DIGITS = 64


def _printers(places: int, fill=None):
    """(text, nearest, row_line): the decimal texts of the streamed rows,
    with `places` >= 1 digits after the point, made once per command.

    text(negative, q) prints q * 10**-places, with a minus sign when
    `negative`, even where q is 0.  row_line(r) is `fill`'s line of the
    bounds.SweepRow r, its seven columns in `cli_sweep`'s order,
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
