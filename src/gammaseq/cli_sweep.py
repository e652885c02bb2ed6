"""`sweep-bounds`: certify a catalog inequality across a range, row by row."""

from . import bounds
from .cli import EXIT_FALSIFIED, EXIT_OK, EXIT_UNDECIDED, _decimal_digits
from .cli_rows import _line_template, _printers, _stream
from .errors import DomainError


def run(args) -> int:
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
