"""Command-line interface.

Every command prints a deterministic envelope: the command name, the
parameters it ran with, a list of result rows, and metadata (precision,
enclosure width, version).  Exact quantities are serialized as fraction
strings "p/q", inexact ones as decimal strings with an explicit digit
count, so identical inputs give byte-identical output.

Each command's body is `run(args)` in a module of its own, `cli_eval`,
`cli_sweep` (sweep-bounds), `cli_rate`, `cli_optimize`, `cli_certify`,
`cli_expand` or `cli_enclose` (`cli_rows` streams the rows of the first
two), which `cmd_*` imports when it runs, and `build_parser` defines the
arguments of the command that argv names alone: a start compiles only
its own command.  `csv` and `json` are imported only where they write.

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
import importlib
import os
import sys

from . import __version__
from .errors import DomainError, PrecisionError

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


def _ratio_str(num, den) -> str:
    """A reduced num/den, den > 0, as "num/den", or "num" when den is 1."""
    return str(num) + "/" + str(den) if den != 1 else str(num)


def _frac_str(x) -> str:
    """A Fraction or an int as "num/den", or "num"."""
    return _ratio_str(x.numerator, x.denominator)


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


# ---------------------------------------------------------------------------
# commands


def _command(module: str):
    """cmd_*(args): import gammaseq.`module`, once the command runs, and return its run(args)."""
    return lambda args: importlib.import_module(f"{__package__}.{module}").run(args)


cmd_eval = _command("cli_eval")
cmd_expand = _command("cli_expand")
cmd_optimize = _command("cli_optimize")
cmd_rate = _command("cli_rate")
cmd_sweep_bounds = _command("cli_sweep")
cmd_certify = _command("cli_certify")
cmd_enclose = _command("cli_enclose")


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


def build_parser(argv=()) -> argparse.ArgumentParser:
    """Every command's subparser, with arguments only in the one that argv
    names: the top-level help and errors print no other's."""
    parser = argparse.ArgumentParser(
        prog="gammaseq",
        description="Certified arithmetic for sequences converging to the "
                    "Euler-Mascheroni constant.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if not arg.startswith("-")), None)

    def add(name: str, func, help_text: str):
        """Subparser `name`, or None where argv names another command."""
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        return sub if name == named else None

    if p := add("eval", cmd_eval, "evaluate a sequence"):
        _add_seq_options(p)
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    if p := add("expand", cmd_expand, "difference expansion of the two-parameter family"):
        p.add_argument("--order", type=int, default=None)  # series.DEFAULT_ORDER
        p.add_argument("--a", type=_parse_fraction, default=None)
        p.add_argument("--b", type=_parse_fraction, default=None)
    if p := add("optimize", cmd_optimize, "best family parameters and surviving coefficient"):
        p.add_argument("--order", type=int, default=5)
    if p := add("rate", cmd_rate, "empirical convergence order"):
        _add_seq_options(p, with_n=False)
        p.add_argument("--grid-start", type=int, default=16)
        p.add_argument("--grid-stop", type=int, default=1024)
        p.add_argument("--grid-factor", type=int, default=2)
        p.add_argument("--precision", type=int, default=256)
    if p := add("sweep-bounds", cmd_sweep_bounds, "certify a catalog inequality across a range"):
        p.add_argument("--entry", required=True)
        p.add_argument("--from", dest="n_from", type=int, default=None)
        p.add_argument("--to", dest="n_to", type=int, required=True)
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
        p.add_argument("--precision-cap", type=int, default=None)
    if p := add("certify", cmd_certify, "positivity certificates and sign verdicts"):
        p.add_argument("--target", required=True, choices=("P", "Q", "f", "g"))
    if p := add("enclose", cmd_enclose, "certified enclosure of the Euler-Mascheroni constant"):
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
        p.add_argument("--n", type=int, default=None,
                       help="derive the enclosure from s_n at this explicit n")
    if p := commands.choices.get(named):  # every command's last option
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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
    # run as `python -m gammaseq.cli` this module is __main__; under its own name too,
    # the command modules' imports from gammaseq.cli find it instead of running it again
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    entrypoint()
