"""CLI surface: envelopes, formats, determinism, exit codes."""

import contextlib
import csv
import decimal
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mpf_to_fraction, split_at, swept
from gammaseq import bounds, cli, numerics, sequences
from gammaseq.bounds import BoundEntry
from gammaseq.cli_enclose import _width_str
from gammaseq.cli_expand import _linear_str
from gammaseq.cli_rows import _printers
from gammaseq.errors import DomainError
from gammaseq.numerics import gamma_reference, harmonic_exact
from gammaseq.sequences import GammaN, MuFamily, SOptimal, VernescuV, VFamily

F = Fraction


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_optimize_envelope(capsys):
    code, data = run_json(capsys, "optimize", "--order", "5")
    assert code == 0
    row = data["rows"][0]
    assert row["a"] == "3/2"
    assert row["b"] == "-5/12"
    assert row["surviving_coeff"] == "1/4"
    assert row["sequence_limit"] == "1/12"
    assert data["metadata"]["version"]


def test_eval_trivial_value(capsys):
    code, data = run_json(capsys, "eval", "--seq", "gamma", "--n", "1")
    assert code == 0
    assert data["rows"][0]["value"].startswith("1.0000")
    assert data["rows"][0]["rational_part"] == "1"


def test_eval_range_and_params(capsys):
    code, data = run_json(capsys, "eval", "--seq", "vfam", "--a", "3/2",
                          "--b=-5/12", "--n", "3", "--to", "5")
    assert code == 0
    assert [row["n"] for row in data["rows"]] == [3, 4, 5]
    assert data["parameters"]["a"] == "3/2"


@pytest.mark.parametrize("argv,kind", [
    (["--seq", "v", "--n", "50", "--to", "60"], VernescuV()),
    (["--seq", "s", "--n", "3", "--to", "3"], SOptimal()),
    (["--seq", "vfam", "--a", "3/2", "--b=-5/12", "--n", "40", "--to", "45"],
     VFamily(F(3, 2), F(-5, 12))),
])
def test_eval_running_rational_part(capsys, argv, kind):
    # the printed rational part is summed along the range; it must be the
    # text of the exact H_{n-1} + correction in lowest terms on every row,
    # also when the range starts late
    code, data = run_json(capsys, "eval", *argv)
    assert code == 0
    for row in data["rows"]:
        c, _x = split_at(kind, row["n"])
        assert row["rational_part"] == str(harmonic_exact(row["n"] - 1) + c)


@pytest.mark.parametrize("kind,argv", [
    (GammaN(), ["--seq", "gamma"]), (sequences.DeTempleR(), ["--seq", "r"]),
    (VernescuV(), ["--seq", "v"]), (SOptimal(), ["--seq", "s"]),
    (MuFamily(F(-3, 7), F(5, 2)), ["--seq", "mu", "--a=-3/7", "--b=5/2"]),
    (VFamily(F(-7, 4), F(11, 6)), ["--seq", "vfam", "--a=-7/4", "--b=11/6"]),
], ids=["gamma", "r", "v", "s", "mu", "vfam"])
@pytest.mark.parametrize("first", ["n_min", "50"])
def test_eval_rational_part_is_the_exact_sum_on_every_row(kind, argv, first):
    # the first row sums H_{n-1} + c afresh, every later row adds
    # 1/(n - 1) + c_n - c_{n-1}: each printed part is H_{n-1} + c in lowest
    # terms, from n_min, where H_{n-1} is 0 or 1, and from n = 50
    n_from = kind.n_min if first == "n_min" else 50
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["eval", *argv, "--n", str(n_from), "--to", str(n_from + 300),
                         "--precision", "32", "--format", "csv"]) == 0
    printed = [line.split(",")[2] for line in out.getvalue().splitlines()[1:]]
    harmonic = harmonic_exact(n_from - 1) if n_from > 1 else F(0)
    for n, text in zip(range(n_from, n_from + 301), printed, strict=True):
        if n > n_from:
            harmonic += F(1, n - 1)
        c, _x = split_at(kind, n)
        assert text == str(harmonic + c), n


def _add_ratios(a_num, a_den, b_num, b_den):
    """a + b in lowest terms for a and b in lowest terms, dens > 0, with
    gcds of the denominators' common part only, as Fraction adds: the
    integer route by which eval once summed its rational parts."""
    g = math.gcd(a_den, b_den)
    if g == 1:
        return a_num * b_den + b_num * a_den, a_den * b_den
    s = a_den // g
    t = a_num * (b_den // g) + b_num * s
    g2 = math.gcd(t, g)
    return t // g2, s * (b_den // g2)


def _ratio_str(num, den):
    return f"{num}/{den}" if den != 1 else str(num)


def _oracle_rational_parts(kind, n_from, n_to):
    """The rational_part texts of eval over n_from..n_to, summed along the
    range in Python ints: H_j afresh on the first row, then + 1/j per row,
    with j = n - 1."""
    split = sequences._split(kind)
    harmonic = None
    for n in range(n_from, n_to + 1):
        (c_num, c_den), _x = split(n)
        j = n - 1
        if harmonic is None:
            harmonic = harmonic_exact(j).as_integer_ratio() if j else (0, 1)
        else:
            harmonic = _add_ratios(*harmonic, 1, j)
        g = math.gcd(c_num, c_den)
        yield _ratio_str(*_add_ratios(*harmonic, c_num // g, c_den // g))


@st.composite
def eval_ranges(draw):
    """(argv, kind, n_from, n_to) of an eval range with an exact split: up to
    30 rows from n <= 3000, (a, b) of mu and vfam random rationals, b above
    -n so that mu's log argument n + b stays positive."""
    seq = draw(st.sampled_from(["gamma", "r", "v", "mu", "vfam", "s"]))
    n_from = draw(st.integers(3 if seq in ("vfam", "s") else 1, 3000))
    n_to = n_from + draw(st.integers(0, 29))
    argv = ["--seq", seq, "--n", str(n_from), "--to", str(n_to)]
    kinds = {"gamma": GammaN, "r": sequences.DeTempleR, "v": VernescuV, "s": SOptimal}
    if seq in kinds:
        return argv, kinds[seq](), n_from, n_to
    den = draw(st.sampled_from([12, 1000, 10**6, 10**20]))
    a = draw(st.fractions(-50, 50, max_denominator=den).filter(bool))
    b = draw(st.fractions(max(-50, 1 - n_from), 50, max_denominator=den))
    family = MuFamily if seq == "mu" else VFamily
    return argv + [f"--a={a}", f"--b={b}"], family(a, b), n_from, n_to


@settings(max_examples=60, deadline=None)
@given(case=eval_ranges())
@example(case=(["--seq", "mu", "--a=-1/2", "--b=0", "--n", "1", "--to", "12"],
               MuFamily(F(-1, 2), F(0)), 1, 12))  # rational parts -2 and 0
@example(case=(["--seq", "gamma", "--n", "1", "--to", "30"], GammaN(), 1, 30))
def test_eval_rational_parts_match_the_integer_oracle(case):
    # the printed rational part is the integer route's text: lowest terms,
    # "0" and never "-0" or "0/d", and the exact H_{n-1} + correction
    argv, kind, n_from, n_to = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["eval", *argv, "--precision", "32", "--format", "csv"]) == 0
    printed = [line.split(",")[2] for line in out.getvalue().splitlines()[1:]]
    assert printed == list(_oracle_rational_parts(kind, n_from, n_to))
    for n, text in zip(range(n_from, n_to + 1), printed):
        c, _x = split_at(kind, n)
        assert text == str(harmonic_exact(n - 1) + c if n > 1 else c)
        assert text != "-0" and not text.startswith("0/")


def test_expand_symbolic_and_numeric(capsys):
    code, data = run_json(capsys, "expand", "--order", "5")
    assert code == 0
    coeffs = {row["k"]: row["coefficient"] for row in data["rows"]}
    assert coeffs[2] == "a - 3/2"
    assert coeffs[3] == "a + 2*b - 2/3"
    code, data = run_json(capsys, "expand", "--order", "5",
                          "--a", "3/2", "--b=-5/12")
    coeffs = {row["k"]: row["coefficient"] for row in data["rows"]}
    assert coeffs == {4: "1/4", 5: "-2/15"}


def test_expand_linear_form_text():
    # the text of a symbolic coefficient ca*a + cb*b + c: a's term first,
    # unit factors dropped, the sign of each later term as "+ " or "- "
    for (ca, cb, c), text in [
        ((1, 2, F(-2, 3)), "a + 2*b - 2/3"),
        ((-1, F(1, 2), 0), "-a + 1/2*b"),
        ((0, -2, 5), "-2*b + 5"),
        ((0, 0, F(-3, 4)), "-3/4"),
        ((F(-5, 3), -1, 1), "-5/3*a - b + 1"),
        ((0, 1, 0), "b"),
        ((2, 0, F(1, 7)), "2*a + 1/7"),
    ]:
        assert _linear_str(F(ca), F(cb), F(c)) == text


def test_expand_round_trip_is_byte_identical(capsys):
    _, out1 = run(capsys, "expand", "--order", "6")
    reparsed = json.dumps(json.loads(out1), indent=2, sort_keys=True) + "\n"
    assert reparsed == out1
    _, out2 = run(capsys, "expand", "--order", "6")
    assert out1 == out2


def test_expand_defaults_to_the_series_order(capsys):
    from gammaseq import series

    _, default = run(capsys, "expand")
    assert json.loads(default)["parameters"]["order"] == series.DEFAULT_ORDER == 8
    assert '"order": 8,' in default
    _, explicit = run(capsys, "expand", "--order", "8")
    assert default == explicit


def test_rate_command(capsys):
    code, data = run_json(capsys, "rate", "--seq", "s", "--grid-start", "16",
                          "--grid-stop", "256", "--precision", "256")
    assert code == 0
    order = float(data["rows"][0]["difference_order"])
    assert abs(order - 4) < 0.1


def test_sweep_bounds_json_and_exit_zero(capsys):
    code, data = run_json(capsys, "sweep-bounds", "--entry", "young",
                          "--from", "1", "--to", "40", "--precision", "128")
    assert code == 0
    assert all(row["verdict"] == "certified-true" for row in data["rows"])
    assert data["metadata"]["counts"]["certified-true"] == 40


@pytest.mark.parametrize("precision", [32, 64])
def test_sweep_metadata_least_margin_is_the_printed_margin_of_its_row(capsys, precision):
    # the metadata rounds the least margin with its own copy of row_line's
    # rounding: its row is the first certified-true row of least exact
    # margin, compared across scales, and it prints that row's margin
    escalated = 0
    for entry in bounds.catalog():
        rows = swept(entry, entry.n_min, 200, precision)
        escalated += sum(row.precision > precision for row in rows)
        code, data = run_json(capsys, "sweep-bounds", "--entry", entry.entry_id,
                              "--to", "200", "--precision", str(precision))
        meta = data["metadata"]
        assert [row["n"] for row in data["rows"]] == [row.n for row in rows]
        assert meta["counts"] == bounds.SweepReport(rows).counts, entry.entry_id
        true_rows = [row for row in rows if row.verdict == bounds.CERTIFIED_TRUE]
        if not true_rows:
            assert "min_margin" not in meta and "min_margin_n" not in meta
            continue
        least = min(Fraction(row.margin, 1 << row.scale) for row in true_rows)
        first = next(row.n for row in true_rows
                     if Fraction(row.margin, 1 << row.scale) == least)
        assert meta["min_margin_n"] == first, entry.entry_id
        printed = data["rows"][first - entry.n_min]["margin"]
        assert meta["min_margin"] == printed, (entry.entry_id, first)
    if precision == 32:  # rows escalate, so margins at several scales compete
        assert escalated > 0


def test_sweep_bounds_csv_columns(capsys):
    code, out = run(capsys, "sweep-bounds", "--entry", "toth", "--from", "1",
                    "--to", "5", "--precision", "128", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lower,value_lo,value_hi,upper,verdict,margin"
    assert len(lines) == 6
    assert "." in lines[1]  # decimal point, never a locale comma


def test_sweep_bounds_defaults_to_entry_n_min(capsys):
    code, data = run_json(capsys, "sweep-bounds", "--entry", "theorem22",
                          "--to", "12", "--precision", "128")
    assert code == 0
    assert data["rows"][0]["n"] == 3
    assert data["rows"][0]["upper"] == ""  # upper side starts at n = 9


def test_certify_targets(capsys):
    code, data = run_json(capsys, "certify", "--target", "P")
    assert code == 0
    assert data["rows"][0]["shifted_coefficients"] == [
        "160", "1200", "2348", "2055", "875", "150"]
    code, data = run_json(capsys, "certify", "--target", "Q")
    assert data["rows"][0]["shifted_coefficients"][0] == "772064"
    code, data = run_json(capsys, "certify", "--target", "f")
    row = data["rows"][0]
    assert row["identity_checked"] is True
    assert row["function_sign"] == -1
    code, data = run_json(capsys, "certify", "--target", "g")
    assert data["rows"][0]["derivative_sign"] == -1


def test_certify_prints_the_centre_polycert_owns(capsys, monkeypatch):
    # Q is certified at polycert's centre: moving the centre moves the
    # printed centre, and Q read about it keeps its shifted coefficients
    from gammaseq import polycert

    t, sign, _, coeffs, conclusion = polycert._SIDES["g"]
    monkeypatch.setitem(polycert._SIDES, "g", (t, sign, 10, coeffs, conclusion))
    code, data = run_json(capsys, "certify", "--target", "Q")
    assert code == 0
    assert data["rows"][0]["center"] == 10
    assert data["rows"][0]["shifted_coefficients"] == [
        str(c) for c in polycert.G_NUMERATOR_SHIFTED_COEFFS]


def test_enclose_default_and_bootstrap(capsys):
    code, data = run_json(capsys, "enclose", "--precision", "64")
    assert code == 0
    row = data["rows"][0]
    assert row["lo"].startswith("0.57721566490153286")
    assert row["hi"].startswith("0.57721566490153286")
    code, data = run_json(capsys, "enclose", "--n", "10", "--precision", "128")
    assert code == 0
    lo, hi = data["rows"][0]["lo"], data["rows"][0]["hi"]
    assert lo < "0.57721566490153286" < hi


def run_child(*argv):
    """The command in a fresh interpreter, as (process, its child CPU seconds)."""
    import resource

    root = Path(__file__).resolve().parents[1]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "gammaseq.cli", *argv], capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def test_enclose_at_a_trillion_takes_the_tail_not_the_walk():
    # H_(n-2) is a head of O(q) terms plus an Euler-Maclaurin tail, so n = 10**12
    # costs what n = 10**6 does, where a direct sum would take 10**12 terms; at
    # 2048 bits a table of fixed length would need a head of about 4 10**10 terms
    for precision in (128, 2048):
        proc, cpu = run_child("enclose", "--n", "1000000000000", "--precision", str(precision))
        assert proc.returncode == 0, proc.stderr
        assert cpu < 1.0, precision
        row = json.loads(proc.stdout)["rows"][0]
        mp.mp.prec = precision + 200
        euler = mpf_to_fraction(mp.euler)
        assert Fraction(row["lo"]) <= euler <= Fraction(row["hi"])
        assert row["width"] == "1.667e-50"  # 1/(60 n^4) plus under an ulp of the scale


def test_rate_to_two_to_the_forty_takes_no_harmonic_walk():
    # each difference is two tails and the exact step -1/(m + 1), so a grid
    # to 2**40 costs 37 points, not 2**40 harmonic terms
    proc, cpu = run_child("rate", "--seq", "s", "--grid-stop", str(2**40))
    assert proc.returncode == 0, proc.stderr
    assert cpu < 1.0
    row = json.loads(proc.stdout)["rows"][0]
    assert row["reliable"] is True
    assert abs(float(row["difference_order"]) - 4) < 0.001


def test_enclose_width_is_printed_from_the_exact_value(capsys):
    # the width at 4096 bits is far below the smallest double, which
    # printed it as 0.000e+00; where the float is normal the bytes match
    code, data = run_json(capsys, "enclose", "--precision", "4096")
    assert code == 0
    assert data["rows"][0]["width"] == data["metadata"]["enclosure_width"] == "1.052e-1238"
    for p in [*range(32, 1049, 37), 1048]:
        lo, hi, q = gamma_reference(p)
        assert _width_str(hi - lo, 1 << q) == f"{float(Fraction(hi - lo, 1 << q)):.3e}"


@pytest.mark.parametrize("argv", [
    *(f"sweep-bounds --entry {entry.entry_id} --to 300 --precision 32"
      for entry in bounds.catalog()),
    "enclose --precision 1024",
    "enclose --n 1000 --precision 64",
])
def test_sweeps_and_enclose_build_no_fraction(capsys, monkeypatch, argv):
    # the constant, the rows and the printed decimals are integers at explicit
    # scales, from the enclosure of the constant (its cache emptied) onward
    numerics.gamma_reference.cache_clear()
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert cli.main(argv.split()) == 0
    capsys.readouterr()
    assert built == []


def test_usage_errors_exit_two(capsys):
    assert cli.main(["eval", "--seq", "nope", "--n", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["eval", "--seq", "mu", "--n", "1"]) == 2  # missing --a/--b
    capsys.readouterr()
    assert cli.main(["sweep-bounds", "--entry", "unknown", "--to", "5"]) == 2
    assert capsys.readouterr().err == "error: unknown bound entry 'unknown'\n"
    assert cli.main(["eval", "--seq", "s", "--n", "2"]) == 2  # below n_min
    capsys.readouterr()


def test_sweep_ending_below_the_entry_start_names_both(capsys):
    # the start is the entry's n_min, 9, when --from is omitted
    code = cli.main(["sweep-bounds", "--entry", "theorem22-upper", "--to", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: 'theorem22-upper' is stated for n >= 9, but --to is 5\n"


def test_empty_sweep_range_names_both_ends(capsys):
    code = cli.main(["sweep-bounds", "--entry", "theorem22", "--from", "5", "--to", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: empty sweep range 5..4\n"


def test_falsified_entry_exits_one(capsys, monkeypatch):
    falsified = BoundEntry(
        entry_id="falsified-fixture",
        target=GammaN(),
        lower=lambda n, c: (1, n),  # sits above the deviation
        upper=None,
        n_min_lower=1,
        n_min_upper=None,
        citation="synthetic test fixture",
    )
    real_catalog = bounds.catalog
    monkeypatch.setattr(bounds, "catalog", lambda: real_catalog() + [falsified])
    code, data = run_json(capsys, "sweep-bounds", "--entry", "falsified-fixture",
                          "--from", "2", "--to", "6", "--precision", "128")
    assert code == 1
    assert data["metadata"]["counts"]["certified-false"] == 5


def test_undecided_rows_exit_three(capsys, monkeypatch):
    # a side at the middle of the row's value interval can be neither
    # certified nor falsified
    row = swept(bounds.get_entry("young"), 10, 10, 64, 64)[0]
    dev_mid = Fraction(row.value_lo + row.value_hi, 2 ** (row.scale + 1))
    touching = BoundEntry(
        entry_id="touching-fixture",
        target=GammaN(),
        lower=lambda n, c: dev_mid.as_integer_ratio(),
        upper=None,
        n_min_lower=1,
        n_min_upper=None,
        citation="synthetic test fixture",
    )
    real_catalog = bounds.catalog
    monkeypatch.setattr(bounds, "catalog", lambda: real_catalog() + [touching])
    code, _data = run_json(capsys, "sweep-bounds", "--entry", "touching-fixture",
                           "--from", "10", "--to", "10", "--precision", "64",
                           "--precision-cap", "64")
    assert code == 3


def test_precision_error_exits_three(capsys):
    # the differences shrink below what 32 bits can resolve by n = 2048
    code = cli.main(["rate", "--seq", "s", "--grid-start", "16",
                     "--grid-stop", "16384", "--precision", "32"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("precision", ["-100", "-40", "0", "31"])
def test_rate_rejects_precision_below_the_minimum(capsys, precision):
    # every command takes p >= 32; a negative p used to end in a traceback
    code = cli.main(["rate", "--seq", "s", f"--precision={precision}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: precision must be an integer >= 32, got {precision}\n"


@pytest.mark.parametrize("start", ["0", "-3"])
def test_rate_rejects_grid_start_below_one(capsys, start):
    # 0 * factor stays 0, so such a grid would never reach --grid-stop
    code = cli.main(["rate", "--seq", "gamma", f"--grid-start={start}", "--grid-stop", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --grid-start must be at least 1\n"


@pytest.mark.parametrize("argv,precision", [
    (["--precision", "31"], "31"),
    (["--precision=-40", "--precision-cap=-40"], "-40"),
])
def test_sweep_rejects_precision_below_the_minimum(capsys, argv, precision):
    # as every other command: the message names the given p, not an inner scale,
    # and no row is printed at fewer digits than 32 bits give
    code = cli.main(["sweep-bounds", "--entry", "toth", "--to", "5", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: precision must be an integer >= 32, got {precision}\n"


def test_precision_cap_below_start_exits_two(capsys):
    # every row would run at 64 bits while the metadata reported the cap of 16
    code = cli.main(["sweep-bounds", "--entry", "young", "--from", "1", "--to", "3",
                     "--precision", "64", "--precision-cap", "16"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: precision cap 16 is below the starting precision 64\n"


def test_integer_string_limit_exits_two(capsys, monkeypatch):
    # str() of an int longer than the limit raises ValueError, which exits 2
    # with one line; any other ValueError is a fault and re-raises
    def conversion_error(args):
        return str(10**5000)

    monkeypatch.setattr(cli, "cmd_optimize", conversion_error)
    code = cli.main(["optimize"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1

    def other_value_error(args):
        raise ValueError("not a conversion error")

    monkeypatch.setattr(cli, "cmd_optimize", other_value_error)
    with pytest.raises(ValueError, match="not a conversion error"):
        cli.main(["optimize"])


def test_eval_prints_past_the_integer_string_limit(capsys):
    # from n = 9871 on, the exact rational part of gamma_n has more than the
    # 4300 digits that str() of an int may print; eval prints every row, and
    # each is read back through Decimal, with no str() of an int
    limit = sys.get_int_max_str_digits()
    context = decimal.getcontext().copy()
    code = cli.main(["eval", "--seq", "gamma", "--n", "9850", "--to", "9900",
                     "--format", "csv"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    assert repr(decimal.getcontext()) == repr(context)
    lines = captured.out.splitlines()
    assert lines[0] == "n,value,rational_part,log_argument"
    assert len(lines) == 52
    for n, line in zip(range(9850, 9901), lines[1:]):
        fields = line.split(",")
        assert fields[0] == fields[3] == f"{n}"
        c, _x = split_at(GammaN(), n)
        exact = harmonic_exact(n - 1) + c
        num, den = fields[2].split("/")
        assert int(decimal.Decimal(num)) == exact.numerator
        assert int(decimal.Decimal(den)) == exact.denominator
    assert len(num) > limit


def test_csv_failure_partway_keeps_the_earlier_rows(capsys, monkeypatch):
    # CSV rows are written as they are made; a failure at n_fail leaves rows
    # n_from..n_fail - 1 on stdout and exits with its code and one line on
    # stderr, in a sweep too, past where its rows were once buffered (1..256)
    n_fail = None

    def failing(make):
        def made(*args):
            inner = make(*args)

            def at(n):
                if n == n_fail:
                    raise DomainError(f"no split at n = {n}")
                return inner(n)

            return at

        return made

    # eval's values split each index; a sweep's rows read `deviation`
    monkeypatch.setattr(sequences, "_split", failing(sequences._split))
    monkeypatch.setattr(bounds, "deviation", failing(bounds.deviation))
    for argv, header, n_from, n_fail in [
        ("eval --seq s --n 3 --to 40", "n,value,rational_part,log_argument", 3, 30),
        ("sweep-bounds --entry chen --to 400",
         "n,lower,value_lo,value_hi,upper,verdict,margin", 1, 300),
    ]:
        code = cli.main([*argv.split(), "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.splitlines()
        assert lines[0] == header
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(n_from, n_fail))
        assert captured.err == f"error: no split at n = {n_fail}\n"


def test_eval_value_prints_past_the_integer_string_limit(capsys):
    # at 14337 bits a value prints with 4301 places, so its integer passes
    # the 4300 digits that str() of an int may print; `_printers` converts
    # such integers through decimal, and the digits are those of m * 2**e
    limit = sys.get_int_max_str_digits()
    code = cli.main(["eval", "--seq", "s", "--n", "3", "--precision", "14337",
                     "--format", "csv"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    header, row = captured.out.splitlines()
    assert header == "n,value,rational_part,log_argument"
    n, value, rational, x = row.split(",")
    assert (n, rational, x) == ("3", "121/72", "3")
    places = cli._decimal_digits(14337)
    assert places == 4301 and len(value) == places + 2
    m, e = next(sequences.values(sequences.SOptimal(), 3, 3, 14337))
    with decimal.localcontext(decimal.Context(decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                              Emin=decimal.MIN_EMIN)) as ctx:
        ctx.traps[decimal.Inexact] = True
        exact = decimal.Decimal(m * 5**-e).scaleb(e)  # m * 2**e, e < 0, exactly
        ctx.traps[decimal.Inexact] = False
        printed = exact.quantize(decimal.Decimal(1).scaleb(-places), decimal.ROUND_HALF_EVEN)
    assert value == str(printed)
    assert value.startswith("0.58194326688744586416031031863302985090806499773280610382")


def test_sweep_row_prints_past_the_integer_string_limit(capsys):
    # at 14337 bits each of a sweep row's five decimals has 4301 places, so
    # row_line converts their integers through decimal, and each prints the
    # half-up text of the row's exact value
    limit = sys.get_int_max_str_digits()
    code = cli.main(["sweep-bounds", "--entry", "young", "--to", "2", "--precision", "14337",
                     "--format", "csv"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    header, *lines = captured.out.splitlines()
    assert header == "n,lower,value_lo,value_hi,upper,verdict,margin"
    places = cli._decimal_digits(14337)
    assert places == 4301
    rows = list(bounds.sweep_rows(bounds.get_entry("young"), 1, 2, 14337)[1])
    unit = decimal.Decimal(1).scaleb(-places)
    with decimal.localcontext(decimal.Context(decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                              Emin=decimal.MIN_EMIN)) as ctx:
        for line, row in zip(lines, rows, strict=True):
            n, lower, value_lo, value_hi, upper, verdict, margin = line.split(",")
            assert (int(n), verdict) == (row.n, bounds.CERTIFIED_TRUE)
            exact = []
            # the sides 1/4, 1/6 and 1/2 are positive, so truncating them 60 digits past the
            # last place moves no half-up rounding
            for num, den in (row.lower, row.upper):
                ctx.prec, ctx.rounding = places + 60, decimal.ROUND_DOWN
                exact.append(ctx.divide(decimal.Decimal(num), decimal.Decimal(den)))
            ctx.prec = decimal.MAX_PREC
            ctx.traps[decimal.Inexact] = True
            for m in (row.value_lo, row.value_hi, row.margin):  # m * 2**-scale, exactly
                exact.append(decimal.Decimal(m * 5**row.scale).scaleb(-row.scale))
            ctx.traps[decimal.Inexact] = False
            printed = [str(x.quantize(unit, decimal.ROUND_HALF_UP)) for x in exact]
            assert [lower, upper, value_lo, value_hi, margin] == printed
            assert all(len(text.split(".")[1]) == places for text in printed)


def test_enclose_past_the_string_limit_exits_two(capsys):
    # the enclosure is computed, but its printed digits exceed str()'s limit
    code = cli.main(["enclose", "--precision", "16384"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_reader_closing_stdout_exits_141_without_traceback():
    # the CSV rows fill the pipe long before the command ends, so a write fails
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gammaseq.cli", "sweep-bounds", "--entry", "young",
         "--to", "3000", "--precision", "32", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.read(16) == b"n,lower,value_lo"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert b"Traceback" not in err


# the functions perfbench/tracer.py wraps that the package no longer has: no
# command called them, so their per-layer metrics read 0 with them or without.
# bounds.sweep kept every row of a sweep in a report with the properties
# counts, min_margin and min_margin_n (one "bounds.report" each); sweep-bounds
# streams its rows through sweep_rows into a SweepReport with none of them
_DELETED_LAYERS = ["numerics.ln_interval", "sequences.evaluate_interval",
                   "sequences.split_eval", "sequences.evaluate", "bounds.sweep",
                   "bounds.report", "bounds.report", "bounds.report"]


def test_benchmark_tracer_finds_every_layer(tmp_path):
    # perfbench/tracer.py wraps package functions by name; a name it cannot
    # find lands in "missing", and its per-layer metrics would read 0
    root = Path(__file__).resolve().parents[1]
    trace = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/tracer.py", str(trace), "enclose", "--precision", "64"],
        cwd=root, capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(trace.read_text(encoding="utf-8"))["missing"] == _DELETED_LAYERS


@pytest.mark.parametrize("argv", [
    "sweep-bounds --entry chen --to 60 --precision 128 --format csv",
    "sweep-bounds --entry theorem22 --from 3 --to 60 --precision 192",
    "rate --seq r --grid-stop 128",
    "eval --seq s --n 3 --to 40 --precision 256",
    "certify --target g",
    "optimize --order 5",
    "expand",
    "enclose --precision 1024",
])
def test_benchmark_tracer_runs_the_command_unchanged(tmp_path, argv):
    # each command prints through the tracer what it prints alone, and the
    # trace holds its spans: a package change that breaks a name the
    # tracer reads by attribute fails here, not in the benchmark
    root = Path(__file__).resolve().parents[1]
    trace = tmp_path / "t.json"

    def run(*command):
        return subprocess.run([sys.executable, *command, *argv.split()], cwd=root,
                              capture_output=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(root / "src")})

    plain = run("-m", "gammaseq.cli")
    traced = run("perfbench/tracer.py", str(trace))
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
    assert spans and all(span["calls"] > 0 for span in spans)


# text that JSON must escape: quotes, backslashes, control characters,
# non-ASCII text and characters outside the BMP (surrogate pairs)
_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\n\x1f\x7f\xe9\u2028\U0001d11e'),
                          st.characters()), max_size=8)
_scalars = st.one_of(_text, st.integers(), st.booleans(), st.none(),
                     st.floats(allow_nan=False))
_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(_text, inner, max_size=3)), max_leaves=8)
_dicts = st.dictionaries(_text, _values, max_size=4)


def _emitted(fmt, command, parameters, rows, metadata, columns):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(fmt, command, parameters, iter(rows), lambda: metadata, columns)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(command=_text, parameters=_dicts, rows=st.lists(_dicts, max_size=4), metadata=_dicts)
def test_json_writer_matches_json_dumps(command, parameters, rows, metadata):
    envelope = {"command": command, "parameters": parameters, "rows": rows,
                "metadata": {"version": cli.__version__, **metadata}}
    expected = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    assert _emitted("json", command, parameters, rows, metadata, []) == expected


@settings(max_examples=100, deadline=None)
@given(columns=st.lists(_text, min_size=1, max_size=4, unique=True),
       rows=st.lists(st.dictionaries(_text, _scalars, max_size=4), max_size=4))
def test_csv_writer_matches_csv_module(columns, rows):
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row.get(col, "") for col in columns])
    assert _emitted("csv", "c", {}, rows, {}, columns) == expected.getvalue()


@st.composite
def walk_pairs(draw):
    """A walk pair (lo, hi) at scale 2**-q, a precision p and a digit count:
    often a tie of the p-bit rounding, or a value o / 2**(d + 1), odd o,
    that is a decimal tie at d places."""
    p = draw(st.integers(32, 300))
    d = draw(st.sampled_from([cli._decimal_digits(p), draw(st.integers(1, 120))]))
    shape = draw(st.sampled_from(["any", "bit-tie", "decimal-tie"]))
    if shape == "decimal-tie":  # (lo + hi) / 2**(q + 1) = o / 2**(d + 1)
        q = d
        total = 2 * draw(st.integers(-(1 << (p - 2)), (1 << (p - 2)) - 1)) + 1
    else:
        q = draw(st.integers(0, 600))
        total = draw(st.integers(-(1 << (q + 4)), 1 << (q + 4)))
        if shape == "bit-tie" and abs(total).bit_length() > p:
            drop = abs(total).bit_length() - p  # one half below the kept bits
            total = (total >> drop << drop) | (1 << (drop - 1))
    lo = draw(st.integers(-(1 << (q + 4)), 1 << (q + 4)))
    return lo, total - lo, q, p, d


@settings(max_examples=300, deadline=None)
@given(case=walk_pairs())
@example(case=(1, 0, 4, 32, 4))  # 1/32 = 0.03125, a decimal tie at 4 places
@example(case=(-3, 0, 4, 32, 4))  # -3/32 = -0.09375, kept odd by nearest-even
@example(case=(0, 0, 10, 64, 19))  # zero
@example(case=((1 << 40) + 1, 0, 0, 32, 4))  # 2**40 + 1 to 32 bits, e >= 0
@example(case=((1 << 32) + 1, 0, 31, 32, 12))  # a 32-bit tie, kept at the even 2**31
def test_eval_rounds_twice_in_integers_as_bigreal(case):
    # eval prints the midpoint of each walk pair rounded to p bits, nearest
    # even, and that rounded value to d places, nearest even; BigReal is the
    # parent's two roundings
    lo, hi, q, p, d = case
    expected = numerics.BigReal.from_fraction(Fraction(lo + hi, 2 << q), p).decimal_str(d)
    assert _printers(d)[1](*numerics.round_bits(lo + hi, q + 1, p)) == expected


# every catalog entry at 32 bits, capped so that rows stay undecided, and
# eval of every kind: the line templates against csv.writer and json.dumps
_STREAMED = [
    *(f"sweep-bounds --entry {entry.entry_id} --to 120 --precision 32 --precision-cap 32"
      for entry in bounds.catalog()),
    *(f"eval --seq {seq} --n 3 --to 40 --precision 64" for seq in ("gamma", "r", "v", "s",
                                                                 "uplus", "uminus")),
    "eval --seq mu --a 3/2 --b=-5/12 --n 1 --to 40 --precision 64",
    "eval --seq vfam --a=-7/3 --b 2/5 --n 3 --to 40 --precision 64",
]


@pytest.mark.parametrize("argv", _STREAMED)
def test_line_templates_write_what_csv_and_json_write(capsys, argv):
    code, out = run(capsys, *argv.split(), "--format", "csv")
    assert code in (0, 3)
    lines = out.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    for line in lines:
        fields = next(csv.reader([line]))
        assert len(fields) == len(header)
        written = io.StringIO()
        csv.writer(written, lineterminator="\n").writerow(fields)
        assert written.getvalue() == line
    code, out = run(capsys, *argv.split())
    assert code in (0, 3)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    rows = json.loads(out)["rows"]
    assert [[str(row.get(key, "")) for key in header] for row in rows] == [
        next(csv.reader([line])) for line in lines[1:]]


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _traced_peak(monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        assert cli.main(argv) in (0, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv,ranges", [
    (["sweep-bounds", "--entry", "young", "--precision", "32", "--to"], (2000, 16000)),
    (["sweep-bounds", "--entry", "young", "--precision", "32", "--format", "csv", "--to"],
     (2000, 16000)),
    (["eval", "--seq", "s", "--n", "3", "--to"], (500, 4000)),
])
def test_memory_is_flat_in_the_range(monkeypatch, argv, ranges):
    # rows are written as they are made, so eight times the rows must not
    # need much more memory; the first, untraced run fills the caches
    _traced_peak(monkeypatch, argv + ["10"])
    small, large = (_traced_peak(monkeypatch, argv + [str(n)]) for n in ranges)
    assert large < 1.5 * small, (small, large)


def test_version_flag(capsys):
    import gammaseq

    code, out = run(capsys, "--version")
    assert code == 0
    assert gammaseq.__version__ in out


# a fresh interpreter runs cli.main(argv) and reports the lines of source of the
# package's modules it loaded, those modules, and the standard library's csv,
# json and the others in _STDLIB if it loaded them
_STDLIB = {"csv", "json", "dataclasses", "inspect", "decimal", "fractions"}
_PROBE = f"""
import sys
from gammaseq import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
package = [m for name, m in sys.modules.items() if name.partition(".")[0] == "gammaseq"]
lines = sum(len(open(m.__file__, encoding="utf-8").read().splitlines()) for m in package)
print(lines, " ".join(sorted(m for m in sys.modules
                             if m.startswith("gammaseq.") or m in {sorted(_STDLIB)!r})),
      file=sys.stderr)
sys.exit(code)
"""
_HELP = json.loads((Path(__file__).resolve().parent / "data" / "help.json").read_text("utf-8"))
_NUMERICS = {"numerics", "_kernels_py"}
_RATES = {"rates", "series"}  # optimize; rate loads the walk, not the series
_EXACT = {"fractions", "decimal"}  # fractions imports decimal
_SWEEP = {"cli_sweep", "cli_rows", "bounds", "sequences", *_NUMERICS,
          "dataclasses", "inspect"}  # BoundEntry
_EVAL = {"cli_eval", "cli_rows", "sequences", *_NUMERICS}
_ENCLOSE = {"cli_enclose", *_NUMERICS}
_RATE = {"cli_rate", "rates", "sequences", *_NUMERICS, "json"}
# (argv, modules loaded besides cli and errors, lines of the package's sources loaded)
_IMPORTS = [
    *((argv, set(), 331) for argv in _HELP),  # --version and every --help
    ("", set(), 331),
    ("bogus", set(), 331),
    ("eval --seq nope --n 1", set(), 331),
    ("enclose --precision 64", {*_ENCLOSE, "json"}, 1130),
    ("enclose --n 10 --precision 64 --format csv", {*_ENCLOSE, "csv"}, 1130),
    ("enclose --n 1000000 --precision 160", {*_ENCLOSE, "json"}, 1130),  # the tail
    ("sweep-bounds --entry young --to 10 --format csv", _SWEEP, 2155),
    ("sweep-bounds --entry detemple --to 10 --format csv", _SWEEP, 2155),  # no fractions
    ("sweep-bounds --entry young --to 10", {*_SWEEP, "json"}, 2155),
    # decimal only for the rational parts, once the first value is made
    ("eval --seq s --n 3 --to 5", {*_EVAL, "decimal", "json"}, 1703),
    ("eval --seq s --n 3 --to 5 --format csv", {*_EVAL, "decimal"}, 1703),
    ("eval --seq s --n 1", _EVAL, 1703),  # exits 2 at its first value
    ("eval --seq uplus --n 1 --to 5 --format csv", _EVAL, 1703),
    ("eval --seq mu --a=-1/2 --b 0 --n 1 --to 5 --format csv", {*_EVAL, *_EXACT}, 1703),
    ("rate --seq s --grid-stop 128", _RATE, 1751),
    ("rate --seq uminus --grid-stop 128", _RATE, 1751),
    ("optimize", {"cli_optimize", *_RATES, *_EXACT, "json"}, 726),
    ("certify --target P", {"cli_certify", "polycert", *_EXACT, "json"}, 696),
    ("certify --target P --format csv", {"cli_certify", "polycert", *_EXACT, "csv"}, 696),
    ("expand", {"cli_expand", "series", *_EXACT, "json"}, 537),
]
_FAILING = {"eval --seq s --n 1"}  # exits 2, as the usage errors, which load no command


@pytest.mark.parametrize("argv,loads,lines", _IMPORTS,
                         ids=[argv or "no-command" for argv, _, _ in _IMPORTS])
def test_each_command_imports_only_what_it_runs(argv, loads, lines):
    # every start compiles the modules it imports unless bytecode caches
    # exist, so a command pays for each library module on its import path,
    # and for each line of source: a start loads the module of its own
    # command and of no other; the streamed commands write CSV without csv,
    # and only JSON loads json; only sweep-bounds loads dataclasses (and
    # inspect), only exact rationals load fractions, and decimal loads only
    # for them and for eval's rational parts
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv.split()], capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "COLUMNS": "80"},
    )
    err = proc.stderr.decode().splitlines()
    loaded, *modules = err[-1].split()
    assert modules == sorted(m if m in _STDLIB else f"gammaseq.{m}"
                             for m in {"cli", "errors", *loads})
    assert int(loaded) == lines
    if argv in _HELP:  # recorded when cli imported every module at start
        assert (proc.returncode, proc.stdout.decode(), err[:-1]) == (0, _HELP[argv], [])
    else:
        failing = not loads or argv in _FAILING
        assert proc.returncode == (2 if failing else 0), proc.stderr


def test_run_as_a_module_imports_cli_once():
    # `python -m gammaseq.cli` runs cli as __main__; the command modules
    # import from gammaseq.cli, which must find that module, not compile and
    # run the file a second time
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gammaseq.cli",
         "eval", "--seq", "s", "--n", "3", "--to", "5", "--format", "csv"],
        capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.decode().splitlines()]
    assert "gammaseq.cli_rows" in imported and "gammaseq.cli" not in imported
