"""Default CLI output, pinned byte for byte.

Each file under tests/data/ is the stdout of one command, recorded
before the evaluation behind it changed: the first files with the
exact-harmonic evaluator that the interval walk over n replaced, the
anderson, alzer-chen-qi, qiu-vuorinen and escalated chen sweeps with the
interval arithmetic on bound sides that end-point evaluation in the
constant replaced, the young and tims-tyrrell ties with Fraction rows
that integer rows at one scale replaced, and the chen span, the uminus
range and the uplus rate with the per-row restarts and the Fraction tail
of the sqrt(6) variants that one walk over any indices replaced, and
the enclosures of the constant with the two-chain series kernel that the
exact binary-splitting sum replaced, and the sweeps of the seven entries
that had none, with chen-mortici escalating from 32 bits, with the Fraction
bound sides that integer numerator/denominator pairs replaced, and the
enclosures from s_N at 64 bits and from s_10, with the BigReal ends that
the constant as an integer pair at an explicit scale replaced, and the
capped chen-mortici sweeps (undecided rows, margins printed as
-0.000000000, exit 3) and the eval ranges as CSV, with the per-row dicts,
csv.writer and BigReal values that integer line templates replaced, and
the one-row commands that no golden pinned (certify, optimize, expand and
a rate of s), with the Fraction-valued interval helpers and the series
and polynomial algebra that no command reached still in the package.
The escalated and capped chen-mortici sweeps, the chen sweeps at 32
bits, the young and tims-tyrrell ties and the enclosure at 64 bits were
recorded again when the constant's s_N route for precisions up to
about 72 bits gave way to the exponential-integral route at every
precision.  The chen sweeps across n = 533, escalated and capped, were
recorded with the constant's series split exactly all the way up, which
exact blocks folded in one fixed-point pass replaced.  The mu range with
rational parts -2 and 0 and the vfam range at (-7/4, 11/6) were recorded
with the rational parts summed as Python ints, which integer Decimals
replaced.  The symbolic expansion to order 12 as CSV, the expansion at
(-7/4, 11/6) to order 10, the optimum at order 8 as CSV and the g
verdict as CSV were recorded with the bivariate parameter polynomials
of `series` and the gcd-canonical rational functions of `polycert`.
The enclosures from s_N at N = 10**7 (128 bits) and at N = 10**6 (1024
bits) were recorded with H_(N-2) summed term by term, which a short head
and an Euler-Maclaurin tail replaced.  The rate of s to a grid of
65536 and the enclosure from s_N at N = 10**12 (1024 bits, CSV) were
recorded with the differences read off the walk, H_m summed over the
whole grid, and with an Euler-Maclaurin head sized for a fixed table of
32 Bernoulli numbers (632,323 terms there), which the exact step
-1/(m + 1) and a table sized from the scale replaced.  The chen-mortici
sweep to 300 at 32 bits, whose rows escalate to 64 and 128 bits across
bit lengths 4 to 9 and across n = 257, and the chen sweep across n = 533
capped at 48 bits were recorded with the rows made, escalated and
yielded in chunks of 256 indices, which one row at a time replaced.
The theorem22 sweep from 3 to 300 at 64 bits and the detemple sweep
from 170 to 190 at 128 bits, whose rows lie on both sides of where the
sweep rows leave the harmonic walk for the envelope of psi - ln (n = 112
and n = 177; the detemple rows through the atanh of 1/(4n + 1)), and
the detemple sweep from 150 to 175 at 128 bits, just below, were
recorded with every row walked from n = 1 and the constant enclosed at
the row's precision, the second of them from a copy of that code.
The escalated and capped chen sweeps across n = 533 and the capped
chen-mortici sweeps to 40 were recorded again, and the capped
chen-mortici sweep from 300 to 320 first, when each row's deviation
came to subtract gamma enclosed at the walk's scale instead of at the
row's precision, which narrowed every row.
The eval ranges of s from 280 to 330 at 256 bits, of r from 100 to 140
and of vfam at (-7/4, 11/6) from 3 to 200 at 64 bits, and of mu at
(-10/137, -5) from 6 to 100 at 32 bits, whose value is exactly 0 at
n = 6, each across the index N(q) from which `deviation` takes the
envelope of psi - ln, were recorded with every value walked from n = 1
and the rational part summed in two additions per row, which the
deviation plus gamma's ends and one addition per row replaced.
Each golden states the exit code its command returns.  Verdicts, exit
codes and printed digits must not depend on how the certified values are
computed.
"""

from pathlib import Path

import pytest

from gammaseq import cli

DATA = Path(__file__).resolve().parent / "data"

GOLDEN = [  # (file, command, exit code)
    ("sweep_theorem22.json",
     "sweep-bounds --entry theorem22 --from 3 --to 40 --precision 192", 0),
    ("sweep_chen.csv", "sweep-bounds --entry chen --to 40 --precision 128 --format csv", 0),
    # at 32 bits below n = 533, where chen's rows start to escalate
    ("sweep_chen_escalated.json",
     "sweep-bounds --entry chen --from 100 --to 120 --precision 32", 0),
    # rows 533 and up escalated to 64 bits while gamma was enclosed at the row's
    # precision; with gamma at the walk's scale they are decided at 32 bits
    ("sweep_chen_escalated_533.json",
     "sweep-bounds --entry chen --from 528 --to 548 --precision 32", 0),
    ("sweep_chen_capped_533.csv",
     "sweep-bounds --entry chen --from 528 --to 548 --precision 32 --precision-cap 32"
     " --format csv", 0),
    ("sweep_anderson.csv",
     "sweep-bounds --entry anderson --to 40 --precision 128 --format csv", 0),
    ("sweep_alzer_chen_qi.csv",
     "sweep-bounds --entry alzer-chen-qi --to 40 --precision 128 --format csv", 0),
    ("sweep_qiu_vuorinen.csv",
     "sweep-bounds --entry qiu-vuorinen --to 40 --precision 128 --format csv", 0),
    # exact sides that are decimal ties at 9 digits, 1/5120 = 0.0001953125: young's
    # upper side at n = 2560, tims-tyrrell's lower at 2559 and upper at 2561
    ("sweep_young_tie.csv",
     "sweep-bounds --entry young --from 2555 --to 2565 --precision 32 --format csv", 0),
    ("sweep_tims_tyrrell_tie.csv",
     "sweep-bounds --entry tims-tyrrell --from 2555 --to 2565 --precision 32 --format csv", 0),
    # one walk across bit lengths 7, 8 and 9 at 32 bits
    ("sweep_chen_span.csv",
     "sweep-bounds --entry chen --from 100 --to 300 --precision 32 --format csv", 0),
    *((f"sweep_{entry.replace('-', '_')}.csv",
       f"sweep-bounds --entry {entry} --to 40 --precision 128 --format csv", 0)
      for entry in ("mortici-vernescu", "toth", "franel", "karatsuba",
                    "mortici-refined", "detemple", "chen-mortici")),
    # rows 11 and up escalate to 64 bits
    ("sweep_chen_mortici_escalated.json",
     "sweep-bounds --entry chen-mortici --to 40 --precision 32", 0),
    # capped at 32 bits, rows 11 and up stayed undecided while gamma was enclosed
    # at the row's precision; with gamma at the walk's scale they are decided
    ("sweep_chen_mortici_capped.csv",
     "sweep-bounds --entry chen-mortici --to 40 --precision 32 --precision-cap 32"
     " --format csv", 0),
    ("sweep_chen_mortici_capped.json",
     "sweep-bounds --entry chen-mortici --to 40 --precision 32 --precision-cap 32", 0),
    # capped at 32 bits, every row stays undecided with margins of -0.000000000
    ("sweep_chen_mortici_capped_300.csv",
     "sweep-bounds --entry chen-mortici --from 300 --to 320 --precision 32"
     " --precision-cap 32 --format csv", 3),
    ("eval_s.json", "eval --seq s --n 3 --to 40 --precision 256", 0),
    ("eval_uplus.json", "eval --seq uplus --n 1 --to 40 --precision 256", 0),
    ("eval_uminus.json", "eval --seq uminus --n 1 --to 40 --precision 256", 0),
    ("eval_s.csv", "eval --seq s --n 3 --to 40 --precision 256 --format csv", 0),
    # rational parts -2 at n = 1 and 0 at n = 2
    ("eval_mu_zero.csv", "eval --seq mu --a=-1/2 --b 0 --n 1 --to 12 --format csv", 0),
    ("eval_vfam.json", "eval --seq vfam --a=-7/4 --b 11/6 --n 3 --to 60", 0),
    # no exact split: the rational_part and log_argument fields are empty
    ("eval_uplus.csv", "eval --seq uplus --n 1 --to 12 --precision 64 --format csv", 0),
    ("rate_r.json", "rate --seq r --grid-start 16 --grid-stop 1024 --precision 256", 0),
    ("rate_uplus.json",
     "rate --seq uplus --grid-start 16 --grid-stop 4096 --precision 64", 0),
    # the exponential-integral route at the enclose-ladder precisions, and s_n
    ("enclose_1024.json", "enclose --precision 1024", 0),
    ("enclose_4096.json", "enclose --precision 4096", 0),
    ("enclose_12288.json", "enclose --precision 12288", 0),
    ("enclose_n1000000.json", "enclose --n 1000000 --precision 160", 0),
    # the constant at 64 bits, on the same exponential-integral route as at any
    # precision, and s_n at an explicit small n
    ("enclose_64.json", "enclose --precision 64", 0),
    ("enclose_n10.csv", "enclose --n 10 --precision 128 --format csv", 0),
    # s_N far into the harmonic tail, and at 1024 bits, where the head is long
    ("enclose_n10000000_128.json", "enclose --n 10000000 --precision 128", 0),
    ("enclose_n1000000_1024.json", "enclose --n 1000000 --precision 1024", 0),
    # the positivity certificates of P and Q and the sign verdicts of f and g
    *((f"certify_{target}.json", f"certify --target {target}", 0) for target in "PQfg"),
    ("optimize_5.json", "optimize --order 5", 0),
    ("expand.json", "expand", 0),
    # the optimal family member: the n^-2 and n^-3 coefficients vanish
    ("expand_a_b.json", "expand --a 3/2 --b=-5/12", 0),
    ("rate_s.json", "rate --seq s --grid-start 16 --grid-stop 4096 --precision 256", 0),
    # the symbolic coefficients past order 8, and a family member off the optimum
    ("expand_12.csv", "expand --order 12 --format csv", 0),
    ("expand_vfam_10.json", "expand --a=-7/4 --b 11/6 --order 10", 0),
    ("optimize_8.csv", "optimize --order 8 --format csv", 0),
    ("certify_g.csv", "certify --target g --format csv", 0),
    # the benchmark's rate command, and s_N at N = 10**12, far past any head
    ("rate_s_65536.json",
     "rate --seq s --grid-start 16 --grid-stop 65536 --precision 256", 0),
    ("enclose_n1000000000000_1024.csv",
     "enclose --n 1000000000000 --precision 1024 --format csv", 0),
    # rows escalate to 64 and 128 bits at bit lengths 4 to 9, across n = 257
    ("sweep_chen_mortici_300.csv",
     "sweep-bounds --entry chen-mortici --to 300 --precision 32 --format csv", 0),
    # rows 533 and up escalate to an intermediate cap of 48 bits
    ("sweep_chen_cap48_533.csv",
     "sweep-bounds --entry chen --from 528 --to 548 --precision 32 --precision-cap 48"
     " --format csv", 0),
    # rows on both sides of N(q) on the v family (n = 112), and just below it on mu
    ("sweep_theorem22_300_64.csv",
     "sweep-bounds --entry theorem22 --from 3 --to 300 --precision 64 --format csv", 0),
    ("sweep_detemple_150_175.csv",
     "sweep-bounds --entry detemple --from 150 --to 175 --precision 128 --format csv", 0),
    # across n = 177, where the rows at 128 bits leave the walk for the envelope
    ("sweep_detemple_170_190.csv",
     "sweep-bounds --entry detemple --from 170 --to 190 --precision 128 --format csv", 0),
    # eval ranges across N(q): s at q = 297 (N = 298), r through the atanh of
    # 1/(4n + 1) and vfam at q = 104 (N = 105), and mu at q = 71 (N = 72),
    # exactly 0 at n = 6
    ("eval_s_280_330.csv", "eval --seq s --n 280 --to 330 --precision 256 --format csv", 0),
    ("eval_r_100_140.json", "eval --seq r --n 100 --to 140 --precision 64", 0),
    ("eval_vfam_200.csv",
     "eval --seq vfam --a=-7/4 --b 11/6 --n 3 --to 200 --precision 64 --format csv", 0),
    ("eval_mu_zero_100.csv",
     "eval --seq mu --a=-10/137 --b=-5 --n 6 --to 100 --precision 32 --format csv", 0),
]


@pytest.mark.parametrize("name,command,exit_code", GOLDEN,
                         ids=[name for name, _, _ in GOLDEN])
def test_default_output_is_byte_identical(capsys, name, command, exit_code):
    assert cli.main(command.split()) == exit_code
    assert capsys.readouterr().out == (DATA / name).read_text(encoding="utf-8")
