"""Catalog integrity and certified checking semantics."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dyadic_ends, ln_bracket, mp_value, mpf_to_fraction, sqrt_bracket, swept, walk_ends,
)
from gammaseq import _kernels_py as kernels, bounds, cli
from gammaseq.bounds import (
    CERTIFIED_FALSE,
    CERTIFIED_TRUE,
    UNDECIDED,
    BoundEntry,
    SweepReport,
    SweepRow,
    catalog,
    get_entry,
    sweep_rows,
)
from gammaseq.errors import DomainError
from gammaseq.numerics import GUARD_BITS, BigReal, decimal_text, gamma_reference
from gammaseq.polycert import Polynomial
from gammaseq.sequences import GammaN

F = Fraction

EXPECTED_IDS = {
    "tims-tyrrell", "young", "anderson", "mortici-vernescu", "toth",
    "alzer-chen-qi", "qiu-vuorinen", "franel", "karatsuba", "mortici-refined",
    "detemple", "chen", "chen-mortici", "theorem22",
}


# the published formula of every side that reads a real constant
PUBLISHED_CONSTANT_SIDES = {
    ("anderson", "lower"): lambda n: (1 - mp.euler) / n,
    ("alzer-chen-qi", "lower"):
        lambda n: 1 / (2 * n + (2 * mp.euler - 1) / (1 - mp.euler)),
    ("qiu-vuorinen", "upper"): lambda n: 1 / mp.mpf(2 * n) - (mp.euler - 0.5) / n**2,
    ("chen", "lower"): lambda n: 1 / (24 * (
        n + 1 / mp.sqrt(24 * (1 - mp.euler - mp.log(mp.mpf(3) / 2))) - 1) ** 2),
}


def _inv_linear(slope, offset):
    return lambda n, c: 1 / (slope * n + F(offset))


def _chen_mortici(terms):
    def bound(n, c):
        m = n + F(1, 2)
        return sum((coeff / m**power for coeff, power in terms), F(0))

    return bound


# every side as the Fraction formula it was written as before the integer
# sides: the oracle of the (num, den) pairs; c is a Fraction
PUBLISHED_SIDES = {
    ("tims-tyrrell", "lower"): lambda n, c: F(1, 2 * (n + 1)),
    ("tims-tyrrell", "upper"): lambda n, c: F(1, 2 * (n - 1)),
    ("young", "lower"): lambda n, c: F(1, 2 * (n + 1)),
    ("young", "upper"): lambda n, c: F(1, 2 * n),
    ("anderson", "lower"): lambda n, c: (1 - c) / n,
    ("anderson", "upper"): lambda n, c: F(1, 2 * n),
    ("mortici-vernescu", "lower"): _inv_linear(2, 1),
    ("mortici-vernescu", "upper"): _inv_linear(2, 0),
    ("toth", "lower"): _inv_linear(2, F(2, 5)),
    ("toth", "upper"): _inv_linear(2, F(1, 3)),
    ("alzer-chen-qi", "lower"): lambda n, c: 1 / (2 * n + (2 * c - 1) / (1 - c)),
    ("alzer-chen-qi", "upper"): _inv_linear(2, F(1, 3)),
    ("qiu-vuorinen", "lower"): lambda n, c: F(1, 2 * n) - F(1, 2 * n * n),
    ("qiu-vuorinen", "upper"): lambda n, c: F(1, 2 * n) - (c - F(1, 2)) / (n * n),
    ("franel", "lower"): lambda n, c: F(1, 2 * n) - F(1, 8 * n * n),
    ("franel", "upper"): lambda n, c: F(1, 2 * n),
    ("karatsuba", "lower"):
        lambda n, c: F(1, 2 * n) - F(1, 12 * n**2) + F(1, 120 * n**4) - F(1, 126 * n**6),
    ("karatsuba", "upper"): lambda n, c: F(1, 2 * n) - F(1, 12 * n**2) + F(1, 120 * n**4),
    ("mortici-refined", "lower"): lambda n, c: 1 / (2 * n + F(1, 3) + F(1, 18 * n)),
    ("mortici-refined", "upper"): lambda n, c: 1 / (2 * n + F(1, 3) + F(1, 32 * n)),
    ("detemple", "lower"): lambda n, c: F(1, 24 * (n + 1) ** 2),
    ("detemple", "upper"): lambda n, c: F(1, 24 * n**2),
    ("chen", "lower"): lambda n, c: 1 / (24 * (n + c) ** 2),
    ("chen", "upper"): lambda n, c: F(1, 24 * (n + F(1, 2)) ** 2),
    ("chen-mortici", "lower"): _chen_mortici([(F(1, 24), 2), (F(-7, 960), 4),
                                              (F(31, 8064), 6), (F(-127, 30720), 8)]),
    ("chen-mortici", "upper"): _chen_mortici([(F(1, 24), 2), (F(-7, 960), 4),
                                              (F(31, 8064), 6)]),
    ("theorem22", "lower"): lambda n, c: F(1, 12 * n**3) + F(11, 120 * n**4),
    ("theorem22", "upper"): lambda n, c: F(1, 12 * n**3) + F(13, 120 * n**4),
}


def _side_values(entry, side, n, c):
    """The published side at both ends of c's enclosure, or its one value if
    it ignores c, as Fractions."""
    formula = PUBLISHED_SIDES[entry.entry_id, side]
    if side not in entry.reads_c:
        return [formula(n, None)]
    return [formula(n, F(*c[0])), formula(n, F(*c[1]))]


def test_catalog_has_expected_entries():
    entries = catalog()
    assert len(entries) == 14
    assert {e.entry_id for e in entries} == EXPECTED_IDS


@st.composite
def catalog_sides(draw):
    entry = draw(st.sampled_from(catalog()))
    side = draw(st.sampled_from(["lower", "upper"]))
    n = draw(st.integers(getattr(entry, f"n_min_{side}"), 10**6))
    return entry, side, n, draw(st.sampled_from([32, 64, 192]))


@settings(max_examples=300, deadline=None)
@given(case=catalog_sides())
@example(case=(get_entry("karatsuba"), "lower", 1, 32))
@example(case=(get_entry("chen"), "lower", 2, 64))
@example(case=(get_entry("qiu-vuorinen"), "upper", 2, 32))
def test_integer_sides_are_the_published_formulas(case):
    entry, side, n, p = case
    assert {(e.entry_id, s) for e in catalog() for s in ("lower", "upper")} == set(
        PUBLISHED_SIDES)
    fn, formula = getattr(entry, side), PUBLISHED_SIDES[entry.entry_id, side]
    # a side that reads c at both ends of its enclosure, as integer pairs
    ends = entry.constant(p) if side in entry.reads_c else [None]
    for c in ends:
        num, den = fn(n, c)
        assert type(num) is int and type(den) is int and den > 0, (entry.entry_id, side, n)
        assert F(num, den) == formula(n, None if c is None else F(*c)), (entry.entry_id, side)
        # the same formula at the polynomial x gives the side's polynomials
        polys = [v if isinstance(v, Polynomial) else Polynomial.constant(v)
                 for v in fn(Polynomial.x(), c)]
        assert [poly.evaluate(n) for poly in polys] == [num, den], (entry.entry_id, side)


def test_toth_bound_values():
    e = get_entry("toth")
    assert F(*e.lower(7, None)) == F(1, 2 * 7 + F(2, 5))
    assert F(*e.upper(7, None)) == F(1, 2 * 7 + F(1, 3))


def test_karatsuba_keeps_printed_tail_term():
    e = get_entry("karatsuba")
    lo = F(*e.lower(2, None))
    assert lo == F(1, 4) - F(1, 48) + F(1, 1920) - F(1, 8064)
    assert "126" in e.note and "252" in e.note


@pytest.mark.parametrize("p", [64, 128, 256])
def test_constant_sides_bracket_published_formula(p):
    entries = {e.entry_id: e for e in catalog()}
    assert {(e.entry_id, side) for e in entries.values() for side in e.reads_c} == set(
        PUBLISHED_CONSTANT_SIDES)
    mp.mp.prec = 2 * p
    for (entry_id, side), formula in PUBLISHED_CONSTANT_SIDES.items():
        e = entries[entry_id]
        fn = getattr(e, side)
        c_lo, c_hi = (F(*end) for end in e.constant(p))
        assert c_lo < c_hi
        c_mid = (c_lo + c_hi) / 2
        for n in [*range(getattr(e, f"n_min_{side}"), 31), 500, 2000]:
            at_lo, at_mid, at_hi = (F(*fn(n, c.as_integer_ratio())) for c in (c_lo, c_mid, c_hi))
            assert at_lo > at_mid > at_hi or at_lo < at_mid < at_hi, (entry_id, p, n)
            oracle = mpf_to_fraction(formula(n))
            slack = abs(oracle) / 2 ** (2 * p - 16)  # the oracle's own rounding
            assert min(at_lo, at_hi) - slack <= oracle <= max(at_lo, at_hi) + slack, (
                entry_id, p, n)
            # a sweep row compares against the end that is binding for the side
            row = swept(e.restricted(side), n, n, p, p)[0]
            if side == "lower":
                assert F(*row.lower) == max(at_lo, at_hi), (entry_id, p, n)
            else:
                assert F(*row.upper) == min(at_lo, at_hi), (entry_id, p, n)


@pytest.mark.parametrize("entry_id", [
    "anderson-upper", "alzer-chen-qi-upper", "qiu-vuorinen-lower", "chen-upper"])
def test_restricted_entry_encloses_no_constant_of_the_side_it_drops(entry_id, monkeypatch):
    # the kept side reads no constant, so no precision encloses gamma (nor
    # chen's shift, which takes gamma and ln(3/2)), and the kept side's rows
    # are the full entry's
    base, side = entry_id.rsplit("-", 1)
    full = {p: swept(get_entry(base), 2, 60, p, p) for p in (64, 128)}
    calls = []

    def counted(real):
        def wrapped(*args):
            calls.append(args)
            return real(*args)

        return wrapped

    monkeypatch.setattr(bounds, "gamma_reference", counted(bounds.gamma_reference))
    monkeypatch.setattr(bounds, "ln_fixed", counted(bounds.ln_fixed))
    entry = get_entry(entry_id)
    assert entry.reads_c == ()
    fields = ("n", "value_lo", "value_hi", side, f"margin_{side}")
    for p in (64, 128):
        rows = swept(entry, 2, 60, p, p)
        assert [[getattr(r, f) for f in fields] for r in rows] == [
            [getattr(r, f) for f in fields] for r in full[p]]
    assert calls == []


def _chen_shift_oracle(p):
    """chen's shift as the Fraction formula it was written as before the
    integer constant, from gamma's ends, ln(3/2) from ln_fixed and the
    radicands' roots from math.isqrt."""
    q = p + GUARD_BITS
    g_lo, g_hi = dyadic_ends(*gamma_reference(p))
    ln_lo, ln_hi = ln_bracket(F(3, 2), q)
    root_lo = sqrt_bracket(24 * (1 - g_hi - ln_hi), q)[0]
    root_hi = sqrt_bracket(24 * (1 - g_lo - ln_lo), q)[1]
    return 1 / root_hi - 1, 1 / root_lo - 1


@pytest.mark.parametrize("p", [32, 48, 64, 72, 75, 128, 192, 1024])
def test_chen_shift_is_the_fraction_formula(p):
    ends = bounds._chen_shift(p)
    for (num, den), oracle in zip(ends, _chen_shift_oracle(p)):
        assert type(num) is int and type(den) is int and den > 0
        assert num * oracle.denominator == oracle.numerator * den, p
    mp.mp.prec = 2 * p + 64
    a = mpf_to_fraction(1 / mp.sqrt(24 * (1 - mp.euler - mp.log(mp.mpf(3) / 2))) - 1)
    assert F(*ends[0]) < a < F(*ends[1])


def test_theorem22_per_side_ranges():
    e = get_entry("theorem22")
    assert e.n_min_lower == 3 and e.n_min_upper == 9
    assert e.n_min == 3


def test_get_entry_side_restriction():
    lower = get_entry("theorem22-lower")
    assert lower.upper is None and lower.n_min == 3
    upper = get_entry("theorem22-upper")
    assert upper.lower is None and upper.n_min == 9
    with pytest.raises(KeyError):
        get_entry("nonsense")


def test_check_young_example():
    row = swept(get_entry("young"), 5, 5, 128, 128)[0]
    assert row.verdict == CERTIFIED_TRUE
    assert row.margin > 0


def test_check_theorem22_at_both_edges():
    e = get_entry("theorem22")
    assert swept(e, 9, 9, 192, 192)[0].verdict == CERTIFIED_TRUE
    assert swept(get_entry("theorem22-lower"), 3, 3, 192, 192)[0].verdict == CERTIFIED_TRUE


def test_check_below_n_min_rejected():
    with pytest.raises(DomainError):
        swept(get_entry("theorem22"), 2, 2, 128, 128)
    with pytest.raises(DomainError):
        swept(get_entry("theorem22-upper"), 5, 5, 128, 128)


def test_sharp_sides_start_at_two():
    # anderson's lower side is an equality at n = 1; only the upper
    # side applies there and the check stays certifiable
    row = swept(get_entry("anderson"), 1, 1, 128)[0]
    assert row.verdict == CERTIFIED_TRUE
    assert row.margin_lower is None and row.margin_upper is not None
    row2 = swept(get_entry("qiu-vuorinen"), 1, 1, 128)[0]
    assert row2.verdict == CERTIFIED_TRUE
    assert row2.margin_lower is not None and row2.margin_upper is None


def test_sweep_small_ranges_all_true():
    for entry_id in ("mortici-vernescu", "franel", "chen", "chen-mortici"):
        e = get_entry(entry_id)
        rows = swept(e, e.n_min, 300, 128)
        report = SweepReport(rows)
        assert report.counts[CERTIFIED_TRUE] == len(rows), (entry_id, report.counts)
        assert report.least.margin > 0


def _escalating_fixture(n_from, n_to, n_escalate):
    """A GammaN entry whose lower side sits 2**-40 below gamma_n - gamma before
    n_escalate and 2**-88 below it from there on, with young's upper side: its
    rows are decided at 32 bits before n_escalate and need 64 bits from it."""
    mp.mp.prec = 400
    gaps = {n: F(1, 2**40) if n < n_escalate else F(1, 2**88) for n in range(n_from, n_to + 1)}
    sides = {n: (mpf_to_fraction(mp.harmonic(n) - mp.ln(n) - mp.euler) - gap).as_integer_ratio()
             for n, gap in gaps.items()}
    return BoundEntry(
        entry_id="escalating-fixture", target=GammaN(),
        lower=lambda n, c: sides[n], upper=get_entry("young").upper,
        n_min_lower=n_from, n_min_upper=n_from, citation="synthetic test fixture",
    )


def test_undecided_rows_escalate_alone_by_doubling():
    e = _escalating_fixture(528, 548, 533)
    rows = swept(e, 528, 548, 32)
    assert SweepReport(rows).counts[CERTIFIED_TRUE] == len(rows)
    assert [r.precision for r in rows] == [32] * 5 + [64] * 16
    assert swept(e, 533, 533, 32, 32)[0].verdict == UNDECIDED
    # an escalated row is the one-row sweep at its final precision
    assert rows[5] == swept(e, 533, 533, 64, 64)[0]
    capped = swept(e, 528, 548, 32, 48)
    assert [r.precision for r in capped] == [32] * 5 + [48] * 16


def test_escalation_sums_harmonic_terms_linear_in_the_range(monkeypatch):
    # nearly every chen-mortici row from 100 on escalates from 32 bits;
    # re-running each row alone would sum H_n from 1 again, about
    # n_to**2 / 2 terms in all
    harmonic_fixed = kernels.harmonic_fixed
    terms = []

    def counting(n, q, m=0):
        terms.append(n - m)
        return harmonic_fixed(n, q, m)

    monkeypatch.setattr(kernels, "harmonic_fixed", counting)
    rows = swept(get_entry("chen-mortici"), 100, 1100, 32)
    assert SweepReport(rows).counts[CERTIFIED_TRUE] == len(rows)
    assert sum(r.precision > 32 for r in rows) > 900
    assert sum(terms) < 20 * 1100


@pytest.mark.parametrize("cap", [None, 48, 32])
def test_escalated_walks_resume_across_rows(monkeypatch, cap):
    # chen-mortici 100..1100 at 32 bits escalates nearly every row; each
    # escalated row comes from work carried from row to row, yet it is the
    # row a sweep of n alone gives at its precision
    e = get_entry("chen-mortici")
    harmonic_fixed = kernels.harmonic_fixed
    terms = []

    def counting(n, q, m=0):
        terms.append(n - m)
        return harmonic_fixed(n, q, m)

    monkeypatch.setattr(kernels, "harmonic_fixed", counting)
    rows = swept(e, 100, 1100, 32, cap)
    walked = sum(terms)
    # rows escalate, or stay undecided at a cap of 32
    assert sum(r.precision > 32 or r.verdict == UNDECIDED for r in rows) > 900
    # one main walk and one walk per escalated bit length, each <= 1100 terms;
    # a new walk per escalated row would sum hundreds of times as many
    assert walked < 6 * 1100
    for n in (150, 255, 256, 777, 1023, 1024, 1100):
        row = rows[n - 100]
        if row.precision > 32:
            alone = swept(e, n, n, row.precision, row.precision)[0]
            assert row == alone, n


_ENTRY_IDS = [e.entry_id + suffix for e in catalog() for suffix in ("", "-lower", "-upper")]


@st.composite
def sweep_ranges(draw):
    """An entry or one of its sides, a <= b <= 600 from its n_min, and p."""
    entry = get_entry(draw(st.sampled_from(_ENTRY_IDS)))
    a = draw(st.integers(entry.n_min, 600))
    return entry, a, draw(st.integers(a, 600)), draw(st.sampled_from([32, 48, 64]))


@settings(max_examples=400, deadline=None)
@given(case=sweep_ranges())
def test_a_row_does_not_depend_on_where_its_sweep_starts(case):
    # every row, escalated or not, is the one-row sweep at n at its final
    # precision, whatever range the sweep started at
    entry, a, b, p = case
    rows = swept(entry, a, b, p)
    assert [row.n for row in rows] == list(range(a, b + 1))
    for row in rows:
        alone = swept(entry, row.n, row.n, row.precision, row.precision)
        assert [row] == alone, (entry.entry_id, a, b, p, row.n)


def test_a_sweep_makes_one_maker_and_one_row_per_index(capsys, monkeypatch):
    # a sweep builds its row maker once per precision and one SweepRow per
    # index, however many rows it prints
    makers, built = [], []
    row_walk, init = bounds._row_walk, SweepRow.__init__

    def counting_walk(*args):
        makers.append(args[1])
        return row_walk(*args)

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(bounds, "_row_walk", counting_walk)
    monkeypatch.setattr(SweepRow, "__init__", counting_init)
    n_from = 10**6
    argv = (f"sweep-bounds --entry theorem22 --from {n_from} --to {n_from + 999}"
            " --precision 192 --format csv")
    assert cli.main(argv.split()) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1001
    assert makers == [192]
    assert built == list(range(n_from, n_from + 1000))


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_a_side_that_reads_c_is_falsified_by_its_far_end_exactly(side):
    # a side that reads c is the constant itself; its far end lies half an ulp
    # inside the deviation's far end, and its near end far away on the other
    # side, so the row is undecided, not false: the far end is floored
    # (lower) or ceiled (upper) onto the row scale before it is compared
    young = swept(get_entry("young"), 10, 10, 32, 32)[0]
    half_ulp = 1 << (young.scale + 1)
    if side == "lower":
        ends = (2 * young.value_hi - 1, half_ulp), (1, 1)
    else:
        ends = (2 * young.value_lo + 1, half_ulp), (-1, 1)
    entry = BoundEntry(f"probe-{side}", GammaN(),
                       (lambda n, c: c) if side == "lower" else None,
                       (lambda n, c: c) if side == "upper" else None,
                       1 if side == "lower" else None, 1 if side == "upper" else None,
                       "a fixture", constant=lambda p: ends, reads_c=(side,))
    row = swept(entry, 10, 10, 32, 32)[0]
    assert (row.value_lo, row.value_hi, row.scale) == (young.value_lo, young.value_hi,
                                                       young.scale)
    assert row.verdict == UNDECIDED


def test_monotone_refinement():
    # raising precision never flips certified-true to certified-false
    e = get_entry("mortici-refined")
    for n in (1, 2, 17):
        verdicts = [swept(e, n, n, p, p)[0].verdict for p in (64, 128, 256)]
        assert CERTIFIED_TRUE in verdicts
        assert CERTIFIED_FALSE not in verdicts
        first_true = verdicts.index(CERTIFIED_TRUE)
        assert all(v == CERTIFIED_TRUE for v in verdicts[first_true:])


def test_self_consistency_lower_below_upper():
    for e in catalog():
        if e.lower is None or e.upper is None:
            continue
        c = e.constant(96)
        start = max(e.n_min_lower, e.n_min_upper)
        for n in list(range(start, start + 20)) + [500, 1000]:
            lo = _side_values(e, "lower", n, c)
            up = _side_values(e, "upper", n, c)
            assert max(lo) < min(up), (e.entry_id, n)


def test_theorem22_upper_margin_scales_like_n4():
    # margin_upper * n^4 approaches a constant: sampled spread below 20%
    e = get_entry("theorem22")
    values = []
    for n in (1000, 3000, 10000):
        row = swept(e, n, n, 192)[0]
        values.append(float(F(row.margin_upper, 2**row.scale)) * n**4)
    assert max(values) / min(values) < 1.2


def test_falsified_entry_certified_false():
    e = get_entry("young")
    impossible = BoundEntry(
        entry_id="young-falsified",
        target=GammaN(),
        lower=lambda n, c: (1, n),  # above the true deviation
        upper=e.upper,
        n_min_lower=1,
        n_min_upper=1,
        citation="synthetic test fixture",
    )
    assert swept(impossible, 10, 10, 128, 128)[0].verdict == CERTIFIED_FALSE


@pytest.mark.parametrize("reads_c", [False, True])
@pytest.mark.parametrize("den", [0, -1])
def test_non_positive_side_denominator_is_a_domain_error(den, reads_c):
    young = get_entry("young")
    fixture = BoundEntry(
        entry_id="signed-fixture", target=GammaN(),
        # with c, only the end at c's upper bound has the bad denominator
        lower=lambda n, c: (1, den * n if c is None or c == young.constant(64)[1] else n),
        upper=young.upper, n_min_lower=1, n_min_upper=1,
        citation="synthetic test fixture", reads_c=("lower",) if reads_c else (),
    )
    with pytest.raises(DomainError, match="lower side of 'signed-fixture' has a non-positive"):
        swept(fixture, 1, 3, 64)


def test_undecided_when_bound_sits_inside_value_interval():
    row = swept(get_entry("young"), 10, 10, 64, 64)[0]
    dev_mid = F(row.value_lo + row.value_hi, 2 ** (row.scale + 1))
    touching = BoundEntry(
        entry_id="young-touching",
        target=GammaN(),
        lower=lambda n, c: dev_mid.as_integer_ratio(),
        upper=None,
        n_min_lower=1,
        n_min_upper=None,
        citation="synthetic test fixture",
    )
    rows = swept(touching, 10, 10, 64, 64)
    assert rows[0].verdict == UNDECIDED
    assert SweepReport(rows).counts[UNDECIDED] == 1


def test_verdicts_are_exact_within_one_unit_of_the_row_scale():
    row = swept(get_entry("young"), 10, 10, 64)[0]
    unit = F(1, 2**row.scale)

    def with_side(side, value):
        fixture = BoundEntry(
            entry_id="young-fixture", target=GammaN(),
            lower=lambda n, c: value.as_integer_ratio(),
            upper=lambda n, c: value.as_integer_ratio(),
            n_min_lower=1 if side == "lower" else None,
            n_min_upper=1 if side == "upper" else None,
            citation="synthetic test fixture",
        )
        return swept(fixture, 10, 10, 64, 64)[0]

    # half a unit inside the value interval's ends: separated, integer margin 0
    for side, value in [("lower", row.value_lo - F(1, 2)),
                        ("upper", row.value_hi + F(1, 2))]:
        got = with_side(side, value * unit)
        assert (got.verdict, got.margin) == (CERTIFIED_TRUE, 0), side
    # on the ends: equality is never certified
    assert with_side("lower", row.value_lo * unit).verdict == UNDECIDED
    assert with_side("upper", row.value_hi * unit).verdict == UNDECIDED
    # a side on the far end falsifies, half a unit short of it does not
    assert with_side("lower", row.value_hi * unit).verdict == CERTIFIED_FALSE
    assert with_side("upper", row.value_lo * unit).verdict == CERTIFIED_FALSE
    assert with_side("lower", (row.value_hi - F(1, 2)) * unit).verdict == UNDECIDED
    assert with_side("upper", (row.value_lo + F(1, 2)) * unit).verdict == UNDECIDED


def test_least_margin_across_scales():
    def row(n, margin, scale, verdict=CERTIFIED_TRUE):
        return SweepRow(n=n, verdict=verdict, margin=margin, margin_lower=margin,
                        margin_upper=None, lower=(0, 1), upper=None, value_lo=0,
                        value_hi=0, precision=32, scale=scale)

    # margins 3/4, 3/4, 5/8, 5/8, an undecided 0 and 3/4: the first least is n = 3
    rows = (row(1, 12, 4), row(2, 3, 2), row(3, 5, 3), row(4, 10, 4),
            row(5, 0, 3, UNDECIDED), row(6, 3, 2))

    def least(rows):
        # the least exact margin and its index, from rows added one at a time
        report = SweepReport()
        for r in rows:
            report.add(r)
        least = report.least
        return None if least is None else (F(least.margin, 1 << least.scale), least.n)

    assert least(rows) == (F(5, 8), 3)
    assert least((row(1, 5, 3), row(2, 9, 4))) == (F(9, 16), 2)
    assert least(rows[4:5]) is None


def test_rows_and_reports_compare_by_value():
    e = get_entry("young")
    rows = swept(e, 1, 4, 64)
    assert rows == swept(e, 1, 4, 64) and swept(e, 2, 2, 64, 64) == swept(e, 2, 2, 64, 64)
    assert rows[0] != rows[1]
    row = swept(e, 2, 2, 64, 64)[0]
    row.margin += 1  # rows are mutable, so they do not hash
    assert row != swept(e, 2, 2, 64, 64)[0]
    with pytest.raises(TypeError):
        hash(row)


def test_precision_cap_below_start_rejected():
    with pytest.raises(DomainError):
        sweep_rows(get_entry("young"), 1, 3, 64, precision_cap=16)
    assert sweep_rows(get_entry("young"), 1, 3, 64, precision_cap=64)[0] == 64


def test_a_cap_that_is_not_an_integer_is_rejected_before_the_sweep():
    # a float cap once ran until a row escalated, then died with a TypeError
    with pytest.raises(DomainError, match="precision cap must be an integer"):
        sweep_rows(get_entry("chen-mortici"), 100, 1100, 32, precision_cap=48.5)


def test_an_end_that_is_not_an_integer_is_rejected_before_the_sweep():
    # a float end once passed the checks, then died with a TypeError at the first row
    with pytest.raises(DomainError, match="n_to must be an integer"):
        sweep_rows(get_entry("young"), 1, 10.5, 64)


def _exact_verdict(entry, n, dev_lo, dev_hi, c):
    """Verdict and side margins of the exact value interval [dev_lo, dev_hi]
    at n, by Fraction arithmetic on the published sides."""
    margins = {}
    falsified = False
    if entry.lower is not None and n >= entry.n_min_lower:
        sides = _side_values(entry, "lower", n, c)
        margins["lower"] = dev_lo - max(sides)
        falsified = dev_hi <= min(sides)
    if entry.upper is not None and n >= entry.n_min_upper:
        sides = _side_values(entry, "upper", n, c)
        margins["upper"] = min(sides) - dev_hi
        falsified = falsified or dev_lo >= max(sides)
    margin = min(margins.values())
    verdict = (CERTIFIED_FALSE if falsified else
               CERTIFIED_TRUE if margin > 0 else UNDECIDED)
    return verdict, margins


def _walked_verdict(entry, n, n_to, p, cap):
    """The oracle: the final verdict at n of a sweep to n_to that walks H_m
    from 1 and subtracts gamma enclosed at the row's precision, at scale
    p + GUARD_BITS + 2 bitlen(n_to) and, escalated, 2 bitlen(n)."""
    q, prec = p + GUARD_BITS + 2 * n_to.bit_length(), p
    while True:
        g_lo, g_hi = dyadic_ends(*gamma_reference(prec))
        lo, hi = walk_ends(entry.target, n, q)
        c = entry.constant(prec) if entry.reads_c else None
        verdict = _exact_verdict(entry, n, lo - g_hi, hi - g_lo, c)[0]
        if verdict != UNDECIDED or prec == cap:
            return verdict
        prec = min(2 * prec, cap)
        q = prec + GUARD_BITS + 2 * n.bit_length()


@st.composite
def sweeps(draw):
    entry = draw(st.sampled_from(catalog()))
    n_from = draw(st.integers(entry.n_min, 400))
    n_to = draw(st.integers(n_from, min(400, n_from + 30)))
    return entry, n_from, n_to, draw(st.integers(32, 256))


@settings(max_examples=40, deadline=None)
@given(case=sweeps())
@example(case=(get_entry("chen"), 528, 548, 32))  # the oracle escalates rows 533 and up
@example(case=(get_entry("theorem22"), 3, 20, 32))
# rows of 7 and 8 bits escalate to 64 bits
@example(case=(get_entry("chen-mortici"), 100, 130, 32))
def test_rows_match_exact_fraction_oracle(case):
    entry, n_from, n_to, p = case
    cap, rows = sweep_rows(entry, n_from, n_to, p)
    for n, row in zip(range(n_from, n_to + 1), rows):
        # every verdict the walked oracle decides is kept
        oracle = _walked_verdict(entry, n, n_to, p, cap)
        assert oracle == UNDECIDED or row.verdict == oracle, (entry.entry_id, n, p)
        # the row was undecided at each precision it doubled through
        prec = p
        while prec < row.precision:
            at = swept(entry, n, n_to if prec == p else n, prec, prec)[0]
            assert at.verdict == UNDECIDED, (n, prec)
            prec = min(2 * prec, cap)
        assert prec == row.precision
        # a row stays undecided only at the cap
        assert row.verdict != UNDECIDED or prec == cap, (n, prec)
        # the row's interval holds mpmath's deviation, and its verdict and
        # margins are those of that interval against the exact sides
        unit = F(1, 2**row.scale)
        dev_lo, dev_hi = row.value_lo * unit, row.value_hi * unit
        mp.mp.prec = 2 * row.scale + 64
        dev = mpf_to_fraction(mp_value(entry.target, n) - mp.euler)
        slack = unit / 2**row.scale  # far below the oracle's own rounding
        assert dev_lo - slack <= dev <= dev_hi + slack, (entry.entry_id, n, p)
        c = entry.constant(prec) if entry.reads_c else None
        verdict, margins = _exact_verdict(entry, n, dev_lo, dev_hi, c)
        assert row.verdict == verdict, (entry.entry_id, n, p)
        for got, exact in [(row.margin_lower, margins.get("lower")),
                           (row.margin_upper, margins.get("upper")),
                           (row.margin, min(margins.values()))]:
            assert (got is None) == (exact is None)
            if exact is not None:
                assert exact - unit < got * unit <= exact, (entry.entry_id, n, p)


def _parent_decimal_str(value, places, rounding):
    # BigReal.decimal_str before the formatters shared one rounding routine
    scaled = value * 10**places
    num, den = scaled.numerator, scaled.denominator
    q, r = divmod(abs(num), den)
    neg = num < 0
    if rounding == "nearest":
        if 2 * r > den or (2 * r == den and q & 1):
            q += 1
    elif rounding == "floor":
        if neg and r:
            q += 1
    elif rounding == "ceiling":
        if not neg and r:
            q += 1
    digits = str(q).rjust(places + 1, "0")
    sign = "-" if neg and q else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"


def _parent_sweep_decimal(x, digits):
    # the sweep columns' half-up formatter before it
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10**digits
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    text = str(q).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


@st.composite
def ratios(draw):
    """An unreduced num/den, often a decimal tie or a value that prints as 0."""
    places = draw(st.integers(0, 12))
    shape = draw(st.sampled_from(["any", "tie", "tiny"]))
    if shape == "tie":
        num, den = 2 * draw(st.integers(-10**6, 10**6)) + 1, 2 * 10**places
    elif shape == "tiny":
        num, den = draw(st.integers(-10**3, 10**3)), 10 ** (places + 4)
    else:
        num, den = draw(st.integers(-10**15, 10**15)), draw(st.integers(1, 10**9))
    common = draw(st.integers(1, 60))
    return num * common, den * common, places


@st.composite
def dyadics(draw):
    """m and 2**s, s up to 2000, with up to 600 places: often zero, a value
    that prints as 0, or a decimal tie, o / 2**(places + 1) for odd o."""
    places = draw(st.integers(1, 600))
    shape = draw(st.sampled_from(["any", "tie", "tiny", "zero"]))
    if shape == "tie":
        shift = draw(st.integers(0, 2000 - places - 1))
        m, s = (2 * draw(st.integers(-10**9, 10**9)) + 1) << shift, places + 1 + shift
    elif shape == "tiny":  # |m| * 2**-s <= 2**-k < 10**-places / 2
        places = min(places, 590)
        k = 10 * places // 3 + 2
        s = draw(st.integers(k, 2000))
        m = draw(st.integers(-(1 << (s - k)), 1 << (s - k)))
    else:
        s = draw(st.integers(0, 2000))
        m = 0 if shape == "zero" else draw(st.integers(-(1 << (s + 64)), 1 << (s + 64)))
    return m, 1 << s, places


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(ratios(), dyadics()))
@example(case=(-1, 10**10, 9))  # half-up keeps the sign: -0.000000000
@example(case=(5120, 5120**2, 9))  # 1/5120 = 0.0001953125, a tie at 9 places
@example(case=(-6, 12, 0))  # -1/2, a tie at 0 places
@example(case=(-1, 1 << 2000, 600))  # prints as -0.000...0 half-up, 0.000...0 nearest
@example(case=(-5, 8, 2))  # -0.625: half-up -0.63, nearest -0.62
@example(case=(3, 1, 600))  # s = 0
@example(case=(-1, 1 << 600, 120))  # value_lo -1, value_hi +1: -0.000...0 and 0.000...0
def test_formatter_matches_parent_formatters(case):
    num, den, places = case
    value = F(num, den)
    for mode in ("nearest", "floor", "ceiling"):
        expected = _parent_decimal_str(value, places, mode)
        assert decimal_text(num, den, places, mode) == expected
        if value:
            x = BigReal.from_fraction(value, 64)
            assert x.decimal_str(places, mode) == _parent_decimal_str(
                x.to_fraction(), places, mode)
    if places:
        expected = _parent_sweep_decimal(value, places)
        assert decimal_text(num, den, places, "half-up") == expected
        # the streamed rows' printers: row_line prints a sweep row's sides with
        # one division and its dyadic columns with the shift formula, and
        # eval's nearest prints m * 2**e
        columns = ["n", "lower", "value_lo", "value_hi", "upper", "verdict", "margin"]
        _, nearest, row_line = cli._printers(places, cli._line_template("csv", columns, columns))
        if den & (den - 1) == 0:
            # value_hi = |m| reuses value_lo's text for m >= 0, and for m < 0 has the
            # same rounded integer with the other sign
            s = den.bit_length() - 1
            row = SweepRow(7, CERTIFIED_TRUE, num, num, None, (num, den), (num, den),
                           num, abs(num), 64, s)
            hi = decimal_text(abs(num), den, places, "half-up")
            assert row_line(row) == (
                f"7,{expected},{expected},{hi},{expected},{CERTIFIED_TRUE},{expected}\n")
            assert nearest(num, -s) == _parent_decimal_str(value, places, "nearest")
            assert nearest(num, s) == _parent_decimal_str(F(num << s), places, "nearest")
        else:
            row = SweepRow(7, UNDECIDED, 0, None, 0, None, (num, den), 0, 0, 64, 0)
            zero = decimal_text(0, 1, places, "half-up")
            assert row_line(row) == f"7,,{zero},{zero},{expected},{UNDECIDED},{zero}\n"


def test_sweep_far_from_the_start_takes_no_walk_log_or_gamma(capsys, monkeypatch):
    # from N(q) on a row is the envelope of psi - ln plus an exact rational, so
    # a sweep from 10**12 sums no harmonic term, takes no logarithm of n and
    # encloses no constant, and costs what a sweep from 10**3 costs
    from gammaseq import numerics, sequences

    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    monkeypatch.setattr(kernels, "harmonic_fixed", counting("harmonic", kernels.harmonic_fixed))
    for module in (numerics, sequences, bounds):
        monkeypatch.setattr(module, "ln_fixed", counting("ln", module.ln_fixed))
    for module in (numerics, sequences, bounds):
        monkeypatch.setattr(module, "gamma_reference", counting("gamma", module.gamma_reference))
    n_from = 10**12
    argv = (f"sweep-bounds --entry theorem22 --from {n_from} --to {n_from + 999}"
            " --precision 192 --format csv")
    assert cli.main(argv.split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert calls == []
    assert lines[0] == "n,lower,value_lo,value_hi,upper,verdict,margin"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(n_from, n_from + 1000))
    assert all(r[5] == CERTIFIED_TRUE for r in rows)
    e = get_entry("theorem22")
    ulp = F(1, 10 ** cli._decimal_digits(192))
    mp.mp.prec = 2 * 192 + 128
    for i in (0, 1, 317, 998, 999):
        n = n_from + i
        dev = mpf_to_fraction(mp_value(e.target, n) - mp.euler)
        value_lo, value_hi = F(rows[i][2]), F(rows[i][3])
        assert value_lo - ulp <= dev <= value_hi + ulp, n
        assert F(*e.lower(n, None)) < dev < F(*e.upper(n, None)), n
