"""Catalog integrity and certified checking semantics."""

from fractions import Fraction

import mpmath as mp
import pytest

from conftest import mpf_to_fraction
from gammaseq.bounds import (
    CERTIFIED_FALSE,
    CERTIFIED_TRUE,
    UNDECIDED,
    BoundEntry,
    catalog,
    check,
    get_entry,
    sweep,
)
from gammaseq.errors import DomainError
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


def _side_values(entry, side, n, c):
    """The side at both ends of c's enclosure, or its one value if it ignores c."""
    fn = getattr(entry, side)
    if side not in entry.reads_c:
        return [fn(n, None)]
    return [fn(n, c[0]), fn(n, c[1])]


def test_catalog_has_expected_entries():
    entries = catalog()
    assert len(entries) == 14
    assert {e.entry_id for e in entries} == EXPECTED_IDS


def test_toth_bound_values():
    e = get_entry("toth")
    assert e.lower(7, None) == F(1, 2 * 7 + F(2, 5))
    assert e.upper(7, None) == F(1, 2 * 7 + F(1, 3))


def test_karatsuba_keeps_printed_tail_term():
    e = get_entry("karatsuba")
    lo = e.lower(2, None)
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
        c_lo, c_hi = e.constant(p)
        assert c_lo < c_hi
        c_mid = (c_lo + c_hi) / 2
        for n in [*range(getattr(e, f"n_min_{side}"), 31), 500, 2000]:
            at_lo, at_mid, at_hi = fn(n, c_lo), fn(n, c_mid), fn(n, c_hi)
            assert at_lo > at_mid > at_hi or at_lo < at_mid < at_hi, (entry_id, p, n)
            oracle = mpf_to_fraction(formula(n))
            slack = abs(oracle) / 2 ** (2 * p - 16)  # the oracle's own rounding
            assert min(at_lo, at_hi) - slack <= oracle <= max(at_lo, at_hi) + slack, (
                entry_id, p, n)
            # a sweep row compares against the end that is binding for the side
            row = sweep(e.restricted(side), n, n, p, precision_cap=p).rows[0]
            if side == "lower":
                assert row.lower == max(at_lo, at_hi), (entry_id, p, n)
            else:
                assert row.upper == min(at_lo, at_hi), (entry_id, p, n)


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
    verdict = check(get_entry("young"), 5, 128)
    assert verdict.holds == CERTIFIED_TRUE
    assert verdict.margin > 0


def test_check_theorem22_at_both_edges():
    e = get_entry("theorem22")
    assert check(e, 9, 192).holds == CERTIFIED_TRUE
    assert check(get_entry("theorem22-lower"), 3, 192).holds == CERTIFIED_TRUE


def test_check_below_n_min_rejected():
    with pytest.raises(DomainError):
        check(get_entry("theorem22"), 2, 128)
    with pytest.raises(DomainError):
        check(get_entry("theorem22-upper"), 5, 128)


def test_sharp_sides_start_at_two():
    # anderson's lower side is an equality at n = 1; only the upper
    # side applies there and the check stays certifiable
    row = sweep(get_entry("anderson"), 1, 1, 128).rows[0]
    assert row.verdict == CERTIFIED_TRUE
    assert row.margin_lower is None and row.margin_upper is not None
    row2 = sweep(get_entry("qiu-vuorinen"), 1, 1, 128).rows[0]
    assert row2.verdict == CERTIFIED_TRUE
    assert row2.margin_lower is not None and row2.margin_upper is None


def test_sweep_small_ranges_all_true():
    for entry_id in ("mortici-vernescu", "franel", "chen", "chen-mortici"):
        e = get_entry(entry_id)
        report = sweep(e, e.n_min, 300, 128)
        assert report.all_certified_true, (entry_id, report.counts)
        assert report.min_margin > 0


def test_undecided_rows_escalate_alone_by_doubling():
    e = get_entry("chen")
    report = sweep(e, 100, 120, 32)
    assert report.all_certified_true
    assert [r.precision for r in report.rows] == [32] * 5 + [64] * 16
    assert check(e, 105, 32).holds == UNDECIDED
    # an escalated row is the one-row sweep at its final precision
    assert report.rows[5] == sweep(e, 105, 105, 64, precision_cap=64).rows[0]
    capped = sweep(e, 100, 120, 32, precision_cap=48)
    assert [r.precision for r in capped.rows] == [32] * 5 + [48] * 16


def test_monotone_refinement():
    # raising precision never flips certified-true to certified-false
    e = get_entry("mortici-refined")
    for n in (1, 2, 17):
        verdicts = [check(e, n, p).holds for p in (64, 128, 256)]
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
        margin_upper = sweep(e, n, n, 192).rows[0].margin_upper
        values.append(float(margin_upper) * n**4)
    assert max(values) / min(values) < 1.2


def test_falsified_entry_certified_false():
    e = get_entry("young")
    impossible = BoundEntry(
        entry_id="young-falsified",
        target=GammaN(),
        lower=lambda n, c: F(1, n),  # above the true deviation
        upper=e.upper,
        n_min_lower=1,
        n_min_upper=1,
        citation="synthetic test fixture",
    )
    verdict = check(impossible, 10, 128)
    assert verdict.holds == CERTIFIED_FALSE


def test_undecided_when_bound_sits_inside_value_interval():
    e = get_entry("young")
    ctx_q = 64 + 32 + (10).bit_length()
    from gammaseq.numerics import gamma_reference
    from gammaseq.sequences import evaluate_interval

    lo, hi = evaluate_interval(GammaN(), 10, ctx_q)
    g_lo, g_hi = gamma_reference(64).bounds()
    dev_mid = ((lo - g_hi) + (hi - g_lo)) / 2
    touching = BoundEntry(
        entry_id="young-touching",
        target=GammaN(),
        lower=lambda n, c: dev_mid,
        upper=None,
        n_min_lower=1,
        n_min_upper=None,
        citation="synthetic test fixture",
    )
    verdict = check(touching, 10, 64)
    assert verdict.holds == UNDECIDED
    report = sweep(touching, 10, 10, 64, precision_cap=64)
    assert report.counts[UNDECIDED] == 1
