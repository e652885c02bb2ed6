"""Catalog integrity and certified checking semantics."""

from fractions import Fraction

import pytest

from gammaseq import bounds
from gammaseq.bounds import (
    CERTIFIED_FALSE,
    CERTIFIED_TRUE,
    UNDECIDED,
    BoundEntry,
    _EvalContext,
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


def test_catalog_has_expected_entries():
    entries = catalog()
    assert len(entries) == 14
    assert {e.entry_id for e in entries} == EXPECTED_IDS


def test_toth_bound_values():
    ctx = _EvalContext(64)
    e = get_entry("toth")
    assert e.lower(7, ctx) == (F(1, 2 * 7 + F(2, 5)),) * 2
    assert e.upper(7, ctx) == (F(1, 2 * 7 + F(1, 3)),) * 2


def test_karatsuba_keeps_printed_tail_term():
    ctx = _EvalContext(64)
    e = get_entry("karatsuba")
    lo = e.lower(2, ctx)[0]
    assert lo == F(1, 4) - F(1, 48) + F(1, 1920) - F(1, 8064)
    assert "126" in e.note and "252" in e.note


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
    holds, margin, m_lo, m_up, *_ = bounds._check_core(get_entry("anderson"), 1, _EvalContext(128))
    assert holds == CERTIFIED_TRUE
    assert m_lo is None and m_up is not None
    holds2, _, m_lo2, m_up2, *_ = bounds._check_core(get_entry("qiu-vuorinen"), 1, _EvalContext(128))
    assert holds2 == CERTIFIED_TRUE
    assert m_lo2 is not None and m_up2 is None


def test_sweep_small_ranges_all_true():
    for entry_id in ("mortici-vernescu", "franel", "chen", "chen-mortici"):
        e = get_entry(entry_id)
        report = sweep(e, e.n_min, 300, 128)
        assert report.all_certified_true, (entry_id, report.counts)
        assert report.min_margin > 0


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
    ctx = _EvalContext(96)
    for e in catalog():
        if e.lower is None or e.upper is None:
            continue
        start = max(e.n_min_lower, e.n_min_upper)
        for n in list(range(start, start + 20)) + [500, 1000]:
            lo = e.lower(n, ctx)
            up = e.upper(n, ctx)
            assert lo[1] < up[0], (e.entry_id, n)


def test_theorem22_upper_margin_scales_like_n4():
    # margin_upper * n^4 approaches a constant: sampled spread below 20%
    e = get_entry("theorem22")
    values = []
    for n in (1000, 3000, 10000):
        margin_upper = bounds._check_core(e, n, _EvalContext(192))[3]
        values.append(float(margin_upper) * n**4)
    assert max(values) / min(values) < 1.2


def test_falsified_entry_certified_false():
    e = get_entry("young")
    impossible = BoundEntry(
        entry_id="young-falsified",
        target=GammaN(),
        lower=lambda n, ctx: (F(1, n), F(1, n)),  # above the true deviation
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
        lower=lambda n, ctx: (dev_mid, dev_mid),
        upper=None,
        n_min_lower=1,
        n_min_upper=None,
        citation="synthetic test fixture",
    )
    verdict = check(touching, 10, 64)
    assert verdict.holds == UNDECIDED
    report = sweep(touching, 10, 10, 64, precision_cap=64)
    assert report.counts[UNDECIDED] == 1
