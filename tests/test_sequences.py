"""Sequence evaluators: exact splits, interval evaluation, identities."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dyadic_ends, dyadic_value, mpf_to_fraction
from gammaseq import sequences
from gammaseq._kernels_py import harmonic_fixed
from gammaseq.errors import DomainError
from gammaseq.numerics import gamma_reference, harmonic_exact, ln_interval, sqrt_interval
from gammaseq.sequences import (
    DeTempleR,
    GammaN,
    MuFamily,
    SOptimal,
    UMinus,
    UPlus,
    VernescuV,
    VFamily,
    error_fraction,
    evaluate,
    evaluate_interval,
    intervals,
    split_eval,
    values,
    verify_error_identity,
)

F = Fraction


def test_split_gamma_n_at_one():
    sv = split_eval(GammaN(), 1)
    assert sv.rational_part == 1 and sv.log_argument == 1


def test_split_s_optimal_formula():
    sv = split_eval(SOptimal(), 10)
    assert sv.rational_part == harmonic_exact(8) + F(13, 12 * 9) + F(5, 120)
    assert sv.log_argument == 10


def test_s_optimal_equals_v_family_at_optimum():
    kind = VFamily(F(3, 2), F(-5, 12))
    for n in range(3, 300):
        assert split_eval(SOptimal(), n) == split_eval(kind, n)


def test_v_family_at_2_minus_1_is_gamma_n():
    kind = VFamily(F(2), F(-1))
    for n in range(3, 300):
        sv = split_eval(kind, n)
        assert sv.rational_part == harmonic_exact(n)
        assert sv.log_argument == n


def test_detemple_and_vernescu_are_mu_members():
    for n in (1, 2, 7, 40):
        assert split_eval(DeTempleR(), n) == split_eval(MuFamily(F(1), F(1, 2)), n)
        assert split_eval(VernescuV(), n) == split_eval(MuFamily(F(2), F(0)), n)


def test_evaluate_trivial_and_equalities():
    assert dyadic_value(*evaluate(GammaN(), 1, 64)) == 1
    for n in (3, 10, 25):
        lhs = evaluate(VFamily(F(2), F(-1)), n, 128)
        rhs = evaluate(GammaN(), n, 128)
        assert dyadic_value(*lhs) == dyadic_value(*rhs)


def test_detemple_at_one_matches_oracle():
    mp.mp.prec = 300
    oracle = mpf_to_fraction(1 - mp.ln(mp.mpf(3) / 2))
    got = dyadic_value(*evaluate(DeTempleR(), 1, 128))
    assert abs(got - oracle) <= F(1, 2**120)


@pytest.mark.parametrize("kind,expr", [
    (GammaN(), lambda n: mp.harmonic(n) - mp.ln(n)),
    (DeTempleR(), lambda n: mp.harmonic(n) - mp.ln(n + mp.mpf(1) / 2)),
    (VernescuV(), lambda n: mp.harmonic(n - 1) + mp.mpf(1) / (2 * n) - mp.ln(n)),
    (SOptimal(), lambda n: mp.harmonic(n - 2) + mp.mpf(13) / (12 * (n - 1))
        + mp.mpf(5) / (12 * n) - mp.ln(n)),
    (MuFamily(F(3), F(-1, 4)), lambda n: mp.harmonic(n - 1) + mp.mpf(1) / (3 * n)
        - mp.ln(n - mp.mpf(1) / 4)),
    (UPlus(), lambda n: mp.harmonic(n - 1) + 1 / ((6 + 2 * mp.sqrt(6)) * n)
        - mp.ln(n - 1 / mp.sqrt(6))),
    (UMinus(), lambda n: mp.harmonic(n - 1) + 1 / ((6 - 2 * mp.sqrt(6)) * n)
        - mp.ln(n + 1 / mp.sqrt(6))),
])
def test_interval_contains_oracle(kind, expr):
    mp.mp.prec = 400
    for n in (5, 23, 160):
        lo, hi = evaluate_interval(kind, n, 200)
        oracle = mpf_to_fraction(expr(n))
        slack = F(1, 2**300)  # oracle's own rounding, far below our width
        assert lo - slack <= oracle <= hi + slack


def _mp_frac(x):
    return mp.mpf(x.numerator) / x.denominator


def _mp_value(kind, n):
    # the published formulas, independent of split_eval's H_m + correction form
    h = mp.harmonic
    if isinstance(kind, GammaN):
        return h(n) - mp.ln(n)
    if isinstance(kind, DeTempleR):
        return h(n) - mp.ln(n + mp.mpf(1) / 2)
    if isinstance(kind, VernescuV):
        return h(n - 1) + mp.mpf(1) / (2 * n) - mp.ln(n)
    if isinstance(kind, SOptimal):
        return h(n - 2) + mp.mpf(13) / (12 * (n - 1)) + mp.mpf(5) / (12 * n) - mp.ln(n)
    if isinstance(kind, MuFamily):
        return h(n - 1) + 1 / (_mp_frac(kind.a) * n) - mp.ln(n + _mp_frac(kind.b))
    if isinstance(kind, VFamily):
        return (h(n - 2) + (_mp_frac(kind.a) * n + _mp_frac(kind.b)) / (n * (n - 1))
                - mp.ln(n))
    r6 = mp.sqrt(6)
    if isinstance(kind, UPlus):
        return h(n - 1) + 1 / ((6 + 2 * r6) * n) - mp.ln(n - 1 / r6)
    return h(n - 1) + 1 / ((6 - 2 * r6) * n) - mp.ln(n + 1 / r6)


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=24)


@st.composite
def walks(draw):
    kind = draw(st.one_of(
        st.sampled_from([GammaN(), DeTempleR(), VernescuV(), SOptimal(), UPlus(),
                         UMinus()]),
        st.builds(MuFamily, _rationals.filter(bool), _rationals),
        st.builds(VFamily, _rationals, _rationals),
    ))
    n_min = kind.n_min
    if isinstance(kind, MuFamily):
        n_min = max(n_min, int(-kind.b) + 1)  # keeps n + b > 0
    n_from = draw(st.integers(n_min, 400))
    n_to = draw(st.integers(n_from, 400))
    subset = sorted(draw(st.sets(st.integers(n_from, n_to), max_size=12)))
    return kind, n_from, n_to, draw(st.integers(64, 256)), subset


def _published_pieces(kind, n):
    """The correction and log argument of an exact kind, from its formula."""
    if isinstance(kind, GammaN):
        return F(1, n), F(n)
    if isinstance(kind, DeTempleR):
        return F(1, n), n + F(1, 2)
    if isinstance(kind, VernescuV):
        return F(1, 2 * n), F(n)
    if isinstance(kind, SOptimal):
        return F(13, 12 * (n - 1)) + F(5, 12 * n), F(n)
    if isinstance(kind, MuFamily):
        return 1 / (kind.a * n), n + kind.b
    return (kind.a * n + kind.b) / (n * (n - 1)), F(n)


@settings(max_examples=200, deadline=None)
@given(walk=walks().filter(lambda walk: not isinstance(walk[0], (UPlus, UMinus))))
@example(walk=(MuFamily(F(-1, 3), F(1, 2)), 1, 1, 64, []))
@example(walk=(VFamily(F(-5, 7), F(-2, 3)), 3, 3, 64, []))
def test_split_pairs_are_the_published_pieces(walk):
    kind, n, _n_to, _q, _subset = walk
    m, (c_num, c_den), (x_num, x_den) = sequences._split(kind)(n)
    assert all(type(v) is int for v in (m, c_num, c_den, x_num, x_den))
    assert c_den > 0 and x_den > 0 and x_num > 0
    assert math.gcd(x_num, x_den) == 1  # ln_fixed reads the reduced bit lengths
    assert (F(c_num, c_den), F(x_num, x_den)) == _published_pieces(kind, n)
    assert split_eval(kind, n) == sequences.SplitValue(m, F(c_num, c_den), F(x_num, x_den), n)


def _fraction_tail_interval(kind, n, q):
    """The interval of a sqrt(6) variant as the Fraction tail built it,
    kept as the oracle for the one integer tail of the walk."""
    s_lo, s_hi = sqrt_interval(6, q + 8)
    if isinstance(kind, UPlus):
        a_lo, a_hi = 6 + 2 * s_lo, 6 + 2 * s_hi
        b_lo, b_hi = -1 / s_lo, -1 / s_hi
    else:
        a_lo, a_hi = 6 - 2 * s_hi, 6 - 2 * s_lo
        b_lo, b_hi = 1 / s_hi, 1 / s_lo
    lo = 1 / (a_hi * n) - ln_interval(n + b_hi, q)[1]
    hi = 1 / (a_lo * n) - ln_interval(n + b_lo, q)[0]
    h_lo, h_hi = harmonic_fixed(n - 1, q)
    return (h_lo + (lo.numerator << q) // lo.denominator,
            h_hi - ((-hi.numerator << q) // hi.denominator))


@settings(max_examples=40, deadline=None)
@given(walk=walks())
# at n = 1 the width cap is 1 + q ulps; ln's pair was up to ~1.3q ulps wide
@example(walk=(MuFamily(F(1), F(8, 3)), 1, 1, 64, [1]))
@example(walk=(MuFamily(F(1), F(8, 3)), 1, 1, 128, [1]))
@example(walk=(MuFamily(F(1), F(5, 2)), 1, 1, 64, []))
def test_walk_agrees_with_single_index_and_oracles(walk):
    kind, n_from, n_to, q, subset = walk
    mp.mp.prec = 2 * q
    slack = F(1, 2 ** (2 * q - 16))  # the oracle's own rounding
    width_cap = F(n_to + q * n_to.bit_length(), 2**q)
    got = list(intervals(kind, range(n_from, n_to + 1), q))
    assert len(got) == n_to - n_from + 1
    # a walk over any increasing subset visits the same intervals
    assert list(intervals(kind, subset, q)) == [got[n - n_from] for n in subset]
    for n, (lo, hi) in zip(range(n_from, n_to + 1), got):
        assert isinstance(lo, int) and isinstance(hi, int)
        lo, hi = F(lo, 2**q), F(hi, 2**q)
        assert (lo, hi) == evaluate_interval(kind, n, q)
        if isinstance(kind, (UPlus, UMinus)):
            assert got[n - n_from] == _fraction_tail_interval(kind, n, q)
        oracle = mpf_to_fraction(_mp_value(kind, n))
        assert lo - slack <= oracle <= hi + slack
        assert 0 <= hi - lo <= width_cap
        if not isinstance(kind, (UPlus, UMinus)):
            split = split_eval(kind, n)
            ln_lo, ln_hi = ln_interval(split.log_argument, q)
            exact_rational = split.rational_part
            assert lo <= exact_rational - ln_lo and exact_rational - ln_hi <= hi


def test_monotone_error_decay_for_s_optimal():
    gamma_mid = sum(dyadic_ends(*gamma_reference(128))) / 2
    previous = None
    for n in range(9, 513):
        lo, hi = evaluate_interval(SOptimal(), n, 170)
        err_n = abs((lo + hi) / 2 - gamma_mid)
        lo2, hi2 = evaluate_interval(SOptimal(), 2 * n, 170)
        err_2n = abs((lo2 + hi2) / 2 - gamma_mid)
        assert err_2n < err_n
        previous = err_n


def test_error_fraction_hand_values():
    assert error_fraction(F(3, 2), F(-5, 12), 10) == F(1, 10800)
    assert error_fraction(F(2), F(-1), 4) == F(23, 192)


def test_error_fraction_domain():
    with pytest.raises(DomainError):
        error_fraction(F(1), F(1), 1)


def test_verify_error_identity_examples():
    assert verify_error_identity(F(3, 2), F(-5, 12), 7)
    assert verify_error_identity(F(2), F(-1), 5)
    assert verify_error_identity(F(0), F(0), 3)


def test_verify_error_identity_random():
    rng = random.Random(41)
    for _ in range(100):
        a = F(rng.randrange(-100, 100), rng.randrange(1, 40))
        b = F(rng.randrange(-100, 100), rng.randrange(1, 40))
        n = rng.randrange(2, 101)
        assert verify_error_identity(a, b, n)


def test_domain_errors():
    with pytest.raises(DomainError):
        split_eval(SOptimal(), 2)
    with pytest.raises(DomainError):
        split_eval(VFamily(F(1), F(1)), 0)
    with pytest.raises(DomainError):
        split_eval(UPlus(), 5)  # no exact split for irrational parameters
    with pytest.raises(DomainError):
        MuFamily(F(0), F(1))
    with pytest.raises(DomainError):
        split_eval(MuFamily(F(1), F(-5)), 3)  # log argument not positive
    with pytest.raises(DomainError):
        list(intervals(GammaN(), [5, 3], 64))  # the walk cannot step back


def test_exactly_zero_value_rounds_to_zero():
    # H_5 + 1/(6 a) = 0 at a = -10/137 and ln(6 - 5) = 0: the value vanishes
    # exactly while the walk's interval for H_5 keeps a nonzero width
    kind = MuFamily(F(-10, 137), F(-5))
    assert dyadic_value(*evaluate(kind, 6, 64)) == 0
    assert [dyadic_value(*v) == 0 for v in values(kind, 6, 8, 64)] == [True, False, False]


def test_pair_symmetric_about_zero_retries(monkeypatch):
    # twice the midpoint of a first walk pair (-k, k) is 0, yet the value
    # is not: a tighter retry must decide it
    real = sequences.intervals
    scales = []

    def stub(kind, ns, q):
        scales.append(q)
        return iter([(-5, 5)]) if len(scales) == 1 else real(kind, ns, q)

    monkeypatch.setattr(sequences, "intervals", stub)
    got = dyadic_value(*evaluate(GammaN(), 10, 64))
    assert scales == [64 + 32 + 4, 2 * (64 + 32 + 4)]
    mp.mp.prec = 200
    oracle = mpf_to_fraction(mp.harmonic(10) - mp.log(10))
    assert abs(got - oracle) <= abs(oracle) * F(2) ** (1 - 64)


def test_value_near_zero_keeps_relative_accuracy():
    # 7/3 - ln(1 + b) is about 8.4e-20; its first walk pair at 32 bits
    # straddles 0, and the value must not round to 0
    b = F(8782218930, 943081523)
    got = dyadic_value(*evaluate(MuFamily(F(3, 7), b), 1, 32))
    mp.mp.prec = 300
    oracle = mpf_to_fraction(mp.mpf(7) / 3 - mp.log(1 + mp.mpf(b.numerator) / b.denominator))
    assert oracle > 0
    assert abs(got - oracle) <= oracle * F(2) ** (1 - 32)


def test_u_variants_have_no_split_but_evaluate():
    value = evaluate(UPlus(), 12, 128)
    assert F(1, 2) < dyadic_value(*value) < 1
