"""Sequence evaluators: exact splits, the walk, rounded values."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dyadic_ends, dyadic_value, ln_bracket, mp_value, mpf_to_fraction, split_at, sqrt_bracket,
    walk_ends,
)
from gammaseq import _kernels_py as kernels, sequences
from gammaseq._kernels_py import harmonic_fixed
from gammaseq.errors import DomainError
from gammaseq.numerics import gamma_reference, harmonic_exact
from gammaseq.sequences import (
    DeTempleR,
    GammaN,
    MuFamily,
    SOptimal,
    UMinus,
    UPlus,
    VernescuV,
    VFamily,
    Walk,
    values,
)

F = Fraction


def value_at(kind, n, p):
    """The sequence at n rounded to p bits by `values`, as an exact Fraction."""
    return dyadic_value(*next(values(kind, n, n, p)))


def rational_part(n, c):
    """H_{n-1} + c, exactly (H_0 = 0)."""
    return (harmonic_exact(n - 1) if n > 1 else 0) + c


def test_split_gamma_n_at_one():
    c, x = split_at(GammaN(), 1)
    assert rational_part(1, c) == 1 and x == 1


def test_split_s_optimal_formula():
    c, x = split_at(SOptimal(), 10)
    assert rational_part(10, c) == harmonic_exact(8) + F(13, 12 * 9) + F(5, 120)
    assert x == 10


@pytest.mark.parametrize("kind,point", [
    (GammaN(), MuFamily(1, 0)),
    (DeTempleR(), MuFamily(1, F(1, 2))),
    (VernescuV(), MuFamily(2, 0)),
    (SOptimal(), VFamily(F(3, 2), F(-5, 12))),
], ids=["GammaN", "DeTempleR", "VernescuV", "SOptimal"])
def test_named_kinds_are_family_points(kind, point):
    for n in range(kind.n_min, 2001):
        assert split_at(kind, n) == split_at(point, n)


def test_v_family_at_2_minus_1_is_gamma_n():
    kind = VFamily(F(2), F(-1))
    for n in range(3, 300):
        c, x = split_at(kind, n)
        assert rational_part(n, c) == harmonic_exact(n)
        assert x == n


def test_evaluate_trivial_and_equalities():
    assert value_at(GammaN(), 1, 64) == 1
    for n in (3, 10, 25):
        assert value_at(VFamily(F(2), F(-1)), n, 128) == value_at(GammaN(), n, 128)


def test_detemple_at_one_matches_oracle():
    mp.mp.prec = 300
    oracle = mpf_to_fraction(1 - mp.ln(mp.mpf(3) / 2))
    got = value_at(DeTempleR(), 1, 128)
    assert abs(got - oracle) <= F(1, 2**120)


def _error_fraction(a, b, n):
    """((a - 3/2) n^2 + (b + 5/12) n + 1/12) / (n^2 (n - 1)), the rational core of
    VFamily's deviation from gamma (with the 1/(120 n^4) digamma tail)."""
    return ((a - F(3, 2)) * n * n + (b + F(5, 12)) * n + F(1, 12)) / (n * n * (n - 1))


def _deviation_core(a, b, n):
    """VFamily's correction c at n, as the walk's split gives it, less the
    step 1/n from H_{n-1} to H_n, plus the terms 1/(2n) - 1/(12 n^2) of
    H_n - ln n - gamma: by the partial-fraction identity, the error
    fraction."""
    c, _x = split_at(VFamily(a, b), n)
    return c - F(1, n) + F(1, 2 * n) - F(1, 12 * n * n)


def test_error_fraction_hand_values():
    assert _deviation_core(F(3, 2), F(-5, 12), 10) == F(1, 10800)
    assert _deviation_core(F(2), F(-1), 4) == F(23, 192)


def test_verify_error_identity_examples():
    for a, b, n in ((F(3, 2), F(-5, 12), 7), (F(2), F(-1), 5), (F(0), F(0), 3)):
        assert _deviation_core(a, b, n) == _error_fraction(a, b, n)


def test_verify_error_identity_random():
    rng = random.Random(41)
    for _ in range(100):
        a = F(rng.randrange(-100, 100), rng.randrange(1, 40))
        b = F(rng.randrange(-100, 100), rng.randrange(1, 40))
        n = rng.randrange(3, 101)
        assert _deviation_core(a, b, n) == _error_fraction(a, b, n)


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
        lo, hi = walk_ends(kind, n, 200)
        oracle = mpf_to_fraction(expr(n))
        slack = F(1, 2**300)  # oracle's own rounding, far below our width
        assert lo - slack <= oracle <= hi + slack


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


@st.composite
def exact_points(draw):
    """An exact kind and an index from its n_min to 10**4: for MuFamily
    also an n with n + b <= 0, whose split must refuse it."""
    kind = draw(st.one_of(
        st.sampled_from([GammaN(), DeTempleR(), VernescuV(), SOptimal()]),
        st.builds(MuFamily, _rationals.filter(bool), _rationals),
        st.builds(VFamily, _rationals, _rationals),
    ))
    return kind, draw(st.integers(kind.n_min, 10**4))


@settings(max_examples=200, deadline=None)
@given(point=exact_points())
@example(point=(MuFamily(F(-1, 3), F(1, 2)), 1))
@example(point=(MuFamily(F(-7, 5), F(-11, 4)), 3))  # a < 0, n + b = 1/4
@example(point=(MuFamily(F(-2), F(5, 6)), 10**4))
@example(point=(MuFamily(F(2), F(-10, 3)), 3))  # n + b = -1/3
@example(point=(MuFamily(F(1, 2), F(-3)), 1))  # n + b = -2
@example(point=(VFamily(F(-5, 7), F(-2, 3)), 3))
def test_split_pairs_are_the_published_pieces(point):
    kind, n = point
    c, x = _published_pieces(kind, n)
    if isinstance(kind, (SOptimal, VFamily)):  # H_{n-2} = H_{n-1} - 1/(n - 1)
        c -= F(1, n - 1)
    if x <= 0:
        with pytest.raises(DomainError, match=f"^log argument n \\+ b = {x} must be positive$"):
            sequences._split(kind)(n)
        return
    (c_num, c_den), (x_num, x_den) = sequences._split(kind)(n)
    assert all(type(v) is int for v in (c_num, c_den, x_num, x_den))
    assert c_den > 0 and x_den > 0 and x_num > 0
    assert math.gcd(x_num, x_den) == 1  # ln_fixed reads the reduced bit lengths
    assert (F(c_num, c_den), F(x_num, x_den)) == (c, x)


def _fraction_tail(kind, n, q):
    """The tail pair of a sqrt(6) variant at scale 2**-q as the Fraction
    route built it, 1/(a n) - ln(n + b) at each end of a and b from sqrt(6)
    enclosed at q + 8 bits: the oracle of the walk's route through 6n^2 - 1."""
    s_lo, s_hi = sqrt_bracket(6, q + 8)
    if isinstance(kind, UPlus):
        a_lo, a_hi = 6 + 2 * s_lo, 6 + 2 * s_hi
        b_lo, b_hi = -1 / s_lo, -1 / s_hi
    else:
        a_lo, a_hi = 6 - 2 * s_hi, 6 - 2 * s_lo
        b_lo, b_hi = 1 / s_hi, 1 / s_lo
    lo = 1 / (a_hi * n) - ln_bracket(n + b_hi, q)[1]
    hi = 1 / (a_lo * n) - ln_bracket(n + b_lo, q)[0]
    return (lo.numerator << q) // lo.denominator, -((-hi.numerator << q) // hi.denominator)


def _fraction_tail_interval(kind, n, q):
    """The walk's pair at n with the Fraction route's tail."""
    h_lo, h_hi = harmonic_fixed(n - 1, q)
    t_lo, t_hi = _fraction_tail(kind, n, q)
    return h_lo + t_lo, h_hi + t_hi


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
    got = list(map(Walk(kind, q), range(n_from, n_to + 1)))
    assert len(got) == n_to - n_from + 1
    # a walk over any increasing subset visits the same intervals
    assert list(map(Walk(kind, q), subset)) == [got[n - n_from] for n in subset]
    for n, (lo, hi) in zip(range(n_from, n_to + 1), got):
        assert isinstance(lo, int) and isinstance(hi, int)
        assert (lo, hi) == Walk(kind, q)(n)
        lo, hi = F(lo, 2**q), F(hi, 2**q)
        if isinstance(kind, (UPlus, UMinus)):  # the two routes' pairs meet
            old_lo, old_hi = _fraction_tail_interval(kind, n, q)
            assert got[n - n_from][0] <= old_hi and old_lo <= got[n - n_from][1]
        oracle = mpf_to_fraction(mp_value(kind, n))
        assert lo - slack <= oracle <= hi + slack
        assert 0 <= hi - lo <= width_cap
        if not isinstance(kind, (UPlus, UMinus)):
            c, x = split_at(kind, n)
            ln_lo, ln_hi = ln_bracket(x, q)
            exact_rational = rational_part(n, c)
            assert lo <= exact_rational - ln_lo and exact_rational - ln_hi <= hi


def test_monotone_error_decay_for_s_optimal():
    gamma_mid = sum(dyadic_ends(*gamma_reference(128))) / 2
    previous = None
    for n in range(9, 513):
        lo, hi = walk_ends(SOptimal(), n, 170)
        err_n = abs((lo + hi) / 2 - gamma_mid)
        lo2, hi2 = walk_ends(SOptimal(), 2 * n, 170)
        err_2n = abs((lo2 + hi2) / 2 - gamma_mid)
        assert err_2n < err_n
        previous = err_n


def test_domain_errors():
    with pytest.raises(DomainError):
        Walk(SOptimal(), 64)(2)
    with pytest.raises(DomainError):
        Walk(VFamily(F(1), F(1)), 64)(0)
    with pytest.raises(DomainError):
        sequences._split(UPlus())  # no exact split for irrational parameters
    with pytest.raises(DomainError):
        MuFamily(F(0), F(1))
    with pytest.raises(DomainError):
        Walk(MuFamily(F(1), F(-5)), 64)(3)  # log argument not positive
    walk = Walk(GammaN(), 64)
    walk(5)
    with pytest.raises(DomainError):
        walk(3)  # the walk cannot step back


def test_exactly_zero_value_rounds_to_zero():
    # H_5 + 1/(6 a) = 0 at a = -10/137 and ln(6 - 5) = 0: the value vanishes
    # exactly while the walk's interval for H_5 keeps a nonzero width
    kind = MuFamily(F(-10, 137), F(-5))
    assert value_at(kind, 6, 64) == 0
    assert [dyadic_value(*v) == 0 for v in values(kind, 6, 8, 64)] == [True, False, False]


def test_exact_zero_is_told_without_a_retry(monkeypatch):
    # the exact zero is read off the split at the first pair that straddles 0;
    # no retry could decide it, as every tighter pair straddles 0 as well
    real, scales = sequences.Walk, []

    def counted(kind, q):
        scales.append(q)
        if len(scales) > 1:
            raise AssertionError(f"a retry at q = {q}")
        return real(kind, q)

    monkeypatch.setattr(sequences, "Walk", counted)
    assert value_at(MuFamily(F(-10, 137), F(-5)), 6, 64) == 0
    assert scales == [64 + 32 + 3]


def test_pair_symmetric_about_zero_retries(monkeypatch):
    # twice the midpoint of a first walk pair (-k, k) is 0, yet the value
    # is not: a tighter retry must decide it
    real = sequences.Walk
    scales = []

    def stub(kind, q):
        scales.append(q)
        return (lambda n: (-5, 5)) if len(scales) == 1 else real(kind, q)

    monkeypatch.setattr(sequences, "Walk", stub)
    got = value_at(GammaN(), 10, 64)
    assert scales == [64 + 32 + 4, 2 * (64 + 32 + 4)]
    mp.mp.prec = 200
    oracle = mpf_to_fraction(mp.harmonic(10) - mp.log(10))
    assert abs(got - oracle) <= abs(oracle) * F(2) ** (1 - 64)


def test_value_near_zero_keeps_relative_accuracy():
    # 7/3 - ln(1 + b) is about 8.4e-20; its first walk pair at 32 bits
    # straddles 0, and the value must not round to 0
    b = F(8782218930, 943081523)
    got = value_at(MuFamily(F(3, 7), b), 1, 32)
    mp.mp.prec = 300
    oracle = mpf_to_fraction(mp.mpf(7) / 3 - mp.log(1 + mp.mpf(b.numerator) / b.denominator))
    assert oracle > 0
    assert abs(got - oracle) <= oracle * F(2) ** (1 - 32)


@pytest.mark.parametrize("kind", [UPlus(), UMinus()], ids=repr)
def test_sqrt6_tails_contain_mpmath_and_meet_the_fraction_route(kind):
    # n = 1..3000, as `eval --seq uplus --to 3000` walks them, and random n up to 10**6
    q = 300
    mp.mp.prec = 2 * q
    r6 = mp.sqrt(6)
    a, b = (6 + 2 * r6, -1 / r6) if isinstance(kind, UPlus) else (6 - 2 * r6, 1 / r6)
    slack = F(1, 2 ** (q - 16))  # the oracle's own rounding at 2q bits, in ulps
    tail = sequences._tails(kind, q)
    rng = random.Random(27)
    for n in [*range(1, 3001), *(rng.randint(3001, 10**6) for _ in range(300))]:
        lo, hi = tail(n)
        assert 0 <= hi - lo <= 3  # the docstring's width
        oracle = mpf_to_fraction(1 / (a * n) - mp.ln(n + b)) * 2**q
        assert lo - slack <= oracle <= hi + slack, n
        old_lo, old_hi = _fraction_tail(kind, n, q)
        assert lo <= old_hi and old_lo <= hi, n


def test_kinds_are_immutable_values():
    # callers compare and hash kinds, build the families from ints or
    # Fractions, and print their reprs in messages and test reports
    assert MuFamily(F(3, 2), 0) == MuFamily(F(3, 2), F(0))
    assert hash(MuFamily(F(3, 2), 0)) == hash(MuFamily(F(3, 2), F(0)))
    assert type(MuFamily(F(3, 2), 0).b) is F and type(VFamily(1, 2).a) is F
    assert MuFamily(F(3, 2), 0) != MuFamily(F(3, 2), 1)
    assert MuFamily(1, 2) != VFamily(1, 2) and GammaN() != DeTempleR()
    assert len({GammaN(), GammaN(), UPlus(), VFamily(1, 2), VFamily(F(1), F(2))}) == 3
    with pytest.raises(DomainError, match="MuFamily requires a != 0"):
        MuFamily(a=0, b=1)
    for kind, name in ((MuFamily(1, 2), "a"), (VFamily(1, 2), "b"), (GammaN(), "n_min"),
                       (UMinus(), "extra")):
        with pytest.raises(AttributeError):
            setattr(kind, name, 5)
    assert MuFamily(1, 2).a == 1 and VFamily(1, 2).n_min == 3
    assert repr(MuFamily(F(3, 2), 0)) == "MuFamily(a=Fraction(3, 2), b=Fraction(0, 1))"
    assert repr(VFamily(F(3, 2), F(-5, 12))) == "VFamily(a=Fraction(3, 2), b=Fraction(-5, 12))"
    assert [repr(k) for k in (GammaN(), SOptimal(), UPlus())] == ["GammaN()", "SOptimal()",
                                                                  "UPlus()"]

    class Unlisted(sequences.SequenceKind):
        __slots__ = ()

    with pytest.raises(DomainError, match=r"^unknown sequence kind Unlisted\(\)$"):
        sequences._split(Unlisted())
    with pytest.raises(DomainError, match="^log argument n \\+ b = -7/3 must be positive$"):
        Walk(MuFamily(1, F(-10, 3)), 64)(1)


def test_u_variants_have_no_split_but_evaluate():
    assert F(1, 2) < value_at(UPlus(), 12, 128) < 1


# x_n - gamma from the envelope of psi - ln and from the walk


def _gamma_ends(q):
    """gamma between two exact Fractions, from `gamma_reference`(q)."""
    return dyadic_ends(*gamma_reference(q))


@st.composite
def deviation_points(draw):
    """A mu or v point with random rational a and b, a scale q in 64..512 and
    up to five increasing indices to 10**5 in the point's domain."""
    kind = draw(st.one_of(
        st.sampled_from([GammaN(), DeTempleR(), VernescuV(), SOptimal()]),
        st.builds(MuFamily, _rationals.filter(bool), _rationals),
        st.builds(MuFamily, _rationals.filter(bool),
                  st.fractions(min_value=-40, max_value=4000, max_denominator=7)),
        st.builds(VFamily, _rationals, _rationals),
    ))
    n_min = kind.n_min
    if isinstance(kind, MuFamily):
        n_min = max(n_min, math.floor(-kind.b) + 1)  # keeps n + b > 0
    ns = draw(st.sets(st.integers(n_min, 10**5), min_size=1, max_size=5))
    return kind, draw(st.integers(64, 512)), sorted(ns)


def _around_the_switch(q):
    n_env = sequences.envelope_start(q)
    return sorted({q, q + 1, n_env - 1, n_env, *(10**k for k in range(6, 19))})


@settings(max_examples=60, deadline=None)
@given(point=deviation_points())
@example(point=(SOptimal(), 224, _around_the_switch(224)))
@example(point=(GammaN(), 400, _around_the_switch(400)))  # N(q) = 2 (q + 1)
@example(point=(DeTempleR(), 512, _around_the_switch(512)))  # N(q) = 8 (q + 1)
@example(point=(VernescuV(), 64, _around_the_switch(64)))
@example(point=(VFamily(F(-7, 4), F(11, 6)), 100, _around_the_switch(100)))
@example(point=(MuFamily(F(-2, 3), F(-5, 2)), 160, _around_the_switch(160)))  # atanh of b < 0
@example(point=(MuFamily(F(1), F(10**5)), 64, [65, 1000, 10**5]))  # ln where b / (2n + b) > 1/2
@example(point=(MuFamily(F(3), F(-1000, 3)), 64, [334, 400, 499, 500]))  # and b < 0
def test_deviation_contains_mpmath_and_meets_the_walk(point):
    kind, q, ns = point
    n_env = sequences.envelope_start(q)
    deviation = sequences.deviation(kind, q)
    g_lo, g_hi = _gamma_ends(q + 64)
    for n in ns:
        lo, hi = deviation(n)
        mp.mp.prec = 2 * q + 64 + n.bit_length()
        exact = mpf_to_fraction((mp_value(kind, n) - mp.euler) * mp.mpf(2) ** q)
        assert lo <= exact <= hi, (kind, q, n)
        # a few ulps from N(q) on (v and mu with b = 0: the series and one
        # rounding; mu with b != 0: one more for the logarithm), and the walk's
        # n + 4 below it
        assert hi - lo <= (6 if n >= n_env else n + 4), (kind, q, n)
        if n <= 10**5:  # the walk less gamma meets the pair
            w_lo, w_hi = walk_ends(kind, n, q)
            assert Fraction(lo, 1 << q) <= w_hi - g_lo and w_lo - g_hi <= Fraction(hi, 1 << q)


@pytest.mark.parametrize("kind", [
    SOptimal(), VFamily(F(-7, 4), F(11, 6)), VFamily(F(2), F(-1)), GammaN(), VernescuV(),
    MuFamily(F(-2, 3), 0), MuFamily(F(5, 3), 0),
], ids=repr)
@pytest.mark.parametrize("q", [64, 224, 400])
def test_deviation_where_x_is_n_is_the_series_plus_c_rounded(kind, q, monkeypatch):
    # v points and mu points with b = 0 have the log argument x = n, so from
    # N(q) on the pair is D(n)'s plus the floor and ceiling of c * 2**q, with
    # c = ((a - 1) n + b)/(n (n - 1)) or 1/(a n), and no logarithm at all
    def no_log(*args):
        raise AssertionError("a logarithm where x = n")

    monkeypatch.setattr(kernels, "atanh_fixed", no_log)
    monkeypatch.setattr(sequences, "ln_ends", no_log)
    if isinstance(kind, (SOptimal, VFamily)):
        a, b = (F(3, 2), F(-5, 12)) if isinstance(kind, SOptimal) else (kind.a, kind.b)
        correction = lambda n: ((a - 1) * n + b) / (n * (n - 1))  # noqa: E731
    else:
        a = kind.a if isinstance(kind, MuFamily) else F(2 if isinstance(kind, VernescuV) else 1)
        correction = lambda n: 1 / (a * n)  # noqa: E731
    n_env = sequences.envelope_start(q)
    rng = random.Random(q)
    ns = sorted({n_env, n_env + 1, 10**18, *(rng.randint(n_env, 10**18) for _ in range(20))})
    deviation = sequences.deviation(kind, q)
    for n in ns:
        d_lo, d_hi = kernels.digamma_log_fixed(n, q)
        lo, hi = deviation(n)
        scaled = correction(n) * 2**q
        assert (lo - d_lo, hi - d_hi) == (math.floor(scaled), math.ceil(scaled)), n


def test_deviation_keeps_the_domain_checks():
    for kind in (UPlus(), UMinus()):
        with pytest.raises(DomainError, match="has irrational parameters and no exact split"):
            sequences.deviation(kind, 64)
    q = 64
    n_env = sequences.envelope_start(q)
    with pytest.raises(DomainError, match="defined for n >= 3"):
        sequences.deviation(SOptimal(), q)(2)
    with pytest.raises(DomainError, match="n must be an integer"):
        sequences.deviation(GammaN(), q)(float(n_env))
    for n in (5, n_env + 5):  # n + b <= 0 on either side of N(q)
        b = F(-2 * n - 1, 2) if n < n_env else F(-n)
        with pytest.raises(DomainError, match="log argument n \\+ b = .* must be positive"):
            sequences.deviation(MuFamily(F(1), b), q)(n)
    deviation = sequences.deviation(GammaN(), q)
    deviation(10)
    with pytest.raises(DomainError, match="must not decrease"):
        deviation(3)  # below N(q) the walk cannot step back


def test_envelope_start_is_past_the_series_reach():
    # digamma_log_fixed's width bound holds from x = q + 1 on, so N(q) > q;
    # past that the measured cost rule keeps the walk longer as q grows
    assert all(sequences.envelope_start(q) > q for q in range(1, 4000))
    assert [sequences.envelope_start(q) for q in (64, 240, 300, 350, 470, 544)] == [
        65, 241, 301, 702, 1884, 4360]
