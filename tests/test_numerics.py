"""Core numerics: rounding, harmonic numbers, certified logs, the enclosure."""

import hashlib
import math
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dyadic_ends, ln_bracket, mpf_to_fraction, sqrt_bracket
from gammaseq import _kernels_py as kernels, numerics
from gammaseq.errors import DomainError
from gammaseq.numerics import (
    GUARD_BITS,
    BigReal,
    gamma_bootstrap,
    gamma_reference,
    harmonic_ends,
    harmonic_exact,
    ln_fixed,
)
from gammaseq.sequences import GammaN, Walk

GAMMA_DIGITS = Fraction("0.57721566490153286")


def random_fraction(rng, max_num=10**6):
    return Fraction(rng.randrange(1, max_num), rng.randrange(1, max_num))


def inside(enc, x):
    lo, hi = dyadic_ends(*enc)
    return lo <= x <= hi


# ---------------------------------------------------------------------------
# the one rounding routine

ROUNDINGS = ("nearest", "floor", "ceiling", "half-up")


@pytest.mark.parametrize("rounding", ROUNDINGS)
@settings(max_examples=300, deadline=None)
@given(num=st.integers(-10**30, 10**30), den=st.integers(1, 10**12))
@example(num=10, den=4)  # unreduced ties: 5/2, -5/2, 3/2
@example(num=-10, den=4)
@example(num=6, den=4)
@example(num=-2, den=4)  # -1/2: the magnitude of a tie rounds 0 or 1
@example(num=-1, den=4)  # a negative magnitude that rounds to 0
def test_round_matches_integer_oracles(rounding, num, den):
    negative, q = numerics._round(num, den, rounding)
    if rounding == "half-up":
        # sign * floor(|x| + 1/2), the sign kept when the magnitude is 0
        assert (negative, q) == (num < 0, math.floor(abs(Fraction(num, den)) + Fraction(1, 2)))
        return
    expected = {
        "floor": num // den,
        "ceiling": -(-num // den),
        "nearest": round(Fraction(num, den)),  # ties to even
    }[rounding]
    assert (negative, q) == (expected < 0, abs(expected))


@pytest.mark.parametrize("rounding", ROUNDINGS)
@settings(max_examples=300, deadline=None)
@given(num=st.integers(-10**30, 10**30), den=st.integers(1, 10**12),
       places=st.integers(0, 30))
def test_decimal_text_reads_back_within_one_unit(rounding, num, den, places):
    got = Fraction(numerics.decimal_text(num, den, places, rounding))
    x = Fraction(num, den)
    unit = Fraction(1, 10**places)
    if rounding == "floor":
        assert x - unit < got <= x
    elif rounding == "ceiling":
        assert x <= got < x + unit
    else:
        assert abs(got - x) <= unit / 2


# ---------------------------------------------------------------------------
# BigReal


def test_bigreal_rounding_directions():
    x = Fraction(1, 3)
    lo = BigReal.from_fraction(x, 64, "floor")
    hi = BigReal.from_fraction(x, 64, "ceiling")
    near = BigReal.from_fraction(x, 64)
    assert lo.to_fraction() < x < hi.to_fraction()
    assert hi.to_fraction() - lo.to_fraction() == Fraction(1, 2**65)  # one ulp
    assert abs(near.to_fraction() - x) <= Fraction(1, 2**66)


def test_bigreal_rounding_respects_sign():
    x = Fraction(-1, 3)
    lo = BigReal.from_fraction(x, 32, "floor")
    hi = BigReal.from_fraction(x, 32, "ceiling")
    assert lo.to_fraction() < x < hi.to_fraction()


def test_bigreal_exact_values_round_trip():
    for v in (0, 1, -5, Fraction(3, 4), Fraction(1, 2**40)):
        assert BigReal.from_fraction(v, 64).to_fraction() == Fraction(v)


def test_bigreal_decimal_str():
    x = BigReal.from_fraction(Fraction(1, 4), 64)
    assert x.decimal_str(3) == "0.250"
    y = BigReal.from_fraction(Fraction(-1, 3), 80)
    assert y.decimal_str(4) == "-0.3333"
    assert y.decimal_str(4, "floor") == "-0.3334"
    assert y.decimal_str(4, "ceiling") == "-0.3333"


def test_bigreal_rejects_tiny_precision():
    with pytest.raises(DomainError):
        BigReal.from_fraction(Fraction(1, 3), 16)


@settings(max_examples=150, deadline=None)
@given(x=st.fractions(), p=st.integers(32, 256))
def test_bigreal_floor_and_ceiling_round_outward(x, p):
    lo = BigReal.from_fraction(x, p, "floor").to_fraction()
    hi = BigReal.from_fraction(x, p, "ceiling").to_fraction()
    assert lo <= x <= hi
    # one rounding each: less than one ulp, at most 2**(1-p) relative
    assert x - lo <= abs(x) / 2 ** (p - 1)
    assert hi - x <= abs(x) / 2 ** (p - 1)


# ---------------------------------------------------------------------------
# harmonic numbers


def brute_harmonic(n):
    num, den = 0, 1
    for k in range(1, n + 1):
        num = num * k + den
        den *= k
    return Fraction(num, den)


def test_harmonic_exact_small_values():
    assert harmonic_exact(1) == 1
    assert harmonic_exact(3) == Fraction(11, 6)
    assert harmonic_exact(10) == brute_harmonic(10)


def test_harmonic_exact_difference_property():
    for n in [1, 2, 50, 254, 255, 256, 257, 511, 512, 1000]:
        assert harmonic_exact(n + 1) - harmonic_exact(n) == Fraction(1, n + 1)


def test_harmonic_exact_random_access_matches_oracle():
    rng = random.Random(11)
    ns = [rng.randrange(1, 400) for _ in range(12)]
    for n in ns:
        assert harmonic_exact(n) == brute_harmonic(n)


def test_harmonic_exact_rejects_nonpositive():
    with pytest.raises(DomainError):
        harmonic_exact(0)


# H_n at float precision p is the kernel pair at p + GUARD_BITS + bitlen(n)
# bits, the scale the sequence walk uses; these tests pin that pair


def harmonic_pair(n, p):
    """The kernel pair for H_n as fractions, n ulps wide."""
    q = p + GUARD_BITS + n.bit_length()
    lo, hi = kernels.harmonic_fixed(n, q)
    assert hi - lo == n
    return Fraction(lo, 1 << q), Fraction(hi, 1 << q)


def test_harmonic_float_trivial_values():
    lo, hi = harmonic_pair(1, 64)
    assert lo == 1 and hi - lo == Fraction(1, 2**97)
    lo, hi = harmonic_pair(3, 128)
    assert lo <= Fraction(11, 6) <= hi and hi - lo <= Fraction(1, 2**120)


@pytest.mark.parametrize("p", [64, 128, 256])
def test_harmonic_float_agrees_with_exact(p):
    bound = Fraction(2) ** (1 - p)
    exact = Fraction(0)
    check_at = set(range(1, 101)) | {500, 1000, 2718, 5000, 9999, 10000}
    for n in range(1, 10001):
        exact += Fraction(1, n)
        if n in check_at:
            lo, hi = harmonic_pair(n, p)
            assert lo <= exact <= hi and hi - lo <= exact * bound


def test_harmonic_float_large_n_against_split_sum():
    # independent oracle: exact H at 10^4 plus a directed-rounded range sum,
    # 32 bits finer than the kernel pair, so it must fall inside that pair
    n_small, n_large = 10**4, 10**6
    got_lo, got_hi = harmonic_pair(n_large, 256)
    q = 256 + GUARD_BITS + n_large.bit_length() + 32
    lo = hi = 0
    one = 1 << q
    for k in range(n_small + 1, n_large + 1):
        d, r = divmod(one, k)
        lo += d
        hi += d + (1 if r else 0)
    base = harmonic_exact(n_small)
    assert got_lo <= base + Fraction(lo, one) and base + Fraction(hi, one) <= got_hi


# H_m as a head of a terms and an Euler-Maclaurin tail


def test_the_table_ends_below_one_ulp_from_x_q_plus_1():
    # the k-th term |B_2k| / (2k x**2k) at k = q // 8 + 2, the table's length at q,
    # is below 2**-q at x = q + 1, so digamma_log_fixed is at most 4 ulps wide
    # there and beyond (q // 8 + 3 once); harmonic_ends' head w = q + EM_GUARD_BITS
    # and deviation's N(q) > q rely on it
    table = kernels.bernoulli_table(2000 // 8 + 2)
    for q in range(1, 2001):
        length = q // 8 + 2
        num, den = table[length - 1]
        assert abs(num) << q < den * (q + 1) ** (2 * length), q
        lo, hi = kernels.digamma_log_fixed(q + 1, q)
        assert hi - lo <= min(length + 1, 4), q


@pytest.mark.parametrize("q", [0, 1, 64, 144, 228, 528, 1092])
def test_em_head_is_the_least_head_whose_last_term_is_below_one_ulp(q):
    # the head harmonic_ends takes at scale q is q itself: the least head a whose
    # table-last term is below 2**-q at x = a + 1 is at most q, and digamma_log_fixed
    # keeps its width bound from that least head on
    # 228 and 1092 are the guard scales of enclose --n 1000000 at 160 and 1024 bits
    length = q // 8 + 2
    num, den = kernels.bernoulli_table(length)[-1]

    def below(x):  # the last term of the table at x is below 2**-q
        return abs(num) << q < den * x ** (2 * length)

    a = 0
    while not below(a + 1):
        a += 1
    assert a <= q and below(q + 1)
    lo, hi = kernels.digamma_log_fixed(a + 1, q)
    assert hi - lo <= min(length + 1, 4)


def harmonic_oracle(m, q):
    # H_m * 2**q, at 2q bits
    mp.mp.prec = 2 * q
    return mpf_to_fraction(mp.harmonic(m) * mp.mpf(2) ** q)


def head(q):
    return q + numerics.EM_GUARD_BITS


@settings(max_examples=25, deadline=None)
@given(m=st.one_of(st.integers(0, 3000), st.integers(0, 10**6)), q=st.integers(64, 512))
@example(m=head(64), q=64)  # the last direct sum
@example(m=head(64) + 1, q=64)  # the first tail
@example(m=head(160), q=160)
@example(m=head(160) + 1, q=160)
@example(m=head(512) + 1, q=512)
@example(m=10**6 - 2, q=212)  # enclose --n 1000000 --precision 160
def test_harmonic_ends_brackets_mpmath_and_meets_the_direct_sum(m, q):
    lo, hi = harmonic_ends(m, q)
    assert lo <= harmonic_oracle(m, q) <= hi
    d_lo, d_hi = kernels.harmonic_fixed(m, q)
    assert lo <= d_hi and d_lo <= hi
    a = head(q)
    if m <= a:
        assert (lo, hi) == (d_lo, d_hi)
    else:  # the bound harmonic_ends' docstring proves, with w = a
        assert hi - lo <= ((a + 10) >> numerics.EM_GUARD_BITS) + 2


@pytest.mark.parametrize("m,q", [(10**9, 100), (10**18, 300), (2**64 - 1, 212)])
def test_harmonic_ends_far_past_the_direct_sum(m, q):
    lo, hi = harmonic_ends(m, q)
    assert lo <= harmonic_oracle(m, q) <= hi
    assert hi - lo <= 2


# ---------------------------------------------------------------------------
# logarithms and square roots


def test_ln_one_is_exactly_zero():
    assert ln_fixed(1, 1, 64) == (0, 0, 64)


@pytest.mark.parametrize("x", [2, Fraction(3, 2), 10, Fraction(1, 7)])
def test_ln_real_matches_oracle(x):
    p = 128
    x = Fraction(x)
    mp.mp.prec = p + 120
    oracle = mpf_to_fraction(mp.ln(mp.mpf(x.numerator) / x.denominator))
    lo, hi = ln_bracket(x, p)
    # mpmath is correct to ~2^-240 here, far below the width
    slack = Fraction(1, 2 ** (p + 100))
    assert lo - slack <= oracle <= hi + slack
    assert hi - lo <= abs(oracle) * Fraction(2) ** (4 - p)


def test_ln_interval_contains_oracle_random():
    rng = random.Random(5)
    mp.mp.prec = 300
    for _ in range(30):
        x = random_fraction(rng)
        lo, hi = ln_bracket(x, 160)
        oracle = mpf_to_fraction(mp.ln(mp.mpf(x.numerator) / x.denominator))
        # mpmath is correct to ~2^-295 here, far below our width
        assert lo - Fraction(1, 2**250) <= oracle <= hi + Fraction(1, 2**250)


def test_ln_interval_near_one_keeps_relative_accuracy():
    x = 1 + Fraction(1, 10**9)
    lo, hi = ln_bracket(x, 96)
    mp.mp.prec = 400
    oracle = mpf_to_fraction(mp.ln(mp.mpf(1) + mp.mpf(10) ** -9))
    assert lo <= oracle <= hi
    assert hi - lo <= abs(oracle) * Fraction(2) ** -90


def test_ln_product_property():
    # ln(xy) and ln x + ln y are both enclosed, so the enclosures meet
    rng = random.Random(17)
    p = 96
    for _ in range(25):
        x = random_fraction(rng)
        y = random_fraction(rng)
        xy_lo, xy_hi = ln_bracket(x * y, p)
        x_lo, x_hi = ln_bracket(x, p)
        y_lo, y_hi = ln_bracket(y, p)
        assert xy_lo <= x_hi + y_hi and x_lo + y_lo <= xy_hi
        assert max(xy_hi - xy_lo, x_hi - x_lo, y_hi - y_lo) <= Fraction(2) ** (1 - p)


def test_ln_rejects_nonpositive():
    with pytest.raises(DomainError):
        ln_fixed(0, 1, 64)
    with pytest.raises(DomainError):
        ln_fixed(-3, 2, 64)
    with pytest.raises(DomainError):
        ln_fixed(-2, 1, 64)


def ln_direct(num, den, q):
    """The single-atanh route that `ln_fixed` took before its argument
    reduction, kept as its oracle: m = x / 2**e in [1, 2) and
    ln x = e ln 2 + 2 atanh((m - 1)/(m + 1)), a chain with ratio up to 1/3."""
    if num == den:
        return 0, 0, q
    if num < den:
        lo, hi, q_eff = ln_direct(den, num, q)
        return -hi, -lo, q_eff
    e = num.bit_length() - den.bit_length()
    if (den << e) > num:
        e -= 1
    shifted = den << e
    u = num - shifted
    w = num + shifted
    q_eff = q + q.bit_length() + 2
    if e == 0 and u:
        q_eff += max(0, w.bit_length() - u.bit_length())
    at_lo, at_hi = kernels.atanh_fixed(u, w, q_eff)
    lo = 2 * at_lo
    hi = 2 * at_hi
    if e:
        cq = (q_eff | 63) + 65
        l2_lo, l2_hi = kernels.ln2_fixed(cq)
        lo += e * (l2_lo >> (cq - q_eff))
        hi -= e * ((-l2_hi) >> (cq - q_eff))
    return lo, hi, q_eff


# n + b at n = 2999 for UPlus's b = -1/sqrt(6) at the lower end of sqrt(6)
# enclosed at q + 8 bits, q = 300: (n d + e)/d with d of about q bits, a long
# argument of the kind the walk's tails once took the logarithm of
_E, _D = Fraction(-(1 << 308), math.isqrt(6 << 616)).as_integer_ratio()
UPLUS_NUM, UPLUS_DEN = 2999 * _D + _E, _D
R = numerics._ANCHOR_BITS


@settings(max_examples=300, deadline=None)
@given(num=st.integers(1, 2**400), den=st.integers(1, 2**400), q=st.integers(32, 600))
@example(num=3, den=2, q=252)  # u = 0: the anchor 192/128 is the whole value
@example(num=2**20 - 1, den=1, q=252)  # j = 2**(R+1), u < 0
@example(num=1, den=7, q=128)  # x < 1
@example(num=10**9 + 1, den=10**9, q=96)  # near 1: e = 0 and j = 2**R
@example(num=UPLUS_NUM, den=UPLUS_DEN, q=300)  # a UPlus argument
def test_ln_fixed_matches_mpmath_and_the_direct_route(num, den, q):
    g = math.gcd(num, den)
    num, den = num // g, den // g
    lo, hi, q_eff = ln_fixed(num, den, q)
    d_lo, d_hi, d_q = ln_direct(num, den, q)
    assert q_eff == d_q
    assert lo <= d_hi and d_lo <= hi
    mp.mp.prec = 2 * q_eff + 64
    oracle = mpf_to_fraction(mp.ln(mp.mpf(num) / den)) * 2**q_eff
    assert lo <= oracle <= hi
    # the docstring's width: 2(d + 1) + e + 2, the chain stopping at an odd
    # d <= max(3, q_eff/(R + 2) + 2)
    big, small = max(num, den), min(num, den)
    e = big.bit_length() - small.bit_length()
    if (small << e) > big:
        e -= 1
    assert hi - lo <= 2 * (max(3, q_eff // (R + 2) + 2) + 1) + e + 2


def test_walk_logarithms_sum_the_reduced_chain(monkeypatch):
    # each logarithm of a walk sums one atanh chain of ratio <= 2**-(R+2); the
    # other calls build the cached ln 2 and anchor entries, at most 2**R + 2
    numerics._ln_anchor.cache_clear()
    numerics._ln2_fixed.cache_clear()
    calls = []
    atanh_fixed = kernels.atanh_fixed

    def counted(u, w, q):
        calls.append((sys._getframe(1).f_code.co_name, u, w))
        return atanh_fixed(u, w, q)

    monkeypatch.setattr(kernels, "atanh_fixed", counted)
    walk = Walk(GammaN(), 252)
    for n in range(3, 2001):
        walk(n)
    per_call = [(u, w) for name, u, w in calls if name not in ("_ln_anchor", "ln2_fixed")]
    assert len(calls) <= 2000 + 2**R + 2
    assert len(per_call) == 1998
    assert all(u << (R + 2) <= w for u, w in per_call)


def test_sqrt_interval_brackets_oracle():
    # the isqrt bracket that the oracles of chen's shift and of the sqrt(6)
    # variants are built from
    mp.mp.prec = 300
    for x in (2, 6, Fraction(24, 7)):
        lo, hi = sqrt_bracket(x, 128)
        oracle = mpf_to_fraction(mp.sqrt(mp.mpf(Fraction(x).numerator) / Fraction(x).denominator))
        assert lo <= oracle <= hi
        assert hi - lo == Fraction(1, 2**128)


# ---------------------------------------------------------------------------
# the reference enclosure


def euler_fraction(prec=700):
    mp.mp.prec = prec
    return mpf_to_fraction(mp.euler)


@pytest.mark.parametrize("p", [*range(32, 81), 128, 192, 256, 1024, 4096])
def test_gamma_reference_contract(p):
    enc = gamma_reference(p)
    lo, hi = dyadic_ends(*enc)
    assert hi - lo <= Fraction(2) ** (2 - p)
    assert lo < hi
    assert inside(enc, euler_fraction(max(700, 2 * p)))


@pytest.mark.parametrize("p", [64, 1024])  # a low and a ladder precision, one route
def test_gamma_reference_computes_one_logarithm(monkeypatch, p):
    calls = []
    ln_fixed = numerics.ln_fixed
    monkeypatch.setattr(numerics, "ln_fixed", lambda *args: calls.append(args) or ln_fixed(*args))
    gamma_reference.__wrapped__(p)
    assert len(calls) == 1


@pytest.mark.parametrize("p", [32, 64, 72])
def test_gamma_reference_sums_no_harmonic_terms(monkeypatch, p):
    # low precisions take the exponential-integral route too, not the O(N) s_N sum
    calls = []
    harmonic_fixed = kernels.harmonic_fixed
    monkeypatch.setattr(kernels, "harmonic_fixed",
                        lambda *args: calls.append(args) or harmonic_fixed(*args))
    gamma_reference.__wrapped__(p)
    assert calls == []


# SHA-256 of f"{lo:x},{hi:x},{q}" for gamma_reference(p), recorded with the
# series split exactly all the way up; no golden reaches 16384, whose decimal
# passes the 4,300-digit limit
GAMMA_REFERENCE_DIGESTS = {
    12288: "6cdd08a435d6ac37e34cc2a5d59c4016395b5d409744b6be0a9f61d121b305d3",
    16384: "3ff650f7dcbec9210f202679adbb961bbd8ec0779ca64d874424bca927b0988c",
}


@pytest.mark.parametrize("p", sorted(GAMMA_REFERENCE_DIGESTS))
def test_gamma_reference_at_the_ladder_top_is_pinned(p):
    lo, hi, q = gamma_reference(p)
    digest = hashlib.sha256(f"{lo:x},{hi:x},{q}".encode()).hexdigest()
    assert digest == GAMMA_REFERENCE_DIGESTS[p]


def test_gamma_reference_is_pinned_at_every_checked_precision():
    # one SHA-256 over f"{p}:{lo:x},{hi:x},{q};" at the 1,301 precisions the
    # kernel's folds have been checked at, recorded with the fold at one
    # uniform scale; any change to the kernel must leave every triple as it is
    precisions = [*range(32, 1200), *range(1200, 6000, 37), 8192, 12288, 16384]
    assert len(precisions) == 1301
    digest = hashlib.sha256()
    for p in precisions:
        lo, hi, q = gamma_reference.__wrapped__(p)
        digest.update(f"{p}:{lo:x},{hi:x},{q};".encode())
    assert digest.hexdigest() == "de068e6f8907073bca0a3965b995860df858018395a3d4ddff96d119cdf82531"


def test_gamma_reference_is_deterministic():
    a = gamma_reference.__wrapped__(128)
    b = gamma_reference.__wrapped__(128)
    assert a == b


def test_gamma_reference_nested_midpoints():
    pairs = [(32, 48), (48, 64), (64, 96), (64, 128), (96, 192), (128, 256)]
    for p1, p2 in pairs:
        mid = sum(dyadic_ends(*gamma_reference(p2))) / 2
        assert inside(gamma_reference(p1), mid)


def test_gamma_reference_leading_digits_at_64():
    lo, hi = dyadic_ends(*gamma_reference(64))
    assert GAMMA_DIGITS <= lo and hi < GAMMA_DIGITS + Fraction(1, 10**17)


def test_gamma_bootstrap_small_n():
    enc = gamma_bootstrap(10, 128)
    assert inside(enc, GAMMA_DIGITS)
    assert inside(enc, euler_fraction())
    # width 1/(60 n^4) plus slack
    lo, hi = dyadic_ends(*enc)
    assert hi - lo <= Fraction(1, 60 * 10**4) + Fraction(1, 2**100)


@pytest.mark.parametrize("n,p", [(10, 64), (10**6, 160), (10**7, 128), (10**12, 128)])
def test_gamma_bootstrap_never_calls_gamma_reference(monkeypatch, n, p):
    # the bootstrap is derived from s_n alone: gamma cancels in the tail's identity
    def refuse(*args):
        raise AssertionError("gamma_bootstrap called gamma_reference")

    monkeypatch.setattr(numerics, "gamma_reference", refuse)
    enc = gamma_bootstrap(n, p)
    assert inside(enc, euler_fraction())
    lo, hi = dyadic_ends(*enc)
    assert hi - lo <= Fraction(1, 60 * n**4) + Fraction(1, 2**p)


def test_gamma_bootstrap_rejects_small_n():
    with pytest.raises(DomainError):
        gamma_bootstrap(8, 64)


def test_gamma_reference_rejects_small_precision():
    with pytest.raises(DomainError):
        gamma_reference(16)


def test_enclosure_invariants(monkeypatch):
    # gamma_reference and gamma_bootstrap return integer ends through one order check
    assert numerics._gamma_ends(1, 2, 40) == (1, 2, 40)
    with pytest.raises(ValueError, match="out of order"):
        numerics._gamma_ends(3, 2, 40)
    checked = []
    gamma_ends = numerics._gamma_ends
    monkeypatch.setattr(numerics, "_gamma_ends",
                        lambda *args: checked.append(args) or gamma_ends(*args))
    encs = [gamma_bootstrap(10, 64), gamma_reference.__wrapped__(64),
            gamma_reference.__wrapped__(1024)]
    assert checked == encs
    for lo, hi, q in encs:
        assert type(lo) is int and type(hi) is int and 0 < lo < hi < 1 << q
