"""Kernel contracts: every (lo, hi) pair brackets the true value."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gammaseq._kernels_py as kernels_py
from conftest import mpf_to_fraction


@pytest.fixture(scope="module", params=[kernels_py], ids=["python"])
def kernels(request):
    # one kernel module; the "python" id keeps the test ids stable
    return request.param


def brute_harmonic(n):
    num, den = 0, 1
    for k in range(1, n + 1):
        num = num * k + den
        den *= k
    return Fraction(num, den)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 97, 1000])
@pytest.mark.parametrize("q", [64, 160])
def test_harmonic_fixed_brackets_exact_value(kernels, n, q):
    lo, hi = kernels.harmonic_fixed(n, q)
    target = brute_harmonic(n) * 2**q
    assert lo <= target <= hi
    assert hi - lo <= n


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), q=st.integers(0, 200))
def test_harmonic_fixed_brackets_exact_value_property(kernels, n, q):
    lo, hi = kernels.harmonic_fixed(n, q)
    target = brute_harmonic(n) * 2**q
    assert lo <= target <= hi
    assert hi - lo == n


@settings(max_examples=100, deadline=None)
@given(m=st.integers(0, 300), extra=st.integers(0, 300), q=st.integers(0, 200))
def test_harmonic_fixed_start_index_continues_the_sum(kernels, m, extra, q):
    # the pair for terms m+1..n added to the pair for 1..m is the pair for 1..n
    n = m + extra
    head = kernels.harmonic_fixed(m, q)
    tail = kernels.harmonic_fixed(n, q, m)
    assert (head[0] + tail[0], head[1] + tail[1]) == kernels.harmonic_fixed(n, q)
    target = (brute_harmonic(n) - brute_harmonic(m)) * 2**q
    assert tail[0] <= target <= tail[1]
    assert tail[1] - tail[0] == extra


@st.composite
def atanh_args(draw):
    w = draw(st.integers(2, 10**6))
    u = draw(st.integers(0, w // 2))
    q = draw(st.integers(1, 256))
    return u, w, q


@settings(max_examples=200, deadline=None)
@given(args=atanh_args())
@example(args=(0, 7, 64))  # u = 0
@example(args=(5, 10, 64))  # 2u = w
@example(args=(1, 2, 1))  # 2u = w at the smallest scale
@example(args=(999_999, 1_999_998, 2))  # small q, large operands
def test_atanh_fixed_brackets_oracle(kernels, args):
    u, w, q = args
    mp.mp.prec = 400
    lo, hi = kernels.atanh_fixed(u, w, q)
    oracle = mpf_to_fraction(mp.atanh(mp.mpf(u) / w)) * 2**q
    assert lo <= oracle <= hi
    assert hi - lo <= q + 3  # the bound atanh_fixed's docstring proves


def test_atanh_fixed_rejects_large_ratio(kernels):
    with pytest.raises(ValueError):
        kernels.atanh_fixed(2, 3, 64)


def test_ln2_fixed_brackets_oracle(kernels):
    # 16576 is the wide scale of ln_fixed at gamma_reference(16384)
    for q in (0, 1, 64, 128, 333, 16576):
        mp.mp.prec = q + 128
        oracle = mpf_to_fraction(mp.ln(2))
        lo, hi = kernels.ln2_fixed(q)
        assert lo <= oracle * 2**q <= hi
        assert hi - lo <= 5 * q + 112  # the bound ln2_fixed's docstring proves


def bernoulli_fractions(n):
    """B_0 .. B_n as Fractions, from sum_{j <= m} C(m + 1, j) B_j = 0 for m >= 1,
    kept as the oracle of the tangent-number table."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_bernoulli_table_matches_the_recurrence_and_mpmath(kernels):
    table = kernels.bernoulli_table(64)
    assert len(table) == 64
    assert kernels.bernoulli_table(5) == table[:5]  # each length is a prefix of the longer
    b = bernoulli_fractions(128)
    mp.mp.prec = 600
    for k, (num, den) in enumerate(table, 1):
        assert den > 0
        assert Fraction(num, den) == b[2 * k] / (2 * k)
        # mpmath rounds B_2k to its working precision
        assert abs(mpf_to_fraction(mp.bernoulli(2 * k)) - b[2 * k]) <= abs(b[2 * k]) / 2**598


def digamma_log_oracle(x, q):
    # (psi(x) - ln x) * 2**q, with 80 bits more than the scale
    mp.mp.prec = q + x.bit_length() + 80
    return mpf_to_fraction((mp.digamma(x) - mp.ln(x)) * mp.mpf(2) ** q)


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.integers(1, 300), st.integers(1, 10**15)), q=st.integers(0, 600))
@example(x=1, q=64)  # psi(1) = -gamma, far below the series' reach
@example(x=5, q=128)  # the table ends with a remainder of many ulps
@example(x=229, q=228)  # x = q + 1, where the table's last term is below one ulp
def test_digamma_log_fixed_brackets_oracle(kernels, x, q):
    lo, hi = kernels.digamma_log_fixed(x, q)
    assert lo <= digamma_log_oracle(x, q) <= hi
    length = q // 8 + 2  # the table the kernel reads at q
    table = kernels.bernoulli_table(length)
    num, den = table[-1]
    if abs(num) << q < den * x ** (2 * length):
        # the last term of the table is below one ulp at x: once at most
        # length + 1 ulps wide, now at most 4
        assert hi - lo <= min(length + 1, 4)
    if any(abs((b_num << q) // b_den) + 1 <= x ** (2 * k)
           for k, (b_num, b_den) in enumerate(table, 1)):
        # a floored term is below one ulp, so the remainder is: 3 ulps wide
        assert hi - lo <= 3


def test_digamma_log_fixed_rejects_nonpositive(kernels):
    with pytest.raises(ValueError):
        kernels.digamma_log_fixed(0, 64)


def test_gamma_series_fixed_brackets_oracle(kernels):
    # the alternating sum equals euler + ln x + E1(x); at 500 and 2843 its
    # terms reach about 2**712 and 2**4090 and the kernel folds 124 and 186
    # blocks, and 2843 is the x of gamma_reference(4096)
    mp.mp.prec = 700
    q = 400
    for x in (1, 5, 40, 92, 500, 2843):
        lo, hi = kernels.gamma_series_fixed(x, q)
        oracle = mpf_to_fraction(mp.euler + mp.ln(x) + mp.e1(x)) * 2**q
        assert lo <= oracle <= hi
        assert hi - lo == 5  # the width gamma_series_fixed's docstring proves


@settings(max_examples=100, deadline=None)
@given(x=st.integers(1, 60), q=st.integers(1, 300))
def test_gamma_series_fixed_brackets_oracle_property(kernels, x, q):
    mp.mp.prec = 700
    lo, hi = kernels.gamma_series_fixed(x, q)
    oracle = mpf_to_fraction(mp.euler + mp.ln(x) + mp.e1(x)) * 2**q
    assert lo <= oracle <= hi
    assert hi - lo == 5


@pytest.mark.parametrize("x", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("a,b", [(1, 2), (1, 9), (3, 11), (1, 17), (4, 21), (1, 30), (2, 35)])
def test_series_split_is_the_exact_partial_sum(kernels, x, a, b):
    p, q, t = kernels._series_split(a, b, x)
    assert p == (-x) ** (b - a)
    assert q == math.prod(range(a, b))
    assert Fraction(t, q * q) == sum(
        Fraction((-x) ** (k - a + 1), math.prod(range(a, k + 1)) * k) for k in range(a, b))


@settings(max_examples=100, deadline=None)
@given(x=st.integers(1, 40), q=st.integers(0, 200))
@example(x=1, q=2)  # x^(K+1) 2^q = (K+1)(K+1)! at K = 1, so K = 2
def test_gamma_series_fixed_encloses_the_exact_partial_sum(kernels, x, q):
    # K is the first K >= x with x^(K+1) 2^q < (K+1)(K+1)!, and the docstring
    # puts S_K(x) 2^q strictly inside (lo + 1, hi - 1)
    k = x
    while x ** (k + 1) << q >= (k + 1) * math.factorial(k + 1):
        k += 1
    assert kernels._series_terms(x, q) == k
    partial = sum(Fraction((-1) ** (j + 1) * x**j, j * math.factorial(j))
                  for j in range(1, k + 1))
    lo, hi = kernels.gamma_series_fixed(x, q)
    assert lo + 1 < partial * 2**q < hi - 1


def _stepped_terms(x, q):
    """K as the kernel once found it, kept as an oracle: an upper bound
    m 2**e on x**k 2**q / k!, rounded up to 64 bits at each k = 1, 2, ...,
    until k >= x and m 2**e x < (k + 1)**2."""
    m, e, k = 1 << 63, q - 63, 0
    while True:
        k += 1
        m = -(-m * x // k)
        s = m.bit_length() - 64
        m = -(-m >> s) if s >= 0 else m << -s
        e += s
        if k >= x and e < 0 and m * x < (k + 1) ** 2 << -e:
            return k


# a spread of the precisions gamma_reference was checked at (32..1199, then
# 1200..5999 in steps of 37, and the ladder's 8192, 12288 and 16384)
_REFERENCE_PRECISIONS = [*range(32, 1200, 97), *range(1200, 6000, 37 * 11), 8192, 12288, 16384]


@pytest.mark.parametrize("p", _REFERENCE_PRECISIONS)
def test_series_terms_match_the_stepped_search(kernels, p):
    # the (x, q) that gamma_reference(p) passes to gamma_series_fixed
    x, q = (p + 3) * 10000 // 14426 + 2, p + 80
    assert kernels._series_terms(x, q) == _stepped_terms(x, q)


@pytest.mark.parametrize("x,q", [(2843, 4176), (11361, 16464)])
def test_series_terms_is_the_least_k_at_large_x(kernels, x, q):
    # gamma_reference(4096) and gamma_reference(16384)
    k = kernels._series_terms(x, q)
    below = (k + 1) * math.factorial(k + 1)
    assert x ** (k + 1) << q < below  # the term at K is below 2**-q
    assert x**k << q >= below // (k + 1) ** 2  # and the one before is not


def assert_encloses_the_exact_split(kernels, x, q):
    # the one-division route as the oracle: one split of all K terms gives
    # S_K(x) = -T / Q**2 exactly, which must lie strictly inside (lo + 1, hi - 1)
    lo, hi = kernels.gamma_series_fixed(x, q)
    _, den, t = kernels._series_split(1, kernels._series_terms(x, q) + 1, x)
    den *= den
    assert (lo + 1) * den < -t << q < (hi - 1) * den
    assert hi - lo == 5


@settings(max_examples=100, deadline=None)
@given(x=st.integers(1, 400), q=st.integers(0, 1500))
@example(x=400, q=1500)  # 79 blocks of 24 terms, terms up to about 2**568
@example(x=1, q=0)  # one block
def test_gamma_series_fixed_encloses_the_exact_split(kernels, x, q):
    assert_encloses_the_exact_split(kernels, x, q)


@pytest.mark.parametrize("x,q", [(8522, 12368), (11361, 16464)])
def test_gamma_series_fixed_encloses_the_exact_split_at_the_ladder_top(kernels, x, q):
    # the (x, q) that gamma_reference(12288) and gamma_reference(16384) pass
    assert_encloses_the_exact_split(kernels, x, q)


def assert_blocks_keep_the_error_budget(kernels, x, q):
    # W_i = |P_0 ... P_(i-1)| / (Q_0 ... Q_(i-1)) exactly, and the sum of the
    # ceilings of W_i 2**(m - s_i) bounds sum_i W_i 2**-s_i from above at
    # scale 2**-m; the blocks must cover the K terms, so that the products
    # end at x**K and K!
    blocks = list(kernels._blocks(x, q))[::-1]
    least = 64 + len(blocks).bit_length()
    m = q + 64 + least
    num, den, total = 1, 1, 0
    for p, d, _, s in blocks:
        assert s >= least
        total -= (-num << max(0, m - s)) // (den << max(0, s - m))
        num *= abs(p)
        den *= d
    k = kernels._series_terms(x, q)
    assert (num, den) == (x**k, math.factorial(k))
    assert total < 1 << (m - q - 64)
    return [s for *_, s in blocks]


@settings(max_examples=100, deadline=None)
@given(x=st.integers(1, 400), q=st.integers(0, 1500))
@example(x=400, q=1500)
@example(x=1, q=0)
def test_blocks_keep_the_error_budget(kernels, x, q):
    assert_blocks_keep_the_error_budget(kernels, x, q)


@pytest.mark.parametrize("x,q", [(2843, 4176), (8522, 12368), (11361, 16464)])
def test_blocks_keep_the_error_budget_at_the_ladder(kernels, x, q):
    # the (x, q) that gamma_reference(4096), (12288) and (16384) pass
    assert_blocks_keep_the_error_budget(kernels, x, q)


def test_blocks_fold_well_below_the_uniform_scale(kernels):
    # cost gate: at gamma_reference(4096)'s (x, q) the mean block scale is
    # about 0.71 of s = q + 64 + h, the one scale every block once took
    x, q = 2843, 4176
    scales = assert_blocks_keep_the_error_budget(kernels, x, q)
    assert sum(scales) <= 0.75 * len(scales) * (q + 64 + -(-x * 14427 // 10000))


def test_gamma_series_fixed_rejects_nonpositive(kernels):
    with pytest.raises(ValueError):
        kernels.gamma_series_fixed(0, 64)
