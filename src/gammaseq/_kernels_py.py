"""Pure-Python fixed-point kernels.

All kernels speak one protocol: a real value x is carried at integer
scale q as X ~ x * 2**q, and each kernel returns a pair of integers
(lo, hi) with lo <= x * 2**q <= hi.  A kernel computes one value and
widens it once by a proven bound: `harmonic_fixed` and `atanh_fixed` run
one floor chain, `digamma_log_fixed` sums the asymptotic series of
psi(x) - ln x in one floored Horner pass over coefficients floored once
per scale and widens by its remainder, whose sign is known, and
`gamma_series_fixed` sums its alternating series in
short blocks split exactly by binary splitting, then folds them in one
floored Horner pass, each block at the scale its own rounding needs.  So
kernel outputs compose into rigorous enclosures no matter how they are
combined downstream.
"""

import math
from functools import lru_cache


def harmonic_fixed(n, q, m=0):
    """Enclosure of (1/(m+1) + 1/(m+2) + ... + 1/n) * 2**q for 0 <= m <= n,
    H_n for m = 0.

    lo sums the floors of 2**q / k; each is low by less than one ulp, so
    hi = lo + n - m.  The pair for 1..m plus the pair for m+1..n is the
    pair for 1..n.
    """
    one = 1 << q
    lo = 0
    for k in range(m + 1, n + 1):
        lo += one // k
    return lo, lo + n - m


def atanh_fixed(u, w, q):
    """Enclosure of atanh(u/w) * 2**q for integers 0 <= 2*u <= w.

    Sums floor(p / d) over odd d, where p is t^d 2**q (t = u/w) carried
    as one floored chain, and stops at the first odd d >= 3 with p < d.
    As t^2 <= 1/4, each p is low by less than 1 + 1/4 + ... = 4/3 ulps,
    each summed term by less than 4/(3d) + (d-1)/d < 2, and the tail
    from d on is below (4/3)(d + 1/3)/d < 2.  So the (d - 1)/2 terms
    and the tail lose less than d + 1 ulps: hi = lo + d + 1.  For odd
    d >= q, p <= 2**(q-d) < d, so d <= max(3, q + 1) and
    hi - lo <= q + 3 for q >= 1.
    """
    if u == 0:
        return 0, 0
    if 2 * u > w:
        raise ValueError("atanh_fixed requires u/w <= 1/2")
    u2 = u * u
    w2 = w * w
    p = (u << q) // w
    s = p
    d = 3
    while True:
        p = (p * u2) // w2
        if p < d:
            return s, s + d + 1
        s += p // d
        d += 2


def ln2_fixed(q):
    """Enclosure of ln(2) * 2**q, via the Machin-like formula

        ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749),

    three `atanh_fixed` pairs combined outward.  A chain of ratio 1/w
    stops by the first odd d >= 3 with 2**q <= w**d, so its pair is
    d + 1 <= q / log2(w) + 4 wide, and with log2 26 > 4.7,
    log2 4801 > 12.2 and log2 8749 > 13 the pair here is
    hi - lo <= 18 (q/4.7 + 4) + 2 (q/12.2 + 4) + 8 (q/13 + 4) <= 5 q + 112.
    """
    lo1, hi1 = atanh_fixed(1, 26, q)
    lo2, hi2 = atanh_fixed(1, 4801, q)
    lo3, hi3 = atanh_fixed(1, 8749, q)
    return 18 * lo1 - 2 * hi2 + 8 * lo3, 18 * hi1 - 2 * lo2 + 8 * hi3


@lru_cache(maxsize=16)
def bernoulli_table(k):
    """B_2j / (2j) for j = 1 .. k as integer pairs (num, den), den > 0,
    from integers alone: B_2j / (2j) = (-1)**(j-1) T_j / (4**j (4**j - 1)),
    with the tangent numbers T_j (1, 2, 16, 272, ...; tan x is the sum of
    T_j x**(2j-1) / (2j-1)!) from the in-place recurrence of Brent &
    Harvey (2011, "Fast computation of Bernoulli, Tangent and Secant
    numbers", Algorithm TangentNumbers)."""
    t = [0, 1] + [0] * (k - 1)  # t[j] = T_j
    for j in range(2, k + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return tuple(((-1) ** (j - 1) * t[j], 4**j * (4**j - 1)) for j in range(1, k + 1))


@lru_cache(maxsize=16)
def _bernoulli_fixed(q):
    """`bernoulli_table`(L), L = q // 8 + 2, with C_k = floor(B_2k / (2k) * 2**q)
    and |C_k| + 1 for k = 1 .. L."""
    table = bernoulli_table(q // 8 + 2)
    c = tuple((num << q) // den for num, den in table)
    return table, c, tuple(abs(c_k) + 1 for c_k in c)


@lru_cache(maxsize=1024)
def _term_range(q, bits):
    """(k_lo, k_hi, sure) for every x of `bits` bits at scale q: no k < k_lo
    passes the test |C_k| + 1 <= x**2k, and k_hi passes it if sure; if no k
    is sure to, k_hi is L, the table's end.  |C_k| + 1 < 2**m exactly when
    m >= its bit length, and 2**(2k (bits - 1)) <= x**2k < 2**(2k bits), so
    k passes for every such x once 2k (bits - 1) reaches that bit length,
    and for none while 2k bits does not."""
    lengths = [m.bit_length() for m in _bernoulli_fixed(q)[2]]
    k_lo = next((k for k, m in enumerate(lengths, 1) if m <= 2 * k * bits), len(lengths))
    k_hi = next((k for k, m in enumerate(lengths, 1) if m <= 2 * k * (bits - 1)), None)
    if k_hi is None:
        return k_lo, len(lengths), False
    return min(k_lo, k_hi), k_hi, True


def digamma_log_fixed(x, q):
    """Enclosure of (psi(x) - ln x) * 2**q for an integer x >= 1.

    For real x > 0 and any K >= 1,

        psi(x) - ln x = -1/(2x) - sum_{k<K} B_2k / (2k x**2k) + R_K(x),

    where R_K has the sign of the first omitted term, -B_2K / (2K x**2K),
    and a smaller magnitude (DLMF 5.11.2 and 5.11(ii)).  With
    C_k = floor(B_2k / (2k) * 2**q) for k <= L = q // 8 + 2, where
    `bernoulli_table`(L) ends, K is the least k with |C_k| + 1 <= x**2k,
    or L if none passes: `_term_range` narrows it by bit lengths, once per
    q and bit length of x, and the exact test decides within the range.
    Then |B_2K / (2K)| 2**q < |C_K| + 1, so |R_K| 2**q < t with
    t = ceil((|C_K| + 1) / x**2K), which is 1 when K passes.

    The sum T = sum_{k<K} B_2k / (2k) 2**q / x**2k is one Horner pass,
    v = floor((v + C_k) / x**2) from k = K - 1 down to 1 (v = 0 for K = 1).
    Each C_k is low by less than one, and so is each floor; the floor at
    step k and C_k reach T divided by x**(2k - 2) and x**2k, so for x >= 2
    T - v < 1 + 2/(x**2 - 1) and T lies in [v, v + 2).  With
    h = floor(2**q / (2x)), low by at most 1 - 1/(2x) since 2**q / (2x) is
    a multiple of 1/(2x), the two losses sum to less than 2 for x >= 5
    (4x <= x**2 - 1), so

        -h - v - 2 < (psi(x) - ln x) * 2**q - R_K 2**q <= -h - v,

    and R_K widens the side of its own sign by t ulps.  So for x >= 5 the
    pair is 2 + t ulps wide: 3 wherever some k <= L passes, and at most 4
    from x = q + 1 on, where t <= 2: there the last term of the table is
    below one ulp, so |C_L| <= x**2L.  (|B_2k| = 2 (2k)! zeta(2k) / (2 pi)**2k
    (DLMF 25.6.2), zeta(2k) < 2 and (2k)! < (2k)**2k, so the k-th term is
    below (2/k) (k / (pi x))**2k; for q >= 26, k = L and x >= q + 1,
    k / (pi x) <= (q + 16) / (8 pi (q + 1)) <= 1/16 and 2k >= (q + 9)/4,
    so it is below 2**-(q + 9); for q <= 25 the tests check the exact terms
    at x = q + 1, and terms fall as x grows.)  Below x = 5 the K - 1 terms
    are summed exactly, so the pair is at most 1 + t ulps wide.  The pass
    costs O(K) divisions by x**2, one limb while x < 2**15, and K falls as
    x grows: about q / (2 log2 x).
    """
    if x < 1:
        raise ValueError("digamma_log_fixed requires x >= 1")
    table, c, bound = _bernoulli_fixed(q)
    x2 = x * x
    k, k_hi, sure = _term_range(q, x.bit_length())
    if k < k_hi:  # the bit lengths leave k_lo .. k_hi - 1 to the exact test
        power = x2**k
        while bound[k - 1] > power:
            k += 1
            power *= x2
            if k == k_hi:
                break
        else:
            sure = True
    t = 1 if sure else -(-bound[k - 1] // x2**k)
    if x >= 5:
        v = 0
        for c_k in c[k - 2::-1] if k > 1 else ():
            v = (v + c_k) // x2
        hi = -((1 << q) // (2 * x)) - v
        lo = hi - 2
    else:  # 1/(2x) + sum_{j<K} B_2j / (2j x**2j) = num / den exactly
        num, den = 1, 2 * x
        for j, (b_num, b_den) in enumerate(table[:k - 1], 1):
            num, den = num * b_den * x2**j + b_num * den, den * b_den * x2**j
        lo, hi = (-num << q) // den, -((num << q) // den)
    if table[k - 1][0] > 0:  # R_K has the sign of -B_2K
        return lo - t, hi
    return lo, hi + t


def _series_split(a, b, x):
    """(P, Q, T) for the terms a <= k < b of S(x), 1 <= a < b.

    P = (-x)**(b - a), Q = a (a + 1) ... (b - 1) and T is the integer with
    T / Q**2 = sum_{a <= k < b} (-x)**(k - a + 1) / ((a ... k) k).  Halves
    [a, m) and [m, b) combine as P = P1 P2, Q = Q1 Q2 and
    T = T1 Q2**2 + P1 Q1 T2; a range of at most 16 terms is summed in a
    loop by the same rule, one term (-x, k, -x) at a time.  For a = 1 the
    sum is -S_(b-1)(x), where S_K(x) is the sum of the first K terms of S(x).
    """
    if b - a <= 16:
        p, den, t = -x, a, -x
        for k in range(a + 1, b):
            t = t * k * k - p * den * x
            p *= -x
            den *= k
        return p, den, t
    m = (a + b) // 2
    p1, q1, t1 = _series_split(a, m, x)
    p2, q2, t2 = _series_split(m, b, x)
    return p1 * p2, q1 * q2, t1 * (q2 * q2) + p1 * q1 * t2


_LN2 = math.log(2)
_LN_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _series_terms(x, q):
    """The least K >= x with x**(K+1) 2**q < (K+1) (K+1)!, so that the
    first omitted term of S(x), x**(K+1) / ((K+1) (K+1)!), is below 2**-q.
    The terms decrease from k = x on, so the test holds from K on.

    With j = K + 1, Stirling's bounds j! = sqrt(2 pi j) (j/e)**j e**theta,
    0 < theta < 1/(12 j), give ln(x**j 2**q / (j j!)) = G(j) - theta with

        G(j) = j (ln(x/j) + 1) + q ln 2 - 1.5 ln j - ln sqrt(2 pi).

    For j > x + 1, G is concave (G'' = -1/j + 1.5/j**2) and decreasing
    (G' = ln(x/j) - 1.5/j), and G(e**2 x + q) < -(e**2 x + q) + q ln 2 < 0,
    so Newton's method from there stays at or above the root of G.  Its
    estimate of K is then confirmed, or moved by single steps, with the
    test itself: G in floats, with libm's log within an ulp, errs by far
    less than slack = 2**-30 (j (2 ln j + 1) + q + 8), so G(j) < -slack
    says the term is below 1 and G(j) - 1/(12 j) > slack that it is not;
    in between, rarely, the exact integers decide.
    """

    def g(j):
        return j * (math.log(x / j) + 1) + q * _LN2 - 1.5 * math.log(j) - _LN_SQRT_2PI

    def passes(k):  # x**(k+1) 2**q < (k+1) (k+1)!
        j = k + 1
        g_j = g(j)
        slack = (j * (2 * math.log(j) + 1) + q + 8) * 2.0**-30
        if g_j < -slack:
            return True
        if g_j - 1 / (12 * j) > slack:
            return False
        return x**j << q < j * math.factorial(j)

    j = math.e**2 * x + q
    while j > x + 1:
        step = g(j) / (math.log(x / j) - 1.5 / j)  # > 0 right of the root
        j -= step
        if step < 1:
            break
    k = max(x, math.ceil(j) - 1)
    while k > x and passes(k - 1):
        k -= 1
    while not passes(k):
        k += 1
    return k


def _blocks(x, q):
    """(P_i, Q_i, T_i, s_i) for `gamma_series_fixed`'s blocks, last to first.

    The first K terms, K from `_series_terms`, are cut into blocks
    [a_i, a_(i+1)) of L = s // (8 bitlen(K)) terms, 1 = a_0 < ... < a_nb = K + 1,
    where s = q + 64 + h and h = ceil(x 14427 / 10000) > x log2(e), so each
    Q_i = a_i ... (a_(i+1) - 1) has at most s/8 bits; `_series_split` gives
    (P_i, Q_i, T_i) exactly.  Block i's floor reaches the sum multiplied by
    W_i = |P_0 ... P_(i-1)| / (Q_0 ... Q_(i-1)) = x**(a_i - 1) / (a_i - 1)!,
    so it is folded at s_i = q + 64 + bitlen(nb) + lw_i with lw_i >= log2 W_i:
    `_series_terms` stops at x**K / K! < (K + 1)**2 2**-q, so
    lw_nb = 2 bitlen(K + 1) - q, and W_i = W_(i+1) Q_i / |P_i|, so lw_i is
    lw_(i+1) less bitlen(P_i) - 1 - bitlen(Q_i).  Each W_i 2**-s_i is then at
    most 2**-(q + 64 + bitlen(nb)), and the nb of them sum to less than
    2**-(q + 64).  W falls past k = x, and K is the least K >= x that passes
    `_series_terms`' test, so W_i >= x**K / K! >= 2**-q and every
    s_i >= 64 + bitlen(nb).  Only the blocks near k = x, where the terms
    reach about e**x / x < 2**h, are folded near s.
    """
    k = _series_terms(x, q)
    h = -(-x * 14427 // 10000)
    step = max(1, (q + 64 + h) // (8 * k.bit_length()))
    starts = range(1, k + 1, step)
    g = q + 64 + len(starts).bit_length()
    lw = 2 * (k + 1).bit_length() - q
    for a in reversed(starts):
        p, den, t = _series_split(a, min(a + step, k + 1), x)
        lw -= p.bit_length() - 1 - den.bit_length()
        yield p, den, t, g + lw


def gamma_series_fixed(x, q):
    """Enclosure of S(x) * 2**q where S(x) = sum_{k>=1} (-1)^(k+1) x^k / (k k!).

    Requires integer x >= 1.  `_blocks` gives the first K terms as nb exact
    blocks (P_i, Q_i, T_i), and the combine rule of `_series_split` gives
    -S_K(x) = c_0, where c_i = T_i / Q_i**2 + (P_i / Q_i) c_(i+1) and c_nb = 0.
    One Horner pass from the last block to the first carries c_i at block
    i's own scale 2**s_i and rounds each step down once: A_nb = 0 and
    A_i = floor((T_i 2**s_i + P_i Q_i A_(i+1) 2**(s_i - s_(i+1))) / Q_i**2),
    a negative shift dividing inside the same floor.  So every operand has
    O(s) bits, not the 2 K log2(K) bits of Q**2 over all K terms.  Three
    errors remain:

    - Rounding.  E_i = A_i - c_i 2**s_i obeys
      E_i 2**-s_i = (P_i / Q_i) E_(i+1) 2**-s_(i+1) - d_i 2**-s_i with
      0 <= d_i < 1, so |E_0| 2**-s_0 < sum_i W_i 2**-s_i < 2**-(q + 64),
      with W_i and the bound from `_blocks`.
    - Scaling.  W_0 = 1, so s_0 >= q + 64, and f = floor(-A_0 / 2**(s_0 - q))
      is the floor of S_K 2**q - E_0 2**(q - s_0), where
      |E_0 2**(q - s_0)| < 2**-64, so S_K(x) * 2**q is in (f - 1, f + 2).
    - Tail.  For k >= x, t_(k+1) / t_k = x k / (k+1)**2 < 1, where
      t_k = x^k / (k k!), so from K + 1 > x on the terms decrease to 0
      and alternate: |S(x) - S_K(x)| < t_(K+1) < 2**-q by the choice of K.

    So S(x) * 2**q is in (f - 2, f + 3), and hi - lo = 5.
    """
    if x < 1:
        raise ValueError("gamma_series_fixed requires x >= 1")
    acc = s = 0
    for p, den, t, s_i in _blocks(x, q):
        num = (t << s) + p * den * acc
        acc = (num << s_i - s if s_i >= s else num >> s - s_i) // (den * den)
        s = s_i
    f = -acc >> (s - q)
    return f - 2, f + 3
