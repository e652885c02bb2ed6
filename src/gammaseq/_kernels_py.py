"""Pure-Python fixed-point kernels.

All kernels speak one protocol: a real value x is carried at integer
scale q as X ~ x * 2**q, and each kernel returns a pair of integers
(lo, hi) with lo <= x * 2**q <= hi.  A kernel runs one floor chain for
lo, widened once by a counted bound for hi (`gamma_series_fixed`, whose
signs alternate, keeps a floor and a ceiling chain), so kernel outputs
compose into rigorous enclosures no matter how they are combined
downstream.
"""


def _cdiv(a, b):
    # ceiling division for b > 0
    return -((-a) // b)


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
    """Enclosure of ln(2) * 2**q, via ln 2 = 2 atanh(1/3)."""
    lo, hi = atanh_fixed(1, 3, q)
    return 2 * lo, 2 * hi


def gamma_series_fixed(x, q):
    """Enclosure of S(x) * 2**q where S(x) = sum_{k>=1} (-1)^(k+1) x^k / (k k!).

    Requires integer x >= 1.  Terms are generated by the recurrence
    t_k = t_{k-1} * x / k and decrease monotonically once k >= x, so
    the alternating tail after stopping is below the first omitted
    term; the stopping test makes that term smaller than one ulp and
    the final widening of 2 ulps covers it together with its own
    rounding.
    """
    if x < 1:
        raise ValueError("gamma_series_fixed requires x >= 1")
    t_lo = 1 << q
    t_hi = t_lo
    s_lo = 0
    s_hi = 0
    k = 1
    while True:
        t_lo = (t_lo * x) // k
        t_hi = _cdiv(t_hi * x, k)
        if k & 1:
            s_lo += t_lo // k
            s_hi += _cdiv(t_hi, k)
        else:
            s_lo -= _cdiv(t_hi, k)
            s_hi -= t_lo // k
        if k >= x and t_hi * x < (k + 1) * (k + 1):
            return s_lo - 2, s_hi + 2
        k += 1
