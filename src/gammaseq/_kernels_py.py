"""Pure-Python fixed-point kernels.

All kernels speak one protocol: a real value x is carried at integer
scale q as X ~ x * 2**q, and each kernel returns a pair of integers
(lo, hi) with lo <= x * 2**q <= hi.  Rounding is always directed
outward, so kernel outputs compose into rigorous enclosures no matter
how they are combined downstream.
"""


def _cdiv(a, b):
    # ceiling division for b > 0
    return -((-a) // b)


def harmonic_fixed(n, q, m=0):
    """Enclosure of (1/(m+1) + 1/(m+2) + ... + 1/n) * 2**q, H_n for m = 0.

    Each term contributes at most one ulp of slack, so hi - lo <= n - m;
    the pair for 1..m plus the pair for m+1..n is the pair for 1..n.
    """
    lo = 0
    hi = 0
    one = 1 << q
    for k in range(m + 1, n + 1):
        d, r = divmod(one, k)
        lo += d
        hi += d + (1 if r else 0)
    return lo, hi


def atanh_fixed(u, w, q):
    """Enclosure of atanh(u/w) * 2**q for integers 0 <= 2*u <= w.

    Sums t + t^3/3 + t^5/5 + ... with t = u/w, keeping the running
    power of t as a directed-rounded pair.  On exit the geometric tail
    is below 2 ulps (t <= 1/2 gives 1/(1 - t^2) <= 4/3), which is what
    the final widening accounts for.
    """
    if u == 0:
        return 0, 0
    if 2 * u > w:
        raise ValueError("atanh_fixed requires u/w <= 1/2")
    u2 = u * u
    w2 = w * w
    p_lo, r = divmod(u << q, w)
    p_hi = p_lo + (1 if r else 0)
    s_lo = p_lo
    s_hi = p_hi
    d = 3
    while True:
        p_lo = (p_lo * u2) // w2
        p_hi = _cdiv(p_hi * u2, w2)
        if p_hi < d:
            # tail <= (p_hi / d) * (4/3) * 2**-q < 2 ulps
            s_hi += 2
            return s_lo, s_hi
        s_lo += p_lo // d
        s_hi += _cdiv(p_hi, d)
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
