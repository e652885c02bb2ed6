"""Cross-module invariants that tie the certified pieces together."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from conftest import dyadic_ends, split_at, walk_ends
from gammaseq import _kernels_py as kernels, numerics
from gammaseq.numerics import gamma_reference, harmonic_exact
from gammaseq.polycert import Polynomial
from gammaseq.sequences import SOptimal, VFamily

F = Fraction


def test_harmonic_interval_brackets_every_n_to_10000():
    # the kernel pair, advanced one term at a time as the walk does,
    # brackets the exact harmonic number at every n <= 10^4
    q = 64 + 32 + 14  # p = 64 plus the guard bits and bitlen(10^4)
    one = 1 << q
    lo = hi = 0
    num, den = 0, 1  # running exact harmonic number, reduced lazily
    for n in range(1, 10001):
        d_lo, d_hi = kernels.harmonic_fixed(n, q, n - 1)
        lo += d_lo
        hi += d_hi
        num = num * n + den
        den *= n
        if n % 512 == 0 or n <= 64:
            h = F(num, den)
            assert F(lo, one) <= h <= F(hi, one)
            assert hi - lo <= n
            g = F(num, den)  # reduce to keep the running pair small
            num, den = g.numerator, g.denominator


def test_optimal_sequence_bracket_midpoints_to_2000():
    # n^3 (s_n - gamma) stays inside (1/12 + 11/(120 n), 1/12 + 13/(120 n));
    # widths are forced far below the bracket gap before trusting midpoints
    g_lo, g_hi = dyadic_ends(*gamma_reference(192))
    gamma_mid = (g_lo + g_hi) / 2
    for n in range(9, 2001):
        lo, hi = walk_ends(SOptimal(), n, 240)
        gap = F(1, 60 * n**4)
        assert g_hi - g_lo < gap / 1000
        assert (hi - lo) < gap / 1000
        scaled = ((lo + hi) / 2 - gamma_mid) * n**3
        assert F(1, 12) + F(11, 120 * n) < scaled < F(1, 12) + F(13, 120 * n)


def test_v_family_at_gamma_parameters_splits_to_2000():
    kind = VFamily(F(2), F(-1))
    for n in range(3, 2001):
        c, x = split_at(kind, n)
        assert harmonic_exact(n - 1) + c == harmonic_exact(n)
        assert x == n


def test_concurrent_use_is_consistent():
    # pure functions plus three caches (gamma_reference's lru_cache, and the
    # lru_caches of ln 2 and of the anchors ln(j/2**R) per 64-bit scale behind
    # ln_fixed): hammer them and the exact harmonic sum from several threads,
    # the ln caches empty at the start so their entries are built concurrently,
    # and compare against fresh sequential values.  n in [1024, 2048) at two
    # scales reaches all 2**R + 1 anchors j = round(n / 8) at each.
    def logs(seed):
        return [numerics.ln_fixed(n, 1, q)
                for n in range(1024 + seed, 2048, 24) for q in (96, 320)]

    def work(seed):
        n = 37 + 13 * seed
        return (
            harmonic_exact(n),
            gamma_reference(64 + 8 * (seed % 3)),
            logs(seed),
        )

    numerics._ln_anchor.cache_clear()
    numerics._ln2_fixed.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the cache builds too
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(24), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    numerics._ln_anchor.cache_clear()
    numerics._ln2_fixed.cache_clear()
    for seed, (h, g, ln) in enumerate(results):
        n = 37 + 13 * seed
        fresh = sum((F(1, k) for k in range(1, n + 1)), F(0))
        assert h == fresh
        assert g == gamma_reference(64 + 8 * (seed % 3))
        assert ln == logs(seed)


@pytest.mark.parametrize("a, b", [
    (Polynomial((3,)), 3),
    (Polynomial(()), 0),
], ids=["polynomial-const", "polynomial-zero"])
def test_equal_values_hash_equal(a, b):
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
