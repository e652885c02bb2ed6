"""Acceptance suite.

Each test exercises one end-to-end claim of the package at its full
stated strength (exact equalities where exact, certified interval
verdicts elsewhere), asserts the wall-clock budget, and prints one
PASS line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction

from conftest import dyadic_ends, split_at, swept, walk_ends
from gammaseq import bounds
from gammaseq.numerics import gamma_reference
from gammaseq.rates import empirical_rate, optimize_parameters
from gammaseq.polycert import (
    F_NUMERATOR_SHIFTED_COEFFS,
    G_NUMERATOR_SHIFTED_COEFFS,
    derivative_numerator,
    derivative_of_f,
    positivity_certificate,
)
from gammaseq.sequences import DeTempleR, GammaN, SOptimal, VFamily
from gammaseq.series import v_family_difference

F = Fraction


class budget:
    def __init__(self, seconds, label):
        self.limit = seconds
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS {self.label} [{self.elapsed:.2f}s / {self.limit}s]")
            assert self.elapsed < self.limit, (
                f"{self.label}: {self.elapsed:.2f}s exceeded {self.limit}s"
            )
        else:
            print(f"FAIL {self.label} [{self.elapsed:.2f}s]")


def test_criterion_1_symbolic_difference_expansion():
    with budget(1.0, "criterion 1: symbolic difference expansion"):
        # (ca, cb, c) means ca*a + cb*b + c
        d = v_family_difference(5)
        assert d.coeff(2) == (1, 0, F(-3, 2))
        assert d.coeff(3) == (1, 2, F(-2, 3))
        assert d.coeff(4) == (1, 0, F(-5, 4))
        assert d.coeff(5) == (1, 2, F(-4, 5))


def test_criterion_2_optimizer_exact():
    with budget(1.0, "criterion 2: optimizer"):
        result = optimize_parameters(5)
        assert result.a == F(3, 2)
        assert result.b == F(-5, 12)
        assert result.surviving_coeff == F(1, 4)
        assert result.rate.sequence_limit == F(1, 12)


def test_criterion_3_cubed_deviation_bracket():
    with budget(10.0, "criterion 3: n^3 (s_n - gamma) bracket at n = 100, 1000"):
        g_lo, g_hi = dyadic_ends(*gamma_reference(192))
        for n in (100, 1000):
            lo, hi = walk_ends(SOptimal(), n, 240)
            dev = (lo - g_hi, hi - g_lo)
            scaled = (dev[0] * n**3 - F(1, 12), dev[1] * n**3 - F(1, 12))
            assert F(11, 120 * n) < scaled[0]
            assert scaled[1] < F(13, 120 * n)


def test_criterion_4_theorem_sweep_to_10000():
    with budget(2.0, "criterion 4: bracket sweep n in [3, 10000] at p = 192"):
        entry = bounds.get_entry("theorem22")
        rows = swept(entry, 3, 10000, 192)
        counts = bounds.SweepReport(rows).counts
        assert counts[bounds.CERTIFIED_FALSE] == 0
        assert counts[bounds.UNDECIDED] == 0
        assert counts[bounds.CERTIFIED_TRUE] == 9998
        # every row from 9 on certifies both sides, 3..8 the lower side
        for row in rows:
            assert row.margin_lower is not None
            assert (row.margin_upper is not None) == (row.n >= 9)


def test_criterion_5_proof_artifacts_exact():
    with budget(1.0, "criterion 5: derivative identities and certificates"):
        # each derivative times 60 x^5 (x-1)^2 (x+1)^5
        assert derivative_of_f("f") == derivative_numerator("f")
        assert derivative_of_f("g") == -derivative_numerator("g")
        cert_p = positivity_certificate(derivative_numerator("f"), 1)
        assert cert_p.shifted_coeffs == F_NUMERATOR_SHIFTED_COEFFS == (
            160, 1200, 2348, 2055, 875, 150)
        cert_q = positivity_certificate(derivative_numerator("g"), 9)
        assert cert_q.shifted_coeffs == G_NUMERATOR_SHIFTED_COEFFS == (
            772064, 1725456, 802376, 164805, 17405, 930, 20)


def test_criterion_6_historical_catalog_to_2000():
    with budget(6.0, "criterion 6: all catalog entries over [n_min, 2000] at p = 128"):
        for entry in bounds.catalog():
            rows = swept(entry, entry.n_min, 2000, 128)
            report = bounds.SweepReport(rows)
            assert report.counts[bounds.CERTIFIED_TRUE] == len(rows), (
                entry.entry_id, report.counts)


def test_criterion_7_empirical_difference_orders():
    with budget(30.0, "criterion 7: empirical difference orders 2, 3, 4"):
        grid = [2**k for k in range(4, 11)]
        for kind, expected in ((GammaN(), 2), (DeTempleR(), 3), (SOptimal(), 4)):
            report = empirical_rate(kind, grid, 256)
            assert abs(report.difference_order - expected) <= 0.05, (
                type(kind).__name__, report.difference_order)


def test_criterion_8_enclosure_digits_and_width():
    with budget(5.0, "criterion 8: 64-bit enclosure width and digits"):
        lo, hi = dyadic_ends(*gamma_reference(64))
        assert hi - lo <= F(1, 2**62)
        digits = F("0.57721566490153286")
        # every point of the enclosure starts with the 17 digits above
        assert digits <= lo and hi < digits + F(1, 10**17)


def test_criterion_9_identity_suite():
    with budget(10.0, "criterion 9: error identity and optimal-sequence equality"):
        rng = random.Random(71)
        for _ in range(100):
            a = F(rng.randrange(-1000, 1000), rng.randrange(1, 100))
            b = F(rng.randrange(-1000, 1000), rng.randrange(1, 100))
            n = rng.randrange(2, 101)
            # the partial-fraction identity behind VFamily's deviation from gamma
            lhs = (F(a * n + b, n * (n - 1)) - F(1, n - 1) - F(1, n) + F(1, 2 * n)
                   - F(1, 12 * n * n))
            assert lhs == ((a - F(3, 2)) * n * n + (b + F(5, 12)) * n + F(1, 12)) / (
                n * n * (n - 1))
        optimal = VFamily(F(3, 2), F(-5, 12))
        for n in range(3, 2001):
            assert split_at(SOptimal(), n) == split_at(optimal, n)
