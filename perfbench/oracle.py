"""Independent checks of gammaseq CLI output.

Nothing here imports gammaseq.  Real values are recomputed with mpmath
at twice the command's working precision; exact values (rational bound
sides, the rational parts of ``eval``) are rebuilt as Fractions from
the formulas as published.  Which rows are sampled is drawn from the
benchmark's seed.

Printed decimals are rounded half-up today, so every containment test
allows one unit in the last printed digit; the tests keep holding once
the rounding becomes outward.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

import mpmath

F = Fraction
SAMPLED_ROWS = 24


def option(args: list[str], flag: str, default=None):
    for i, arg in enumerate(args):
        if arg == flag:
            return args[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return default


def parse_rows(args: list[str], stdout: bytes) -> tuple[list[dict], dict | None]:
    """(rows, envelope) of one command's output; envelope is None for CSV."""
    text = stdout.decode("utf-8")
    if option(args, "--format", "json") == "csv":
        return list(csv.DictReader(io.StringIO(text))), None
    envelope = json.loads(text)
    return envelope["rows"], envelope


def exact(x) -> Fraction:
    """Exact value of an mpmath float (they are dyadic) or a rational."""
    if isinstance(x, (int, Fraction)):
        return F(x)
    man, exp = mpmath.mpf(x).man_exp
    return F(man) * F(2) ** exp


def ulp_of(printed: str) -> Fraction:
    places = len(printed.partition(".")[2])
    return F(1, 10**places)


class Harmonic:
    """Exact H_n by plain accumulation, ascending."""

    def __init__(self):
        self.n, self.value = 0, F(0)

    def __call__(self, n: int) -> Fraction:
        if n < self.n:
            self.n, self.value = 0, F(0)
        while self.n < n:
            self.n += 1
            self.value += F(1, self.n)
        return self.value


# ---------------------------------------------------------------------------
# sequences: value(n) as mpf at the current mpmath precision, and the exact
# split (rational part, log argument) where one exists


def _h(n):
    return mpmath.harmonic(n) if n > 0 else mpmath.mpf(0)


def _s_rational(n, harmonic) -> Fraction:
    return harmonic(n - 2) + F(13, 12 * (n - 1)) + F(5, 12 * n)


def _uplus(n):
    root6 = mpmath.sqrt(6)
    return _h(n - 1) + 1 / ((6 + 2 * root6) * n) - mpmath.log(n - 1 / root6)


SEQUENCES = {
    # name: (value, exact split or None, difference order)
    "gamma": (lambda n: _h(n) - mpmath.log(n),
              lambda n, h: (h(n), F(n)), 2),
    "r": (lambda n: _h(n) - mpmath.log(n + mpmath.mpf(1) / 2),
          lambda n, h: (h(n), n + F(1, 2)), 3),
    "s": (lambda n: _h(n - 2) + mpmath.mpf(13) / (12 * (n - 1))
          + mpmath.mpf(5) / (12 * n) - mpmath.log(n),
          lambda n, h: (_s_rational(n, h), F(n)), 4),
    "uplus": (_uplus, None, 2),
}


# ---------------------------------------------------------------------------
# the published inequalities: lower(n) < target_n - gamma < upper(n)
# A side is (callable, n_min, exact); exact sides return Fractions, the
# others mpf values built from gamma, square roots and logarithms.


def _side(fn, n_min, is_exact=True):
    return (fn, n_min, is_exact)


def _gamma():
    return +mpmath.euler


def _chen_shift():
    return 1 / mpmath.sqrt(24 * (1 - _gamma() - mpmath.log(mpmath.mpf(3) / 2))) - 1


def _chen_mortici(n, terms):
    m = n + F(1, 2)
    return sum(F(c) / m**k for c, k in terms)


_CM_UPPER = ((F(1, 24), 2), (F(-7, 960), 4), (F(31, 8064), 6))
_CM_LOWER = _CM_UPPER + ((F(-127, 30720), 8),)

CATALOG = {
    "tims-tyrrell": ("gamma", _side(lambda n: F(1, 2 * (n + 1)), 1),
                     _side(lambda n: F(1, 2 * (n - 1)), 2)),
    "young": ("gamma", _side(lambda n: F(1, 2 * (n + 1)), 1),
              _side(lambda n: F(1, 2 * n), 1)),
    "anderson": ("gamma", _side(lambda n: (1 - _gamma()) / n, 2, False),
                 _side(lambda n: F(1, 2 * n), 1)),
    "mortici-vernescu": ("gamma", _side(lambda n: F(1, 2 * n + 1), 1),
                         _side(lambda n: F(1, 2 * n), 1)),
    "toth": ("gamma", _side(lambda n: 1 / (2 * n + F(2, 5)), 1),
             _side(lambda n: 1 / (2 * n + F(1, 3)), 1)),
    "alzer-chen-qi": ("gamma",
                      _side(lambda n: 1 / (2 * n + (2 * _gamma() - 1) / (1 - _gamma())),
                            2, False),
                      _side(lambda n: 1 / (2 * n + F(1, 3)), 1)),
    "qiu-vuorinen": ("gamma", _side(lambda n: F(1, 2 * n) - F(1, 2 * n * n), 1),
                     _side(lambda n: mpmath.mpf(1) / (2 * n)
                           - (_gamma() - mpmath.mpf(1) / 2) / n**2, 2, False)),
    "franel": ("gamma", _side(lambda n: F(1, 2 * n) - F(1, 8 * n * n), 1),
               _side(lambda n: F(1, 2 * n), 1)),
    "karatsuba": ("gamma",
                  _side(lambda n: F(1, 2 * n) - F(1, 12 * n**2) + F(1, 120 * n**4)
                        - F(1, 126 * n**6), 1),
                  _side(lambda n: F(1, 2 * n) - F(1, 12 * n**2) + F(1, 120 * n**4), 1)),
    "mortici-refined": ("gamma", _side(lambda n: 1 / (2 * n + F(1, 3) + F(1, 18 * n)), 1),
                        _side(lambda n: 1 / (2 * n + F(1, 3) + F(1, 32 * n)), 1)),
    "detemple": ("r", _side(lambda n: F(1, 24 * (n + 1) ** 2), 1),
                 _side(lambda n: F(1, 24 * n**2), 1)),
    "chen": ("r", _side(lambda n: 1 / (24 * (n + _chen_shift()) ** 2), 2, False),
             _side(lambda n: 1 / (24 * (n + F(1, 2)) ** 2), 1)),
    "chen-mortici": ("r", _side(lambda n: _chen_mortici(n, _CM_LOWER), 1),
                     _side(lambda n: _chen_mortici(n, _CM_UPPER), 1)),
    "theorem22": ("s", _side(lambda n: F(1, 12 * n**3) + F(11, 120 * n**4), 3),
                  _side(lambda n: F(1, 12 * n**3) + F(13, 120 * n**4), 9)),
}


# ---------------------------------------------------------------------------
# per-command checks; each appends problems to `errors`


def _sample(rng: random.Random, lo: int, hi: int) -> list[int]:
    count = min(SAMPLED_ROWS, hi - lo + 1)
    return sorted({lo, hi, *rng.sample(range(lo, hi + 1), count)})


def _consecutive(rows, n_from, n_to, errors, label) -> bool:
    ns = [int(r["n"]) for r in rows]
    if ns != list(range(n_from, n_to + 1)):
        errors.append(f"{label}: rows do not cover n = {n_from}..{n_to} in order")
        return False
    return True


def check_sweep(args, rows, envelope, rng, errors):
    entry = option(args, "--entry")
    p = int(option(args, "--precision", 128))
    target, lower, upper = CATALOG[entry]
    n_min = min(lower[1], upper[1])
    n_from = int(option(args, "--from", n_min))
    n_to = int(option(args, "--to"))
    label = f"sweep {entry}"
    if not _consecutive(rows, n_from, n_to, errors, label):
        return
    undecided = [r["n"] for r in rows if r["verdict"] != "certified-true"]
    if undecided:
        errors.append(f"{label}: {len(undecided)} rows not certified-true, "
                      f"first at n = {undecided[0]}")
    if envelope is not None:
        counts = envelope["metadata"]["counts"]
        if counts.get("certified-true") != len(rows) or sum(counts.values()) != len(rows):
            errors.append(f"{label}: metadata counts {counts} disagree with the rows")
        margins = {int(r["n"]): F(r["margin"]) for r in rows}
        least = F(envelope["metadata"]["min_margin"])
        if least != min(margins.values()) or margins.get(
                envelope["metadata"]["min_margin_n"]) != least:
            errors.append(f"{label}: min_margin does not match the rows")
    value_fn = SEQUENCES[target][0]
    eps = F(1, 2 ** (2 * p - 16))
    with mpmath.workprec(2 * p):
        gamma = _gamma()
        for n in _sample(rng, n_from, n_to):
            row = rows[n - n_from]
            dev = exact(value_fn(n) - gamma)
            lo, hi = F(row["value_lo"]), F(row["value_hi"])
            ulp = ulp_of(row["value_lo"])
            if not lo - ulp - eps <= dev <= hi + ulp + eps:
                errors.append(f"{label}: n = {n} deviation {float(dev):.17g} "
                              f"outside [{row['value_lo']}, {row['value_hi']}]")
            if hi - lo > F(1, 2 ** (p - 4)) + 2 * ulp:
                errors.append(f"{label}: n = {n} deviation interval wider than 2^(4-p)")
            true_margins = []
            for name, (fn, side_min, is_exact) in (("lower", lower), ("upper", upper)):
                printed = row[name]
                if n < side_min:
                    if printed != "":
                        errors.append(f"{label}: n = {n} prints a {name} side "
                                      f"below its n_min {side_min}")
                    continue
                bound = exact(fn(n))
                slack = ulp + (0 if is_exact else F(1, 2 ** (p - 6)) + eps)
                if printed == "" or abs(F(printed) - bound) > slack:
                    errors.append(f"{label}: n = {n} {name} side {printed!r} "
                                  f"is not {float(bound):.17g}")
                gap = dev - bound if name == "lower" else bound - dev
                if gap <= eps:
                    errors.append(f"{label}: n = {n} the published {name} bound "
                                  "fails by the oracle")
                true_margins.append(gap)
            margin = F(row["margin"])
            if true_margins and not -ulp <= margin <= min(true_margins) + ulp + eps:
                errors.append(f"{label}: n = {n} margin {row['margin']} is not within "
                              "the true margin")


def check_enclose(args, rows, gamma: Fraction, errors):
    p = int(option(args, "--precision", 128))
    n = option(args, "--n")
    label = "enclose " + " ".join(args[1:])
    if len(rows) != 1:
        errors.append(f"{label}: expected one row, got {len(rows)}")
        return
    lo, hi = F(rows[0]["lo"]), F(rows[0]["hi"])
    ulp = ulp_of(rows[0]["lo"])
    eps = F(1, 2 ** (2 * p - 16))
    if not lo - ulp - eps <= gamma <= hi + ulp + eps:
        errors.append(f"{label}: the enclosure misses the constant")
    width = F(1, 2 ** (p - 2))
    if n is not None:
        width += F(1, 60 * int(n) ** 4)  # the s_n bracket's own width
    if hi - lo > width + 2 * ulp:
        errors.append(f"{label}: width {float(hi - lo):.3e} exceeds {float(width):.3e}")


def check_eval(args, rows, rng, harmonic, errors):
    seq = option(args, "--seq")
    p = int(option(args, "--precision", 128))
    n_from = int(option(args, "--n"))
    n_to = int(option(args, "--to", n_from))
    label = f"eval {seq}"
    if not _consecutive(rows, n_from, n_to, errors, label):
        return
    value_fn, split_fn, _order = SEQUENCES[seq]
    with mpmath.workprec(2 * p):
        for n in _sample(rng, n_from, n_to):
            row = rows[n - n_from]
            true = exact(value_fn(n))
            value = F(row["value"])
            if abs(value - true) > ulp_of(row["value"]) + abs(true) / 2 ** (p - 1):
                errors.append(f"{label}: n = {n} value {row['value']} is off")
            if split_fn is None:
                if row.get("rational_part"):
                    errors.append(f"{label}: n = {n} prints a rational part it cannot have")
                continue
            rational, argument = split_fn(n, harmonic)
            printed = row.get("rational_part")
            if not printed or F(printed) != rational:
                errors.append(f"{label}: n = {n} rational part is not the exact sum")
            if not row.get("log_argument") or F(row["log_argument"]) != argument:
                errors.append(f"{label}: n = {n} log argument is not {argument}")


def check_rate(args, rows, errors):
    seq = option(args, "--seq")
    expected = SEQUENCES[seq][2]
    order = float(rows[0]["difference_order"])
    rate = float(rows[0]["sequence_rate"])
    label = "rate " + " ".join(args[1:])
    if abs(order - expected) > 0.05:
        errors.append(f"{label}: difference order {order} is not {expected} within 0.05")
    if abs(rate - (order - 1)) > 2e-6 or rows[0]["reliable"] is not True:
        errors.append(f"{label}: sequence rate or reliability is wrong")


def check_certify(args, rows, rng, errors):
    target = option(args, "--target")
    row = rows[0]
    label = f"certify {target}"
    want = {"f": (1, -1, "1", "lower bound holds for n >= 3"),
            "g": (-1, 1, "9", "upper bound holds for n >= 9")}[target]
    coeffs = [F(c) for c in row["numerator_shifted_coefficients"]]
    if (row["derivative_sign"], row["function_sign"], row["shift_center"]) != want[:3] \
            or not row["identity_checked"] or not row["vanishes_at_infinity"] \
            or want[3] not in row["conclusion"]:
        errors.append(f"{label}: the sign chain does not reach its stated conclusion")
    if not coeffs or min(coeffs) <= 0:
        errors.append(f"{label}: shifted coefficients are not all positive")
    # the concluded bracket side, confirmed numerically on sampled n
    side = CATALOG["theorem22"][1 if target == "f" else 2]
    with mpmath.workprec(256):
        gamma = _gamma()
        for n in sorted({side[1], *rng.sample(range(side[1], 10**6), 7)}):
            dev = exact(SEQUENCES["s"][0](n) - gamma)
            gap = dev - side[0](n) if target == "f" else side[0](n) - dev
            if gap <= 0:
                errors.append(f"{label}: the bracket side fails at n = {n}")


def check_optimize(args, rows, errors):
    row = rows[0]
    got = (row["a"], row["b"], row["surviving_index"], row["surviving_coeff"],
           row["sequence_rate"], row["sequence_limit"])
    if got != ("3/2", "-5/12", 4, "1/4", 3, "1/12"):
        errors.append(f"optimize: got {got}")
    # n^4 (s_n - s_{n+1}) tends to the surviving coefficient
    with mpmath.workprec(256):
        s = SEQUENCES["s"][0]
        n = 10**4
        if abs((s(n) - s(n + 1)) * n**4 - mpmath.mpf(1) / 4) > 1e-3:
            errors.append("optimize: n^4 (s_n - s_(n+1)) does not approach 1/4")


class Oracle:
    """Checks the outputs of one round of commands; seeded row samples."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.harmonic = Harmonic()
        self._gamma = (0, None)

    def gamma(self, bits: int) -> Fraction:
        if self._gamma[0] < bits:
            with mpmath.workprec(bits):
                self._gamma = (bits, exact(_gamma()))
        return self._gamma[1]

    def check(self, args: list[str], stdout: bytes) -> tuple[int, list[str]]:
        """(rows in the output, problems found)."""
        errors: list[str] = []
        try:
            rows, envelope = parse_rows(args, stdout)
            command = args[0]
            if command == "sweep-bounds":
                check_sweep(args, rows, envelope, self.rng, errors)
            elif command == "enclose":
                p = int(option(args, "--precision", 128))
                check_enclose(args, rows, self.gamma(2 * p), errors)
            elif command == "eval":
                check_eval(args, rows, self.rng, self.harmonic, errors)
            elif command == "rate":
                check_rate(args, rows, errors)
            elif command == "certify":
                check_certify(args, rows, self.rng, errors)
            elif command == "optimize":
                check_optimize(args, rows, errors)
            else:
                errors.append(f"no oracle for {command!r}")
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return 0, [f"{' '.join(args)}: output not in the documented shape "
                       f"({type(exc).__name__}: {exc})"]
        return len(rows), errors
