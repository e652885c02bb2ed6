"""Machine-checkable catalog of published bounds on the gamma sequences.

Each entry states strict lower/upper bounds on the deviation of one
sequence from the Euler-Mascheroni constant, exactly as printed in the
source literature (including one knowingly weak tail term, see the
Karatsuba entry note).  A check evaluates the deviation as a certified
interval against the bound expressions, itself evaluated as intervals
when they involve the constant or square roots, and reports
certified-true only under strict separation.  Equality can therefore
never be certified; sides that are sharp at n = 1 start at n = 2.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .numerics import GUARD_BITS, BigReal, gamma_reference, ln_interval, sqrt_interval
from .sequences import DeTempleR, GammaN, SequenceKind, SOptimal, evaluate_interval, intervals

__all__ = [
    "BoundEntry",
    "Verdict",
    "SweepRow",
    "SweepReport",
    "catalog",
    "get_entry",
    "check",
    "sweep",
]

Interval = tuple[Fraction, Fraction]

CERTIFIED_TRUE = "certified-true"
CERTIFIED_FALSE = "certified-false"
UNDECIDED = "undecided"

DEFAULT_CAP_FACTOR = 8


def _exact(v) -> Interval:
    v = Fraction(v)
    return (v, v)


def _add(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def _sub(a: Interval, b: Interval) -> Interval:
    return (a[0] - b[1], a[1] - b[0])


def _mul(a: Interval, b: Interval) -> Interval:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _recip_pos(a: Interval) -> Interval:
    if a[0] <= 0:
        raise DomainError("reciprocal of an interval touching zero")
    return (1 / a[1], 1 / a[0])


def _sqrt(a: Interval, q: int) -> Interval:
    return (sqrt_interval(a[0], q)[0], sqrt_interval(a[1], q)[1])


class _EvalContext:
    """Shared certified constants for one working precision."""

    def __init__(self, p: int):
        self.p = p
        self.gamma: Interval = gamma_reference(p).bounds()
        self._q = p + GUARD_BITS
        self._ln: dict = {}

    def ln(self, x) -> Interval:
        if x not in self._ln:
            self._ln[x] = ln_interval(x, self._q)
        return self._ln[x]


@dataclass(frozen=True)
class BoundEntry:
    """One published inequality: lower(n) < target_n - gamma < upper(n).

    Sides are callables (n, ctx) -> certified interval; either side may
    be absent.  n_min is per side because several sources prove the
    two directions on different ranges.
    """

    entry_id: str
    target: SequenceKind
    lower: object
    upper: object
    n_min_lower: int | None
    n_min_upper: int | None
    citation: str
    note: str = ""

    @property
    def n_min(self) -> int:
        candidates = [m for m in (self.n_min_lower, self.n_min_upper) if m is not None]
        return min(candidates)

    def restricted(self, side: str) -> "BoundEntry":
        if side == "lower":
            return dataclasses.replace(
                self, entry_id=f"{self.entry_id}-lower", upper=None, n_min_upper=None
            )
        if side == "upper":
            return dataclasses.replace(
                self, entry_id=f"{self.entry_id}-upper", lower=None, n_min_lower=None
            )
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check; margins account for every interval width.

    undecided means the working precision could not separate the
    quantities, never that the inequality silently passed.
    """

    holds: str
    margin: BigReal
    precision: int


@dataclass(frozen=True)
class SweepRow:
    n: int
    verdict: str
    margin: Fraction
    margin_lower: Fraction | None
    margin_upper: Fraction | None
    lower: Fraction | None  # sup of the lower bound interval (binding end)
    upper: Fraction | None  # inf of the upper bound interval
    value_lo: Fraction
    value_hi: Fraction
    precision: int


@dataclass(frozen=True)
class SweepReport:
    entry_id: str
    rows: tuple
    precision_start: int
    precision_cap: int

    @property
    def counts(self) -> dict:
        out = {CERTIFIED_TRUE: 0, CERTIFIED_FALSE: 0, UNDECIDED: 0}
        for row in self.rows:
            out[row.verdict] += 1
        return out

    @property
    def all_certified_true(self) -> bool:
        return all(row.verdict == CERTIFIED_TRUE for row in self.rows)

    @property
    def min_margin(self) -> Fraction | None:
        margins = [r.margin for r in self.rows if r.verdict == CERTIFIED_TRUE]
        return min(margins) if margins else None

    @property
    def min_margin_n(self) -> int | None:
        rows = [r for r in self.rows if r.verdict == CERTIFIED_TRUE]
        if not rows:
            return None
        return min(rows, key=lambda r: r.margin).n


# ---------------------------------------------------------------------------
# the catalog


def _inv_linear(slope: int, offset) -> object:
    offset = Fraction(offset)

    def bound(n, ctx):
        return _exact(Fraction(1, 1) / (slope * n + offset))

    return bound


def _catalog_entries() -> list[BoundEntry]:
    f = Fraction
    entries = []

    def exactfn(fn):
        return lambda n, ctx: _exact(fn(n))

    entries.append(BoundEntry(
        "tims-tyrrell", GammaN(),
        exactfn(lambda n: f(1, 2 * (n + 1))),
        exactfn(lambda n: f(1, 2 * (n - 1))),
        1, 2,
        "S. R. Tims, J. A. Tyrrell, Math. Gaz. 55 (1971) 65-67",
    ))
    entries.append(BoundEntry(
        "young", GammaN(),
        exactfn(lambda n: f(1, 2 * (n + 1))),
        exactfn(lambda n: f(1, 2 * n)),
        1, 1,
        "R. M. Young, Math. Gaz. 75 (1991) 187-190",
    ))

    def anderson_lower(n, ctx):
        g_lo, g_hi = ctx.gamma
        return ((1 - g_hi) / n, (1 - g_lo) / n)

    entries.append(BoundEntry(
        "anderson", GammaN(),
        anderson_lower,
        exactfn(lambda n: f(1, 2 * n)),
        2, 1,
        "G. D. Anderson, R. W. Barnard, K. Richards, M. K. Vamanamurthy, "
        "M. Vuorinen, Trans. Amer. Math. Soc. 347 (1995) 1713-1723",
        note="the lower side is an equality at n = 1, so it is listed from n = 2",
    ))
    entries.append(BoundEntry(
        "mortici-vernescu", GammaN(),
        _inv_linear(2, 1),
        _inv_linear(2, 0),
        1, 1,
        "C. Mortici, A. Vernescu, Math. Balkanica (N.S.) 21 (2007) 301-308",
    ))
    entries.append(BoundEntry(
        "toth", GammaN(),
        _inv_linear(2, f(2, 5)),
        _inv_linear(2, f(1, 3)),
        1, 1,
        "L. Toth, Amer. Math. Monthly 98 (1991), Problem E3432",
    ))

    def alzer_lower(n, ctx):
        g = ctx.gamma
        c = _sub(_mul(_exact(2), g), _exact(1))  # 2 gamma - 1
        d = _sub(_exact(1), g)  # 1 - gamma
        shift = _mul(c, _recip_pos(d))  # (2 gamma - 1)/(1 - gamma)
        return _recip_pos(_add(_exact(2 * n), shift))

    entries.append(BoundEntry(
        "alzer-chen-qi", GammaN(),
        alzer_lower,
        _inv_linear(2, f(1, 3)),
        2, 1,
        "H. Alzer, Abh. Math. Sem. Univ. Hamburg 68 (1998) 363-372; "
        "C.-P. Chen, F. Qi, arXiv:math/0306233",
        note="the lower side is an equality at n = 1 by choice of the constant",
    ))

    def qiu_upper(n, ctx):
        g = ctx.gamma
        beta = _sub(g, _exact(f(1, 2)))
        term = _mul(beta, _exact(f(1, n * n)))
        return _sub(_exact(f(1, 2 * n)), term)

    entries.append(BoundEntry(
        "qiu-vuorinen", GammaN(),
        exactfn(lambda n: f(1, 2 * n) - f(1, 2 * n * n)),
        qiu_upper,
        1, 2,
        "S.-L. Qiu, M. Vuorinen, Math. Comp. 74 (2005) 723-742, Cor. 2.13",
        note="the upper side is an equality at n = 1 by choice of beta",
    ))
    entries.append(BoundEntry(
        "franel", GammaN(),
        exactfn(lambda n: f(1, 2 * n) - f(1, 8 * n * n)),
        exactfn(lambda n: f(1, 2 * n)),
        1, 1,
        "Franel's inequality; G. Polya, G. Szego, Problems and Theorems "
        "in Analysis I, Part One, Ex. 18",
    ))
    entries.append(BoundEntry(
        "karatsuba", GammaN(),
        exactfn(lambda n: f(1, 2 * n) - f(1, 12 * n**2) + f(1, 120 * n**4)
                - f(1, 126 * n**6)),
        exactfn(lambda n: f(1, 2 * n) - f(1, 12 * n**2) + f(1, 120 * n**4)),
        1, 1,
        "E. A. Karatsuba, Numer. Algorithms 24 (2000) 83-97",
        note="the 1/(126 n^6) tail term is kept as printed in the source; "
             "the asymptotic expansion has 1/(252 n^6) there, so the printed "
             "lower bound is slightly weaker but still valid",
    ))
    entries.append(BoundEntry(
        "mortici-refined", GammaN(),
        lambda n, ctx: _exact(1 / (2 * n + f(1, 3) + f(1, 18 * n))),
        lambda n, ctx: _exact(1 / (2 * n + f(1, 3) + f(1, 32 * n))),
        1, 1,
        "C. Mortici, Bul. Univ. Petrol-Gaze din Ploiesti LXII(1) (2010) 109-112",
    ))
    entries.append(BoundEntry(
        "detemple", DeTempleR(),
        exactfn(lambda n: f(1, 24 * (n + 1) ** 2)),
        exactfn(lambda n: f(1, 24 * n**2)),
        1, 1,
        "D. W. DeTemple, Amer. Math. Monthly 100 (1993) 468-470",
    ))

    def chen_lower(n, ctx):
        # a = 1 / sqrt(24 (1 - gamma - ln(3/2))) - 1, sharp at n = 1
        inner = _sub(_sub(_exact(1), ctx.gamma), ctx.ln(f(3, 2)))
        root = _sqrt(_mul(_exact(24), inner), ctx.p + GUARD_BITS)
        a = _sub(_recip_pos(root), _exact(1))
        shifted = _add(_exact(n), a)
        return _recip_pos(_mul(_exact(24), _mul(shifted, shifted)))

    entries.append(BoundEntry(
        "chen", DeTempleR(),
        chen_lower,
        exactfn(lambda n: f(1, 24 * (n + f(1, 2)) ** 2)),
        2, 1,
        "C.-P. Chen, Appl. Math. Lett. 23 (2010) 161-164",
        note="the lower side is an equality at n = 1 by choice of the shift",
    ))

    def chen_mortici(terms):
        def bound(n, ctx):
            m = n + f(1, 2)
            total = f(0)
            for coeff, power in terms:
                total += coeff / m**power
            return _exact(total)

        return bound

    entries.append(BoundEntry(
        "chen-mortici", DeTempleR(),
        chen_mortici([(f(1, 24), 2), (f(-7, 960), 4), (f(31, 8064), 6),
                      (f(-127, 30720), 8)]),
        chen_mortici([(f(1, 24), 2), (f(-7, 960), 4), (f(31, 8064), 6)]),
        1, 1,
        "C.-P. Chen, C. Mortici, J. Sci. Arts 10(2) (2010) 271-272",
    ))
    entries.append(BoundEntry(
        "theorem22", SOptimal(),
        exactfn(lambda n: f(1, 12 * n**3) + f(11, 120 * n**4)),
        exactfn(lambda n: f(1, 12 * n**3) + f(13, 120 * n**4)),
        3, 9,
        "two-sided bracket on the optimal sequence; certified in-package "
        "by gammaseq.polycert",
    ))
    return entries


def catalog() -> list[BoundEntry]:
    """All catalog entries, in historical order."""
    return _catalog_entries()


def get_entry(entry_id: str) -> BoundEntry:
    """Look up an entry; an id with a '-lower'/'-upper' suffix restricts
    any entry to that side."""
    table = {e.entry_id: e for e in catalog()}
    if entry_id in table:
        return table[entry_id]
    for suffix, side in (("-lower", "lower"), ("-upper", "upper")):
        if entry_id.endswith(suffix):
            base = entry_id[: -len(suffix)]
            if base in table:
                entry = table[base]
                if getattr(entry, side) is None:
                    raise KeyError(f"entry {base!r} has no {side} side")
                return entry.restricted(side)
    raise KeyError(f"unknown bound entry {entry_id!r}")


# ---------------------------------------------------------------------------
# checking


def _check_core(entry: BoundEntry, n: int, ctx: _EvalContext, value: Interval | None = None):
    """Verdict data at n; value is the sequence interval, evaluated here if not given."""
    if value is None:
        value = evaluate_interval(entry.target, n, ctx.p + GUARD_BITS + 2 * n.bit_length())
    g_lo, g_hi = ctx.gamma
    dev = (value[0] - g_hi, value[1] - g_lo)
    margins = []
    lower_sup = upper_inf = None
    margin_lower = margin_upper = None
    falsified = False
    if entry.lower is not None and entry.n_min_lower is not None and n >= entry.n_min_lower:
        lo_iv = entry.lower(n, ctx)
        lower_sup = lo_iv[1]
        margin_lower = dev[0] - lo_iv[1]
        margins.append(margin_lower)
        if dev[1] <= lo_iv[0]:
            falsified = True
    if entry.upper is not None and entry.n_min_upper is not None and n >= entry.n_min_upper:
        up_iv = entry.upper(n, ctx)
        upper_inf = up_iv[0]
        margin_upper = up_iv[0] - dev[1]
        margins.append(margin_upper)
        if dev[0] >= up_iv[1]:
            falsified = True
    if not margins:
        raise DomainError(f"no side of {entry.entry_id!r} applies at n = {n}")
    margin = min(margins)
    if falsified:
        holds = CERTIFIED_FALSE
    elif margin > 0:
        holds = CERTIFIED_TRUE
    else:
        holds = UNDECIDED
    return holds, margin, margin_lower, margin_upper, lower_sup, upper_inf, dev


def check(entry: BoundEntry, n: int, p: int) -> Verdict:
    """Certified verdict for one entry at one index."""
    if not isinstance(n, int) or n < entry.n_min:
        raise DomainError(
            f"{entry.entry_id!r} is stated for n >= {entry.n_min}, got {n!r}"
        )
    holds, margin, *_ = _check_core(entry, n, _EvalContext(p))
    return Verdict(
        holds=holds,
        margin=BigReal.from_fraction(margin, max(64, min(p, 128)), "floor"),
        precision=p,
    )


def sweep(entry: BoundEntry, n_from: int, n_to: int, p: int,
          precision_cap: int | None = None) -> SweepReport:
    """Check an entry across a range, escalating precision on undecided rows.

    Precision doubles (up to the cap) whenever strict separation fails;
    rows still undecided at the cap are reported as such, never as true.
    """
    if n_from < entry.n_min:
        raise DomainError(
            f"{entry.entry_id!r} is stated for n >= {entry.n_min}, got {n_from}"
        )
    if n_to < n_from:
        raise DomainError("empty sweep range")
    cap = precision_cap if precision_cap is not None else DEFAULT_CAP_FACTOR * p
    context = functools.cache(_EvalContext)  # one per precision of this sweep
    # one bit_length covers the walk's harmonic pair (<= n ulps wide), one is spare
    walk = intervals(entry.target, n_from, n_to, p + GUARD_BITS + 2 * n_to.bit_length())
    rows = []
    for n, value in zip(range(n_from, n_to + 1), walk):
        p_cur = p
        while True:
            holds, margin, m_lo, m_up, lower_sup, upper_inf, dev = _check_core(
                entry, n, context(p_cur), value
            )
            if holds != UNDECIDED or p_cur >= cap:
                break
            p_cur = min(2 * p_cur, cap)
            value = None  # the row restarts alone at the higher precision
        rows.append(SweepRow(
            n=n, verdict=holds, margin=margin,
            margin_lower=m_lo, margin_upper=m_up,
            lower=lower_sup, upper=upper_inf,
            value_lo=dev[0], value_hi=dev[1],
            precision=p_cur,
        ))
    return SweepReport(
        entry_id=entry.entry_id,
        rows=tuple(rows),
        precision_start=p,
        precision_cap=cap,
    )
