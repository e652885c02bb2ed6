"""Machine-checkable catalog of published bounds on the gamma sequences.

Each entry states strict lower/upper bounds on the deviation of one
sequence from the Euler-Mascheroni constant, exactly as printed in the
source literature (including one knowingly weak tail term, see the
Karatsuba entry note).  Every bound side is a function (n, c) ->
(num, den): the published formula over one denominator, written in
integer arithmetic, so that at n = `polycert.Polynomial.x()` it gives
the side's numerator and denominator polynomials.  c is at most one
real constant, enclosed once per working precision as two integer
pairs (gamma's ends over 2**q as `gamma_reference` gives them, or
chen's shift built from them in integers); a side that reads it is
monotone in c and is evaluated at both ends of that enclosure, which
brackets the side.  Neither a row nor the constant holds a Fraction:
each row reads its target's deviation from gamma as an integer pair at
one explicit scale per precision (`sequences.deviation`: the envelope
of psi - ln plus an exact rational from a few hundred n on, with no
harmonic sum, no logarithm of n and no gamma), and only an undecided
row is made again, at each doubled precision; the sides' floors and
ceilings and the margins are integers at the same scale.  It reports
certified-true only under strict separation, decided exactly, so
equality can never be certified; sides that are sharp at n = 1 start at
n = 2.  sweep_rows is the one way to run a sweep: it makes, escalates
and yields one row at a time, with one deviation per precision carried
from row to row, so a sweep holds no row it has yielded, and a row costs
the same wherever the sweep starts.  A SweepReport fed those rows keeps
their verdict counts and the first certified-true row of least margin,
and no row.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import DomainError
from .numerics import GUARD_BITS, _check_precision, gamma_reference, ln_fixed
from .sequences import DeTempleR, GammaN, SequenceKind, SOptimal, deviation, envelope_start

__all__ = [
    "BoundEntry",
    "SweepRow",
    "SweepReport",
    "catalog",
    "get_entry",
    "sweep_rows",
]

Pair = tuple[int, int]  # an exact rational num/den, den > 0, not necessarily reduced
Interval = tuple[Pair, Pair]

CERTIFIED_TRUE = "certified-true"
CERTIFIED_FALSE = "certified-false"
UNDECIDED = "undecided"

DEFAULT_CAP_FACTOR = 8


def _gamma(p: int) -> Interval:
    lo, hi, q = gamma_reference(p)
    return (lo, 1 << q), (hi, 1 << q)


@dataclasses.dataclass(frozen=True)
class BoundEntry:
    """One published inequality: lower(n) < target_n - gamma < upper(n).

    Sides are callables (n, c) -> (num, den), the exact value num/den of
    a rational function of n and of the entry's real constant c, in
    integer arithmetic only; either side may be absent.  den must be
    positive wherever the side applies, or the row is a DomainError.
    constant(p) encloses c at precision p as two pairs (c_num, c_den),
    c_den > 0 (gamma unless the entry says otherwise).  A side named in
    reads_c must be monotone in c on that enclosure: it is called with
    each end and the two values bracket it.  Any other side is called
    with c = None.  n_min is per side because several sources prove the
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
    constant: object = _gamma
    reads_c: tuple[str, ...] = ()

    @property
    def n_min(self) -> int:
        candidates = [m for m in (self.n_min_lower, self.n_min_upper) if m is not None]
        return min(candidates)

    def restricted(self, side: str) -> "BoundEntry":
        """The entry with only `side` kept; it reads c only if that side does."""
        reads_c = (side,) if side in self.reads_c else ()
        if side == "lower":
            return dataclasses.replace(
                self, entry_id=f"{self.entry_id}-lower", upper=None, n_min_upper=None,
                reads_c=reads_c,
            )
        if side == "upper":
            return dataclasses.replace(
                self, entry_id=f"{self.entry_id}-upper", lower=None, n_min_lower=None,
                reads_c=reads_c,
            )
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")


class SweepRow:
    """One checked index.  value_lo, value_hi and the margins are integers
    at scale 2**-scale: value_lo * 2**-scale <= target_n - gamma <=
    value_hi * 2**-scale.  margin_lower is value_lo - ceil(lower * 2**scale),
    margin_upper is floor(upper * 2**scale) - value_hi and margin the least
    present; each lies in (e * 2**scale - 1, e * 2**scale] for its exact
    margin e.  The sides lower and upper are exact rationals as integer
    pairs (num, den), den > 0, not necessarily reduced: lower is the sup
    of the lower bound interval (its binding end), upper the inf of the
    upper one.  Rows are equal when all their fields are."""

    __slots__ = ("n", "verdict", "margin", "margin_lower", "margin_upper", "lower", "upper",
                 "value_lo", "value_hi", "precision", "scale")

    def __init__(self, n: int, verdict: str, margin: int, margin_lower: int | None,
                 margin_upper: int | None, lower: Pair | None, upper: Pair | None,
                 value_lo: int, value_hi: int, precision: int, scale: int):
        self.n, self.verdict, self.margin = n, verdict, margin
        self.margin_lower, self.margin_upper = margin_lower, margin_upper
        self.lower, self.upper = lower, upper
        self.value_lo, self.value_hi = value_lo, value_hi
        self.precision, self.scale = precision, scale

    def __eq__(self, other):
        if type(other) is not SweepRow:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class SweepReport:
    """Verdict counts and the first certified-true row of least margin,
    margins compared across scales, over rows added one at a time; it
    keeps no row.  counts and least are instance attributes, not
    __slots__: perfbench/tracer.py replaces any class attribute named
    counts with a wrapper, and over a slot that makes it read-only."""

    def __init__(self, rows=()):
        self.counts = {CERTIFIED_TRUE: 0, CERTIFIED_FALSE: 0, UNDECIDED: 0}
        self.least: SweepRow | None = None
        for row in rows:
            self.add(row)

    def add(self, row: SweepRow) -> None:
        verdict = row.verdict
        self.counts[verdict] += 1
        if verdict == CERTIFIED_TRUE:
            least = self.least  # m / 2**s < m' / 2**s' compared as m 2**s' < m' 2**s
            if least is None or (row.margin < least.margin if row.scale == least.scale
                                 else row.margin << least.scale < least.margin << row.scale):
                self.least = row


# ---------------------------------------------------------------------------
# the catalog


def _chen_shift(p: int) -> Interval:
    """a = 1/sqrt(24 (1 - gamma - ln(3/2))) - 1, which makes chen sharp at n = 1.

    The radicand's ends are integers at one scale 2**-s; its roots r_lo and
    r_hi (floor, and floor plus one) at scale 2**-q give a = (2**q - r) / r."""
    q = p + GUARD_BITS
    g_lo, g_hi, q_g = gamma_reference(p)
    ln_lo, ln_hi, q_ln = ln_fixed(3, 2, q)
    s = max(q_g, q_ln)
    one = 1 << s
    rad_lo = 24 * (one - (g_hi << (s - q_g)) - (ln_hi << (s - q_ln)))
    rad_hi = 24 * (one - (g_lo << (s - q_g)) - (ln_lo << (s - q_ln)))
    # floor(sqrt(rad * 2**(2q - s))): the root of the radicand's value, floored at 2**-q
    r_lo = math.isqrt((rad_lo << 2 * q) >> s)
    r_hi = math.isqrt((rad_hi << 2 * q) >> s) + 1
    return ((1 << q) - r_hi, r_hi), ((1 << q) - r_lo, r_lo)


def catalog() -> list[BoundEntry]:
    """All catalog entries, in historical order."""
    # each side is the published formula over one denominator, in integers;
    # a side that reads c takes it as a pair (c_num, c_den) with c_den > 0
    entries = []

    entries.append(BoundEntry(
        "tims-tyrrell", GammaN(),
        lambda n, c: (1, 2 * n + 2),  # 1/(2(n+1))
        lambda n, c: (1, 2 * n - 2),  # 1/(2(n-1))
        1, 2,
        "S. R. Tims, J. A. Tyrrell, Math. Gaz. 55 (1971) 65-67",
    ))
    entries.append(BoundEntry(
        "young", GammaN(),
        lambda n, c: (1, 2 * n + 2),  # 1/(2(n+1))
        lambda n, c: (1, 2 * n),  # 1/(2n)
        1, 1,
        "R. M. Young, Math. Gaz. 75 (1991) 187-190",
    ))
    entries.append(BoundEntry(
        "anderson", GammaN(),
        # (1 - c)/n with c = gamma; decreasing in c
        lambda n, c: (c[1] - c[0], c[1] * n),
        lambda n, c: (1, 2 * n),  # 1/(2n)
        2, 1,
        "G. D. Anderson, R. W. Barnard, K. Richards, M. K. Vamanamurthy, "
        "M. Vuorinen, Trans. Amer. Math. Soc. 347 (1995) 1713-1723",
        note="the lower side is an equality at n = 1, so it is listed from n = 2",
        reads_c=("lower",),
    ))
    entries.append(BoundEntry(
        "mortici-vernescu", GammaN(),
        lambda n, c: (1, 2 * n + 1),  # 1/(2n + 1)
        lambda n, c: (1, 2 * n),  # 1/(2n)
        1, 1,
        "C. Mortici, A. Vernescu, Math. Balkanica (N.S.) 21 (2007) 301-308",
    ))
    entries.append(BoundEntry(
        "toth", GammaN(),
        lambda n, c: (5, 10 * n + 2),  # 1/(2n + 2/5)
        lambda n, c: (3, 6 * n + 1),  # 1/(2n + 1/3)
        1, 1,
        "L. Toth, Amer. Math. Monthly 98 (1991), Problem E3432",
    ))
    entries.append(BoundEntry(
        "alzer-chen-qi", GammaN(),
        # 1/(2n + (2c - 1)/(1 - c)) with c = gamma; (2c - 1)/(1 - c) increases
        # for c < 1, so the side decreases
        lambda n, c: (c[1] - c[0], 2 * n * (c[1] - c[0]) + 2 * c[0] - c[1]),
        lambda n, c: (3, 6 * n + 1),  # 1/(2n + 1/3)
        2, 1,
        "H. Alzer, Abh. Math. Sem. Univ. Hamburg 68 (1998) 363-372; "
        "C.-P. Chen, F. Qi, arXiv:math/0306233",
        note="the lower side is an equality at n = 1 by choice of the constant",
        reads_c=("lower",),
    ))
    entries.append(BoundEntry(
        "qiu-vuorinen", GammaN(),
        lambda n, c: (n - 1, 2 * n**2),  # 1/(2n) - 1/(2n^2)
        # 1/(2n) - (c - 1/2)/n^2 with c = gamma; decreasing in c
        lambda n, c: ((n + 1) * c[1] - 2 * c[0], 2 * n**2 * c[1]),
        1, 2,
        "S.-L. Qiu, M. Vuorinen, Math. Comp. 74 (2005) 723-742, Cor. 2.13",
        note="the upper side is an equality at n = 1 by choice of beta",
        reads_c=("upper",),
    ))
    entries.append(BoundEntry(
        "franel", GammaN(),
        lambda n, c: (4 * n - 1, 8 * n**2),  # 1/(2n) - 1/(8n^2)
        lambda n, c: (1, 2 * n),  # 1/(2n)
        1, 1,
        "Franel's inequality; G. Polya, G. Szego, Problems and Theorems "
        "in Analysis I, Part One, Ex. 18",
    ))
    entries.append(BoundEntry(
        "karatsuba", GammaN(),
        # 1/(2n) - 1/(12n^2) + 1/(120n^4) - 1/(126n^6)
        lambda n, c: (1260 * n**5 - 210 * n**4 + 21 * n**2 - 20, 2520 * n**6),
        # 1/(2n) - 1/(12n^2) + 1/(120n^4)
        lambda n, c: (60 * n**3 - 10 * n**2 + 1, 120 * n**4),
        1, 1,
        "E. A. Karatsuba, Numer. Algorithms 24 (2000) 83-97",
        note="the 1/(126 n^6) tail term is kept as printed in the source; "
             "the asymptotic expansion has 1/(252 n^6) there, so the printed "
             "lower bound is slightly weaker but still valid",
    ))
    entries.append(BoundEntry(
        "mortici-refined", GammaN(),
        lambda n, c: (18 * n, 36 * n**2 + 6 * n + 1),  # 1/(2n + 1/3 + 1/(18n))
        lambda n, c: (96 * n, 192 * n**2 + 32 * n + 3),  # 1/(2n + 1/3 + 1/(32n))
        1, 1,
        "C. Mortici, Bul. Univ. Petrol-Gaze din Ploiesti LXII(1) (2010) 109-112",
    ))
    entries.append(BoundEntry(
        "detemple", DeTempleR(),
        lambda n, c: (1, 24 * (n + 1) ** 2),  # 1/(24(n+1)^2)
        lambda n, c: (1, 24 * n**2),  # 1/(24n^2)
        1, 1,
        "D. W. DeTemple, Amer. Math. Monthly 100 (1993) 468-470",
    ))
    entries.append(BoundEntry(
        "chen", DeTempleR(),
        # 1/(24(n + c)^2) with c = the shift a > 0; decreasing in c
        lambda n, c: (c[1] ** 2, 24 * (n * c[1] + c[0]) ** 2),
        lambda n, c: (1, 6 * (2 * n + 1) ** 2),  # 1/(24(n + 1/2)^2)
        2, 1,
        "C.-P. Chen, Appl. Math. Lett. 23 (2010) 161-164",
        note="the lower side is an equality at n = 1 by choice of the shift",
        constant=_chen_shift,
        reads_c=("lower",),
    ))
    entries.append(BoundEntry(
        "chen-mortici", DeTempleR(),
        # 1/(24m^2) - 7/(960m^4) + 31/(8064m^6) - 127/(30720m^8) with m = n + 1/2,
        # over 2520 (2n + 1)^8
        lambda n, c: (420 * (2 * n + 1) ** 6 - 294 * (2 * n + 1) ** 4
                      + 620 * (2 * n + 1) ** 2 - 2667, 2520 * (2 * n + 1) ** 8),
        # its first three terms, over 1260 (2n + 1)^6
        lambda n, c: (210 * (2 * n + 1) ** 4 - 147 * (2 * n + 1) ** 2 + 310,
                      1260 * (2 * n + 1) ** 6),
        1, 1,
        "C.-P. Chen, C. Mortici, J. Sci. Arts 10(2) (2010) 271-272",
    ))
    entries.append(BoundEntry(
        "theorem22", SOptimal(),
        lambda n, c: (10 * n + 11, 120 * n**4),  # 1/(12n^3) + 11/(120n^4)
        lambda n, c: (10 * n + 13, 120 * n**4),  # 1/(12n^3) + 13/(120n^4)
        3, 9,
        "two-sided bracket on the optimal sequence; certified in-package "
        "by gammaseq.polycert",
    ))
    return entries


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


def _side_ends(side, c, n: int, name: str) -> Interval:
    """(inf, sup) of one side at n: its value, or its values at the two
    ends of c, ordered by cross-multiplication."""
    if c is None:
        inf = sup = side(n, None)
        if sup[1] > 0:
            return inf, sup
    else:
        inf, sup = side(n, c[0]), side(n, c[1])
    if inf[1] <= 0 or sup[1] <= 0:
        raise DomainError(f"the {name} has a non-positive denominator at n = {n}")
    if inf[0] * sup[1] > sup[0] * inf[1]:
        inf, sup = sup, inf  # monotone in c, so the ends bracket it in one order or the other
    return inf, sup


def _scale(p: int) -> int:
    """The row scale at precision p: GUARD_BITS over p, plus the bit length
    of the index N where the rows leave the walk, as a row's pair below N
    is about n ulps wide, plus 8 spare bits."""
    q = p + GUARD_BITS
    return q + envelope_start(q).bit_length() + 8


def _row_walk(entry: BoundEntry, p: int, c):
    """row(n): the SweepRow of one entry at precision p, for nondecreasing
    n, from one `deviation` of its target at the scale `_scale`(p).  c is
    the entry's constant enclosed at p, or None."""
    n_min_lower, n_min_upper = entry.n_min_lower, entry.n_min_upper
    lower = entry.lower if n_min_lower is not None else None
    upper = entry.upper if n_min_upper is not None else None
    c_lower = c if "lower" in entry.reads_c else None
    c_upper = c if "upper" in entry.reads_c else None
    scale = _scale(p)
    value = deviation(entry.target, scale)
    lower_name = f"lower side of {entry.entry_id!r}"
    upper_name = f"upper side of {entry.entry_id!r}"

    def row(n: int) -> SweepRow:
        dev_lo, dev_hi = value(n)
        lower_sup = upper_inf = margin_lower = margin_upper = None
        separated, falsified = True, False
        # an integer d > x exactly when d > floor(x), and d < x when d < ceil(x);
        # each binding end's floor and ceiling come from one divmod
        if lower is not None and n >= n_min_lower:
            lower_inf, lower_sup = _side_ends(lower, c_lower, n, lower_name)
            below, rest = divmod(lower_sup[0] << scale, lower_sup[1])
            margin_lower = dev_lo - below - (rest > 0)
            separated = dev_lo > below
            if lower_inf is not lower_sup:
                below = (lower_inf[0] << scale) // lower_inf[1]
            falsified = dev_hi <= below
        if upper is not None and n >= n_min_upper:
            upper_inf, upper_sup = _side_ends(upper, c_upper, n, upper_name)
            below, rest = divmod(upper_inf[0] << scale, upper_inf[1])
            margin_upper = below - dev_hi
            above = below + (rest > 0)
            separated = separated and dev_hi < above
            if upper_sup is not upper_inf:
                above = -((-upper_sup[0] << scale) // upper_sup[1])
            falsified = falsified or dev_lo >= above
            margin = (margin_upper if margin_lower is None or margin_upper < margin_lower
                      else margin_lower)
        elif margin_lower is None:
            raise DomainError(f"no side of {entry.entry_id!r} applies at n = {n}")
        else:
            margin = margin_lower
        if falsified:
            verdict = CERTIFIED_FALSE
        elif separated:
            verdict = CERTIFIED_TRUE
        else:
            verdict = UNDECIDED
        return SweepRow(n, verdict, margin, margin_lower, margin_upper, lower_sup, upper_inf,
                        dev_lo, dev_hi, p, scale)

    return row


def sweep_rows(entry: BoundEntry, n_from: int, n_to: int, p: int,
               precision_cap: int | None = None):
    """(cap, rows): the precision cap in force and an iterator over the
    final rows of the sweep, in order, each made as it is asked for.

    The arguments are checked before this returns: a precision p below
    `numerics.MIN_PRECISION`, a cap below p, a start below the entry's
    n_min or an empty range is a DomainError.  Each row
    is made at p; while it is undecided, precision doubles (up to the
    cap) and the row is made again.  There is one `_row_walk` per
    precision, carried from row to row; its scale depends on the
    precision alone, so every row is the row a sweep of n alone gives at
    its precision, and the work is linear in the range (below N(q) the
    deviation walks H_{n-1} once, and from there on each row is O(K) work).
    Rows undecided at the cap are reported as such, never as true.
    """
    _check_precision(p)
    cap = precision_cap if precision_cap is not None else DEFAULT_CAP_FACTOR * p
    if cap < p:
        raise DomainError(f"precision cap {cap} is below the starting precision {p}")
    if not isinstance(n_from, int) or n_from < entry.n_min:
        raise DomainError(
            f"{entry.entry_id!r} is stated for n >= {entry.n_min}, got {n_from!r}"
        )
    if n_to < n_from:
        raise DomainError(f"empty sweep range {n_from}..{n_to}")
    return cap, _rows(entry, n_from, n_to, p, cap)


def _rows(entry: BoundEntry, n_from: int, n_to: int, p: int, cap: int):
    makers = {}  # precision -> row(n) of one deviation, carried from row to row

    def maker(precision: int):
        if precision not in makers:
            c = entry.constant(precision) if entry.reads_c else None
            makers[precision] = _row_walk(entry, precision, c)
        return makers[precision]

    row_at_p = maker(p)  # called directly; the dict is looked up only to escalate
    for n in range(n_from, n_to + 1):
        row = row_at_p(n)
        precision = p
        while row.verdict == UNDECIDED and precision < cap:
            precision = min(2 * precision, cap)
            row = maker(precision)(n)
        yield row
