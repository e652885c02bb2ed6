"""Machine-checkable catalog of published bounds on the gamma sequences.

Each entry states strict lower/upper bounds on the deviation of one
sequence from the Euler-Mascheroni constant, exactly as printed in the
source literature (including one knowingly weak tail term, see the
Karatsuba entry note).  Every bound side is an exact rational function
of n and of at most one real constant c, monotone in c.  c is enclosed
once per working precision, and a side that reads it is
evaluated exactly at both ends of that enclosure, which brackets the
side.  The sides are the only Fractions in a row: a sweep walks the
sequence's certified values once as integer pairs, then re-walks only
its undecided rows at each doubled precision, and the deviations from
gamma and the margins are integers at one explicit scale per walk.
It reports certified-true only under strict separation, decided
exactly; check is the one-row sweep.  Equality can therefore never be
certified; sides that are sharp at n = 1 start at n = 2.  sweep_rows
yields the rows a chunk of indices at a time, with every walk resumed
from chunk to chunk, so a sweep holds one chunk of rows at most.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .numerics import GUARD_BITS, BigReal, gamma_reference, ln_interval, sqrt_interval
from .sequences import DeTempleR, GammaN, SequenceKind, SOptimal, Walk

__all__ = [
    "BoundEntry",
    "Verdict",
    "SweepRow",
    "SweepReport",
    "Tally",
    "catalog",
    "get_entry",
    "check",
    "sweep",
    "sweep_rows",
]

Interval = tuple[Fraction, Fraction]

CERTIFIED_TRUE = "certified-true"
CERTIFIED_FALSE = "certified-false"
UNDECIDED = "undecided"

DEFAULT_CAP_FACTOR = 8
CHUNK = 256  # indices walked, escalated and yielded together by sweep_rows


def _gamma(p: int) -> Interval:
    return gamma_reference(p).bounds()


@dataclass(frozen=True)
class BoundEntry:
    """One published inequality: lower(n) < target_n - gamma < upper(n).

    Sides are callables (n, c) -> Fraction, exact rational functions of
    n and of the entry's real constant c; either side may be absent.
    constant(p) encloses c at precision p (gamma unless the entry says
    otherwise).  A side named in reads_c must be monotone in c on that
    enclosure: it is evaluated at both ends and the two values bracket
    it.  Any other side is called with c = None.  n_min is per side
    because several sources prove the two directions on different
    ranges.
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
    """One checked index.  value_lo, value_hi and the margins are integers
    at scale 2**-scale: value_lo * 2**-scale <= target_n - gamma <=
    value_hi * 2**-scale.  margin_lower is value_lo - ceil(lower * 2**scale),
    margin_upper is floor(upper * 2**scale) - value_hi and margin the least
    present; each lies in (e * 2**scale - 1, e * 2**scale] for its exact
    margin e.  The sides lower and upper are exact rationals."""

    n: int
    verdict: str
    margin: int
    margin_lower: int | None
    margin_upper: int | None
    lower: Fraction | None  # sup of the lower bound interval (binding end)
    upper: Fraction | None  # inf of the upper bound interval
    value_lo: int
    value_hi: int
    precision: int
    scale: int


class Tally:
    """Verdict counts and the first certified-true row of least margin,
    margins compared across scales, over rows added one at a time."""

    def __init__(self, rows=()):
        self.counts = {CERTIFIED_TRUE: 0, CERTIFIED_FALSE: 0, UNDECIDED: 0}
        self.least: SweepRow | None = None
        for row in rows:
            self.add(row)

    def add(self, row: SweepRow) -> None:
        self.counts[row.verdict] += 1
        least = self.least  # m / 2**s < m' / 2**s' compared as m 2**s' < m' 2**s
        if row.verdict == CERTIFIED_TRUE and (
                least is None or row.margin << least.scale < least.margin << row.scale):
            self.least = row


@dataclass(frozen=True)
class SweepReport:
    entry_id: str
    rows: tuple
    precision_start: int
    precision_cap: int

    @property
    def counts(self) -> dict:
        return Tally(self.rows).counts

    @property
    def min_margin(self) -> Fraction | None:
        row = Tally(self.rows).least
        return None if row is None else Fraction(row.margin, 1 << row.scale)

    @property
    def min_margin_n(self) -> int | None:
        row = Tally(self.rows).least
        return None if row is None else row.n


# ---------------------------------------------------------------------------
# the catalog


def _inv_linear(slope: int, offset) -> object:
    offset = Fraction(offset)
    return lambda n, c: 1 / (slope * n + offset)


def _chen_shift(p: int) -> Interval:
    """a = 1/sqrt(24 (1 - gamma - ln(3/2))) - 1, which makes chen sharp at n = 1."""
    q = p + GUARD_BITS
    g_lo, g_hi = _gamma(p)
    ln_lo, ln_hi = ln_interval(Fraction(3, 2), q)
    root_lo = sqrt_interval(24 * (1 - g_hi - ln_hi), q)[0]
    root_hi = sqrt_interval(24 * (1 - g_lo - ln_lo), q)[1]
    return 1 / root_hi - 1, 1 / root_lo - 1


def _catalog_entries() -> list[BoundEntry]:
    f = Fraction
    entries = []

    entries.append(BoundEntry(
        "tims-tyrrell", GammaN(),
        lambda n, c: f(1, 2 * (n + 1)),
        lambda n, c: f(1, 2 * (n - 1)),
        1, 2,
        "S. R. Tims, J. A. Tyrrell, Math. Gaz. 55 (1971) 65-67",
    ))
    entries.append(BoundEntry(
        "young", GammaN(),
        lambda n, c: f(1, 2 * (n + 1)),
        lambda n, c: f(1, 2 * n),
        1, 1,
        "R. M. Young, Math. Gaz. 75 (1991) 187-190",
    ))
    entries.append(BoundEntry(
        "anderson", GammaN(),
        lambda n, c: (1 - c) / n,  # c = gamma; decreasing in c
        lambda n, c: f(1, 2 * n),
        2, 1,
        "G. D. Anderson, R. W. Barnard, K. Richards, M. K. Vamanamurthy, "
        "M. Vuorinen, Trans. Amer. Math. Soc. 347 (1995) 1713-1723",
        note="the lower side is an equality at n = 1, so it is listed from n = 2",
        reads_c=("lower",),
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
    entries.append(BoundEntry(
        "alzer-chen-qi", GammaN(),
        # c = gamma; (2c - 1)/(1 - c) increases for c < 1, so the side decreases
        lambda n, c: 1 / (2 * n + (2 * c - 1) / (1 - c)),
        _inv_linear(2, f(1, 3)),
        2, 1,
        "H. Alzer, Abh. Math. Sem. Univ. Hamburg 68 (1998) 363-372; "
        "C.-P. Chen, F. Qi, arXiv:math/0306233",
        note="the lower side is an equality at n = 1 by choice of the constant",
        reads_c=("lower",),
    ))
    entries.append(BoundEntry(
        "qiu-vuorinen", GammaN(),
        lambda n, c: f(1, 2 * n) - f(1, 2 * n * n),
        lambda n, c: f(1, 2 * n) - (c - f(1, 2)) / (n * n),  # c = gamma; decreasing in c
        1, 2,
        "S.-L. Qiu, M. Vuorinen, Math. Comp. 74 (2005) 723-742, Cor. 2.13",
        note="the upper side is an equality at n = 1 by choice of beta",
        reads_c=("upper",),
    ))
    entries.append(BoundEntry(
        "franel", GammaN(),
        lambda n, c: f(1, 2 * n) - f(1, 8 * n * n),
        lambda n, c: f(1, 2 * n),
        1, 1,
        "Franel's inequality; G. Polya, G. Szego, Problems and Theorems "
        "in Analysis I, Part One, Ex. 18",
    ))
    entries.append(BoundEntry(
        "karatsuba", GammaN(),
        lambda n, c: f(1, 2 * n) - f(1, 12 * n**2) + f(1, 120 * n**4) - f(1, 126 * n**6),
        lambda n, c: f(1, 2 * n) - f(1, 12 * n**2) + f(1, 120 * n**4),
        1, 1,
        "E. A. Karatsuba, Numer. Algorithms 24 (2000) 83-97",
        note="the 1/(126 n^6) tail term is kept as printed in the source; "
             "the asymptotic expansion has 1/(252 n^6) there, so the printed "
             "lower bound is slightly weaker but still valid",
    ))
    entries.append(BoundEntry(
        "mortici-refined", GammaN(),
        lambda n, c: 1 / (2 * n + f(1, 3) + f(1, 18 * n)),
        lambda n, c: 1 / (2 * n + f(1, 3) + f(1, 32 * n)),
        1, 1,
        "C. Mortici, Bul. Univ. Petrol-Gaze din Ploiesti LXII(1) (2010) 109-112",
    ))
    entries.append(BoundEntry(
        "detemple", DeTempleR(),
        lambda n, c: f(1, 24 * (n + 1) ** 2),
        lambda n, c: f(1, 24 * n**2),
        1, 1,
        "D. W. DeTemple, Amer. Math. Monthly 100 (1993) 468-470",
    ))
    entries.append(BoundEntry(
        "chen", DeTempleR(),
        lambda n, c: 1 / (24 * (n + c) ** 2),  # c = the shift a > 0; decreasing in c
        lambda n, c: f(1, 24 * (n + f(1, 2)) ** 2),
        2, 1,
        "C.-P. Chen, Appl. Math. Lett. 23 (2010) 161-164",
        note="the lower side is an equality at n = 1 by choice of the shift",
        constant=_chen_shift,
        reads_c=("lower",),
    ))

    def chen_mortici(terms):
        def bound(n, c):
            m = n + f(1, 2)
            total = f(0)
            for coeff, power in terms:
                total += coeff / m**power
            return total

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
        lambda n, c: f(1, 12 * n**3) + f(11, 120 * n**4),
        lambda n, c: f(1, 12 * n**3) + f(13, 120 * n**4),
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


def _bracket(side, reads_c: bool, n: int, c: Interval) -> Interval:
    if not reads_c:
        v = side(n, None)
        return v, v
    a, b = side(n, c[0]), side(n, c[1])  # monotone in c, so the ends bracket it
    return (a, b) if a <= b else (b, a)


def _on_scale(x: Fraction, scale: int) -> tuple[int, int]:
    """Floor and ceiling of x * 2**scale."""
    below, rest = divmod(x.numerator << scale, x.denominator)
    return below, below + (rest > 0)


class _RowWalk:
    """SweepRows of one entry at precision p from one resumable walk at
    scale 2**-q, for increasing indices passed in any number of batches.
    c is the entry's constant enclosed at p, or None."""

    def __init__(self, entry: BoundEntry, p: int, c, q: int):
        gamma = gamma_reference(p)
        self.entry, self.p, self.c = entry, p, c
        self.lower = entry.lower if entry.n_min_lower is not None else None
        self.upper = entry.upper if entry.n_min_upper is not None else None
        # the row scale holds the walk's pairs and gamma's ends exactly
        self.scale = scale = max(q, -gamma.lo.exp, -gamma.hi.exp)
        self.g_lo = gamma.lo.mant << (scale + gamma.lo.exp)
        self.g_hi = gamma.hi.mant << (scale + gamma.hi.exp)
        self.shift = scale - q
        self.walk = Walk(entry.target, q)

    def rows(self, ns):
        entry, c, scale, shift = self.entry, self.c, self.scale, self.shift
        lower, upper, g_lo, g_hi = self.lower, self.upper, self.g_lo, self.g_hi
        for n in ns:
            v_lo, v_hi = self.walk(n)
            dev_lo, dev_hi = (v_lo << shift) - g_hi, (v_hi << shift) - g_lo
            margins = []
            lower_sup = upper_inf = margin_lower = margin_upper = None
            separated, falsified = True, False
            # an integer d > x exactly when d > floor(x), and d < x when d < ceil(x)
            if lower is not None and n >= entry.n_min_lower:
                lower_inf, lower_sup = _bracket(lower, "lower" in entry.reads_c, n, c)
                below, above = _on_scale(lower_sup, scale)
                margin_lower = dev_lo - above
                margins.append(margin_lower)
                separated = dev_lo > below
                falsified = dev_hi <= _on_scale(lower_inf, scale)[0]
            if upper is not None and n >= entry.n_min_upper:
                upper_inf, upper_sup = _bracket(upper, "upper" in entry.reads_c, n, c)
                below, above = _on_scale(upper_inf, scale)
                margin_upper = below - dev_hi
                margins.append(margin_upper)
                separated = separated and dev_hi < above
                falsified = falsified or dev_lo >= _on_scale(upper_sup, scale)[1]
            if not margins:
                raise DomainError(f"no side of {entry.entry_id!r} applies at n = {n}")
            if falsified:
                verdict = CERTIFIED_FALSE
            elif separated:
                verdict = CERTIFIED_TRUE
            else:
                verdict = UNDECIDED
            yield SweepRow(
                n=n, verdict=verdict, margin=min(margins),
                margin_lower=margin_lower, margin_upper=margin_upper,
                lower=lower_sup, upper=upper_inf,
                value_lo=dev_lo, value_hi=dev_hi,
                precision=self.p, scale=scale,
            )


def _walk_scale(p: int, bits: int) -> int:
    """The walk scale for indices of at most `bits` bits: one bit_length
    covers the walk's harmonic pair (<= n ulps wide), one is spare."""
    return p + GUARD_BITS + 2 * bits


def check(entry: BoundEntry, n: int, p: int) -> Verdict:
    """Certified verdict for one entry at one index: the one-row sweep at p."""
    row = sweep(entry, n, n, p, precision_cap=p).rows[0]
    return Verdict(
        holds=row.verdict,
        margin=BigReal.from_fraction(Fraction(row.margin, 1 << row.scale),
                                     max(64, min(p, 128)), "floor"),
        precision=p,
    )


def sweep_rows(entry: BoundEntry, n_from: int, n_to: int, p: int,
               precision_cap: int | None = None):
    """(cap, rows): the precision cap in force and an iterator over the
    final rows of the sweep, in order, made a chunk of CHUNK indices at a time.

    The arguments are checked before this returns: a cap below p, a start
    below the entry's n_min or an empty range is a DomainError.  Each
    chunk is walked at p; precision then doubles (up to the cap) and each
    doubling re-walks only the chunk's rows still undecided.  There is one
    resumable walk per precision and bit length of n, carried from chunk
    to chunk, which gives every row the scale of a sweep of n alone and
    keeps the work linear in the range.  Rows undecided at the cap are
    reported as such, never as true.
    """
    cap = precision_cap if precision_cap is not None else DEFAULT_CAP_FACTOR * p
    if cap < p:
        raise DomainError(f"precision cap {cap} is below the starting precision {p}")
    if not isinstance(n_from, int) or n_from < entry.n_min:
        raise DomainError(
            f"{entry.entry_id!r} is stated for n >= {entry.n_min}, got {n_from!r}"
        )
    if n_to < n_from:
        raise DomainError(f"empty sweep range {n_from}..{n_to}")
    return cap, _chunked_rows(entry, n_from, n_to, p, cap)


def _chunked_rows(entry: BoundEntry, n_from: int, n_to: int, p: int, cap: int):
    constants = {}  # precision -> the entry's constant, enclosed once
    escalated = {}  # (precision, bit length of n) -> _RowWalk

    def walk(precision: int, q: int) -> _RowWalk:
        if precision not in constants:
            constants[precision] = entry.constant(precision) if entry.reads_c else None
        return _RowWalk(entry, precision, constants[precision], q)

    main = walk(p, _walk_scale(p, n_to.bit_length()))
    for start in range(n_from, n_to + 1, CHUNK):
        rows = list(main.rows(range(start, min(start + CHUNK, n_to + 1))))
        precision = p
        while precision < cap:
            undecided = [row.n for row in rows if row.verdict == UNDECIDED]
            if not undecided:
                break
            precision = min(2 * precision, cap)
            for bits, ns in itertools.groupby(undecided, int.bit_length):
                key = (precision, bits)
                if key not in escalated:
                    escalated[key] = walk(precision, _walk_scale(precision, bits))
                for row in escalated[key].rows(ns):
                    rows[row.n - start] = row
        yield from rows


def sweep(entry: BoundEntry, n_from: int, n_to: int, p: int,
          precision_cap: int | None = None) -> SweepReport:
    """Check an entry across a range, escalating precision on undecided
    rows: every row of sweep_rows, kept in one report."""
    cap, rows = sweep_rows(entry, n_from, n_to, p, precision_cap)
    return SweepReport(
        entry_id=entry.entry_id,
        rows=tuple(rows),
        precision_start=p,
        precision_cap=cap,
    )
