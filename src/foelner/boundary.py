"""Interior boundaries, boundary ratios, and Folner-set search.

Ratios are exact rationals internally; floats appear only at the reporting
edge.  Three estimators are provided and never conflated: exact minima over
small balls, the canonical ball family, and seeded local search.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import budget
from .errors import (
    DescriptorMismatch,
    InvariantViolation,
    PreconditionError,
    SearchSpaceTooLarge,
    check_seed,
)
from .words import (
    GroupDescriptor,
    Word,
    ball,
    ball_size,
    ball_units,
    format_word,
    free_sphere_size,
    multiply,
    parse_generators,
    shortlex_sorted,
    standard_generators,
    translation_indices,
    words_of,
)

EXHAUSTIVE_CHUNK = 1 << 16  # subset bitmasks evaluated per vectorized pass: 512 KB per mask array
TEMP_INITIAL = 0.25  # local-search temperature at the first iteration
TEMP_DECAY = 0.999  # its factor per iteration


@dataclass(frozen=True)
class ElementSet:
    """A finite set of words sharing one descriptor."""

    descriptor: GroupDescriptor
    members: frozenset

    @staticmethod
    def of(descriptor: GroupDescriptor, words: Iterable[Word]) -> "ElementSet":
        ws = frozenset(words)
        for w in ws:
            if w.descriptor != descriptor:
                raise DescriptorMismatch(f"member {format_word(w)} has descriptor {w.descriptor.spec()}")
        return ElementSet(descriptor, ws)

    def as_json(self) -> list[str]:
        return [format_word(w) for w in shortlex_sorted(self.descriptor, self.members)]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class GeneratingSet:
    """Finite generating set; boundary computations use X and X^-1."""

    descriptor: GroupDescriptor
    generators: tuple[Word, ...]

    @staticmethod
    def of(descriptor: GroupDescriptor, words: Iterable[Word]) -> "GeneratingSet":
        ws = set(words)
        if not ws:
            raise PreconditionError("generating set must be non-empty")
        for w in ws:
            if w.descriptor != descriptor:
                raise DescriptorMismatch(f"generator {format_word(w)} has descriptor {w.descriptor.spec()}")
        return GeneratingSet(descriptor, tuple(shortlex_sorted(descriptor, ws)))

    @staticmethod
    def standard(descriptor: GroupDescriptor) -> "GeneratingSet":
        return GeneratingSet(descriptor, standard_generators(descriptor))  # distinct and shortlex-sorted already

    def closure(self) -> tuple[Word, ...]:
        """X union X^-1, deduplicated, shortlex-sorted."""
        both = set(self.generators) | {g.inverse() for g in self.generators}
        return tuple(shortlex_sorted(self.descriptor, both))

    def is_standard(self) -> bool:
        return self.generators == standard_generators(self.descriptor)


@dataclass(frozen=True)
class BoundaryReport:
    set_size: int
    boundary_size: int
    ratio: Fraction

    def __post_init__(self):
        if self.set_size <= 0:
            raise PreconditionError("boundary ratio of an empty set")
        if self.ratio != Fraction(self.boundary_size, self.set_size):
            raise InvariantViolation(f"ratio {self.ratio} != {self.boundary_size}/{self.set_size}")

    @property
    def ratio_float(self) -> float:
        return self.boundary_size / self.set_size

    def as_json(self) -> dict:
        ratio = f"{self.ratio.numerator}/{self.ratio.denominator}"
        return {"set_size": self.set_size, "boundary_size": self.boundary_size, "ratio_rational": ratio,
                "ratio_float": self.ratio_float}

    @staticmethod
    def of(set_size: int, boundary_size: int) -> "BoundaryReport":
        return BoundaryReport(set_size, boundary_size, Fraction(boundary_size, set_size))


def interior_boundary(A: ElementSet, X: GeneratingSet) -> ElementSet:
    """Members a of A with a*x outside A for some x in X or X^-1."""
    if A.descriptor != X.descriptor:
        raise DescriptorMismatch("set and generating set live in different groups")
    if not A.members:
        raise PreconditionError("interior boundary of an empty set")
    closure = X.closure()
    members = A.members
    bd = [a for a in members if any(multiply(a, x) not in members for x in closure)]
    return ElementSet(A.descriptor, frozenset(bd))


def boundary_ratio(A: ElementSet, X: GeneratingSet) -> BoundaryReport:
    """Exact rational #boundary(A) / #A."""
    bd = interior_boundary(A, X)
    return BoundaryReport.of(len(A.members), len(bd.members))


def translation_table(descriptor: GroupDescriptor, X: GeneratingSet, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """(ball(radius), nbr) with nbr[x, i] the ball index of ball[i] * x, or -1 outside the ball,
    for x in X u X^-1 but e (which moves no member off a set, so no count changes).  Refuses X
    from another group, and a table past a bound of the budget, before the ball is built."""
    if X.descriptor != descriptor:
        raise DescriptorMismatch(f"generating set of {X.descriptor.spec()} for a ball of {descriptor.spec()}")
    budget.check(f"the table of ball({radius})", *ball_units(descriptor, radius, X.generators * 2))  # 2|X| >= |X u X^-1|
    b = ball(descriptor, radius)
    gens = [x for x in X.closure() if not x.is_identity]
    return b, translation_indices(descriptor, b, gens, right=True)


# ---------------------------------------------------------------------------
# Exhaustive search over all non-empty subsets of a ball (bitmask-vectorized).


def _subset_boundary_counts(masks: np.ndarray, nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary popcount and size popcount for each subset bitmask; nbr[x, i]
    is the ball index of elements[i] * closure[x], or -1 outside the ball.  Element i is
    interior to m iff m holds nb[i], the bits of i and of its neighbours."""
    size = np.bitwise_count(masks).astype(np.int64)
    interior = np.zeros_like(size)
    for i in np.flatnonzero((nbr >= 0).all(axis=0)):  # one with a neighbour off the ball is never interior
        nb = np.bitwise_or.reduce(np.uint64(1) << nbr[:, i].astype(np.uint64), initial=np.uint64(1) << np.uint64(i))
        interior += (masks & nb) == nb
    return size - interior, size


def exhaustive_min_ratio(
    descriptor: GroupDescriptor,
    X: GeneratingSet,
    radius: int,
) -> tuple[ElementSet, BoundaryReport]:
    """True minimum of the boundary ratio over all non-empty subsets of ball(radius).

    Ties are broken by smaller set size, then by shortlex-lexicographic
    membership.  Refuses, before building the ball, a pass over all subsets
    or a table past a bound of the budget.  Each subset is charged one mask visit for each
    element of the ball, the most neighbourhoods the pass tests, and 20 more, whatever X is.
    """
    table = ball_units(descriptor, max(radius, 0), X.generators * 2)
    size = table[0]["rows"]  # a pass of EXHAUSTIVE_CHUNK subsets is part of budget.BASE_MB
    budget.check(f"a search over all subsets of ball({radius})", *table, masks=(size + 20) << size)
    b, nbr = translation_table(descriptor, X, radius)
    n = len(b)
    total = (1 << n) - 1

    best: tuple[Fraction, int, tuple[int, ...]] | None = None
    for start in range(1, total + 1, EXHAUSTIVE_CHUNK):
        stop = min(start + EXHAUSTIVE_CHUNK, total + 1)
        masks = np.arange(start, stop, dtype=np.uint64)
        bcnt, scnt = _subset_boundary_counts(masks, nbr)
        ratios = bcnt / scnt
        # distinct rationals with denominators <= |ball| (<= 26 within the time bound) are separated far beyond
        # float error, so a float window isolates the exact minimizers; of those,
        # the smallest sets share one boundary count too
        cand = np.flatnonzero(ratios <= ratios.min() + 1e-9)
        cand = cand[scnt[cand] == scnt[cand].min()]
        winners = masks[cand]
        for bit in range(n):  # the lexicographically first member tuple: keep the holders of each lowest bit
            held = (winners >> np.uint64(bit)) & np.uint64(1) == 1
            if held.any():
                winners = winners[held]
        mask, ci = int(winners[0]), cand[0]
        key = (Fraction(int(bcnt[ci]), int(scnt[ci])), int(scnt[ci]), tuple(i for i in range(n) if (mask >> i) & 1))
        if best is None or key < best:
            best = key
    if best is None:
        raise InvariantViolation("no subset was evaluated")
    frac, size, indices = best
    members = ElementSet.of(descriptor, words_of(descriptor, b[list(indices)]))
    return members, BoundaryReport(size, int(frac * size), frac)


# ---------------------------------------------------------------------------
# The ball family.


@dataclass(frozen=True)
class BallRatio:
    radius: int
    report: BoundaryReport
    method: str  # "enumerated" or "closed_form"


def ball_family_ratios(
    descriptor: GroupDescriptor,
    X: GeneratingSet,
    r_max: int,
    method: str = "auto",
) -> list[BallRatio]:
    """Boundary ratios of ball(r) for r = 1..r_max.

    method 'auto' uses the closed form for free groups with standard
    generators and enumeration otherwise; 'enumerate' and 'closed_form' force
    one path.  Refused before any work: X from another group, a family past a
    bound of the budget, and closed forms too long for Python to spell in decimal.
    Enumeration reads each ball(r), the shortlex prefix of ball(r_max) of length
    |ball(r)|, off that one table: i is on its boundary iff a translate of i is not.
    """
    if r_max < 1:
        raise PreconditionError("r_max must be >= 1")
    if method not in ("auto", "enumerate", "closed_form"):
        raise PreconditionError(f"unknown method {method!r}")
    if X.descriptor != descriptor:
        raise DescriptorMismatch(f"generating set of {X.descriptor.spec()} for balls of {descriptor.spec()}")
    closed_ok = descriptor.is_free and X.is_standard()
    if method == "closed_form" and not closed_ok:
        raise PreconditionError("closed form only applies to free groups with standard generators")

    use_closed = method == "closed_form" or (method == "auto" and closed_ok)
    what = f"the ball family up to radius {r_max}"
    if use_closed:
        if (limit := sys.get_int_max_str_digits()) and r_max * math.log10(2 * descriptor.rank - 1) + 2 > limit:
            raise SearchSpaceTooLarge(f"{what} has closed forms past Python's {limit} decimal digits")
        budget.check(what, radii=r_max, digits=r_max * (int(r_max * math.log10(2 * descriptor.rank - 1) + 2) // 150))
    else:
        table = ball_units(descriptor, r_max, X.generators * 2)
        budget.check(what, *table, masks=r_max * table[0]["rows"], radii=r_max)
        b, nbr = translation_table(descriptor, X, r_max)
        far = np.where(nbr < 0, len(b), nbr).max(axis=0, initial=-1)  # each member's farthest translate
    out: list[BallRatio] = []
    for r in range(1, r_max + 1):
        size = ball_size(descriptor, r)
        bd = free_sphere_size(descriptor.rank, r) if use_closed else int((far[:size] >= size).sum())
        out.append(BallRatio(r, BoundaryReport.of(size, bd), "closed_form" if use_closed else "enumerated"))
    return out


# ---------------------------------------------------------------------------
# Seeded local search (simulated annealing on single-element toggles).


@dataclass(frozen=True)
class GroupSearchConfig:
    radius: int
    mode: str = "search"  # always "search"; callers may still pass it
    seed: int | None = None
    iterations: int = 10_000

    def __post_init__(self):
        if self.mode != "search":
            raise PreconditionError(f"a local search has mode 'search', not {self.mode!r}")
        if self.radius < 0:
            raise PreconditionError("radius must be >= 0")
        check_seed("local search", self.seed, "iterations", self.iterations)


@dataclass  # not a dict per move: instances share one key table (peak RSS of a 100k-iteration search 102.2 vs 109.9 MB)
class AcceptedMove:
    iteration: int
    move: str  # "+word" or "-word"
    boundary_size: int
    set_size: int


@dataclass
class LocalSearchResult:
    best_set: ElementSet
    report: BoundaryReport
    history: list[AcceptedMove]
    initial_report: BoundaryReport


def local_search_min_ratio(
    descriptor: GroupDescriptor,
    X: GeneratingSet,
    config: GroupSearchConfig,
) -> LocalSearchResult:
    """Annealed single-element toggles within ball(radius), starting from {e}.

    Deterministic for a fixed seed.  The reported ratio is an achieved value,
    hence an upper bound for the infimum; it never exceeds the initial ratio.
    A toggle is scored in O(|X u X^-1|) before it is made, through the elements whose
    neighbour it is, without rescanning the ball, and only an accepted one is made.  The
    best set is rebuilt at the end by replaying the accepted toggles up to it, and checked
    word by word.  Refuses, before building the ball, a run past a bound of the budget.
    """
    steps, closure, table = config.iterations, 2 * len(X.generators), ball_units(descriptor, config.radius, X.generators * 2)
    rows, word = table[0]["rows"], 32 + (config.radius + 1 if descriptor.is_free else descriptor.rank)  # a Word's units
    members = min(steps + 1, rows)  # of the best set, which the final check multiplies by X u X^-1
    budget.check(f"a local search of {steps} iterations on ball({config.radius})", *table, {"moves": steps, "integers": 2 * rows,
                 "toggles": steps * (closure + 150) + members * closure * word}, words=members * word)
    b, nbr = translation_table(descriptor, X, config.radius)
    n = len(b)
    start = np.arange(n) == 0  # the set {e}: e is row 0 of the ball

    # A toggle of i moves bad[p] for the p with p * x = i, that is p = i * x^-1; X u X^-1
    # is closed under inverses, so those p are the entries nbr[x, i] = i * x of column i
    # (the table leaves out e, whose self-loop p * e = p would make p its own predecessor).
    preds = [memoryview(row) for row in nbr]  # flat rows whose items index as Python ints
    # bad[p]: the x in the table with p * x outside the ball or outside the set;
    # p is on the boundary iff it is a member and bad[p] > 0
    bad = ((nbr < 0) | ~start[nbr]).sum(axis=0).tolist()
    member = start.tolist()
    bcnt = sum(1 for m, d in zip(member, bad) if m and d)
    size = int(start.sum())

    rng = np.random.default_rng(config.seed)
    current = bcnt / size
    best = (bcnt, size, 0)  # the best set is start after the first k accepted toggles
    toggled = np.empty(config.iterations, dtype=np.int64)  # the accepted toggles, one per history entry
    initial_report = BoundaryReport.of(size, bcnt)
    history: list[AcceptedMove] = []
    temp = TEMP_INITIAL

    for it in range(config.iterations):
        i = int(rng.integers(n))
        removing = member[i]
        if removing and size == 1:
            temp *= TEMP_DECAY
            continue  # never empty the set
        # scored before it is made: removing i puts on the boundary each member p with bad[p]
        # reaching 1, adding i takes off it each one with bad[p] reaching 0; i itself counts iff bad[i]
        edge, step = (0, 1) if removing else (1, -1)
        moved = sum(1 for prow in preds if (p := prow[i]) >= 0 and member[p] and bad[p] == edge) - (bad[i] > 0)
        cand_bcnt, cand_size = (bcnt + moved, size - 1) if removing else (bcnt - moved, size + 1)
        cand = cand_bcnt / cand_size
        if cand <= current or (temp > 0 and rng.random() < math.exp((current - cand) / temp)):
            for prow in preds:
                if (p := prow[i]) >= 0:
                    bad[p] += step
            member[i] = not removing
            bcnt, size, current = cand_bcnt, cand_size, cand
            toggled[len(history)] = i
            history.append(AcceptedMove(it, "-" if removing else "+", bcnt, size))  # named below
            if (bcnt * best[1], size) < (best[0] * size, best[1]):  # a lower ratio, or as low on fewer members
                best = (bcnt, size, len(history))
        temp *= TEMP_DECAY

    # each accepted move names its word, made once per distinct ball row
    rows, which = np.unique(toggled[: len(history)], return_inverse=True)
    names = [format_word(w) for w in words_of(descriptor, b[rows])]
    for move, j in zip(history, which.tolist()):
        move.move += names[j]
    frac, k = Fraction(best[0], best[1]), best[2]
    bm = start ^ (np.bincount(toggled[:k], minlength=n) % 2 == 1)
    members = ElementSet.of(descriptor, words_of(descriptor, b[bm]))
    report = boundary_ratio(members, X)
    if report.ratio != frac or report.ratio > initial_report.ratio:
        raise InvariantViolation(
            f"search result {report.ratio} differs from the tracked {frac} or exceeds the start {initial_report.ratio}"
        )
    return LocalSearchResult(members, report, history, initial_report)


# ---------------------------------------------------------------------------
# The `group` run.


def group_run(group: str, gens: str | None, radius: int, mode: str, iters: int, seed: int | None) -> dict:
    """The report of `group`: the estimator `mode` ("exhaustive", "balls" or "search") up to `radius`
    on the group `group` ("free:N" or "abelian:N") with the comma-separated generators `gens`, or
    the standard ones when None.  Only the search reads `iters` and `seed`.  Refuses generators that are
    all the identity, which leave every set without a boundary; each estimator checks and charges its run
    before it builds any ball."""
    descriptor = GroupDescriptor.parse(group)
    X = GeneratingSet.standard(descriptor) if gens is None else GeneratingSet.of(descriptor, parse_generators(descriptor, gens))
    if all(x.is_identity for x in X.generators):
        raise PreconditionError(f"the generators {gens} are all the identity, so no set has a boundary")
    if mode == "exhaustive":
        best, report = exhaustive_min_ratio(descriptor, X, radius)
        best_set, history = best.as_json(), []
    elif mode == "balls":
        family = ball_family_ratios(descriptor, X, radius)
        report, best_set = family[-1].report, f"ball(radius={family[-1].radius})"
        history = [{"radius": fr.radius, **fr.report.as_json(), "method": fr.method} for fr in family]
    elif mode == "search":
        res = local_search_min_ratio(descriptor, X, GroupSearchConfig(radius, seed=seed, iterations=iters))
        # vars(): each move's own field dict; asdict() would copy every field of thousands of moves
        report, best_set, history = res.report, res.best_set.as_json(), [vars(m) for m in res.history]
    else:
        raise PreconditionError(f"unknown mode {mode!r}")
    return {"group": descriptor.spec(), "generators": [format_word(g) for g in X.generators], "mode": mode,
            "best_set": best_set, **report.as_json(), "history": history}
