"""Interior boundaries, boundary ratios, and Folner-set search.

Ratios are exact rationals internally; floats appear only at the reporting
edge.  Three estimators are provided and never conflated: exact minima over
small balls, the canonical ball family, and seeded local search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import (
    DescriptorMismatch,
    InvariantViolation,
    PreconditionError,
    SearchSpaceTooLarge,
    SeedRequired,
)
from .words import (
    GroupDescriptor,
    Word,
    ball,
    ball_size,
    capped_ball_size,
    check_translation_cost,
    format_word,
    free_sphere_size,
    multiply,
    shortlex_sorted,
    standard_generators,
    translation_indices,
    words_of,
)

EXHAUSTIVE_BALL_CAP = 22  # |ball| cap: at most 2^22 candidate subsets
EXHAUSTIVE_CHUNK = 1 << 20  # subset bitmasks evaluated per vectorized pass
EXHAUSTIVE_WORK_CAP = 1 << 30  # most mask entries the pass over all subsets visits, 2|X| * |ball| * 2^|ball|
SEARCH_WORK_CAP = 1 << 24  # most rows the toggles of a local search visit, iterations * 2|X|
FAMILY_RADIUS_CAP = 2_000  # largest r_max of a ball family; its exact big-integer closed forms cost ~r_max^2.2
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

    def sorted_members(self) -> list[Word]:
        return shortlex_sorted(self.descriptor, self.members)

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
    from another group, and a table past words.TABLE_CAP before the ball is built."""
    if X.descriptor != descriptor:
        raise DescriptorMismatch(f"generating set of {X.descriptor.spec()} for a ball of {descriptor.spec()}")
    check_translation_cost(descriptor, X.generators * 2, radius)  # X u X^-1: 2|X| words at most
    b = ball(descriptor, radius)
    gens = [x for x in X.closure() if not x.is_identity]
    return b, translation_indices(descriptor, b, gens, right=True)


# ---------------------------------------------------------------------------
# Exhaustive search over all non-empty subsets of a ball (bitmask-vectorized).


def _subset_boundary_counts(masks: np.ndarray, nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary popcount and size popcount for each subset bitmask; nbr[x, i]
    is the ball index of elements[i] * closure[x], or -1 outside the ball."""
    interior = masks.copy()
    one = np.uint64(1)
    for xi in range(nbr.shape[0]):
        stay = np.zeros_like(masks)
        for i in range(nbr.shape[1]):
            j = nbr[xi, i]
            if j >= 0:
                stay |= ((masks >> np.uint64(j)) & one) << np.uint64(i)
        interior &= stay
    bnd = masks & ~interior
    return np.bitwise_count(bnd).astype(np.int64), np.bitwise_count(masks).astype(np.int64)


def exhaustive_min_ratio(
    descriptor: GroupDescriptor,
    X: GeneratingSet,
    radius: int,
) -> tuple[ElementSet, BoundaryReport]:
    """True minimum of the boundary ratio over all non-empty subsets of ball(radius).

    Ties are broken by smaller set size, then by shortlex-lexicographic
    membership.  Refuses, before building the ball, when |ball(radius)| exceeds
    the 2^22 subset cap, or the subset pass or the table its own cap.
    """
    if (size := capped_ball_size(descriptor, max(radius, 0))) > EXHAUSTIVE_BALL_CAP:
        raise SearchSpaceTooLarge(f"|ball({radius})| exceeds the exhaustive cap of {EXHAUSTIVE_BALL_CAP}")
    if (work := 2 * len(X.generators) * size << size) > EXHAUSTIVE_WORK_CAP:
        raise SearchSpaceTooLarge(f"the subset pass visits {work} mask entries > the cap of {EXHAUSTIVE_WORK_CAP}")
    b, nbr = translation_table(descriptor, X, radius)
    n = len(b)
    total = (1 << n) - 1

    best: tuple[Fraction, int, tuple[int, ...]] | None = None
    for start in range(1, total + 1, EXHAUSTIVE_CHUNK):
        stop = min(start + EXHAUSTIVE_CHUNK, total + 1)
        masks = np.arange(start, stop, dtype=np.uint64)
        bcnt, scnt = _subset_boundary_counts(masks, nbr)
        ratios = bcnt / scnt
        # distinct rationals with denominators <= 22 are separated far beyond
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
    one path.  Refused before any work: radii above FAMILY_RADIUS_CAP, X from
    another group, and an enumeration whose table of ball(r_max) is past its cap.
    Enumeration reads each ball(r), the shortlex prefix of ball(r_max) of length
    |ball(r)|, off that one table: i is on its boundary iff a translate of i is not.
    """
    if r_max < 1:
        raise PreconditionError("r_max must be >= 1")
    if r_max > FAMILY_RADIUS_CAP:
        raise SearchSpaceTooLarge(f"r_max = {r_max} exceeds the ball-family radius cap of {FAMILY_RADIUS_CAP}")
    if method not in ("auto", "enumerate", "closed_form"):
        raise PreconditionError(f"unknown method {method!r}")
    if X.descriptor != descriptor:
        raise DescriptorMismatch(f"generating set of {X.descriptor.spec()} for balls of {descriptor.spec()}")
    closed_ok = descriptor.is_free and X.is_standard()
    if method == "closed_form" and not closed_ok:
        raise PreconditionError("closed form only applies to free groups with standard generators")

    use_closed = method == "closed_form" or (method == "auto" and closed_ok)
    if not use_closed:
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
        if self.seed is None:
            raise SeedRequired("local search requires an explicit seed")


@dataclass
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
    A toggle costs O(|X u X^-1|): it updates the boundary count through the
    elements whose neighbour it is, without rescanning the ball.  The best set
    is rebuilt at the end by replaying the accepted toggles up to it.  Refuses,
    before building the ball, toggles and tables of translates past their caps.
    """
    if (work := config.iterations * 2 * len(X.generators)) > SEARCH_WORK_CAP:
        raise SearchSpaceTooLarge(f"{config.iterations} toggles visit up to {work} rows > the cap of {SEARCH_WORK_CAP}")
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

    def toggle(i: int) -> None:
        nonlocal bcnt, size
        add = not member[i]
        member[i] = add
        # adding i: a member p with p * x = i leaves the boundary when bad[p] reaches 0;
        # removing i: it joins the boundary when bad[p] reaches 1
        step, edge = (-1, 0) if add else (1, 1)
        for prow in preds:
            p = prow[i]
            if p >= 0:
                bad[p] += step
                if member[p] and bad[p] == edge:
                    bcnt += step
        if bad[i]:
            bcnt -= step
        size -= step

    rng = np.random.default_rng(config.seed)
    current = bcnt / size
    best = (Fraction(bcnt, size), size, 0)  # the best set is start after the first k accepted toggles
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
        toggle(i)
        cand = bcnt / size
        accept = cand <= current or (temp > 0 and rng.random() < math.exp((current - cand) / temp))
        if accept:
            current = cand
            toggled[len(history)] = i
            history.append(AcceptedMove(it, "-" if removing else "+", bcnt, size))  # named below
            frac = Fraction(bcnt, size)
            if (frac, size) < (best[0], best[1]):
                best = (frac, size, len(history))
        else:
            toggle(i)  # undo
        temp *= TEMP_DECAY

    # each accepted move names its word, made once per distinct ball row
    rows, which = np.unique(toggled[: len(history)], return_inverse=True)
    names = [format_word(w) for w in words_of(descriptor, b[rows])]
    for move, j in zip(history, which.tolist()):
        move.move += names[j]
    frac, _, k = best
    bm = start ^ (np.bincount(toggled[:k], minlength=n) % 2 == 1)
    members = ElementSet.of(descriptor, words_of(descriptor, b[bm]))
    report = boundary_ratio(members, X)
    if report.ratio != frac or report.ratio > initial_report.ratio:
        raise InvariantViolation(
            f"search result {report.ratio} differs from the tracked {frac} or exceeds the start {initial_report.ratio}"
        )
    return LocalSearchResult(members, report, history, initial_report)
