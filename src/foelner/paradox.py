"""Finite-scale audit of the paradoxical lower-bound argument on free groups.

Prefix sets (words sharing a first letter), their translates, per-frame
mass values, the displacement bound certified through the
nearest-unitary approximation, and the inequality chain in two constant
regimes: the literal replay and the re-derived honest one.  Verdicts always
use the honest constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import budget
from .connes import FRAME_MAX_SUPPORT, random_frame
from .errors import InvalidLetter, InvariantViolation, PreconditionError, check_seed
from .l2ops import (CommutatorRatio, Frame, GroupAlgebraElement, commutator_ratios, direct_route_units, polar_distance,
                    svd_small)
from .words import GroupDescriptor, Word, ball, ball_units, format_word, free_group, letters_in_order, multiply, words_of

PAPER_EPSILON = Fraction(1, 7)
PAPER_DISPLACEMENT = Fraction(4, 49)
PAPER_PINCER = Fraction(5, 12)
# Largest eps for which the re-derived chain guarantees a contradiction: it
# needs B_a + B_b < 1/6 with B = 2(eps/sqrt(2) + delta') and delta' -> 0.
DERIVED_THRESHOLD = math.sqrt(2.0) / 24.0
THRESHOLD_NOTE = (
    "the displayed chain bounds the square of the displacement; taking the "
    "square root honestly turns 4/49 into 2/7 and the closing constant into "
    f"{DERIVED_THRESHOLD:.6f} instead of {float(PAPER_EPSILON):.6f}"
)


@dataclass(frozen=True)
class PrefixSet:
    """A first-letter set S_{a_i^eps} (or {e}), optionally translated: t * S.

    row_mask() decides membership for all rows of an array of F_n normal forms at once.
    """

    descriptor: GroupDescriptor
    base_letter: int | None  # None encodes the singleton {e}
    translate: Word | None = None

    def __post_init__(self):
        if not self.descriptor.is_free:
            raise PreconditionError("prefix sets live in free groups")
        if self.base_letter is not None and not 0 < abs(self.base_letter) <= self.descriptor.rank:
            raise InvalidLetter(f"letter {self.base_letter} out of range for rank {self.descriptor.rank}")

    def _translate_word(self) -> Word:
        return self.translate if self.translate is not None else Word.identity(self.descriptor)

    def row_mask(self, letters: np.ndarray) -> np.ndarray:
        """Membership of every row of an array of normal forms (words.ball's layout).

        t^-1 w begins with l exactly when either w = t u with u beginning with
        l, or w does not begin with t and l inverts t's last letter; {e} is the
        row w = t, i.e. l = 0 after the prefix t.
        """
        t = self._translate_word().data
        m = len(t)
        l = 0 if self.base_letter is None else self.base_letter
        if m < letters.shape[1]:
            after_t = (letters[:, :m] == t).all(axis=1)
            return np.where(after_t, letters[:, m] == l, m > 0 and -t[-1] == l)
        return np.full(len(letters), -t[-1] == l)  # no row is as long as t

    def translated(self, g: Word) -> "PrefixSet":
        return PrefixSet(self.descriptor, self.base_letter, multiply(g, self._translate_word()))

    def label(self) -> str:
        core = "{e}" if self.base_letter is None else f"S({format_word(Word(self.descriptor, (self.base_letter,)))})"
        t = self._translate_word()
        return core if t.is_identity else f"{format_word(t)}*{core}"


# ---------------------------------------------------------------------------
# Set identities.


@dataclass(frozen=True)
class SetIdentityReport:
    radius: int
    checked_words: int
    disjoint_ok: bool
    corrected_cover_ok: bool
    literal_cover_holds: bool
    uncovered_count: int
    uncovered_examples: tuple[str, ...]
    uncovered_equals_first_letter_set: bool


def verify_set_identities(radius: int) -> SetIdentityReport:
    """Exact checks on ball(radius - 1) in F2, with S = words beginning a^-1.

    (i) S, bS, b^-1 S are pairwise disjoint; (ii) the corrected cover: S_a and
    aS partition everything; (iii) the literal union S + aS, reporting the
    words it leaves uncovered (exactly those beginning with a).  Each set is
    one row mask over the ball's array.
    """
    if radius < 2:
        raise PreconditionError("radius must be >= 2")
    descriptor = free_group(2)
    a = Word(descriptor, (1,))
    b = Word(descriptor, (2,))
    check_ball = ball(descriptor, radius - 1)
    s, s_a, a_s, b_s, binv_s = (
        PrefixSet(descriptor, l, t).row_mask(check_ball)
        for l, t in ((-1, None), (1, None), (-1, a), (-1, b), (-1, b.inverse()))
    )
    literal = s | a_s
    uncovered = np.flatnonzero(~literal)
    return SetIdentityReport(
        radius=radius,
        checked_words=len(check_ball),
        disjoint_ok=bool((s.astype(int) + b_s + binv_s <= 1).all()),
        corrected_cover_ok=bool((s_a != a_s).all()),
        literal_cover_holds=len(uncovered) == 0,
        uncovered_count=len(uncovered),
        uncovered_examples=tuple(map(format_word, words_of(descriptor, check_ball[uncovered[:5]]))),
        uncovered_equals_first_letter_set=bool((literal != s_a).all()),
    )


# ---------------------------------------------------------------------------
# Displacement bounds.


def displacement_bound(ev: CommutatorRatio, c_s: float, c_pull: float, c_push: float) -> dict:
    """Measured mass displacement of a set S under U = L_g, from the masses c_S, c_{g^-1 S} and
    c_{g S} on a frame, against its certified bound, from ev = commutator_ratio(U, frame).

    certified = 2 ||Ue - W|| with ||Ue - W||^2 = dist^2 + (1 - tau_k(A*A)),
    an exact identity for the polar factor W of A = ev.compression, whose distance
    dist reads A's singular values alone; measured <= certified is a theorem, and a
    violation raises InvariantViolation.
    """
    dist = polar_distance(svd_small(ev.compression)[1])
    gap = ev.closed_form / math.sqrt(2.0)  # sqrt(1 - tau_k(A*A))
    certified = 2.0 * math.sqrt(dist * dist + gap * gap)
    pull, push = abs(c_pull - c_s), abs(c_push - c_s)
    measured = max(pull, push)
    if measured > certified + 1e-9:
        raise InvariantViolation(f"displacement theorem violated: {measured} > {certified}")
    return {
        "measured_pull": pull,  # |c_{U^-1 S} - c_S|
        "measured_push": push,  # |c_{U S} - c_S|
        "measured": measured,
        "certified": certified,  # 2 ||Ue - W||_{tau_k}, W the polar factor of eUe
        "w_distance": dist,  # ||eUe - W||_{tau_k}
        "compression_gap": gap,  # sqrt(1 - tau_k(A* A)) = ||Ue - eUe||_{tau_k}
    }


# ---------------------------------------------------------------------------
# The inequality chain.


@dataclass(frozen=True)
class PaperTrace:
    """Replay of the literal constant regime (provenance only, never a verdict)."""

    epsilon: float
    displacement_constant: float
    pincer_lower: float  # 1/2 - 4/49
    pincer_upper: float  # 1/3 + 4/49
    pincer_threshold: float  # 5/12
    lower_exceeds_threshold: bool
    upper_below_threshold: bool
    chain_closes: bool
    honest_displacement_constant: float  # 2/7 after restoring the square root


def make_paper_trace() -> PaperTrace:
    lower = 0.5 - float(PAPER_DISPLACEMENT)
    upper = 1.0 / 3.0 + float(PAPER_DISPLACEMENT)
    thr = float(PAPER_PINCER)
    return PaperTrace(
        epsilon=float(PAPER_EPSILON),
        displacement_constant=float(PAPER_DISPLACEMENT),
        pincer_lower=lower,
        pincer_upper=upper,
        pincer_threshold=thr,
        lower_exceeds_threshold=lower > thr,
        upper_below_threshold=upper < thr,
        chain_closes=(lower > thr) and (upper < thr),
        honest_displacement_constant=2.0 / 7.0,
    )


@functools.cache
def _chain_sets(descriptor: GroupDescriptor) -> tuple[tuple[str, ...], np.ndarray]:
    """The labels of the sets the chain weighs, and their membership by a row's first two letters.

    The sets are the first-letter partition, then t S for t = a, b, b^-1 and a^-1 with
    S = S(a^-1).  No translate is longer than one letter, so whether a row lies in
    a set depends on its first two letters x, y alone: lookup[i, (2n + 1)(x + n) + y + n].
    """
    a, b, base = Word(descriptor, (1,)), Word(descriptor, (2,)), PrefixSet(descriptor, -1)
    sets = [PrefixSet(descriptor, l) for l in (None, *letters_in_order(descriptor.rank))]
    sets += [base.translated(t) for t in (a, b, b.inverse(), a.inverse())]
    letters = np.arange(-descriptor.rank, descriptor.rank + 1)
    pairs = np.stack(np.meshgrid(letters, letters, indexing="ij"), axis=-1).reshape(-1, 2)
    return tuple(s.label() for s in sets), np.array([s.row_mask(pairs) for s in sets])


def chain_masses(frame: Frame) -> list[float]:
    """The mass c_S = (1/k) sum_i ||xi_i||^2_S in [0, 1] of a frame of F_n, n >= 2, inside each set S
    of _chain_sets, in its order: the sum of the rows x k block of |C|^2 on S's rows, from one |C|^2."""
    n = frame.descriptor.rank
    first = frame.rows[:, 0].astype(np.intp)
    second = frame.rows[:, 1] if frame.rows.shape[1] > 1 else 0  # rows of one letter hold e alone
    masks = _chain_sets(frame.descriptor)[1][:, (2 * n + 1) * (first + n) + second + n]
    squares = frame.C.real**2 + frame.C.imag**2
    return [float(np.sum(squares[mask])) / frame.rank for mask in masks]


def chain_audit(frame: Frame) -> dict:
    """Evaluate the full inequality chain on one frame with honest constants.

    Masses are computed over the first-letter partition and the translates the
    argument uses; the certified displacement bounds B per generator are set
    independent, and the abstract chain is unsatisfiable (verdict
    'contradiction') precisely when 1/2 - B_a > 1/3 + B_b or 1/2 - B_b > 1/3 + B_a,
    i.e. B_a + B_b < 1/6.  A partition that does not sum to 1 is 'inconclusive'.
    L_a and L_b are evaluated once each, from one row gather, for their bounds and
    for the report's larger closed-form commutator ratio.  The report is the frame's entry
    in audit's payload: c_values, displacement (the larger measured and certified bound, and
    per_unitary, each generator's), verdict and max_commutator_ratio.
    """
    descriptor = frame.descriptor
    if not descriptor.is_free or descriptor.rank < 2:
        raise PreconditionError("the chain audit targets free groups of rank >= 2")
    l_a, l_b = (GroupAlgebraElement.left_translation(Word(descriptor, (i,))) for i in (1, 2))
    labels, masses = _chain_sets(descriptor)[0], chain_masses(frame)
    c_values = dict(zip(labels[:-1], masses[:-1]))  # all but a^-1 S, which only L_a's pull weighs
    parts = 2 * descriptor.rank + 1
    partition_sum = float(sum(masses[:parts]))
    c_s, (c_as, c_bs, c_b_inv_s, c_a_inv_s) = masses[2], masses[parts:]  # S = S(a^-1) follows {e} and S(a)

    ev_a, ev_b = commutator_ratios((l_a, l_b), frame)
    d_a = displacement_bound(ev_a, c_s, c_a_inv_s, c_as)
    d_b = displacement_bound(ev_b, c_s, c_b_inv_s, c_bs)
    b_a, b_b = d_a["certified"], d_b["certified"]
    if abs(partition_sum - 1.0) > 1e-9:
        verdict = "inconclusive"
    elif not (0.5 - b_a <= 1.0 / 3.0 + b_b and 0.5 - b_b <= 1.0 / 3.0 + b_a):  # a NaN bound fails both
        verdict = "contradiction"
    else:
        verdict = "consistent"
    displacement = {"measured": max(d_a["measured"], d_b["measured"]), "certified": max(b_a, b_b),
                    "per_unitary": {l_a.label(): d_a, l_b.label(): d_b}}
    return {"c_values": c_values, "displacement": displacement, "verdict": verdict,
            "max_commutator_ratio": max(ev_a.closed_form, ev_b.closed_form)}


def audit(rank: int, radius: int, seed: int, frames: int) -> dict:
    """The report of `audit`: the set identities on ball(F_2, radius), then chain_audit of `frames`
    seeded random frames of rank `rank` on ball(F_2, radius - 1), with the worst of them (the smallest
    max_commutator_ratio, the first on ties) and the verdict over all.  Refuses, before building any
    ball, a missing or negative seed, a negative frame count, a rank or radius below 1, a run past a
    bound of the budget and a rank past |ball(F_2, radius - 1)|."""
    check_seed("audit", seed, "frames", frames)
    if rank < 1 or radius < 1:  # frames need rank >= 1 and rows in ball(radius - 1)
        raise PreconditionError(f"audit needs rank >= 1 and radius >= 1, got {rank} and {radius}")
    descriptor = free_group(2)
    # set identities on ball(F_2, radius); frames drawn on ball(F_2, radius - 1), each on <= FRAME_MAX_SUPPORT * rank
    # rows: Gram-Schmidt, a Gram check, two compressions, two SVDs, the chain audit and routes of L_a and L_b
    pool = ball_units(descriptor, radius - 1)
    size, rows = pool[0]["rows"], min(FRAME_MAX_SUPPORT * rank, pool[0]["rows"])
    drawn = {"frames": frames, "calls": frames * (rank + 60), "madds": frames * (53 * rank * rank * rows + 160 * rank**3),
             "amplitudes": rank * (size + 4 * rows)}  # one frame's draw at a time
    budget.check(f"audit of {frames} frames at rank {rank} on ball(F_2, {radius - 1}), set identities on ball(F_2, {radius})",
                 *ball_units(descriptor, radius), *pool, drawn, direct_route_units(rank, rows, 2 * frames))
    if rank > size:  # the pool's exact size once the budget admits it
        raise PreconditionError(f"rank {rank} exceeds |ball({radius - 1})| = {size}, the dimension frames can span")
    identities = verify_set_identities(max(2, radius + 1))
    rng = np.random.default_rng(seed)
    evaluated = [chain_audit(random_frame(descriptor, rank, radius, rng)) for _ in range(frames)]
    no_frame = {"c_values": {}, "displacement": {}, "max_commutator_ratio": None}
    worst = min(evaluated, key=lambda e: e["max_commutator_ratio"], default=no_frame)  # the first on ties
    verdicts = {e["verdict"] for e in evaluated}
    return {
        "set_identities": asdict(identities),
        "thresholds": {"paper": float(PAPER_EPSILON), "derived": DERIVED_THRESHOLD},
        "frames_evaluated": len(evaluated),
        "frames": evaluated,
        "c_values": worst["c_values"],
        "displacement": worst["displacement"],
        "verdict": "contradiction" if "contradiction" in verdicts else ("consistent" if verdicts else "no-frames"),
        "min_max_commutator_ratio": worst["max_commutator_ratio"],
    }
