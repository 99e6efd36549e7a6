"""Finite-scale Connes-Folner quantities.

The property Q(X, eps) evaluated on explicit frames, the explicit witness
construction certifying the free-group upper bound sqrt(2 - 2/n^2), formula
sweeps over the frame rank, and a seeded stochastic projection search.

Upper bounds reported here are certified (achieved by a concrete frame);
nothing below is ever presented as the true infimum over all projections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    InvariantViolation,
    PreconditionError,
    RankDeficiency,
    SearchSpaceTooLarge,
    SeedRequired,
)
from .l2ops import (
    Frame,
    GroupAlgebraElement,
    adjoint_product,
    checked_hs_norm_sq,
    closed_form_ratio,
    commutator_ratio,
    frame_to_json,
    gram_schmidt,
    normalized_trace,
    translation_gather,
)
from .words import (
    GroupDescriptor,
    Word,
    ball,
    check_translation_cost,
    extend_free,
    free_group,
    multiply,
    shortlex_key,
    standard_generators,
)

MAX_RESTARTS = 1000  # rank-deficient random draws tolerated before giving up
# Certifying a witness frame with R = n * k * T rows costs about n * k * R^2
# multiply-adds (the direct HS route, per standard generator); one witness run
# refuses frames whose costs sum past this cap.  It admits (n, k, T) = (5, 32, 8).
WITNESS_WORK_CAP = 1 << 28
FORMULA_K_MAX_CAP = 100_000  # longest formula-mode certificate sweep
FRAME_MAX_SUPPORT = 12  # random_frame draws 2..FRAME_MAX_SUPPORT amplitudes per column
# the annealer's moves: STEP_ENTRIES amplitudes of one column get complex
# normal noise of scale STEP_SCALE, which shrinks by STEP_DECAY per iteration
STEP_SCALE = 0.5
STEP_DECAY = 0.9995
STEP_ENTRIES = 3


@dataclass(frozen=True)
class UnitaryRecord:
    label: str
    ratio: float
    defect: float

    @property
    def worst(self) -> float:
        return max(self.ratio, self.defect)


def q_objective(unitaries: Sequence[GroupAlgebraElement], frame: Frame) -> tuple[UnitaryRecord, ...]:
    """The closed-form commutator ratio and the trace defect of each unitary on
    the frame; Q(X, eps) holds on it when every record's worst is <= eps."""
    if not unitaries:
        raise PreconditionError("empty unitary list")
    evaluations = ((op, commutator_ratio(op, frame)) for op in unitaries)
    return tuple(UnitaryRecord(op.label(), ev.closed_form, ev.defect) for op, ev in evaluations)


# ---------------------------------------------------------------------------
# Witness frames.


@dataclass(frozen=True)
class WitnessConfig:
    """Free rank n >= 2, frame rank k >= 1, enumeration depth T >= 1.

    These checks hold in frame and formula mode alike; building frames is
    also subject to WITNESS_WORK_CAP (see check_witness_work).
    """

    n: int
    k: int
    T: int

    def __post_init__(self):
        if self.n < 2:
            raise PreconditionError("witness construction needs free rank n >= 2")
        if self.k < 1 or self.T < 1:
            raise PreconditionError("frame rank and depth must be >= 1")


def check_witness_work(n: int, T: int, ks: Iterable[int]) -> None:
    """Refuse, before building anything, witness frames of ranks `ks` whose
    costs n * k * (n * k * T)^2 sum past WITNESS_WORK_CAP."""
    work = 0
    for k in ks:
        work += n * k * (n * k * T) ** 2
        if work > WITNESS_WORK_CAP:
            raise SearchSpaceTooLarge(
                f"witness frames up to rank {k} (n = {n}, depth {T}) exceed the work cap of {WITNESS_WORK_CAP}"
            )


def prefixed_words(descriptor: GroupDescriptor, first_letter: int, count: int) -> list[Word]:
    """The first `count` shortlex words beginning with `first_letter`."""
    out: list[Word] = []
    level = [Word(descriptor, (first_letter,))]
    while True:
        for w in level:
            out.append(w)
            if len(out) == count:
                return out
        level = extend_free(descriptor, level)


def _tail_lists(cfg: WitnessConfig) -> list[list[Word]]:
    """For generator i, the first T words beginning with a_w^-1, w = (i-1 mod n) or n."""
    descriptor = free_group(cfg.n)
    lists = []
    for i in range(1, cfg.n + 1):
        w = cfg.n if i == 1 else i - 1
        lists.append(prefixed_words(descriptor, -w, cfg.T))
    return lists


def build_witness_frame(cfg: WitnessConfig) -> Frame:
    """The k orthonormal columns whose generator compressions have constant
    subdiagonal 1/n.

    Column m is the depth-T truncation of
        sum_t (n+1)^(-t/2) sum_i a_i^m g_t^(i),
    renormalized to unit length (raw squared norm 1 - (n+1)^(-T)), so the
    exact inner-product value 1/n survives truncation verbatim.
    """
    check_witness_work(cfg.n, cfg.T, [cfg.k])
    descriptor = free_group(cfg.n)
    lists = _tail_lists(cfg)
    tail_len = max(lst[-1].length() for lst in lists)
    ambient = cfg.k + tail_len + 2
    weights = [(cfg.n + 1) ** (-t / 2.0) for t in range(1, cfg.T + 1)]
    scale = 1.0 / math.sqrt(sum(w * w for _ in range(cfg.n) for w in weights))
    entries: dict[Word, tuple[int, float]] = {}  # word -> (column, amplitude)
    for m in range(1, cfg.k + 1):
        for i in range(1, cfg.n + 1):
            head = Word(descriptor, (i,) * m)
            for t in range(1, cfg.T + 1):
                entries[multiply(head, lists[i - 1][t - 1])] = (m - 1, scale * weights[t - 1])
    if len(entries) != cfg.n * cfg.k * cfg.T:
        raise InvariantViolation("witness words must all be distinct")
    rows = sorted(entries, key=shortlex_key)
    c = np.zeros((len(rows), cfg.k))
    for r, w in enumerate(rows):
        m, amp = entries[w]
        c[r, m] = amp
    return Frame(descriptor, ambient, tuple(rows), c)


def certificate_formula(n: int, k: int) -> float:
    """sqrt(2) * sqrt(1 - (k-1)/(k n^2))."""
    return math.sqrt(2.0) * math.sqrt(1.0 - (k - 1) / (k * n * n))


def limit_formula(n: int) -> float:
    """The k -> infinity value sqrt(2 - 2/n^2)."""
    return math.sqrt(2.0 - 2.0 / (n * n))


def frame_fingerprint(frame: Frame, columns: list[dict] | None = None) -> str:
    """sha256 of the frame's group, ambient radius and `columns`, frame_to_json(frame),
    which a caller that reports them has built already."""
    import hashlib  # here, not at module level: loading OpenSSL costs runs that take no fingerprint

    payload = {
        "descriptor": frame.descriptor.spec(),
        "ambient_radius": frame.ambient_radius,
        "columns": frame_to_json(frame) if columns is None else columns,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class UpperBoundCertificate:
    certified_epsilon: float
    formula_epsilon: float
    frame: Frame
    records: tuple[UnitaryRecord, ...]

    def __post_init__(self):
        if abs(self.certified_epsilon - self.formula_epsilon) > 1e-9:
            raise InvariantViolation(
                f"certificate {self.certified_epsilon!r} does not match the formula {self.formula_epsilon!r}"
            )

    @property
    def frame_fingerprint(self) -> str:
        """Computed on request: a rank sweep keeps only each certificate's epsilon."""
        return frame_fingerprint(self.frame)


def standard_unitaries(descriptor: GroupDescriptor) -> tuple[GroupAlgebraElement, ...]:
    return tuple(GroupAlgebraElement.left_translation(w) for w in standard_generators(descriptor))


def witness_certificate(n: int, k: int, T: int) -> UpperBoundCertificate:
    """Build the witness frame and certify Q over the standard generators."""
    cfg = WitnessConfig(n, k, T)
    frame = build_witness_frame(cfg)
    unitaries = standard_unitaries(frame.descriptor)
    records = q_objective(unitaries, frame)
    certified = max(r.worst for r in records)
    return UpperBoundCertificate(certified, certificate_formula(n, k), frame, records)


@dataclass(frozen=True)
class UpperEstimate:
    best_k: int
    best_epsilon: float
    limit_epsilon: float
    sweep: tuple[tuple[int, float], ...]


def foelner_upper_estimate(n: int, k_max: int, T: int = 6, mode: str = "frame") -> UpperEstimate:
    """Minimum certified epsilon over frame ranks k = 1..k_max.

    The formula is strictly decreasing in k, so the best rank is k_max; frame
    mode re-derives every point from an actual frame (refused up front past
    WITNESS_WORK_CAP), formula mode evaluates the closed form only, for
    sweeps up to FORMULA_K_MAX_CAP.
    """
    if mode not in ("frame", "formula"):
        raise PreconditionError(f"unknown mode {mode!r}")
    WitnessConfig(n, k_max, T)  # the same checks as a single certificate
    if mode == "frame":
        check_witness_work(n, T, range(1, k_max + 1))
        sweep = [(k, witness_certificate(n, k, T).certified_epsilon) for k in range(1, k_max + 1)]
    else:
        if k_max > FORMULA_K_MAX_CAP:
            raise SearchSpaceTooLarge(f"k_max = {k_max} exceeds the formula sweep cap of {FORMULA_K_MAX_CAP}")
        sweep = [(k, certificate_formula(n, k)) for k in range(1, k_max + 1)]
    best_k, best_eps = min(sweep, key=lambda kv: (kv[1], kv[0]))
    return UpperEstimate(best_k, best_eps, limit_formula(n), tuple(sweep))


# ---------------------------------------------------------------------------
# Random frames and the seeded projection search.


def random_frame(
    descriptor: GroupDescriptor,
    rank: int,
    ambient_radius: int,
    rng: np.random.Generator,
) -> Frame:
    """A deterministic (given rng state) random orthonormal frame.

    Refuses a rank above |ball(ambient_radius - 1)|, which no frame can reach,
    and gives up after MAX_RESTARTS rank-deficient draws.
    """
    if rank < 1:
        raise PreconditionError("frame rank must be >= 1")
    pool = ball(descriptor, ambient_radius - 1)
    if rank > len(pool):
        raise PreconditionError(
            f"rank {rank} exceeds |ball({ambient_radius - 1})| = {len(pool)}, the dimension frames can span"
        )
    for _ in range(MAX_RESTARTS):
        raw = np.zeros((len(pool), rank), dtype=complex)
        for j in range(rank):
            size = int(rng.integers(2, FRAME_MAX_SUPPORT + 1))
            idx = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
            raw[idx, j] = [complex(rng.normal(), rng.normal()) for _ in idx]
        used = np.flatnonzero(raw.any(axis=1))  # the drawn words, still in shortlex order
        try:
            c = gram_schmidt(raw[used])
        except RankDeficiency:
            continue
        return Frame(descriptor, ambient_radius, tuple(pool[i] for i in used), c)
    raise ConvergenceError(f"no rank-{rank} random frame after {MAX_RESTARTS} draws")


def pool_objective(unitaries: Sequence[GroupAlgebraElement], frames: Sequence[Frame]) -> tuple[float, int]:
    """Best (smallest) Q-objective over a fixed candidate pool of frames.

    Evaluating both X1 and X2 over one pool makes the monotonicity
    Q-objective(X1) <= Q-objective(X2) for X1 subset of X2 exact.  An empty
    pool is refused: its objective would be inf, and every comparison vacuous.
    """
    if not frames:
        raise PreconditionError("empty frame pool")
    best_val = math.inf
    best_idx = -1
    for i, f in enumerate(frames):
        val = max(r.worst for r in q_objective(unitaries, f))
        if val < best_val:
            best_val, best_idx = val, i
    return best_val, best_idx


@dataclass(frozen=True)
class ProjectionSearchConfig:
    descriptor: GroupDescriptor
    rank: int
    ambient_radius: int
    seed: int
    iterations: int
    unitaries: tuple[Word, ...]

    def __post_init__(self):
        if self.ambient_radius < 2 or self.rank < 1:
            raise PreconditionError("need ambient radius >= 2 and rank >= 1")
        if self.seed is None:
            raise SeedRequired("projection search requires an explicit seed")
        if not self.unitaries:
            raise PreconditionError("empty unitary list")


@dataclass
class AnnealResult:
    frame: Frame
    objective: float
    records: tuple[UnitaryRecord, ...]
    history: tuple[tuple[int, float], ...]  # (iteration, best objective so far)


def anneal_projection(cfg: ProjectionSearchConfig) -> AnnealResult:
    """Seeded annealing over frames on the support ball: perturb one column
    sparsely, re-orthonormalize, accept by Metropolis on the Q-objective.
    Deterministic per seed; the best-so-far history never increases.  Trials
    are Gram-checked bare arrays; only the returned one becomes a Frame."""
    op_radius = max(w.length() for w in cfg.unitaries)
    if cfg.ambient_radius - op_radius < 0:
        raise PreconditionError("ambient radius too small for the unitary list")
    support_radius = cfg.ambient_radius - max(op_radius, 1)
    check_translation_cost(cfg.descriptor, cfg.unitaries, support_radius)
    rows = ball(cfg.descriptor, support_radius)
    n_sup, k = len(rows), cfg.rank
    if k > n_sup:
        raise PreconditionError(f"rank {k} exceeds the support dimension {n_sup}")
    ops = [GroupAlgebraElement.left_translation(w) for w in cfg.unitaries]
    rng = np.random.default_rng(cfg.seed)

    for _ in range(MAX_RESTARTS):
        raw = np.zeros((n_sup, k), dtype=complex)
        for j in range(k):
            idx = rng.choice(n_sup, size=min(8, n_sup), replace=False)
            raw[idx, j] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        try:
            c = gram_schmidt(raw)
            break
        except RankDeficiency:
            continue
    else:
        raise ConvergenceError(f"no rank-{k} starting frame after {MAX_RESTARTS} draws")
    frame = Frame(cfg.descriptor, cfg.ambient_radius, rows, c)

    gathers = [(*translation_gather(op, frame), op.identity_coefficient) for op in ops]

    def objective(c: np.ndarray) -> float:  # max over ops of the closed-form ratio and the trace defect
        hs_norm_sq = checked_hs_norm_sq(c)
        worst = 0.0
        for dst, src, tau in gathers:
            a = adjoint_product(c[dst], c[src])
            worst = max(worst, closed_form_ratio(a, hs_norm_sq), abs(tau - normalized_trace(a)))
        return worst

    current = objective(c)
    best_val, best = current, c
    history: list[tuple[int, float]] = [(0, best_val)]
    scale = STEP_SCALE

    for it in range(1, cfg.iterations + 1):
        j = int(rng.integers(k))
        positions = rng.choice(n_sup, size=min(STEP_ENTRIES, n_sup), replace=False)
        noise = (rng.normal(size=len(positions)) + 1j * rng.normal(size=len(positions))) * scale
        trial = c.copy()
        trial[positions, j] += noise
        scale *= STEP_DECAY
        try:
            trial = gram_schmidt(trial)
        except RankDeficiency:
            continue  # move rejected, not fatal
        val = objective(trial)
        temp = 0.5 * scale
        accept = val <= current or (temp > 0 and rng.random() < math.exp((current - val) / temp))
        if accept:
            c, current = trial, val
            if val < best_val:
                best_val, best = val, trial
                history.append((it, best_val))

    best_frame = frame.with_columns(best)
    records = q_objective(ops, best_frame)
    return AnnealResult(best_frame, max(r.worst for r in records), records, tuple(history))
