"""Finite-scale Connes-Folner quantities.

The property Q(X, eps) evaluated on explicit frames, the explicit witness
construction certifying the free-group upper bound sqrt(2 - 2/n^2), formula
sweeps over the frame rank, and a seeded stochastic projection search.

Upper bounds reported here are certified (achieved by a concrete frame);
nothing below is ever presented as the true infimum over all projections.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, InvariantViolation, PreconditionError, RankDeficiency, SeedRequired
from .l2ops import (
    Frame,
    GroupAlgebraElement,
    L2Vec,
    commutator_ratio,
    gram_schmidt,
    trace_defect,
    vec_to_json,
)
from .words import (
    GroupDescriptor,
    Word,
    ball,
    free_group,
    letters_in_order,
    multiply,
)

MAX_RESTARTS = 1000  # rank-deficient random draws tolerated before giving up


@dataclass(frozen=True)
class UnitaryRecord:
    label: str
    ratio: float
    defect: float

    @property
    def worst(self) -> float:
        return max(self.ratio, self.defect)


@dataclass(frozen=True)
class QReport:
    """Per-unitary commutator ratios and trace defects against a threshold."""

    epsilon: float
    records: tuple[UnitaryRecord, ...]
    verdict: bool

    @property
    def worst(self) -> float:
        return max(r.worst for r in self.records)


def q_objective(unitaries: Sequence[GroupAlgebraElement], frame: Frame) -> tuple[UnitaryRecord, ...]:
    records = []
    for op in unitaries:
        ratio = commutator_ratio(op, frame).closed_form
        defect = trace_defect(op, frame)
        records.append(UnitaryRecord(op.label(), ratio, defect))
    return tuple(records)


def evaluate_Q(unitaries: Sequence[GroupAlgebraElement], frame: Frame, epsilon: float) -> QReport:
    """Does this frame witness Q(X, eps)?  Both Connes conditions are checked."""
    if not unitaries:
        raise PreconditionError("empty unitary list")
    for op in unitaries:
        if not op.is_single_unitary:
            raise PreconditionError(f"{op.label()} is not a single unitary")
    records = q_objective(unitaries, frame)
    verdict = max(r.worst for r in records) <= epsilon
    return QReport(epsilon, records, verdict)


# ---------------------------------------------------------------------------
# Witness frames.


@dataclass(frozen=True)
class WitnessConfig:
    """Free rank n >= 2, frame rank k >= 1, enumeration depth T >= 1."""

    n: int
    k: int
    T: int

    def __post_init__(self):
        if self.n < 2:
            raise PreconditionError("witness construction needs free rank n >= 2")
        if self.k < 1 or self.T < 1:
            raise PreconditionError("frame rank and depth must be >= 1")


def prefixed_words(descriptor: GroupDescriptor, first_letter: int, count: int) -> list[Word]:
    """The first `count` shortlex words beginning with `first_letter`."""
    order = letters_in_order(descriptor.rank)
    out: list[Word] = []
    level = [Word(descriptor, (first_letter,))]
    while True:
        for w in level:
            out.append(w)
            if len(out) == count:
                return out
        level = [Word(descriptor, w.data + (l,)) for w in level for l in order if l != -w.data[-1]]


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
    descriptor = free_group(cfg.n)
    lists = _tail_lists(cfg)
    tail_len = max(lst[-1].length() for lst in lists)
    ambient = cfg.k + tail_len + 2
    columns = []
    for m in range(1, cfg.k + 1):
        amps: dict[Word, complex] = {}
        for i in range(1, cfg.n + 1):
            head = Word(descriptor, (i,) * m)
            for t in range(1, cfg.T + 1):
                word = multiply(head, lists[i - 1][t - 1])
                coeff = (cfg.n + 1) ** (-t / 2.0)
                amps[word] = amps.get(word, 0.0) + coeff
        if len(amps) != cfg.n * cfg.T:
            raise InvariantViolation("witness words must all be distinct")
        columns.append(L2Vec.of(descriptor, amps).normalized())
    return Frame(descriptor, tuple(columns), ambient)


def certificate_formula(n: int, k: int) -> float:
    """sqrt(2) * sqrt(1 - (k-1)/(k n^2))."""
    return math.sqrt(2.0) * math.sqrt(1.0 - (k - 1) / (k * n * n))


def limit_formula(n: int) -> float:
    """The k -> infinity value sqrt(2 - 2/n^2)."""
    return math.sqrt(2.0 - 2.0 / (n * n))


def frame_fingerprint(frame: Frame) -> str:
    payload = {
        "descriptor": frame.descriptor.spec(),
        "ambient_radius": frame.ambient_radius,
        "columns": [vec_to_json(col) for col in frame.columns],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class UpperBoundCertificate:
    n: int
    k: int
    T: int
    certified_epsilon: float
    formula_epsilon: float
    frame_fingerprint: str
    records: tuple[UnitaryRecord, ...]

    def __post_init__(self):
        if abs(self.certified_epsilon - self.formula_epsilon) > 1e-9:
            raise PreconditionError(
                f"certificate {self.certified_epsilon!r} does not match the formula {self.formula_epsilon!r}"
            )


def standard_unitaries(descriptor: GroupDescriptor) -> tuple[GroupAlgebraElement, ...]:
    return tuple(
        GroupAlgebraElement.left_translation(Word(descriptor, (i,))) for i in range(1, descriptor.rank + 1)
    )


def witness_certificate(n: int, k: int, T: int) -> UpperBoundCertificate:
    """Build the witness frame and certify Q over the standard generators."""
    cfg = WitnessConfig(n, k, T)
    frame = build_witness_frame(cfg)
    unitaries = standard_unitaries(frame.descriptor)
    records = q_objective(unitaries, frame)
    certified = max(r.worst for r in records)
    return UpperBoundCertificate(
        n, k, T, certified, certificate_formula(n, k), frame_fingerprint(frame), records
    )


@dataclass(frozen=True)
class UpperEstimate:
    n: int
    k_max: int
    mode: str  # "frame" or "formula"
    best_k: int
    best_epsilon: float
    limit_epsilon: float
    sweep: tuple[tuple[int, float], ...]


def foelner_upper_estimate(n: int, k_max: int, T: int = 6, mode: str = "frame") -> UpperEstimate:
    """Minimum certified epsilon over frame ranks k = 1..k_max.

    The formula is strictly decreasing in k, so the best rank is k_max; frame
    mode re-derives every point from an actual frame, formula mode evaluates
    the closed form only (for large sweeps).
    """
    if k_max < 1:
        raise PreconditionError("k_max must be >= 1")
    if mode not in ("frame", "formula"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "frame":
        sweep = [(k, witness_certificate(n, k, T).certified_epsilon) for k in range(1, k_max + 1)]
    else:
        sweep = [(k, certificate_formula(n, k)) for k in range(1, k_max + 1)]
    best_k, best_eps = min(sweep, key=lambda kv: (kv[1], kv[0]))
    return UpperEstimate(n, k_max, mode, best_k, best_eps, limit_formula(n), tuple(sweep))


# ---------------------------------------------------------------------------
# Random frames and the seeded projection search.


def random_frame(
    descriptor: GroupDescriptor,
    rank: int,
    ambient_radius: int,
    rng: np.random.Generator,
    max_support: int = 12,
) -> Frame:
    """A deterministic (given rng state) random orthonormal frame.

    Refuses a rank above |ball(ambient_radius - 1)|, which no frame can reach,
    and gives up after MAX_RESTARTS rank-deficient draws.
    """
    pool = ball(descriptor, ambient_radius - 1).elements
    if rank > len(pool):
        raise PreconditionError(
            f"rank {rank} exceeds |ball({ambient_radius - 1})| = {len(pool)}, the dimension frames can span"
        )
    for _ in range(MAX_RESTARTS):
        columns = []
        for _ in range(rank):
            size = int(rng.integers(2, max_support + 1))
            idx = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
            amps = {pool[int(i)]: complex(rng.normal(), rng.normal()) for i in idx}
            columns.append(L2Vec.of(descriptor, amps))
        try:
            return gram_schmidt(columns, ambient_radius)
        except RankDeficiency:
            continue
    raise ConvergenceError(f"no rank-{rank} random frame after {MAX_RESTARTS} draws")


def frame_pool(
    descriptor: GroupDescriptor, rank: int, ambient_radius: int, seed: int, count: int
) -> list[Frame]:
    rng = np.random.default_rng(seed)
    return [random_frame(descriptor, rank, ambient_radius, rng) for _ in range(count)]


def pool_objective(unitaries: Sequence[GroupAlgebraElement], frames: Sequence[Frame]) -> tuple[float, int]:
    """Best (smallest) Q-objective over a fixed candidate pool of frames.

    Evaluating both X1 and X2 over one pool makes the monotonicity
    Q-objective(X1) <= Q-objective(X2) for X1 subset of X2 exact.
    """
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
    step_scale: float = 0.5
    step_decay: float = 0.9995
    step_entries: int = 3

    def __post_init__(self):
        if self.ambient_radius < 2 or self.rank < 1:
            raise PreconditionError("need ambient radius >= 2 and rank >= 1")
        if self.seed is None:
            raise SeedRequired("projection search requires an explicit seed")
        if not self.unitaries:
            raise PreconditionError("empty unitary list")


@dataclass
class AnnealResult:
    config: ProjectionSearchConfig
    frame: Frame
    objective: float
    records: tuple[UnitaryRecord, ...]
    history: tuple[tuple[int, float], ...]  # (iteration, best objective so far)


class _DenseEngine:
    """Frame columns as a dense matrix over the ambient ball, for hot loops."""

    def __init__(self, cfg: ProjectionSearchConfig):
        op_radius = max(w.length() for w in cfg.unitaries)
        if cfg.ambient_radius - op_radius < 0:
            raise PreconditionError("ambient radius too small for the unitary list")
        self.cfg = cfg
        self.full = ball(cfg.descriptor, cfg.ambient_radius)
        support_ball = ball(cfg.descriptor, cfg.ambient_radius - max(op_radius, 1))
        self.n_support = len(support_ball)
        # shortlex sorts by length first, so the support ball is a prefix
        if any(self.full.elements[i] != support_ball.elements[i] for i in (0, self.n_support - 1)):
            raise InvariantViolation("the support ball is not a prefix of the ambient ball")
        self.perms = []
        self.is_identity = []
        for g in cfg.unitaries:
            perm = np.array(
                [self.full.index_of(multiply(g, w)) for w in support_ball.elements], dtype=np.int64
            )
            self.perms.append(perm)
            self.is_identity.append(g.is_identity)

    def objective(self, c: np.ndarray) -> float:
        k = c.shape[1]
        worst = 0.0
        for perm, ident in zip(self.perms, self.is_identity):
            uc = np.zeros_like(c)
            uc[perm, :] = c[: self.n_support, :]
            a = c.conj().T @ uc
            ratio = math.sqrt(max(0.0, 2.0 - 2.0 * float(np.sum(np.abs(a) ** 2)) / k))
            defect = abs(complex(np.trace(a)) / k - (1.0 if ident else 0.0))
            worst = max(worst, ratio, defect)
        return worst

    def mgs(self, c: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        q = c.astype(complex).copy()
        for j in range(q.shape[1]):
            col = q[:, j]
            if j:
                prev = q[:, :j]
                for _ in range(2):
                    col -= prev @ (prev.conj().T @ col)
            nrm = float(np.linalg.norm(col))
            if nrm < tol:
                raise RankDeficiency(j)
            q[:, j] = col / nrm
        return q

    def to_frame(self, c: np.ndarray) -> Frame:
        columns = []
        for j in range(c.shape[1]):
            amps = {
                self.full.elements[i]: complex(c[i, j])
                for i in range(self.n_support)
                if abs(c[i, j]) >= 1e-15
            }
            columns.append(L2Vec.of(self.cfg.descriptor, amps))
        return Frame(self.cfg.descriptor, tuple(columns), self.cfg.ambient_radius)


def anneal_projection(cfg: ProjectionSearchConfig) -> AnnealResult:
    """Seeded annealing over frames: perturb one column sparsely, re-orthonormalize,
    accept by Metropolis on the Q-objective.  Deterministic per seed; the
    best-so-far history never increases."""
    engine = _DenseEngine(cfg)
    rng = np.random.default_rng(cfg.seed)
    n_sup, k = engine.n_support, cfg.rank
    if k > n_sup:
        raise PreconditionError(f"rank {k} exceeds the support dimension {n_sup}")

    for _ in range(MAX_RESTARTS):
        raw = np.zeros((len(engine.full), k), dtype=complex)
        for j in range(k):
            idx = rng.choice(n_sup, size=min(8, n_sup), replace=False)
            raw[idx, j] = rng.normal(size=len(idx)) + 1j * rng.normal(size=len(idx))
        try:
            c = engine.mgs(raw)
            break
        except RankDeficiency:
            continue
    else:
        raise ConvergenceError(f"no rank-{k} starting frame after {MAX_RESTARTS} draws")

    current = engine.objective(c)
    best_val, best_c = current, c.copy()
    history: list[tuple[int, float]] = [(0, best_val)]
    scale = cfg.step_scale

    for it in range(1, cfg.iterations + 1):
        j = int(rng.integers(k))
        positions = rng.choice(n_sup, size=min(cfg.step_entries, n_sup), replace=False)
        noise = (rng.normal(size=len(positions)) + 1j * rng.normal(size=len(positions))) * scale
        trial = c.copy()
        trial[positions, j] += noise
        scale *= cfg.step_decay
        try:
            trial_q = engine.mgs(trial)
        except RankDeficiency:
            continue  # move rejected, not fatal
        val = engine.objective(trial_q)
        temp = 0.5 * scale
        accept = val <= current or (temp > 0 and rng.random() < math.exp((current - val) / temp))
        if accept:
            c, current = trial_q, val
            if val < best_val:
                best_val, best_c = val, trial_q.copy()
                history.append((it, best_val))

    frame = engine.to_frame(best_c)
    unitaries = [GroupAlgebraElement.left_translation(w) for w in cfg.unitaries]
    records = q_objective(unitaries, frame)
    sparse_val = max(r.worst for r in records)
    if abs(sparse_val - best_val) > 1e-9:
        raise InvariantViolation(f"dense objective {best_val} and sparse objective {sparse_val} disagree")
    return AnnealResult(cfg, frame, sparse_val, records, tuple(history))
