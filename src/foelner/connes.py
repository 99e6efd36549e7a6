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
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import budget
from .errors import ConvergenceError, InvariantViolation, PreconditionError, RankDeficiency, check_seed
from .l2ops import (Frame, GroupAlgebraElement, adjoint_product, checked_hs_norm_sq, closed_form_ratio, commutator_ratios,
                    direct_route_units, frame_to_json, gram_schmidt, normalized_trace, translation_gathers)
from .words import (GroupDescriptor, Word, ball, ball_units, format_word, free_group, parse_generators, prefixed_words,
                    shortlex_order, standard_generators)

MAX_RESTARTS = 1000  # rank-deficient random draws tolerated before giving up
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
    evaluations = zip(unitaries, commutator_ratios(unitaries, frame))
    return tuple(UnitaryRecord(op.label(), ev.closed_form, ev.defect) for op, ev in evaluations)


# ---------------------------------------------------------------------------
# Witness frames.


@dataclass(frozen=True)
class WitnessConfig:
    """Free rank n >= 2, frame rank k >= 1, enumeration depth T >= 1.

    These checks hold in frame and formula mode alike; building and certifying
    frames is also charged to the budget (see check_witness_frames).
    """

    n: int
    k: int
    T: int

    def __post_init__(self):
        if self.n < 2:
            raise PreconditionError("witness construction needs free rank n >= 2")
        if self.k < 1 or self.T < 1:
            raise PreconditionError("frame rank and depth must be >= 1")


def check_witness_frames(n: int, T: int, ks: range) -> None:
    """Refuse, before building anything, building and certifying witness frames of ranks `ks` past a
    bound of the budget: R = n k T rows of k + T + 2 letters at most (2 bytes each, 8 to an integer),
    a Gram check and n compressions ((n + 1) k^2 R multiply-adds) and n direct routes each."""
    what = f"witness frames of ranks {ks.start}..{ks.stop - 1} (n = {n}, depth {T})"
    budget.check(what, frames=len(ks))  # alone first, so that the phases below are few
    phases = []
    for k, R in ((k, n * k * T) for k in ks):
        phases += [{"frames": 1, "rows": R, "integers": R * ((k + T + 5) // 4), "amplitudes": 3 * R * k,
                    "madds": (n + 1) * k * k * R}, direct_route_units(k, R, n)]
    budget.check(what, *phases)


def build_witness_frame(cfg: WitnessConfig) -> Frame:
    """The k orthonormal columns whose generator compressions have constant
    subdiagonal 1/n.

    Column m is the depth-T truncation of
        sum_t (n+1)^(-t/2) sum_i a_i^m g_t^(i),
    renormalized to unit length (raw squared norm 1 - (n+1)^(-T)), so the
    exact inner-product value 1/n survives truncation verbatim.
    """
    check_witness_frames(cfg.n, cfg.T, range(cfg.k, cfg.k + 1))
    descriptor = free_group(cfg.n)
    # for generator i, the first T words beginning with a_w^-1, w = (i-1 mod n) or n
    tails = [prefixed_words(descriptor, -(cfg.n if i == 1 else i - 1), cfg.T) for i in range(1, cfg.n + 1)]
    tail_len = max(t.shape[1] for t in tails) - 1
    ambient = cfg.k + tail_len + 2
    weights = [(cfg.n + 1) ** (-t / 2.0) for t in range(1, cfg.T + 1)]
    scale = 1.0 / math.sqrt(sum(w * w for _ in range(cfg.n) for w in weights))
    # word (m, i, t) is a_i^m times the t-th tail of a_i, which begins with a_w^-1, w != i: nothing cancels
    rows = np.zeros((cfg.k, cfg.n, cfg.T, cfg.k + tail_len + 1), dtype=tails[0].dtype)
    for m in range(1, cfg.k + 1):
        for i, tail in enumerate(tails, start=1):
            rows[m - 1, i - 1, :, :m] = i
            rows[m - 1, i - 1, :, m : m + tail.shape[1]] = tail
    rows = rows.reshape(-1, rows.shape[-1])
    order = shortlex_order(descriptor, rows)
    rows = rows[order]
    if not (rows[1:] != rows[:-1]).any(axis=1).all():
        raise InvariantViolation("witness words must all be distinct")
    column = np.repeat(np.arange(cfg.k), cfg.n * cfg.T)[order]
    c = np.zeros((len(rows), cfg.k))
    c[np.arange(len(rows)), column] = np.tile(scale * np.array(weights), cfg.k * cfg.n)[order]
    return Frame(descriptor, ambient, rows, c)


def certificate_formula(n: int, k: int) -> float:
    """sqrt(2) * sqrt(1 - (k-1)/(k n^2)), for free rank n >= 2 and frame rank k >= 1."""
    if n < 2 or k < 1:
        raise PreconditionError(f"the certificate formula needs n >= 2 and k >= 1, got {n} and {k}")
    return math.sqrt(2.0) * math.sqrt(1.0 - (k - 1) / (k * n * n))


def limit_formula(n: int) -> float:
    """The k -> infinity value sqrt(2 - 2/n^2), for free rank n >= 2."""
    if n < 2:
        raise PreconditionError(f"the limit formula needs n >= 2, got {n}")
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


def witness_certificate(n: int, k: int, T: int) -> UpperBoundCertificate:
    """Build the witness frame and certify Q over the standard generators."""
    cfg = WitnessConfig(n, k, T)
    frame = build_witness_frame(cfg)
    unitaries = tuple(GroupAlgebraElement.left_translation(w) for w in standard_generators(frame.descriptor))
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
    mode re-derives every point from an actual frame, formula mode evaluates
    the closed form only; either sweep is refused up front past a bound of the budget.
    """
    if mode not in ("frame", "formula"):
        raise PreconditionError(f"unknown mode {mode!r}")
    WitnessConfig(n, k_max, T)  # the same checks as a single certificate
    if mode == "frame":
        check_witness_frames(n, T, range(1, k_max + 1))
        sweep = [(k, witness_certificate(n, k, T).certified_epsilon) for k in range(1, k_max + 1)]
    else:
        budget.check(f"a formula sweep of {k_max} ranks", points=k_max)
        sweep = [(k, certificate_formula(n, k)) for k in range(1, k_max + 1)]
    best_k, best_eps = min(sweep, key=lambda kv: (kv[1], kv[0]))
    return UpperEstimate(best_k, best_eps, limit_formula(n), tuple(sweep))


def witness_run(n: int, k: int, depth: int, k_max: int | None, formula_only: bool) -> dict:
    """The report of `witness`: the sweep of foelner_upper_estimate over ranks 1..k_max, which reads
    no `k`, when `k_max` is given; else the certificate of the rank-k witness frame, or its formula
    alone when `formula_only`.  Each form checks its inputs, and charges any frames or sweep, first."""
    if k_max is not None:
        mode = "formula" if formula_only else "frame"
        est = foelner_upper_estimate(n, k_max, T=depth, mode=mode)
        return {
            "config": {"n": n, "k_max": k_max, "depth": depth, "mode": mode},
            "sweep": [{"k": kk, "epsilon": eps} for kk, eps in est.sweep],
            "best_k": est.best_k,
            "best_epsilon": est.best_epsilon,
            "limit_epsilon": est.limit_epsilon,
        }
    if formula_only:
        WitnessConfig(n, k, depth)  # the checks a frame build makes, bar its cost
        certified = formula = certificate_formula(n, k)
        records, frame = (), {}
    else:
        cert = witness_certificate(n, k, depth)
        certified, formula, records = cert.certified_epsilon, cert.formula_epsilon, cert.records
        frame = {"frame_fingerprint": cert.frame_fingerprint}
    return {
        "config": {"n": n, "k": k, "depth": depth, "formula_only": formula_only},
        "per_unitary": [asdict(r) for r in records],
        "certified_epsilon": certified,
        "formula_epsilon": formula,
        "limit_epsilon": limit_formula(n),
        **frame,
    }


# ---------------------------------------------------------------------------
# Random frames, the identity check and the seeded projection search.


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
            draw = rng.normal(size=2 * len(idx))  # the stream of complex(rng.normal(), rng.normal()) pairs
            column = raw[:, j]
            column.real[idx], column.imag[idx] = draw[0::2], draw[1::2]
        used = np.flatnonzero(raw.any(axis=1))  # the drawn words, still in shortlex order
        try:
            c = gram_schmidt(raw[used])
        except RankDeficiency:
            continue
        return Frame(descriptor, ambient_radius, pool[used], c)
    raise ConvergenceError(f"no rank-{rank} random frame after {MAX_RESTARTS} draws")


def identity_check(trials: int, seed: int) -> dict:
    """The report of `identity-check`: the direct and closed-form commutator ratios of L_a, L_b and
    L_a^-1 on `trials` seeded random frames of F_2 (rank 1..8 on ball(F_2, 2..4)), their largest
    difference and how many agree within 1e-9.  Refuses, before building any ball, a missing or
    negative seed, a negative trial count and a run past a bound of the budget."""
    check_seed("identity-check", seed, "trials", trials)
    # a frame of rank <= 8 on at most 96 rows, and three ratios
    budget.check(f"identity-check of {trials} trials", frames=trials, calls=60 * trials)
    descriptor = free_group(2)
    rng = np.random.default_rng(seed)
    unitary_words = [Word(descriptor, (1,)), Word(descriptor, (2,)), Word(descriptor, (-1,))]
    ops = [GroupAlgebraElement.left_translation(w) for w in unitary_words]
    max_diff = 0.0
    agreements = 0
    ratio_max = 0.0
    defect_max = 0.0
    for _ in range(trials):
        frame = random_frame(descriptor, int(rng.integers(1, 9)), int(rng.integers(3, 6)), rng)
        for r in commutator_ratios(ops, frame):
            diff = abs(r.direct - r.closed_form)
            max_diff = max(max_diff, diff)
            ratio_max = max(ratio_max, r.direct, r.closed_form)
            defect_max = max(defect_max, r.defect)
            if diff < 1e-9:
                agreements += 1
    return {
        "trials": trials,
        "unitaries": [format_word(w) for w in unitary_words],
        "checks": trials * len(ops),
        "agreements_within_1e-9": agreements,
        "max_abs_difference": max_diff,
        "max_ratio": ratio_max,
        "max_defect": defect_max,
        "ratio_upper_bound": math.sqrt(2.0),
    }


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
        check_seed("projection search", self.seed, "iterations", self.iterations)
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
    are Gram-checked bare arrays; only the returned one becomes a Frame.  Refuses,
    before building the ball, a search past a bound of the budget or a rank past the ball's size."""
    op_radius = max(w.length() for w in cfg.unitaries)
    if cfg.ambient_radius - op_radius < 0:
        raise PreconditionError("ambient radius too small for the unitary list")
    support_radius = cfg.ambient_radius - max(op_radius, 1)
    table = ball_units(cfg.descriptor, support_radius, cfg.unitaries)
    n_sup, k, u, steps = table[0]["rows"], cfg.rank, len(cfg.unitaries), cfg.iterations + 1  # and the first frame
    routes = direct_route_units(k, n_sup, u)  # of the u final records, on top of the search's arrays
    search = {"calls": steps * (4 + k + 3 * u) + 200 * u, "madds": steps * k * n_sup * (1300 + 560 * math.sqrt(k) + u * k)}
    budget.check(f"an annealed search of {cfg.iterations} iterations at rank {k} on ball({support_radius})", *table,
                 {**search, "points": steps + 10 * u}, {**routes, "amplitudes": routes["amplitudes"] + 6 * k * n_sup})
    if k > n_sup:
        raise PreconditionError(f"rank {k} exceeds the support dimension {n_sup}")
    rows = ball(cfg.descriptor, support_radius)
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

    gathers = [(*pair, op.identity_coefficient) for op, pair in zip(ops, translation_gathers(ops, frame))]

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

    best_frame = Frame(cfg.descriptor, cfg.ambient_radius, rows, best)
    records = q_objective(ops, best_frame)
    return AnnealResult(best_frame, max(r.worst for r in records), records, tuple(history))


def scan_run(n: int, rank: int, radius: int, iters: int, seed: int | None, unitaries: str | None) -> dict:
    """The report of `scan`: anneal_projection on F_n at `rank` and ambient `radius` over the
    comma-separated words `unitaries`, or the standard generators when None, with the best frame
    and its fingerprint.  The search checks and charges its run before it builds the ball."""
    descriptor = free_group(n)
    words = standard_generators(descriptor) if unitaries is None else parse_generators(descriptor, unitaries)
    res = anneal_projection(ProjectionSearchConfig(descriptor, rank, radius, seed, iters, words))
    columns = frame_to_json(res.frame)
    return {
        "config": {"group": descriptor.spec(), "rank": rank, "radius": radius, "iterations": iters, "seed": seed,
                   "unitaries": [format_word(w) for w in words]},
        "per_unitary": [asdict(r) for r in res.records],
        "best_objective": res.objective,
        "history": [{"iteration": it, "objective": obj} for it, obj in res.history],
        "frame_fingerprint": frame_fingerprint(res.frame, columns),
        "frame": columns,
    }
