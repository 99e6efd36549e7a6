"""Reference searches the optimized ones are checked against: the
full-rescan local search, where every toggle recounts the boundary over the
whole ball, and the projection annealer that builds a checked Frame per trial."""

import math
from fractions import Fraction

import numpy as np

from foelner.boundary import (
    TEMP_DECAY,
    TEMP_INITIAL,
    AcceptedMove,
    BoundaryReport,
    ElementSet,
    LocalSearchResult,
    boundary_ratio,
)
from foelner.connes import MAX_RESTARTS, STEP_DECAY, STEP_ENTRIES, STEP_SCALE, AnnealResult, q_objective
from foelner.errors import ConvergenceError, PreconditionError, RankDeficiency
from foelner.l2ops import Frame, GroupAlgebraElement, closed_form_ratio, compress, normalized_trace
from foelner.words import Word, ball, format_word, words_of
from frame_helpers import reference_gram_schmidt
from table_helpers import oracle_translation_indices


def mask_ratio(mask, nbr):
    """(boundary size, set size) of a membership mask; nbr[x, i] is the ball
    index of elements[i] * closure[x], or -1 outside the ball."""
    stay = np.ones_like(mask)
    for nb in nbr:
        valid = nb >= 0
        s = np.zeros_like(mask)
        s[valid] = mask[nb[valid]]
        stay &= s
    size = int(mask.sum())
    return size - int((mask & stay).sum()), size


def rescan_local_search(descriptor, X, config):
    """local_search_min_ratio with a full boundary recount per toggle, and the
    same start {e}, rng draws, accept rule and best tracking."""
    b = words_of(descriptor, ball(descriptor, config.radius))
    n = len(b)
    nbr = np.stack([oracle_translation_indices(b, x, right=True) for x in X.closure()])
    mask = np.zeros(n, dtype=bool)
    mask[b.index(Word.identity(descriptor))] = True

    rng = np.random.default_rng(config.seed)
    bcnt, size = mask_ratio(mask, nbr)
    current = bcnt / size
    best = (Fraction(bcnt, size), size, mask.copy())
    initial_report = BoundaryReport.of(size, bcnt)
    history = []
    temp = TEMP_INITIAL
    for it in range(config.iterations):
        i = int(rng.integers(n))
        removing = bool(mask[i])
        if removing and size == 1:
            temp *= TEMP_DECAY
            continue
        mask[i] = not mask[i]
        nb, ns = mask_ratio(mask, nbr)
        cand = nb / ns
        if cand <= current or (temp > 0 and rng.random() < math.exp((current - cand) / temp)):
            current, bcnt, size = cand, nb, ns
            history.append(AcceptedMove(it, ("-" if removing else "+") + format_word(b[i]), nb, ns))
            frac = Fraction(nb, ns)
            if (frac, ns) < (best[0], best[1]):
                best = (frac, ns, mask.copy())
        else:
            mask[i] = not mask[i]
        temp *= TEMP_DECAY

    members = ElementSet.of(descriptor, (b[i] for i in np.flatnonzero(best[2])))
    return LocalSearchResult(members, boundary_ratio(members, X), history, initial_report)


def _worst_record(ops, frame):
    """max over ops of the closed-form commutator ratio and the trace defect."""
    worst = 0.0
    for op in ops:
        a = compress(op, frame)
        worst = max(worst, closed_form_ratio(a, frame.hs_norm_sq), abs(op.identity_coefficient - normalized_trace(a)))
    return worst


def frame_per_trial_anneal(cfg):
    """anneal_projection with a checked Frame per trial, scored through
    compress, and the former Gram-Schmidt; the same rng draws, accept rule
    and best tracking."""
    op_radius = max(w.length() for w in cfg.unitaries)
    if cfg.ambient_radius - op_radius < 0:
        raise PreconditionError("ambient radius too small for the unitary list")
    rows = ball(cfg.descriptor, cfg.ambient_radius - max(op_radius, 1))
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
            c = reference_gram_schmidt(raw)
            break
        except RankDeficiency:
            continue
    else:
        raise ConvergenceError(f"no rank-{k} starting frame after {MAX_RESTARTS} draws")
    frame = Frame(cfg.descriptor, cfg.ambient_radius, rows, c)

    current = _worst_record(ops, frame)
    best_val, best = current, frame
    history = [(0, best_val)]
    scale = STEP_SCALE

    for it in range(1, cfg.iterations + 1):
        j = int(rng.integers(k))
        positions = rng.choice(n_sup, size=min(STEP_ENTRIES, n_sup), replace=False)
        noise = (rng.normal(size=len(positions)) + 1j * rng.normal(size=len(positions))) * scale
        trial = frame.C.copy()
        trial[positions, j] += noise
        scale *= STEP_DECAY
        try:
            trial_frame = Frame(cfg.descriptor, cfg.ambient_radius, rows, reference_gram_schmidt(trial))
        except RankDeficiency:
            continue  # move rejected, not fatal
        val = _worst_record(ops, trial_frame)
        temp = 0.5 * scale
        accept = val <= current or (temp > 0 and rng.random() < math.exp((current - val) / temp))
        if accept:
            frame, current = trial_frame, val
            if val < best_val:
                best_val, best = val, trial_frame
                history.append((it, best_val))

    records = q_objective(ops, best)
    return AnnealResult(best, max(r.worst for r in records), records, tuple(history))
