"""The full-rescan local search: every toggle recounts the boundary over the
whole ball.  It is the reference the incremental search is checked against."""

import math
from fractions import Fraction

import numpy as np

from foelner.boundary import AcceptedMove, BoundaryReport, ElementSet, LocalSearchResult, boundary_ratio
from foelner.words import Word, ball, format_word, translation_indices


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


def rescan_local_search(descriptor, X, config, initial=None):
    """local_search_min_ratio with a full boundary recount per toggle, and the
    same rng draws, accept rule and best tracking."""
    b = ball(descriptor, config.radius)
    n = len(b)
    nbr = np.stack([translation_indices(b.elements, x, right=True) for x in X.closure()])
    mask = np.zeros(n, dtype=bool)
    where = {w: i for i, w in enumerate(b.elements)}
    for w in [Word.identity(descriptor)] if initial is None else initial.members:
        mask[where[w]] = True

    rng = np.random.default_rng(config.seed)
    bcnt, size = mask_ratio(mask, nbr)
    current = bcnt / size
    best = (Fraction(bcnt, size), size, mask.copy())
    initial_report = BoundaryReport.of(size, bcnt)
    history = []
    temp = config.temp_initial
    for it in range(config.iterations):
        i = int(rng.integers(n))
        removing = bool(mask[i])
        if removing and size == 1:
            temp *= config.temp_decay
            continue
        mask[i] = not mask[i]
        nb, ns = mask_ratio(mask, nbr)
        cand = nb / ns
        if cand <= current or (temp > 0 and rng.random() < math.exp((current - cand) / temp)):
            current, bcnt, size = cand, nb, ns
            history.append(AcceptedMove(it, ("-" if removing else "+") + format_word(b.elements[i]), nb, ns))
            frac = Fraction(nb, ns)
            if (frac, ns) < (best[0], best[1]):
                best = (frac, ns, mask.copy())
        else:
            mask[i] = not mask[i]
        temp *= config.temp_decay

    members = ElementSet.of(descriptor, (b.elements[i] for i in np.flatnonzero(best[2])))
    return LocalSearchResult(members, boundary_ratio(members, X), history, initial_report)
