"""The Word-level table of translates that the package's normal-form one is
checked against, and the groups, generating sets and radii both are run on."""

import numpy as np

from foelner.boundary import GeneratingSet
from foelner.words import free_abelian, free_group, multiply, parse_generators

# (group, generators (None: standard), radius): F_1..F_3 and Z^1..Z^9 with their
# standard generators, plus skewed, redundant and identity-only generating sets
TABLE_CASES = [(free_group(n), None, r) for n, r in ((1, 8), (2, 4), (3, 3))]
TABLE_CASES += [(free_abelian(d), None, r) for d, r in ((1, 10), (2, 6), (3, 5), (4, 4))]
TABLE_CASES += [(free_abelian(d), None, 3) for d in range(5, 10)]
TABLE_CASES += [(free_group(n), gens, r) for n, r in ((2, 4), (3, 3)) for gens in ("a1,a1.a2", "e,a1.a2,a2")]
TABLE_CASES += [(free_abelian(2), gens, 6) for gens in ("(2,1),(1,-1)", "(0,0)")]


def generating_set(descriptor, gens):
    if gens is None:
        return GeneratingSet.standard(descriptor)
    return GeneratingSet.of(descriptor, parse_generators(descriptor, gens))


def oracle_translation_indices(words, g, right=False):
    """idx[i] = position in `words` of g * words[i] (of words[i] * g when
    `right`), or -1 outside: one multiply and one dict lookup per word."""
    where = {w: i for i, w in enumerate(words)}
    return np.array([where.get(multiply(w, g) if right else multiply(g, w), -1) for w in words], dtype=np.int64)


def oracle_subset_boundary_counts(masks, nbr):
    """Boundary and size popcounts of each subset bitmask; nbr[x, i] is the ball index of
    elements[i] * x, or -1 outside the ball.  The interior mask is built a table row at a time:
    one shift, and, shift and or over all masks for each pair of a row and a ball element."""
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
