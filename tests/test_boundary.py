"""Boundary ratios: exact examples, brute-force oracles, search behavior."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from foelner import boundary
from foelner.boundary import (
    BoundaryReport,
    ElementSet,
    GeneratingSet,
    GroupSearchConfig,
    _subset_boundary_counts,
    ball_family_ratios,
    boundary_ratio,
    exhaustive_min_ratio,
    interior_boundary,
    local_search_min_ratio,
    translation_table,
)
from foelner.errors import DescriptorMismatch, PreconditionError, SearchSpaceTooLarge, SeedRequired
from foelner.words import Word, ball, free_abelian, free_group, multiply, parse_generators, translation_indices, words_of
from frame_helpers import count_calls
from search_helpers import rescan_local_search
from table_helpers import TABLE_CASES, generating_set, oracle_translation_indices

F2 = free_group(2)
Z1 = free_abelian(1)
Z2 = free_abelian(2)
XF2 = GeneratingSet.standard(F2)
XZ1 = GeneratingSet.standard(Z1)
XZ2 = GeneratingSet.standard(Z2)


def ball_words(descriptor, radius):
    return words_of(descriptor, ball(descriptor, radius))


def interval(lo, hi):
    return ElementSet.of(Z1, (Word.from_vector(Z1, (i,)) for i in range(lo, hi + 1)))


def box(side):
    return ElementSet.of(
        Z2, (Word.from_vector(Z2, (x, y)) for x in range(side) for y in range(side))
    )


# ---------------------------------------------------------------------------
# Oracle: direct-definition boundary and itertools subset enumeration.


def oracle_boundary(members, closure):
    ms = set(members)
    return {a for a in ms if any(multiply(a, x) not in ms for x in closure)}


def oracle_exhaustive(descriptor, X, radius):
    elems = ball_words(descriptor, radius)
    closure = X.closure()
    best = None
    for k in range(1, len(elems) + 1):
        for combo in itertools.combinations(range(len(elems)), k):
            members = [elems[i] for i in combo]
            ratio = Fraction(len(oracle_boundary(members, closure)), k)
            key = (ratio, k, combo)
            if best is None or key < best:
                best = key
    return best


# ---------------------------------------------------------------------------


def test_interior_boundary_ball_f2():
    A = ElementSet.of(F2, ball_words(F2, 2))
    bd = interior_boundary(A, XF2)
    assert len(bd) == 12
    assert all(w.length() == 2 for w in bd.members)  # exactly the radius-2 sphere
    assert bd.members <= A.members


def test_interior_boundary_interval():
    A = interval(0, 9)
    bd = interior_boundary(A, XZ1)
    assert bd.members == {Word.from_vector(Z1, (0,)), Word.from_vector(Z1, (9,))}


def test_interior_boundary_singleton():
    A = ElementSet.of(F2, [Word.identity(F2)])
    assert interior_boundary(A, XF2).members == A.members


def test_interior_boundary_matches_oracle_on_random_subsets():
    rng = np.random.default_rng(5)
    elems = ball_words(F2, 2)
    closure = XF2.closure()
    for _ in range(50):
        take = rng.random(len(elems)) < 0.4
        members = [w for w, t in zip(elems, take) if t]
        if not members:
            continue
        A = ElementSet.of(F2, members)
        assert interior_boundary(A, XF2).members == oracle_boundary(members, closure)


def test_boundary_ratio_examples():
    assert boundary_ratio(ElementSet.of(F2, ball_words(F2, 2)), XF2).ratio == Fraction(12, 17)
    assert boundary_ratio(interval(0, 9), XZ1).ratio == Fraction(1, 5)
    rep = boundary_ratio(box(5), XZ2)
    assert rep.ratio == Fraction(16, 25)
    assert rep.boundary_size == 16 and rep.set_size == 25


def test_boundary_ratio_range():
    for r in (1, 2):
        rep = boundary_ratio(ElementSet.of(F2, ball_words(F2, r)), XF2)
        assert 0 <= rep.ratio <= 1


def test_empty_set_rejected():
    with pytest.raises(PreconditionError):
        interior_boundary(ElementSet(F2, frozenset()), XF2)
    with pytest.raises(PreconditionError):
        boundary_ratio(ElementSet(F2, frozenset()), XF2)


def test_monotone_generator_property():
    Xa = GeneratingSet.of(F2, [Word(F2, (1,))])
    rng = np.random.default_rng(11)
    elems = ball_words(F2, 2)
    for _ in range(30):
        take = rng.random(len(elems)) < 0.5
        members = [w for w, t in zip(elems, take) if t]
        if not members:
            continue
        A = ElementSet.of(F2, members)
        small = interior_boundary(A, Xa).members
        big = interior_boundary(A, XF2).members
        assert small <= big
        assert boundary_ratio(A, Xa).ratio <= boundary_ratio(A, XF2).ratio


def test_exhaustive_radius1_matches_bruteforce_oracle():
    best_set, report = exhaustive_min_ratio(F2, XF2, 1)
    ratio, size, combo = oracle_exhaustive(F2, XF2, 1)
    assert report.ratio == ratio == Fraction(4, 5)
    assert report.set_size == size == 5
    assert best_set.members == set(ball_words(F2, 1))


def test_exhaustive_interval_matches_oracle():
    best_set, report = exhaustive_min_ratio(Z1, XZ1, 3)
    ratio, size, combo = oracle_exhaustive(Z1, XZ1, 3)
    assert report.ratio == ratio == Fraction(2, 7)
    assert size == 7
    assert best_set.members == set(ball_words(Z1, 3))


@pytest.mark.parametrize(
    "descriptor, gens, radius",
    # degenerate generating sets: the identity alone, an axis of Z^2 and one word of F_3
    [(F2, "e", 1), (Z1, "(0)", 3), (Z2, "(1,0)", 2), (free_group(3), "a1.a2", 1)],
)
def test_exhaustive_degenerate_generators_match_oracle(descriptor, gens, radius):
    X = GeneratingSet.of(descriptor, parse_generators(descriptor, gens))
    best_set, report = exhaustive_min_ratio(descriptor, X, radius)
    ratio, size, combo = oracle_exhaustive(descriptor, X, radius)
    assert (report.ratio, report.set_size) == (ratio, size)
    assert best_set.members == {ball_words(descriptor, radius)[i] for i in combo}


def test_exhaustive_builds_one_fraction_per_chunk(monkeypatch):
    # every subset of ball(F_2, 2) ties at ratio 0 under {e}: one winner per chunk of
    # the 2^17 - 1 subsets, plus the report's own check
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr("foelner.boundary.Fraction", counting_fraction)
    X = GeneratingSet.of(F2, [Word.identity(F2)])
    best_set, report = exhaustive_min_ratio(F2, X, 2)
    assert len(made) <= -(-((1 << 17) - 1) // boundary.EXHAUSTIVE_CHUNK) + 1
    assert report.ratio == 0 and len(best_set) == 1


def test_exhaustive_f2_radius2():
    best_set, report = exhaustive_min_ratio(F2, XF2, 2)
    assert report.ratio == Fraction(12, 17)
    assert report.ratio >= Fraction(2, 3)
    assert best_set.members == set(ball_words(F2, 2))


def test_exhaustive_cap():
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_min_ratio(F2, XF2, 3)  # 2^53 subsets of |ball| = 53


class BallBuilt(Exception):
    """Raised by a patched ball(): the input passed every check made before the build."""


def _refuse_ball(*args):
    raise BallBuilt


def test_exhaustive_subset_pass_cap(monkeypatch):
    # on ball(Z, 10), 21 elements, each subset costs 2 * 21 mask entries for each of the
    # generators (1)..(20), 2 * 2 whole-mask passes for each longer one (it moves every member
    # off the ball) and 20 more: 372 generators are under the time bound, 373 are past it,
    # refused before the ball is built
    def gens(count):
        return GeneratingSet.of(Z1, [Word.from_vector(Z1, (c,)) for c in range(1, count + 1)])

    monkeypatch.setattr("foelner.boundary.ball", _refuse_ball)
    with pytest.raises(SearchSpaceTooLarge, match="subsets of ball.* predicted to take"):
        exhaustive_min_ratio(Z1, gens(373), 10)
    with pytest.raises(BallBuilt):
        exhaustive_min_ratio(Z1, gens(372), 10)


def test_local_search_toggle_cap(monkeypatch):
    # the 160 words of ball(F_2, 4) other than e give 320 table rows per toggle, and every
    # iteration may add a history move: 164,752 iterations are under the bounds, 164,753 past them
    X = GeneratingSet.of(F2, [w for w in ball_words(F2, 4) if not w.is_identity])
    monkeypatch.setattr("foelner.boundary.ball", _refuse_ball)
    with pytest.raises(SearchSpaceTooLarge, match="local search .* predicted to take"):
        local_search_min_ratio(F2, X, GroupSearchConfig(radius=1, seed=1, iterations=164_753))
    with pytest.raises(BallBuilt):
        local_search_min_ratio(F2, X, GroupSearchConfig(radius=1, seed=1, iterations=164_752))


def test_exhaustive_minimum_nonincreasing_in_radius():
    f1 = exhaustive_min_ratio(F2, XF2, 1)[1].ratio
    f2 = exhaustive_min_ratio(F2, XF2, 2)[1].ratio
    assert f2 <= f1
    zs = [exhaustive_min_ratio(Z1, XZ1, r)[1].ratio for r in (1, 2, 3)]
    assert zs == sorted(zs, reverse=True)


def test_boundary_never_empty_at_small_radius():
    # every non-empty subset of ball(2) has a non-empty interior boundary
    for descriptor, X in ((F2, XF2), (Z2, XZ2)):
        b = ball(descriptor, 2)
        nbr = translation_indices(descriptor, b, X.closure(), right=True)
        masks = np.arange(1, 1 << len(b), dtype=np.uint64)
        bcnt, _ = _subset_boundary_counts(masks, nbr)
        assert int(bcnt.min()) >= 1


@pytest.mark.parametrize("descriptor, gens, radius", TABLE_CASES)
def test_translation_table_is_the_right_translates_but_e(descriptor, gens, radius):
    X = generating_set(descriptor, gens)
    b, nbr = translation_table(descriptor, X, radius)
    moving = [x for x in X.closure() if not x.is_identity]
    assert b is ball(descriptor, radius) and nbr.shape == (len(moving), len(b))
    words = words_of(descriptor, b)
    for x, row in zip(moving, nbr):
        assert row.tolist() == oracle_translation_indices(words, x, right=True).tolist()


@pytest.mark.parametrize("descriptor, gens, radius", TABLE_CASES)
def test_enumerated_family_matches_each_ball_scanned_alone(descriptor, gens, radius):
    X = generating_set(descriptor, gens)
    fam = ball_family_ratios(descriptor, X, radius, method="enumerate")
    assert [fr.radius for fr in fam] == list(range(1, radius + 1))
    for fr in fam:
        assert fr.report == boundary_ratio(ElementSet.of(descriptor, ball_words(descriptor, fr.radius)), X)


def test_enumerated_family_builds_one_ball_and_one_table(monkeypatch):
    # the radii 1..20 of Z^2 are prefixes of ball(20); one call translates by all of X u X^-1 but e
    counts = count_calls(monkeypatch, boundary, "ball", "translation_indices")
    ball_family_ratios(Z2, XZ2, 20)
    assert counts == {"ball": 1, "translation_indices": 1}


@pytest.mark.parametrize("descriptor, other", [(F2, free_group(3)), (free_group(3), F2), (Z2, free_abelian(3)),
                                               (free_abelian(3), Z2)])
def test_estimators_refuse_a_generating_set_of_another_group(descriptor, other):
    X = GeneratingSet.standard(other)
    for method in ("auto", "enumerate"):
        with pytest.raises(DescriptorMismatch):
            ball_family_ratios(descriptor, X, 3, method=method)
    with pytest.raises(DescriptorMismatch):
        exhaustive_min_ratio(descriptor, X, 1)
    with pytest.raises(DescriptorMismatch):
        local_search_min_ratio(descriptor, X, GroupSearchConfig(radius=2, seed=1, iterations=10))


def test_ball_family_f2():
    fam = ball_family_ratios(F2, XF2, 2)
    assert fam[-1].report.ratio == Fraction(12, 17)
    assert abs(fam[-1].report.ratio_float - 0.7059) < 1e-4
    # 'auto' takes the closed form at every radius for free groups with standard
    # generators, and enumerates otherwise
    assert {fr.method for fr in fam} == {"closed_form"}
    skew = GeneratingSet.of(F2, [Word(F2, (1,)), Word(F2, (1, 2))])
    assert {fr.method for fr in ball_family_ratios(F2, skew, 2)} == {"enumerated"}
    assert {fr.method for fr in ball_family_ratios(Z2, XZ2, 2)} == {"enumerated"}


def test_ball_family_closed_form_matches_enumeration():
    for n in (2, 3):
        d = free_group(n)
        X = GeneratingSet.standard(d)
        enumerated = ball_family_ratios(d, X, 6, method="enumerate")
        closed = ball_family_ratios(d, X, 6, method="closed_form")
        for e, c in zip(enumerated, closed):
            assert e.report.ratio == c.report.ratio
            assert e.report.set_size == c.report.set_size


def test_ball_family_limits():
    # free: decreasing to (2n-2)/(2n-1)
    for n in (2, 3):
        d = free_group(n)
        fam = ball_family_ratios(d, GeneratingSet.standard(d), 12, method="closed_form")
        limit = Fraction(2 * n - 2, 2 * n - 1)
        ratios = [fr.report.ratio for fr in fam]
        assert all(r > limit for r in ratios)
        assert abs(float(ratios[-1] - limit)) < 1e-6
    # abelian: decreasing towards 0
    fam = ball_family_ratios(Z2, XZ2, 20)
    ratios = [fr.report.ratio for fr in fam]
    assert ratios == sorted(ratios, reverse=True)
    assert float(ratios[-1]) < 0.2


def test_closed_form_requires_standard_generators():
    skew = GeneratingSet.of(F2, [Word(F2, (1,)), Word(F2, (1, 2))])
    with pytest.raises(PreconditionError):
        ball_family_ratios(F2, skew, 3, method="closed_form")


def test_local_search_singleton_start():
    cfg = GroupSearchConfig(radius=2, mode="search", seed=0, iterations=0)
    res = local_search_min_ratio(F2, XF2, cfg)
    assert res.initial_report.ratio == 1
    assert res.report.ratio <= 1


def test_local_search_z2_beats_box():
    cfg = GroupSearchConfig(radius=12, mode="search", seed=2, iterations=10_000)
    res = local_search_min_ratio(Z2, XZ2, cfg)
    assert res.report.ratio <= Fraction(16, 25)
    assert res.report.ratio <= res.initial_report.ratio


def test_local_search_f2_respects_theorem_floor():
    cfg = GroupSearchConfig(radius=5, mode="search", seed=2, iterations=10_000)
    res = local_search_min_ratio(F2, XF2, cfg)
    assert res.report.ratio >= Fraction(2, 3)


def test_local_search_deterministic():
    cfg = GroupSearchConfig(radius=6, mode="search", seed=9, iterations=2000)
    a = local_search_min_ratio(Z2, XZ2, cfg)
    b = local_search_min_ratio(Z2, XZ2, cfg)
    assert a.report == b.report
    assert [(m.iteration, m.move) for m in a.history] == [(m.iteration, m.move) for m in b.history]


SEARCH_CASES = [
    # (group, generators (None: standard), radius, iterations)
    (Z2, None, 8, 3000),
    (F2, None, 4, 3000),
    (Z2, "(0,0),(1,0),(0,1)", 6, 2000),
    (F2, "e,a1.a2,a2", 3, 2000),
    (Z2, "(2,1),(1,-1)", 6, 2000),
    (Z2, "(0,0)", 3, 300),  # the identity alone: no boundary at all
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("descriptor, gens, radius, iterations", SEARCH_CASES)
def test_incremental_search_matches_rescan(descriptor, gens, radius, iterations, seed):
    X = generating_set(descriptor, gens)
    cfg = GroupSearchConfig(radius=radius, mode="search", seed=seed, iterations=iterations)
    got = local_search_min_ratio(descriptor, X, cfg)
    assert got == rescan_local_search(descriptor, X, cfg)
    assert 10 < len(got.history) <= iterations
    # the best set comes before the last accepted move, so it is rebuilt from a
    # proper prefix of the accepted toggles
    reached = [(got.initial_report.ratio, got.initial_report.set_size)]
    reached += [(Fraction(m.boundary_size, m.set_size), m.set_size) for m in got.history]
    assert reached.index(min(reached)) < len(got.history)


def test_local_search_builds_a_bounded_number_of_fractions(monkeypatch):
    # bests are ranked by integer cross-products: the initial and final reports (each built and
    # checked) and the best ratio are the only Fractions, however many moves are accepted
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr("foelner.boundary.Fraction", counting_fraction)
    cfg = GroupSearchConfig(radius=8, mode="search", seed=1, iterations=2000)
    res = local_search_min_ratio(Z2, XZ2, cfg)
    assert len(res.history) > 100 and len(made) <= 5
    assert res.report.ratio < 1


def test_local_search_requires_seed():
    with pytest.raises(SeedRequired):
        GroupSearchConfig(radius=3, mode="search", seed=None, iterations=10)
    with pytest.raises(SeedRequired):
        GroupSearchConfig(radius=3)


@pytest.mark.parametrize("seed, iterations", [(-1, 10), (1, -1)])
def test_local_search_config_refuses_negative_seed_and_iterations(seed, iterations):
    # numpy takes no negative seed, and a negative iteration count would pass the budget with a negative charge
    with pytest.raises(PreconditionError, match="must be >= 0"):
        GroupSearchConfig(radius=2, seed=seed, iterations=iterations)


@pytest.mark.parametrize("mode", ["balls", "exhaustive", "annealing"])
def test_local_search_config_refuses_other_modes(mode):
    # the ball family and the exhaustive minimum have their own functions
    with pytest.raises(PreconditionError, match="mode 'search'"):
        GroupSearchConfig(radius=3, mode=mode, seed=1, iterations=10)


def test_report_exactness():
    rep = BoundaryReport.of(17, 12)
    assert rep.ratio == Fraction(12, 17)
    assert rep.ratio_float == 12 / 17
