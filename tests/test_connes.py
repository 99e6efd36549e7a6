"""Witness frames, certificates, Q evaluation, projection search."""

import math

import numpy as np
import pytest

import foelner.connes
import search_helpers
from foelner import l2ops
from foelner.connes import (
    ProjectionSearchConfig,
    WitnessConfig,
    anneal_projection,
    build_witness_frame,
    certificate_formula,
    foelner_upper_estimate,
    frame_fingerprint,
    limit_formula,
    pool_objective,
    q_objective,
    random_frame,
    witness_certificate,
)
from foelner.errors import PreconditionError, RankDeficiency, SearchSpaceTooLarge
from foelner.l2ops import GroupAlgebraElement, compress
from foelner.words import (
    Word,
    ball,
    free_group,
    multiply,
    parse_generators,
    prefixed_words,
    standard_generators,
    words_of,
)
from frame_helpers import columns_of, count_calls, frame_of, frame_pool, inner, scalar_draw_frame, translate
from search_helpers import frame_per_trial_anneal

F2 = free_group(2)
L_a = GroupAlgebraElement.left_translation(Word(F2, (1,)))
L_b = GroupAlgebraElement.left_translation(Word(F2, (2,)))
L_e = GroupAlgebraElement.left_translation(Word.identity(F2))


# ---------------------------------------------------------------------------
# Witness construction.


def test_prefixed_words_are_shortlex_and_prefixed():
    rows = prefixed_words(F2, -1, 10)
    assert rows.shape == (10, 4)  # as wide as the longest word + 1
    words = words_of(F2, rows)
    assert words == [w for w in words_of(F2, ball(F2, 3)) if w.data[:1] == (-1,)][:10]
    assert words[0] == Word(F2, (-1,))


def test_witness_small_example():
    frame = build_witness_frame(WitnessConfig(2, 2, 1))
    assert frame.rank == 2
    assert np.allclose(frame.C.conj().T @ frame.C, np.eye(2), atol=1e-12)
    assert len(frame.rows) == 2 * 2 * 1


def test_witness_orthonormal_grid():
    for n, k, t in ((2, 2, 2), (2, 8, 6), (2, 32, 8), (3, 16, 5), (4, 8, 4), (5, 32, 8)):
        frame = build_witness_frame(WitnessConfig(n, k, t))
        assert np.allclose(frame.C.conj().T @ frame.C, np.eye(k), atol=1e-10)


def test_witness_subdiagonal_geometric_series_oracle():
    # raw truncated column: squared norm 1 - (n+1)^-T, raw adjacent inner
    # product (1 - (n+1)^-T)/n, hence exactly 1/n after renormalization
    for n, t in ((2, 1), (2, 4), (3, 2), (5, 6)):
        raw_norm_sq = sum(n * (n + 1) ** (-s) for s in range(1, t + 1))
        assert abs(raw_norm_sq - (1 - (n + 1) ** (-t))) < 1e-12
        raw_ip = sum((n + 1) ** (-s) for s in range(1, t + 1))
        assert abs(raw_ip - raw_norm_sq / n) < 1e-12

        frame = build_witness_frame(WitnessConfig(n, 3, t))
        ops = tuple(GroupAlgebraElement.left_translation(w) for w in standard_generators(frame.descriptor))
        cols = columns_of(frame)
        for op in ops:
            for m in (1, 2):  # <L_aj xi_m, xi_{m+1}> = 1/n for every j
                got = inner(translate(op.word, cols[m - 1]), cols[m])
                assert abs(got - 1.0 / n) < 1e-12
        for op in ops:
            a = compress(op, frame)
            for q in range(3):
                for p in range(3):
                    expected = 1.0 / n if q == p + 1 else 0.0
                    assert abs(a[q, p] - expected) < 1e-12


def test_witness_compression_shape():
    frame = build_witness_frame(WitnessConfig(2, 8, 6))
    a = compress(L_a, frame)
    expected = np.zeros((8, 8))
    for m in range(1, 8):
        expected[m, m - 1] = 0.5
    assert np.allclose(a, expected, atol=1e-12)


def test_witness_requires_rank_two():
    with pytest.raises(PreconditionError):
        WitnessConfig(1, 4, 3)


def test_witness_frame_fingerprint_pinned():
    # the frame of `foelner witness --n 2 --k 8 --depth 6`, byte for byte
    cert = witness_certificate(2, 8, 6)
    assert cert.frame_fingerprint == "0068a46f46ddb0e75b662916b7f7a320ce38916407878ef226bc1264da40e52a"


def test_certificate_formula_values():
    assert abs(certificate_formula(2, 1) - math.sqrt(2)) < 1e-15
    assert abs(certificate_formula(2, 8) - 1.25) < 1e-15
    assert abs(limit_formula(2) - math.sqrt(1.5)) < 1e-15


@pytest.mark.parametrize(
    "formula, args",
    [
        (certificate_formula, (0, 2)),  # was ZeroDivisionError
        (certificate_formula, (-1, 3)),  # was 0.816
        (certificate_formula, (1, 2)),
        (certificate_formula, (2, 0)),  # was ZeroDivisionError
        (certificate_formula, (2, -1)),
        (limit_formula, (0,)),  # was ZeroDivisionError
        (limit_formula, (1,)),
    ],
)
def test_formulas_refuse_what_witness_config_refuses(formula, args):
    # free rank n >= 2 and frame rank k >= 1, as WitnessConfig checks them
    with pytest.raises(PreconditionError):
        formula(*args)


def test_witness_certificate_exact():
    cert = witness_certificate(2, 8, 6)
    assert abs(cert.certified_epsilon - 1.25) < 1e-12
    assert abs(cert.certified_epsilon - cert.formula_epsilon) < 1e-9
    assert all(r.defect < 1e-12 for r in cert.records)
    assert len(cert.frame_fingerprint) == 64


def test_witness_certificate_n3_k3():
    cert = witness_certificate(3, 3, 4)
    expected = math.sqrt(2 - 4 / 27)
    assert abs(cert.certified_epsilon - expected) < 1e-9
    assert abs(expected - 1.361) < 1e-3


def test_certificate_monotonicity():
    # strictly decreasing in k, strictly increasing in n
    for n in (2, 3, 5):
        eps = [certificate_formula(n, k) for k in range(1, 12)]
        assert all(e1 > e2 for e1, e2 in zip(eps, eps[1:]))
    for k in (2, 8, 32):
        eps = [certificate_formula(n, k) for n in (2, 3, 4, 5)]
        assert all(e1 < e2 for e1, e2 in zip(eps, eps[1:]))


def test_certificate_independent_of_tail_enumeration():
    # permuting the enumeration of the tail sets leaves the certificate alone
    cfg = WitnessConfig(2, 4, 3)
    base = build_witness_frame(cfg)
    lists = []
    for i in (1, 2):
        w = 2 if i == 1 else i - 1
        lst = words_of(F2, prefixed_words(F2, -w, cfg.T))
        lists.append([lst[1], lst[2], lst[0]])  # cyclic permutation
    columns = []
    for m in range(1, cfg.k + 1):
        amps = {}
        for i in (1, 2):
            head = Word(F2, (i,) * m)
            for t in range(1, cfg.T + 1):
                amps[multiply(head, lists[i - 1][t - 1])] = (cfg.n + 1) ** (-t / 2)
        norm = math.sqrt(sum(a * a for a in amps.values()))
        columns.append({w: a / norm for w, a in amps.items()})
    permuted = frame_of(F2, base.ambient_radius, columns)
    for frame in (base, permuted):
        worst = max(r.worst for r in q_objective((L_a, L_b), frame))
        assert abs(worst - certificate_formula(2, 4)) < 1e-9


# ---------------------------------------------------------------------------
# Q evaluation.


def q_holds(unitaries, frame, eps):
    # Q(X, eps) on one frame: both Connes conditions within eps for every unitary
    return max(r.worst for r in q_objective(unitaries, frame)) <= eps


def test_evaluate_q_examples():
    rng = np.random.default_rng(0)
    frame = random_frame(F2, 3, 4, rng)
    assert q_holds([L_e], frame, 0.1)
    f_e = frame_of(F2, 2, [{Word.identity(F2): 1.0}])
    records = q_objective([L_a], f_e)
    assert not q_holds([L_a], f_e, 1.0)
    assert abs(records[0].ratio - math.sqrt(2)) < 1e-12
    witness = build_witness_frame(WitnessConfig(2, 8, 6))
    assert q_holds([L_a, L_b], witness, 1.25 + 1e-9)


def test_evaluate_q_monotone_in_epsilon_antitone_in_x():
    witness = build_witness_frame(WitnessConfig(2, 4, 3))
    eps0 = certificate_formula(2, 4)
    assert q_holds([L_a], witness, eps0 + 1e-9)
    assert not q_holds([L_a], witness, eps0 - 1e-3)
    # superset of unitaries can only lower the verdict
    for eps in (0.5, eps0 + 1e-9, 2.0):
        v1 = q_holds([L_a], witness, eps)
        v2 = q_holds([L_a, L_b], witness, eps)
        assert (not v2) or v1


def test_evaluate_q_rejects_non_unitaries():
    # an empty unitary list is refused, also inside pool_objective (where
    # max() over no records would otherwise fail on its own)
    witness = build_witness_frame(WitnessConfig(2, 2, 2))
    with pytest.raises(PreconditionError, match="empty unitary list"):
        q_objective([], witness)
    with pytest.raises(PreconditionError, match="empty unitary list"):
        pool_objective([], [witness])


# ---------------------------------------------------------------------------
# Upper estimate sweeps.


def test_upper_estimate_frame_mode():
    est = foelner_upper_estimate(2, 1)
    assert abs(est.best_epsilon - math.sqrt(2)) < 1e-12
    est8 = foelner_upper_estimate(2, 8)
    assert est8.best_k == 8
    assert abs(est8.best_epsilon - 1.25) < 1e-9
    eps = [e for _, e in est8.sweep]
    assert all(e1 > e2 for e1, e2 in zip(eps, eps[1:]))


def test_upper_estimate_formula_mode_limit():
    est = foelner_upper_estimate(2, 10_000, mode="formula")
    assert abs(est.best_epsilon - math.sqrt(1.5)) < 1e-3
    assert est.best_k == 10_000


# ---------------------------------------------------------------------------
# Random frames and annealing.


def test_random_frame_deterministic():
    a = frame_pool(F2, 4, 4, seed=21, count=3)
    b = frame_pool(F2, 4, 4, seed=21, count=3)
    assert [frame_fingerprint(f) for f in a] == [frame_fingerprint(f) for f in b]


@pytest.mark.parametrize("rank, radius", [(1, 2), (3, 3), (8, 5), (12, 4), (5, 2)])
def test_random_frame_matches_scalar_draws(rank, radius):
    # one rng.normal(size=2m) a column is the stream of m complex(rng.normal(), rng.normal()) pairs;
    # at (5, 2) the frames span all of ball(F_2, 1)
    rng, oracle = np.random.default_rng(rank + radius), np.random.default_rng(rank + radius)
    for _ in range(5):
        frame = random_frame(F2, rank, radius, rng)
        rows, c = scalar_draw_frame(F2, rank, radius, oracle)
        assert np.array_equal(frame.rows, rows)
        assert frame.C.tobytes() == c.tobytes()
    assert rng.random() == oracle.random()  # the streams end in the same place


def test_pool_objective_refuses_an_empty_pool():
    # an objective of inf over no frames would make every monotonicity check vacuous
    with pytest.raises(PreconditionError, match="empty frame pool"):
        pool_objective([L_a], [])


def test_pool_objective_monotone():
    pool = frame_pool(F2, 4, 4, seed=33, count=6)
    v1, _ = pool_objective([L_a], pool)
    v2, _ = pool_objective([L_a, L_b], pool)
    assert v1 <= v2


def test_anneal_identity_unitary_is_trivial():
    cfg = ProjectionSearchConfig(
        descriptor=F2, rank=3, ambient_radius=3, seed=5, iterations=20, unitaries=(Word.identity(F2),)
    )
    res = anneal_projection(cfg)
    assert res.history[0] == (0, res.history[0][1])
    assert res.history[0][1] < 1e-9
    assert res.objective < 1e-9


@pytest.mark.parametrize("seed, iterations", [(-1, 5), (1, -5)])
def test_anneal_config_refuses_negative_seed_and_iterations(seed, iterations):
    # a negative iteration count would otherwise return as if the loop had run 0 times
    with pytest.raises(PreconditionError, match="must be >= 0"):
        ProjectionSearchConfig(F2, 2, 3, seed, iterations, (Word(F2, (1,)),))


def test_anneal_refuses_large_row_gathers_before_building(monkeypatch):
    # 99,999 unitaries times the 199,999 rows of ball(F_99999, 1): past the time bound
    monkeypatch.setattr("foelner.connes.ball", lambda *args: pytest.fail("the ball was built"))
    descriptor = free_group(99_999)
    cfg = ProjectionSearchConfig(descriptor, 1, 2, 1, 0, standard_generators(descriptor))
    with pytest.raises(SearchSpaceTooLarge, match="annealed search .* predicted to take"):
        anneal_projection(cfg)


def test_anneal_deterministic_and_nonincreasing():
    cfg = ProjectionSearchConfig(
        descriptor=F2, rank=4, ambient_radius=4, seed=42, iterations=300,
        unitaries=(Word(F2, (1,)), Word(F2, (2,))),
    )
    r1 = anneal_projection(cfg)
    r2 = anneal_projection(cfg)
    assert r1.history == r2.history
    assert abs(r1.objective - r2.objective) < 1e-15
    best = [v for _, v in r1.history]
    assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))
    assert frame_fingerprint(r1.frame) == frame_fingerprint(r2.frame)
    # the reported objective is the loop's best, re-derived through q_objective
    assert abs(r1.objective - best[-1]) < 1e-12
    assert r1.objective == max(r.worst for r in q_objective((L_a, L_b), r1.frame))


def test_anneal_spec_example_floor():
    cfg = ProjectionSearchConfig(
        descriptor=F2, rank=8, ambient_radius=5, seed=42, iterations=10_000,
        unitaries=(Word(F2, (1,)), Word(F2, (2,))),
    )
    res = anneal_projection(cfg)
    assert res.objective >= 0.05


def test_anneal_monotone_between_unitary_sets_on_same_seed():
    base = dict(descriptor=F2, rank=4, ambient_radius=4, seed=11, iterations=400)
    single = anneal_projection(ProjectionSearchConfig(unitaries=(Word(F2, (1,)),), **base))
    double = anneal_projection(
        ProjectionSearchConfig(unitaries=(Word(F2, (1,)), Word(F2, (2,))), **base)
    )
    assert single.objective <= double.objective


def test_scan_frame_fingerprint_pinned():
    # the frame of `foelner scan --n 2 --rank 3 --radius 4 --iters 60 --seed 11`, byte for byte
    cfg = ProjectionSearchConfig(
        descriptor=F2, rank=3, ambient_radius=4, seed=11, iterations=60, unitaries=standard_generators(F2)
    )
    res = anneal_projection(cfg)
    assert frame_fingerprint(res.frame) == "89594cede9ff0043e86199c8ec36620c390d4b46f39416b40fbd78540a261ab2"


F3 = free_group(3)
# (descriptor, rank, ambient radius, seed, iterations, unitaries)
ANNEAL_CASES = [
    pytest.param(F3, 4, 3, 7, 500, "a1,a2,a3", id="n3"),
    pytest.param(F3, 4, 3, 7, 500, "a1,a2.a3", id="n3-word-of-length-2"),  # support ball(1)
    pytest.param(F2, 1, 3, 5, 300, "a1,a2", id="rank1"),
    pytest.param(F2, 16, 4, 6, 300, "a1,a2", id="rank16"),
    pytest.param(F2, 5, 2, 3, 300, "a1,a2", id="rank-equals-support"),  # |ball(1)| = 5
    pytest.param(F2, 2, 8, 9, 100, "a1,a2", id="radius8"),  # 4,373 support rows
    pytest.param(F2, 3, 3, 5, 300, "e,a1", id="identity"),  # tau(L_e) = 1
    pytest.param(F2, 8, 5, 1, 1000, "a1,a2", id="bench-shortened"),  # the benchmark's scan, 1,000 iterations
]


def _assert_same_anneal(new, ref):
    assert new.history == ref.history
    assert new.records == ref.records
    assert new.objective == ref.objective
    assert np.array_equal(new.frame.rows, ref.frame.rows)
    assert np.array_equal(new.frame.C, ref.frame.C)
    assert frame_fingerprint(new.frame) == frame_fingerprint(ref.frame)


@pytest.mark.parametrize("descriptor, rank, radius, seed, iters, unitaries", ANNEAL_CASES)
def test_anneal_matches_frame_per_trial_reference(descriptor, rank, radius, seed, iters, unitaries):
    cfg = ProjectionSearchConfig(
        descriptor=descriptor, rank=rank, ambient_radius=radius, seed=seed, iterations=iters,
        unitaries=tuple(parse_generators(descriptor, unitaries)),
    )
    _assert_same_anneal(anneal_projection(cfg), frame_per_trial_anneal(cfg))


def _deficient_every(period, gram_schmidt):
    """gram_schmidt raising RankDeficiency on every `period`-th call."""
    calls = [0]

    def wrapped(raw):
        calls[0] += 1
        if calls[0] % period == 0:
            raise RankDeficiency(0)
        return gram_schmidt(raw)

    return wrapped


def test_anneal_rejects_rank_deficient_moves_like_reference(monkeypatch):
    # start-up draws and moves alike: every third orthonormalization fails
    cfg = ProjectionSearchConfig(
        descriptor=F2, rank=4, ambient_radius=4, seed=3, iterations=300, unitaries=(Word(F2, (1,)), Word(F2, (2,)))
    )
    monkeypatch.setattr(foelner.connes, "gram_schmidt", _deficient_every(3, foelner.connes.gram_schmidt))
    monkeypatch.setattr(
        search_helpers, "reference_gram_schmidt", _deficient_every(3, search_helpers.reference_gram_schmidt)
    )
    new, ref = anneal_projection(cfg), frame_per_trial_anneal(cfg)
    _assert_same_anneal(new, ref)
    assert len(new.history) > 1


def test_anneal_gram_check_runs_on_every_trial(monkeypatch):
    # a trial whose columns are off orthonormal by 2e-9 (> GRAM_TOL) is refused
    # as a frame with such columns would be, on whichever call it comes
    gram_schmidt = foelner.connes.gram_schmidt
    cfg = ProjectionSearchConfig(
        descriptor=F2, rank=4, ambient_radius=4, seed=3, iterations=300, unitaries=(Word(F2, (1,)), Word(F2, (2,)))
    )
    for bad_call in (1, 2, 250):
        calls = [0]

        def skewed(raw):
            calls[0] += 1
            q = gram_schmidt(raw)
            return q * (1 + 1e-9) if calls[0] == bad_call else q

        monkeypatch.setattr(foelner.connes, "gram_schmidt", skewed)
        with pytest.raises(PreconditionError, match="orthonormal"):
            anneal_projection(cfg)


def test_q_objective_one_compression_per_unitary(monkeypatch):
    frame = build_witness_frame(WitnessConfig(3, 4, 3))
    counts = count_calls(monkeypatch, l2ops, "adjoint_product", "translation_indices")
    q_objective(tuple(GroupAlgebraElement.left_translation(w) for w in standard_generators(frame.descriptor)), frame)
    assert counts == {"adjoint_product": 3, "translation_indices": 1}  # one row gather serves all three


def test_rank_sweep_computes_no_fingerprint(monkeypatch):
    counts = count_calls(monkeypatch, foelner.connes, "frame_fingerprint")
    foelner_upper_estimate(2, 6, T=3)
    assert counts["frame_fingerprint"] == 0
    cert = witness_certificate(2, 3, 3)
    assert cert.frame_fingerprint == foelner.connes.frame_fingerprint(cert.frame)
