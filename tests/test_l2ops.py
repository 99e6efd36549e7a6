"""Frames, translations, HS quantities, SVD, nearest unitary."""

import math

import numpy as np
import pytest

from foelner.errors import (
    ConvergenceError,
    DescriptorMismatch,
    HeadroomViolation,
    PreconditionError,
    RankDeficiency,
)
from foelner.l2ops import (
    HS_TILE,
    Frame,
    GroupAlgebraElement,
    adjoint_product,
    commutator_ratio,
    compress,
    frame_to_json,
    gram_schmidt,
    nearest_unitary,
    normalized_trace,
    svd_small,
    trace_defect,
)
from foelner.words import Word, ball, element_array, free_abelian, free_group, multiply, parse_word, translation_indices, words_of
from frame_helpers import (
    columns_of,
    frame_of,
    frame_pool,
    reference_adjoint_product,
    reference_compression,
    reference_gram_schmidt,
    reference_hs_ratio,
    row_words,
)

F2 = free_group(2)
E = Word.identity(F2)
A = Word(F2, (1,))
B = Word(F2, (2,))
L_a = GroupAlgebraElement.left_translation(A)
L_b = GroupAlgebraElement.left_translation(B)
L_e = GroupAlgebraElement.left_translation(E)
SQRT2 = math.sqrt(2.0)


def delta_frame(*words, ambient=3):
    return frame_of(F2, ambient, [{w: 1.0} for w in words])


def random_columns(rng, rank, radius=3):
    pool = words_of(F2, ball(F2, radius))
    cols = []
    for _ in range(rank):
        idx = rng.choice(len(pool), size=int(rng.integers(3, 10)), replace=False)
        cols.append({pool[int(i)]: complex(rng.normal(), rng.normal()) for i in idx})
    return cols


def random_frame(rng, rank=4, ambient=5):
    return frame_of(F2, ambient, random_columns(rng, rank, radius=ambient - 1), orthonormalize=True)


# ---------------------------------------------------------------------------
# The group basis and inner products of translates.


def test_inner_product_group_basis_orthonormal():
    words = words_of(F2, ball(F2, 2))
    frame = delta_frame(*words)
    assert np.array_equal(frame.C.conj().T @ frame.C, np.eye(len(words)))
    assert np.array_equal(compress(L_e, frame), np.eye(len(words)))
    # <L_a delta_g, delta_h> = 1 exactly when h = a g
    a_mat = compress(L_a, frame)
    for p, g in enumerate(words):
        for q, h in enumerate(words):
            assert a_mat[q, p] == (1.0 if h == multiply(A, g) else 0.0)


def test_inner_product_example():
    # <L_a delta_e, (delta_a + delta_b)/sqrt2> = 1/sqrt2
    frame = frame_of(F2, 3, [{E: 1.0}, {A: 1 / SQRT2, B: 1 / SQRT2}])
    assert abs(compress(L_a, frame)[1, 0] - 1 / SQRT2) < 1e-15


def test_inner_product_conjugate_symmetric_and_linear():
    rng = np.random.default_rng(1)
    for _ in range(20):
        frame = random_frame(rng)
        # sesquilinear in the columns: the frame C V has compression V* A V
        v, _ = np.linalg.qr(rng.normal(size=(frame.rank, frame.rank)) + 1j * rng.normal(size=(frame.rank, frame.rank)))
        a_mat = compress(L_a, frame)
        assert np.allclose(compress(L_a, frame.with_columns(frame.C @ v)), v.conj().T @ a_mat @ v, atol=1e-12)
        a_inv = compress(GroupAlgebraElement.left_translation(A.inverse()), frame)
        assert np.allclose(a_inv, a_mat.conj().T, atol=1e-12)


def test_amplitude_pruning():
    frame = frame_of(F2, 2, [{E: 1.0, A: 1e-16}])
    assert frame_to_json(frame) == [{"e": [1.0, 0.0]}]


# ---------------------------------------------------------------------------
# Left translation as an index gather.


def test_apply_examples():
    # L_a delta_{a^-1 b} = delta_b, L_a delta_e = delta_a; b * a^-1 b is not a row
    rows = element_array(F2, [B, Word.from_letters(F2, [-1, 2])])
    assert translation_indices(F2, rows, [A]).tolist() == [[-1, 0]]
    assert translation_indices(F2, element_array(F2, [E, A]), [A]).tolist() == [[1, -1]]
    assert translation_indices(F2, element_array(F2, [E, A]), [A], right=True).tolist() == [[1, -1]]
    frame = delta_frame(E, A)
    # the compression of (L_e + L_a) / 2, as the sum of the two single-word ones
    assert np.array_equal(0.5 * compress(L_e, frame) + 0.5 * compress(L_a, frame), [[0.5, 0.0], [0.5, 0.5]])


def test_apply_headroom_refusal():
    with pytest.raises(HeadroomViolation):
        delta_frame(Word(F2, (1, 1, 1)), ambient=3)  # support radius 3 > ambient - 1
    frame = delta_frame(Word(F2, (1, 1, 1)), ambient=4)
    l_aa = GroupAlgebraElement.left_translation(Word(F2, (1, 1)))
    with pytest.raises(HeadroomViolation):
        compress(l_aa, frame)  # support 3 + operator 2 > ambient 4
    compress(L_a, frame)
    assert np.array_equal(compress(l_aa, delta_frame(Word(F2, (1, 1, 1)), ambient=5)), [[0.0]])


def test_apply_isometry_and_composition():
    b = ball(F2, 4)
    words = words_of(F2, b)
    gs = (A, B, A.inverse(), multiply(A, B))
    for g, idx in zip(gs, translation_indices(F2, b, gs)):
        hit = idx[idx >= 0]
        assert len(set(hit.tolist())) == len(hit)  # injective: L_g is an isometry
        for i, j in enumerate(idx):
            assert (j >= 0) == (multiply(g, words[i]).length() <= 4)
            if j >= 0:
                assert words[j] == multiply(g, words[i])
    # L_a L_b = L_ab wherever both sides stay inside the ball
    via_b, via_a, via_ab = translation_indices(F2, b, (B, A, multiply(A, B)))
    for i in range(len(words)):
        if via_b[i] >= 0 and via_a[via_b[i]] >= 0:
            assert via_a[via_b[i]] == via_ab[i]


# ---------------------------------------------------------------------------
# Gram-Schmidt and frames.


def test_gram_schmidt_already_orthonormal():
    assert np.array_equal(gram_schmidt(np.eye(3)[:, :2]), np.eye(3)[:, :2])


def test_gram_schmidt_example():
    # rows (e, a): columns delta_e and delta_e + delta_a give delta_e, delta_a
    q = gram_schmidt(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(q, np.eye(2), atol=1e-12)


def test_gram_schmidt_rank_deficiency():
    with pytest.raises(RankDeficiency) as exc:
        gram_schmidt(np.array([[1.0, 1.0 + 1e-12], [0.0, 0.0]]))
    assert exc.value.column_index == 1
    with pytest.raises(RankDeficiency) as exc:
        gram_schmidt(np.zeros((3, 2)))
    assert exc.value.column_index == 0


# |ball(F2, r)| for r = 0..7, and two sizes outside that list
GS_ROWS = (1, 2, 5, 17, 53, 161, 485, 1457, 4373)
GS_RANKS = (1, 2, 3, 5, 8, 16, 30)


def _gs_input(kind, n, k, rng):
    normal = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if kind == "dense":
        return normal(n, k)
    if kind == "real":
        return rng.normal(size=(n, k))
    if kind == "sparse":  # as the annealer draws its start: at most 8 entries a column
        raw = np.zeros((n, k), dtype=complex)
        for j in range(k):
            idx = rng.choice(n, size=min(8, n), replace=False)
            raw[idx, j] = normal(len(idx))
        return raw
    # dependent: column d a combination of earlier columns, exactly or up to
    # a perturbation near the rank tolerance, or zero
    raw = normal(n, k)
    d = int(rng.integers(k))
    mix = raw[:, :d] @ normal(d) if d else np.zeros(n, dtype=complex)
    raw[:, d] = mix + normal(n) * [0.0, 1e-9, 1e-7][int(rng.integers(3))]
    return raw


def _gs_outcome(fn, raw):
    try:
        return fn(raw)
    except RankDeficiency as exc:
        return exc.column_index


@pytest.mark.parametrize("kind, seed", [("dense", 1), ("real", 2), ("sparse", 3), ("dependent", 4)])
def test_gram_schmidt_matches_reference_bit_for_bit(kind, seed):
    rng = np.random.default_rng(seed)
    deficient = 0
    for n in GS_ROWS:
        for k in GS_RANKS:
            raw = _gs_input(kind, n, k, rng)
            ref, new = _gs_outcome(reference_gram_schmidt, raw), _gs_outcome(gram_schmidt, raw)
            if isinstance(ref, int):
                deficient += 1
                assert new == ref, (kind, n, k)
            else:
                assert isinstance(new, np.ndarray) and np.array_equal(new, ref), (kind, n, k)
                assert new.tobytes() == ref.tobytes(), (kind, n, k)  # signed zeros too
    assert deficient >= sum(k > n for n in GS_ROWS for k in GS_RANKS)


def test_frame_invariants():
    rng = np.random.default_rng(3)
    for _ in range(10):
        frame = random_frame(rng)
        assert np.allclose(frame.C.conj().T @ frame.C, np.eye(frame.rank), atol=1e-10)
        assert not frame.C.flags.writeable
    with pytest.raises(PreconditionError):
        Frame(F2, 2, element_array(F2, [E]), np.array([[1.0, 1.0]]))  # not orthonormal
    with pytest.raises(HeadroomViolation):
        delta_frame(Word(F2, (1, 1)), ambient=2)  # support radius 2 > ambient - 1
    with pytest.raises(PreconditionError):
        Frame(F2, 3, element_array(F2, [A, E]), np.eye(2))  # rows out of shortlex order
    with pytest.raises(PreconditionError):
        Frame(F2, 3, element_array(F2, [A, A]), np.eye(2))  # rows not distinct
    with pytest.raises(PreconditionError):
        Frame(F2, 3, element_array(F2, [E, A]), np.eye(3))  # one row per array row
    f3, z2 = free_group(3), free_abelian(2)
    for d, rows in (
        (F2, element_array(f3, [Word(f3, (3,))])),  # a letter past the rank
        (F2, element_array(z2, [Word(z2, (1, 1))])),  # no padding column
        (z2, element_array(F2, [E])),
        (free_abelian(3), element_array(z2, [Word(z2, (1, 1))])),
    ):
        with pytest.raises(DescriptorMismatch):
            Frame(d, 3, rows, np.eye(1))


# ---------------------------------------------------------------------------
# The adjoint product.


def random_gather(rng, n, k):
    """x = c[dst] and y = c[src] for n-row gathers of an (n + 3) x k array c."""
    c = rng.normal(size=(n + 3, k)) + 1j * rng.normal(size=(n + 3, k))
    return c[rng.permutation(n + 3)[:n]], c[rng.permutation(n + 3)[:n]]


@pytest.mark.parametrize("n", [0, 1, 17, 161, 1457])  # n = 0: no row's translate is a row
@pytest.mark.parametrize("k", [1, 2, 8, 30, 60, 90])
def test_adjoint_product_matches_chunked_reference_bit_for_bit(k, n):
    # below 91 columns the row pieces are the former ones, summed in the same order
    x, y = random_gather(np.random.default_rng(k * 10_000 + n), n, k)
    assert np.array_equal(adjoint_product(x, y), reference_adjoint_product(x, y))


@pytest.mark.parametrize("n", [0, 1, 17, 161, 1457])
@pytest.mark.parametrize("k", [91, 150, 256])
def test_adjoint_product_whole_at_large_rank(k, n):
    # from 91 columns on the product runs whole, where the reference summed outer products
    x, y = random_gather(np.random.default_rng(k * 10_000 + n), n, k)
    got, ref = adjoint_product(x, y), reference_adjoint_product(x, y)
    assert got.shape == (k, k)
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)


# ---------------------------------------------------------------------------
# Compression, commutator ratio, trace defect.


def test_compress_examples():
    f_e = delta_frame(E, ambient=2)
    assert np.allclose(compress(L_a, f_e), [[0.0]])
    f_ea = delta_frame(E, A)
    assert np.allclose(compress(L_e, f_ea), np.eye(2))
    assert np.allclose(compress(L_a, f_ea), [[0, 0], [1, 0]])


def test_compress_matches_word_by_word_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        frame = random_frame(rng, rank=int(rng.integers(1, 6)))
        for g in (A, B, A.inverse(), E):
            got = compress(GroupAlgebraElement.left_translation(g), frame)
            assert np.allclose(got, reference_compression(g, frame), atol=1e-12, rtol=0)


def test_compress_adjoint_relation():
    rng = np.random.default_rng(4)
    for _ in range(10):
        frame = random_frame(rng)
        a_mat = compress(L_a, frame)
        a_inv = compress(GroupAlgebraElement.left_translation(A.inverse()), frame)
        assert np.allclose(a_inv, a_mat.conj().T, atol=1e-10)
        assert float(np.sum(np.abs(a_mat) ** 2)) / frame.rank <= 1.0 + 1e-12


def test_commutator_ratio_examples():
    f_e = delta_frame(E, ambient=2)
    r = commutator_ratio(L_a, f_e)
    assert abs(r.direct - SQRT2) < 1e-12
    assert abs(r.closed_form - SQRT2) < 1e-12
    rng = np.random.default_rng(6)
    frame = random_frame(rng)
    r0 = commutator_ratio(L_e, frame)
    assert r0.direct < 1e-12 and r0.closed_form < 1e-12


def test_hs_identity_property():
    rng = np.random.default_rng(7)
    for _ in range(30):
        frame = random_frame(rng, rank=int(rng.integers(1, 6)))
        for op in (L_a, L_b, GroupAlgebraElement.left_translation(A.inverse())):
            r = commutator_ratio(op, frame)
            assert abs(r.direct - r.closed_form) < 1e-9
            assert 0.0 <= r.direct <= SQRT2 + 1e-12
            assert trace_defect(op, frame) <= 2.0


def test_direct_route_matches_word_by_word_reference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        frame = random_frame(rng, rank=int(rng.integers(1, 6)))
        for g in (A, B, A.inverse(), multiply(A, B)):
            if frame.support_radius + g.length() > frame.ambient_radius:
                continue
            direct = commutator_ratio(GroupAlgebraElement.left_translation(g), frame).direct
            assert abs(direct - reference_hs_ratio(g, frame)) < 1e-12


def dense_hs_ratio(g, frame):
    """||(UC)(UC)* - CC*||_F / ||e||_HS with both matrices formed whole over the
    rows and their translates by g; also returns the number of those words."""
    rows = row_words(frame)
    images = [multiply(g, w) for w in rows]
    words = list(dict.fromkeys([*rows, *images]))
    pos = {w: i for i, w in enumerate(words)}
    c = np.zeros((len(words), frame.rank), dtype=complex)
    c[: len(frame.rows)] = frame.C
    uc = np.zeros_like(c)
    uc[[pos[w] for w in images]] = frame.C
    m = uc @ uc.conj().T - c @ c.conj().T
    return float(np.linalg.norm(m)) / math.sqrt(frame.hs_norm_sq), len(words)


def test_direct_route_across_the_tile_switch():
    # at rank >= 91 the direct route tiles by HS_TILE rows; this frame's rows
    # and translates span more than one tile
    frame = frame_pool(F2, 100, 6, 3, 1)[0]
    for g in (A, B, A.inverse()):
        ref, size = dense_hs_ratio(g, frame)
        assert size > HS_TILE
        r = commutator_ratio(GroupAlgebraElement.left_translation(g), frame)
        assert abs(r.direct - ref) <= 1e-12
        assert abs(r.closed_form - ref) <= 1e-9


def test_trace_defect_examples():
    rng = np.random.default_rng(8)
    frame = random_frame(rng)
    assert trace_defect(L_e, frame) < 1e-12
    f_e = delta_frame(E, ambient=2)
    assert trace_defect(L_a, f_e) == 0.0


# ---------------------------------------------------------------------------
# SVD and polar factor.


def test_svd_identity_and_diag():
    u, s, vh = svd_small(np.eye(3))
    assert np.allclose(s, [1, 1, 1])
    assert np.allclose(u @ vh, np.eye(3))
    u, s, vh = svd_small(np.diag([2.0, 0.5]))
    assert np.allclose(s, [2.0, 0.5])


def test_svd_random_properties_and_numpy_oracle():
    rng = np.random.default_rng(9)
    for k in (1, 2, 3, 5, 8):
        for _ in range(5):
            a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            u, s, vh = svd_small(a)
            assert np.linalg.norm(a - (u * s) @ vh) <= 1e-10 * k
            assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-10)
            assert np.allclose(vh @ vh.conj().T, np.eye(k), atol=1e-10)
            assert all(s[i] >= s[i + 1] - 1e-12 for i in range(k - 1))
            assert np.allclose(s, np.linalg.svd(a, compute_uv=False), atol=1e-10)


def test_svd_rank_deficient_and_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    u, s, vh = svd_small(a)
    assert np.allclose(s, [1.0, 0.0])
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
    assert np.linalg.norm(a - (u * s) @ vh) < 1e-12
    u0, s0, _ = svd_small(np.zeros((3, 3)))
    assert np.allclose(s0, 0.0)
    assert np.allclose(u0.conj().T @ u0, np.eye(3), atol=1e-12)


def test_svd_preconditions():
    with pytest.raises(PreconditionError):
        svd_small(np.zeros((2, 3)))
    with pytest.raises(PreconditionError):
        svd_small(np.zeros((257, 257)))


def test_svd_failures_map_to_convergence_error(monkeypatch):
    with pytest.raises(ConvergenceError):
        svd_small(np.full((3, 3), np.nan))

    def no_convergence(a):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(ConvergenceError):
        svd_small(np.eye(2))


def test_nearest_unitary_examples():
    w, dist = nearest_unitary(np.array([[0.5]]))
    assert np.allclose(w, [[1.0]])
    assert abs(dist - 0.5) < 1e-15
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    w, dist = nearest_unitary(q)
    assert np.allclose(w, q, atol=1e-10)
    assert dist < 1e-10


def test_nearest_unitary_montecarlo_optimality():
    rng = np.random.default_rng(11)
    pool = []
    for _ in range(2000):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        pool.append(q)
    pool = np.array(pool)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        _, dist = nearest_unitary(a)
        competitors = np.sqrt(np.sum(np.abs(pool - a) ** 2, axis=(1, 2)) / 2)
        assert dist <= competitors.min() + 1e-12


def test_nearest_unitary_monotone_under_unit_padding():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        _, dist = nearest_unitary(a)
        padded = np.block([[a, np.zeros((3, 1))], [np.zeros((1, 3)), np.eye(1)]])
        _, dist_padded = nearest_unitary(padded)
        assert dist_padded <= dist + 1e-12


# ---------------------------------------------------------------------------
# Serialization.


def test_vec_serialization_roundtrip():
    rng = np.random.default_rng(13)
    frame = random_frame(rng)
    back = [{parse_word(F2, text): complex(re, im) for text, (re, im) in col.items()} for col in frame_to_json(frame)]
    assert back == [{w: a for w, a in col.items() if abs(a) >= 1e-15} for col in columns_of(frame)]


def test_normalized_trace():
    assert normalized_trace(np.eye(4)) == 1.0
    assert abs(normalized_trace(np.diag([1.0, 0.0])) - 0.5) < 1e-15
