"""Vectors, frames, HS quantities, SVD, nearest unitary."""

import math

import numpy as np
import pytest

from foelner.errors import (
    ConvergenceError,
    HeadroomViolation,
    PreconditionError,
    RankDeficiency,
    UnitaryRequired,
)
from foelner.l2ops import (
    Frame,
    GroupAlgebraElement,
    L2Vec,
    apply,
    commutator_ratio,
    compress,
    gram_matrix,
    gram_schmidt,
    inner_product,
    nearest_unitary,
    normalized_trace,
    svd_small,
    trace_defect,
    vec_to_json,
)
from foelner.words import Word, ball, free_group, multiply, parse_word

F2 = free_group(2)
E = Word.identity(F2)
A = Word(F2, (1,))
B = Word(F2, (2,))
L_a = GroupAlgebraElement.left_translation(A)
L_b = GroupAlgebraElement.left_translation(B)
L_e = GroupAlgebraElement.left_translation(E)
SQRT2 = math.sqrt(2.0)


def delta(w):
    return L2Vec.delta(w)


def random_vec(rng, radius=3, size=8):
    pool = ball(F2, radius).elements
    idx = rng.choice(len(pool), size=size, replace=False)
    return L2Vec.of(F2, {pool[int(i)]: complex(rng.normal(), rng.normal()) for i in idx})


def random_frame(rng, rank=4, ambient=5):
    cols = [random_vec(rng, radius=ambient - 1, size=int(rng.integers(3, 10))) for _ in range(rank)]
    return gram_schmidt(cols, ambient)


# ---------------------------------------------------------------------------
# Vectors and inner products.


def test_inner_product_group_basis_orthonormal():
    for g in ball(F2, 2):
        for h in ball(F2, 2):
            expected = 1.0 if g == h else 0.0
            assert inner_product(delta(g), delta(h)) == expected


def test_inner_product_example():
    v = delta(A).add(delta(B)).scale(1 / SQRT2)
    assert abs(inner_product(v, delta(A)) - 1 / SQRT2) < 1e-15


def test_inner_product_conjugate_symmetric_and_linear():
    rng = np.random.default_rng(1)
    for _ in range(20):
        u, v = random_vec(rng), random_vec(rng)
        assert abs(inner_product(u, v) - inner_product(v, u).conjugate()) < 1e-12
        c = complex(rng.normal(), rng.normal())
        assert abs(inner_product(u.scale(c), v) - c * inner_product(u, v)) < 1e-12


def test_amplitude_pruning():
    v = L2Vec.of(F2, {E: 1.0, A: 1e-16})
    assert A not in v.amplitudes
    assert v.support_radius == 0


# ---------------------------------------------------------------------------
# Left translation.


def test_apply_examples():
    assert apply(L_a, delta(Word.from_letters(F2, [-1, 2])), 3).amplitudes == {B: 1.0 + 0.0j}
    assert apply(L_a, delta(E), 2).amplitudes == {A: 1.0 + 0.0j}
    op = GroupAlgebraElement.of(F2, {E: 0.5, A: 0.5})
    out = apply(op, delta(E), 2)
    assert out.amplitudes == {E: 0.5 + 0.0j, A: 0.5 + 0.0j}


def test_apply_headroom_refusal():
    v = delta(Word(F2, (1, 1, 1)))
    with pytest.raises(HeadroomViolation):
        apply(L_a, v, 3)
    assert apply(L_a, v, 4).support_radius == 4


def test_apply_isometry_and_composition():
    rng = np.random.default_rng(2)
    for g in (A, B, A.inverse(), multiply(A, B)):
        op = GroupAlgebraElement.left_translation(g)
        for _ in range(10):
            v = random_vec(rng)
            out = apply(op, v, 10)
            assert abs(out.norm() - v.norm()) < 1e-12
    for _ in range(10):
        v = random_vec(rng)
        gh = apply(GroupAlgebraElement.left_translation(A), apply(GroupAlgebraElement.left_translation(B), v, 10), 11)
        combined = apply(GroupAlgebraElement.left_translation(multiply(A, B)), v, 11)
        assert gh.amplitudes.keys() == combined.amplitudes.keys()
        for w in gh.amplitudes:
            assert abs(gh.amplitudes[w] - combined.amplitudes[w]) < 1e-12


def test_single_unitary_flag():
    assert L_a.is_single_unitary
    assert not GroupAlgebraElement.of(F2, {E: 0.5, A: 0.5}).is_single_unitary
    assert not GroupAlgebraElement.of(F2, {A: 0.5}).is_single_unitary
    assert GroupAlgebraElement.of(F2, {A: 1j}).is_single_unitary


# ---------------------------------------------------------------------------
# Gram-Schmidt and frames.


def test_gram_schmidt_already_orthonormal():
    frame = gram_schmidt([delta(E), delta(A)], 2)
    assert frame.columns[0].amplitudes == {E: 1.0 + 0.0j}
    assert frame.columns[1].amplitudes == {A: 1.0 + 0.0j}


def test_gram_schmidt_example():
    frame = gram_schmidt([delta(E), delta(E).add(delta(A))], 2)
    assert set(frame.columns[1].amplitudes) == {A}
    assert abs(frame.columns[1].amplitudes[A] - 1.0) < 1e-12


def test_gram_schmidt_rank_deficiency():
    with pytest.raises(RankDeficiency) as exc:
        gram_schmidt([delta(E), delta(E).scale(1 + 1e-12)], 2)
    assert exc.value.column_index == 1


def test_frame_invariants():
    rng = np.random.default_rng(3)
    for _ in range(10):
        frame = random_frame(rng)
        g = gram_matrix(frame.columns)
        assert np.allclose(g, np.eye(frame.rank), atol=1e-10)
    with pytest.raises(PreconditionError):
        Frame(F2, (delta(E), delta(E)), 2)  # not orthonormal
    with pytest.raises(HeadroomViolation):
        Frame(F2, (delta(Word(F2, (1, 1))),), 2)  # support radius 2 > ambient - 1


# ---------------------------------------------------------------------------
# Compression, commutator ratio, trace defect.


def test_compress_examples():
    f_e = Frame(F2, (delta(E),), 2)
    assert np.allclose(compress(L_a, f_e), [[0.0]])
    f_ea = gram_schmidt([delta(E), delta(A)], 3)
    assert np.allclose(compress(L_e, f_ea), np.eye(2))
    assert np.allclose(compress(L_a, f_ea), [[0, 0], [1, 0]])


def test_compress_adjoint_relation():
    rng = np.random.default_rng(4)
    for _ in range(10):
        frame = random_frame(rng)
        a_mat = compress(L_a, frame)
        a_inv = compress(GroupAlgebraElement.left_translation(A.inverse()), frame)
        assert np.allclose(a_inv, a_mat.conj().T, atol=1e-10)
        assert float(np.sum(np.abs(a_mat) ** 2)) / frame.rank <= 1.0 + 1e-12


def test_commutator_ratio_examples():
    f_e = Frame(F2, (delta(E),), 2)
    r = commutator_ratio(L_a, f_e)
    assert abs(r.direct - SQRT2) < 1e-12
    assert abs(r.closed_form - SQRT2) < 1e-12
    rng = np.random.default_rng(6)
    frame = random_frame(rng)
    r0 = commutator_ratio(L_e, frame)
    assert r0.direct < 1e-12 and r0.closed_form < 1e-12


def test_commutator_ratio_requires_unitary():
    f_e = Frame(F2, (delta(E),), 3)
    with pytest.raises(UnitaryRequired):
        commutator_ratio(GroupAlgebraElement.of(F2, {E: 0.5, A: 0.5}), f_e)


def test_hs_identity_property():
    rng = np.random.default_rng(7)
    for _ in range(30):
        frame = random_frame(rng, rank=int(rng.integers(1, 6)))
        for op in (L_a, L_b, GroupAlgebraElement.left_translation(A.inverse())):
            r = commutator_ratio(op, frame)
            assert abs(r.direct - r.closed_form) < 1e-9
            assert 0.0 <= r.direct <= SQRT2 + 1e-12
            assert trace_defect(op, frame) <= 2.0


def test_trace_defect_examples():
    rng = np.random.default_rng(8)
    frame = random_frame(rng)
    assert trace_defect(L_e, frame) < 1e-12
    f_e = Frame(F2, (delta(E),), 2)
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
    v = random_vec(rng)
    back = {parse_word(F2, text): complex(re, im) for text, (re, im) in vec_to_json(v).items()}
    assert back == dict(v.amplitudes)


def test_normalized_trace():
    assert normalized_trace(np.eye(4)) == 1.0
    assert abs(normalized_trace(np.diag([1.0, 0.0])) - 0.5) < 1e-15
