"""Truncated l2(G) linear algebra.

A frame is the one representation of a finite-rank projection: the shortlex
array of its support words' normal forms (the rows) and an N x k complex coefficient array
whose orthonormal columns span the range.  Left translations act on frames as
index gathers over the rows, so compressions, Hilbert-Schmidt quantities and
trace defects are array work; nearest-unitary approximation uses a small
dense SVD.

Nothing is ever clipped: operators are applied only when the support radius
plus the operator radius fits inside the ambient radius, which keeps every
inner product, HS norm and compression exact.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    DescriptorMismatch,
    HeadroomViolation,
    InvariantViolation,
    PreconditionError,
    RankDeficiency,
)
from .words import GroupDescriptor, Word, format_word, row_lengths, shortlex_order, translation_indices, words_of

PRUNE_TOL = 1e-15   # amplitudes below this are dropped at the JSON edge
GRAM_TOL = 1e-10    # frame Gram matrix must match the identity entrywise
RANK_TOL = 1e-8     # residual threshold declaring columns dependent
SVD_MAX_K = 256
# Most multiply-adds per piece of a matrix product cut into row pieces.  OpenBLAS,
# numpy's default BLAS, runs products of up to about 2^16 multiply-adds on the
# calling thread; larger ones wake its worker threads, which costs milliseconds
# per call amid Python work.  A product whose pieces would be single rows runs
# whole instead: at that size the threads pay for themselves (see _piece_rows).
BLAS_CHUNK = 1 << 14
HS_TILE = 512  # rows of a direct-route tile at such ranks: 4 MB of output each


@dataclass(frozen=True)
class GroupAlgebraElement:
    """The unitary L_g of left translation by one word g."""

    word: Word

    @staticmethod
    def left_translation(w: Word) -> "GroupAlgebraElement":
        """The unitary L_w."""
        return GroupAlgebraElement(w)

    @property
    def descriptor(self) -> GroupDescriptor:
        return self.word.descriptor

    @property
    def operator_radius(self) -> int:
        return self.word.length()

    @property
    def identity_coefficient(self) -> complex:
        """The trace tau(L_g): 1 for g = e, else 0."""
        return 1.0 + 0.0j if self.word.is_identity else 0.0j

    def label(self) -> str:
        return f"L[{format_word(self.word)}]"


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered orthonormal columns spanning the range of a finite-rank projection.

    `rows` is an array of distinct normal forms in strictly increasing shortlex
    order (words.ball's layout), none longer than ambient_radius - 1, and
    C[i, j] is the amplitude of column j on the word of rows[i].  rows and C
    are stored as read-only copies, C as complex.  hs_norm_sq is
    ||e||^2_HS = ||C* C||^2_F for the projection e = CC*: the rank k up to
    roundoff, and exact for the stored C.
    """

    descriptor: GroupDescriptor
    ambient_radius: int
    rows: np.ndarray
    C: np.ndarray
    support_radius: int = field(init=False)
    hs_norm_sq: float = field(init=False)

    def __post_init__(self):
        rows, d = np.array(self.rows), self.descriptor
        shaped = rows.ndim == 2 and (rows.shape[1] >= 1 if d.is_free else rows.shape[1] == d.rank)
        if not shaped or d.is_free and (rows[:, -1].any() or np.abs(rows).max(initial=0) > d.rank):
            raise DescriptorMismatch(f"frame rows are not an array of normal forms of {d.spec()}")
        order = shortlex_order(d, rows)
        if not (np.array_equal(order, np.arange(len(rows))) and (rows[1:] != rows[:-1]).any(axis=1).all()):
            raise PreconditionError("frame rows must be distinct and in increasing shortlex order")
        radius = int(row_lengths(d, rows).max(initial=0))
        if radius > self.ambient_radius - 1:
            raise HeadroomViolation(f"support radius {radius} needs ambient >= {radius + 1}")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "support_radius", radius)
        self._set_columns(self.C)

    def _set_columns(self, c: np.ndarray) -> None:
        c = np.array(c, dtype=complex)
        if c.ndim != 2 or c.shape[0] != len(self.rows) or c.shape[1] < 1:
            raise PreconditionError(f"need a {len(self.rows)} x k coefficient array with k >= 1, got shape {c.shape}")
        object.__setattr__(self, "hs_norm_sq", checked_hs_norm_sq(c))
        c.flags.writeable = False
        object.__setattr__(self, "C", c)

    @property
    def rank(self) -> int:
        return self.C.shape[1]

    def with_columns(self, c: np.ndarray) -> "Frame":
        """The frame on the same, already checked, rows with new orthonormal columns."""
        frame = copy.copy(self)
        frame._set_columns(c)
        return frame


def _piece_rows(k_x: int, k_y: int) -> int:
    """Rows per piece of x* y for x, y with k_x, k_y columns: as many as fit in BLAS_CHUNK
    multiply-adds, or 0 when fewer than two fit and the product runs whole."""
    return BLAS_CHUNK // (k_x * k_y) if 2 * k_x * k_y <= BLAS_CHUNK else 0


def adjoint_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x* y for arrays with equal row counts, summed over row pieces (see _piece_rows)."""
    out = np.zeros((x.shape[1], y.shape[1]), dtype=complex)
    rows = _piece_rows(x.shape[1], y.shape[1]) or max(len(x), 1)
    for s in range(0, len(x), rows):
        out += x[s : s + rows].conj().T @ y[s : s + rows]
    return out


def checked_hs_norm_sq(c: np.ndarray) -> float:
    """||C* C||_F^2, after checking that C* C matches the identity within GRAM_TOL."""
    gram = adjoint_product(c, c)
    if not np.abs(gram - np.eye(c.shape[1])).max() <= GRAM_TOL:  # also refuses NaN
        raise PreconditionError("frame columns are not orthonormal within the Gram tolerance")
    return float(np.sum(np.abs(gram) ** 2))


def gram_schmidt(raw: np.ndarray) -> np.ndarray:
    """Orthonormal columns with the spans of `raw`'s leading columns, in order.

    Each column is projected twice off its predecessors, read through a
    conjugated copy, and normalized.  Raises RankDeficiency naming the
    first column whose residual norm falls below RANK_TOL.
    """
    q = np.array(raw, dtype=complex)
    if q.ndim != 2 or q.shape[1] < 1:
        raise PreconditionError(f"need an N x k array with k >= 1, got shape {q.shape}")
    qc = np.empty_like(q)
    for j in range(q.shape[1]):
        col = q[:, j]
        if j:
            prev, prev_adj = q[:, :j], qc[:, :j].T
            for _ in range(2):
                col -= prev @ (prev_adj @ col)
        re, im = col.real, col.imag
        nrm = math.sqrt(re.dot(re) + im.dot(im))
        if nrm < RANK_TOL:
            raise RankDeficiency(j)
        col /= nrm
        np.conjugate(col, out=qc[:, j])
    return q


def translation_gather(op: GroupAlgebraElement, frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """(dst, src) with rows[dst[i]] = g * rows[src[i]] over the rows whose translate is a
    row, so compress(op, frame) = C[dst]* C[src].  Refuses (rather than truncating)
    when L_g could move the support out of the ambient ball: requires
    support_radius + operator_radius <= ambient_radius."""
    if op.descriptor != frame.descriptor:
        raise DescriptorMismatch("operator and frame from different groups")
    if frame.support_radius + op.operator_radius > frame.ambient_radius:
        raise HeadroomViolation(
            f"support {frame.support_radius} + operator {op.operator_radius} exceeds ambient {frame.ambient_radius}"
        )
    idx = translation_indices(frame.descriptor, frame.rows, [op.word])[0]
    src = np.flatnonzero(idx >= 0)
    return idx[src], src


def compress(op: GroupAlgebraElement, frame: Frame) -> np.ndarray:
    """The k x k compression eL_ge: entry [q, p] = <L_g xi_p, xi_q> = (C* L_g C)[q, p]."""
    dst, src = translation_gather(op, frame)
    return adjoint_product(frame.C[dst], frame.C[src])


def normalized_trace(a: np.ndarray) -> complex:
    return complex(np.trace(a)) / a.shape[0]


def closed_form_ratio(a: np.ndarray, hs_norm_sq: float) -> float:
    """||[U,e]||_HS / ||e||_HS from A = compress(U, frame) of a unitary U and frame.hs_norm_sq.

    ||[U,e]||^2_HS = 2 ||e||^2_HS - 2 ||A||^2_F holds for e = CC* with any C,
    so the ratio is sqrt(2) * sqrt(1 - tau_k(A* A)) with ||e||^2_HS in place
    of k; U = 1 then gives exactly 0 rather than the square root of a rounding
    error.
    """
    return math.sqrt(2.0) * math.sqrt(max(0.0, 1.0 - float(np.sum(np.abs(a) ** 2)) / hs_norm_sq))


class CommutatorRatio(NamedTuple):
    """One evaluation of a unitary U = L_g on a frame: ||[U,e]||_HS / ||e||_HS by two
    independent routes, the compression A = eUe and the trace defect |tau(U) - tau_k(A)|."""

    direct: float
    closed_form: float
    compression: np.ndarray
    defect: float


def commutator_ratio(op: GroupAlgebraElement, frame: Frame) -> CommutatorRatio:
    """The one evaluation of the unitary U = L_g on a frame: one row gather, one compression.

    The direct route forms ||Ue - eU||_HS = ||UeU* - e||_HS = ||(UC)(UC)* - CC*||_F
    on the rows and their translates, one square tile at a time, so no whole matrix
    of that size is formed: BLAS_CHUNK multiply-adds a tile while the frame's
    products are cut (see _piece_rows), HS_TILE rows once they run whole.  The
    closed form is sqrt(2) * sqrt(1 - tau_k(A* A)) with A the compression (see
    closed_form_ratio).  Both are exact up to roundoff and must agree within 1e-9.
    """
    dst, src = translation_gather(op, frame)
    a = adjoint_product(frame.C[dst], frame.C[src])
    closed = closed_form_ratio(a, frame.hs_norm_sq)

    # embed C and UC = L_g C over rows + (translates outside the rows)
    k, n = frame.rank, len(frame.rows)
    pos = np.full(n, -1, dtype=np.int64)
    pos[src] = dst
    outside = np.flatnonzero(pos < 0)
    pos[outside] = n + np.arange(len(outside))
    z = np.zeros((n + len(outside), 2 * k), dtype=complex)  # [UC, C]
    z[pos, :k] = frame.C
    z[:n, k:] = frame.C
    w = z.conj()
    w[:, k:] *= -1  # conj([UC, -C]), so z @ w.T = (UC)(UC)* - CC*
    tile = math.isqrt(BLAS_CHUNK // (2 * k)) if _piece_rows(k, k) else HS_TILE
    hs_sq = 0.0
    for s in range(0, len(z), tile):
        for t in range(0, len(z), tile):
            d = z[s : s + tile] @ w[t : t + tile].T
            hs_sq += float(np.vdot(d, d).real)
    direct = math.sqrt(hs_sq / frame.hs_norm_sq)

    if abs(direct - closed) > 1e-9:
        raise InvariantViolation(f"HS identity violated: {direct} vs {closed}")
    return CommutatorRatio(direct, closed, a, abs(op.identity_coefficient - normalized_trace(a)))


def trace_defect(op: GroupAlgebraElement, frame: Frame) -> float:
    """|tau(U) - tau_k(eUe)|: the trace half of the Connes-Folner condition."""
    return abs(op.identity_coefficient - normalized_trace(compress(op, frame)))


# ---------------------------------------------------------------------------
# Small dense SVD and the polar factor.


def svd_small(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD of a small square complex matrix: a = U @ diag(s) @ Vh.

    LAPACK (numpy.linalg.svd) with full unitary factors, singular values in
    descending order, and a reconstruction-residual check.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"square matrix required, got shape {a.shape}")
    k = a.shape[0]
    if k > SVD_MAX_K:
        raise PreconditionError(f"k = {k} exceeds the SVD size cap {SVD_MAX_K}")
    try:
        u, sigma, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    residual = float(np.linalg.norm(a - (u * sigma) @ vh))
    if not residual <= 1e-10 * k * max(float(np.linalg.norm(a)), 1.0):  # also refuses NaN
        raise ConvergenceError(f"SVD residual {residual:.3e} exceeds tolerance")
    return u, sigma, vh


def nearest_unitary(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Polar factor W = U Vh and its distance sqrt((1/k) sum (1 - sigma_i)^2).

    W is the global minimizer of ||a - W||_{tau_k} over all unitaries.
    """
    u, sigma, vh = svd_small(a)
    w = u @ vh
    k = a.shape[0]
    dist = math.sqrt(float(np.sum((1.0 - sigma) ** 2)) / k)
    return w, dist


# ---------------------------------------------------------------------------
# Serialization.


def frame_to_json(frame: Frame) -> list[dict]:
    """Each column as {word: [re, im]} over its amplitudes of magnitude >= PRUNE_TOL."""
    names = [format_word(w) for w in words_of(frame.descriptor, frame.rows)]
    return [
        {names[i]: [a.real, a.imag] for i, a in enumerate(col) if abs(a) >= PRUNE_TOL}
        for col in frame.C.T.tolist()
    ]
