"""Truncated l2(G) linear algebra.

Finitely supported vectors, left-translation operators, orthonormal frames
(finite-rank projections), Hilbert-Schmidt quantities, and nearest-unitary
approximation via a small dense SVD.

Nothing is ever clipped: operators are applied only when the support radius
plus the operator radius fits inside the ambient radius, which keeps every
inner product, HS norm and compression exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    DescriptorMismatch,
    HeadroomViolation,
    InvariantViolation,
    PreconditionError,
    RankDeficiency,
    UnitaryRequired,
)
from .words import GroupDescriptor, Word, format_word, multiply, shortlex_key

PRUNE_TOL = 1e-15   # amplitudes below this magnitude are dropped
GRAM_TOL = 1e-10    # frame Gram matrix must match the identity entrywise
RANK_TOL = 1e-8     # residual threshold declaring columns dependent
SVD_MAX_K = 256


@dataclass(frozen=True)
class L2Vec:
    """Finitely supported vector in l2(G); zero amplitudes are never stored."""

    descriptor: GroupDescriptor
    amplitudes: Mapping[Word, complex]
    support_radius: int

    @staticmethod
    def of(descriptor: GroupDescriptor, amplitudes: Mapping[Word, complex], prune_tol: float = PRUNE_TOL) -> "L2Vec":
        kept: dict[Word, complex] = {}
        radius = 0
        for w, a in amplitudes.items():
            if w.descriptor != descriptor:
                raise DescriptorMismatch(f"amplitude on {format_word(w)} from {w.descriptor.spec()}")
            a = complex(a)
            if abs(a) < prune_tol:
                continue
            kept[w] = a
            radius = max(radius, w.length())
        return L2Vec(descriptor, kept, radius)

    @staticmethod
    def delta(w: Word) -> "L2Vec":
        return L2Vec(w.descriptor, {w: 1.0 + 0.0j}, w.length())

    def norm_squared(self) -> float:
        return sum((a.real * a.real + a.imag * a.imag) for a in self.amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def scale(self, c: complex) -> "L2Vec":
        return L2Vec.of(self.descriptor, {w: c * a for w, a in self.amplitudes.items()})

    def add(self, other: "L2Vec") -> "L2Vec":
        if self.descriptor != other.descriptor:
            raise DescriptorMismatch("adding vectors from different groups")
        out = dict(self.amplitudes)
        for w, a in other.amplitudes.items():
            out[w] = out.get(w, 0.0) + a
        return L2Vec.of(self.descriptor, out)

    def normalized(self) -> "L2Vec":
        n = self.norm()
        if n < RANK_TOL:
            raise RankDeficiency(0, "cannot normalize a (numerically) zero vector")
        return self.scale(1.0 / n)


def inner_product(u: L2Vec, v: L2Vec) -> complex:
    """<u, v> = sum_w u(w) * conj(v(w)); linear in the first argument."""
    if u.descriptor != v.descriptor:
        raise DescriptorMismatch("inner product across different groups")
    small, big = (u, v) if len(u.amplitudes) <= len(v.amplitudes) else (v, u)
    acc = 0.0 + 0.0j
    for w, a in small.amplitudes.items():
        b = big.amplitudes.get(w)
        if b is not None:
            acc += (a * b.conjugate()) if small is u else (b * a.conjugate())
    return acc


@dataclass(frozen=True)
class GroupAlgebraElement:
    """A finitely supported element sum_g lambda_g L_g acting by left translation."""

    descriptor: GroupDescriptor
    coefficients: Mapping[Word, complex]
    operator_radius: int

    @staticmethod
    def of(descriptor: GroupDescriptor, coefficients: Mapping[Word, complex]) -> "GroupAlgebraElement":
        kept: dict[Word, complex] = {}
        radius = 0
        for w, c in coefficients.items():
            if w.descriptor != descriptor:
                raise DescriptorMismatch(f"coefficient on {format_word(w)} from {w.descriptor.spec()}")
            c = complex(c)
            if abs(c) < PRUNE_TOL:
                continue
            kept[w] = c
            radius = max(radius, w.length())
        return GroupAlgebraElement(descriptor, kept, radius)

    @staticmethod
    def left_translation(w: Word) -> "GroupAlgebraElement":
        """The unitary L_w."""
        return GroupAlgebraElement(w.descriptor, {w: 1.0 + 0.0j}, w.length())

    @property
    def is_single_unitary(self) -> bool:
        if len(self.coefficients) != 1:
            return False
        (c,) = self.coefficients.values()
        return abs(abs(c) - 1.0) <= 1e-12

    @property
    def single_word(self) -> Word:
        if len(self.coefficients) != 1:
            raise UnitaryRequired("operator is not a single left translation")
        (w,) = self.coefficients.keys()
        return w

    @property
    def identity_coefficient(self) -> complex:
        """The trace tau: the coefficient of the identity word."""
        return complex(self.coefficients.get(Word.identity(self.descriptor), 0.0))

    def label(self) -> str:
        if len(self.coefficients) == 1:
            (w,) = self.coefficients.keys()
            (c,) = self.coefficients.values()
            if abs(c - 1.0) <= 1e-12:
                return f"L[{format_word(w)}]"
        return "sum(" + ",".join(f"{format_word(w)}" for w in sorted(self.coefficients, key=shortlex_key)) + ")"


def apply(op: GroupAlgebraElement, v: L2Vec, ambient_radius: int) -> L2Vec:
    """Left action (op v)(w) = sum_g lambda_g v(g^-1 w).

    Refuses (rather than truncating) when the result could leave the ambient
    ball: requires v.support_radius + op.operator_radius <= ambient_radius.
    """
    if op.descriptor != v.descriptor:
        raise DescriptorMismatch("operator and vector from different groups")
    if v.support_radius + op.operator_radius > ambient_radius:
        raise HeadroomViolation(
            f"support {v.support_radius} + operator {op.operator_radius} exceeds ambient {ambient_radius}"
        )
    out: dict[Word, complex] = {}
    for g, lam in op.coefficients.items():
        for w, a in v.amplitudes.items():
            gw = multiply(g, w)
            out[gw] = out.get(gw, 0.0) + lam * a
    return L2Vec.of(v.descriptor, out)


@dataclass(frozen=True)
class Frame:
    """Ordered orthonormal columns spanning the range of a finite-rank projection."""

    descriptor: GroupDescriptor
    columns: tuple[L2Vec, ...]
    ambient_radius: int

    def __post_init__(self):
        if not self.columns:
            raise PreconditionError("frame needs at least one column")
        for i, col in enumerate(self.columns):
            if col.descriptor != self.descriptor:
                raise DescriptorMismatch(f"column {i} from {col.descriptor.spec()}")
            if col.support_radius > self.ambient_radius - 1:
                raise HeadroomViolation(
                    f"column {i} support radius {col.support_radius} needs ambient >= {col.support_radius + 1}"
                )
        g = gram_matrix(self.columns)
        if not np.allclose(g, np.eye(len(self.columns)), atol=GRAM_TOL, rtol=0.0):
            raise PreconditionError("frame columns are not orthonormal within the Gram tolerance")

    @property
    def rank(self) -> int:
        return len(self.columns)


def gram_matrix(columns: Sequence[L2Vec]) -> np.ndarray:
    k = len(columns)
    g = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            g[i, j] = inner_product(columns[i], columns[j])
            g[j, i] = g[i, j].conjugate()
    return g


def gram_schmidt(
    columns: Sequence[L2Vec],
    ambient_radius: int,
    rank_tol: float = RANK_TOL,
) -> Frame:
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Raises RankDeficiency naming the first column whose residual collapses.
    """
    if not columns:
        raise PreconditionError("no columns given")
    ortho: list[L2Vec] = []
    for i, raw in enumerate(columns):
        if raw.norm() < rank_tol:
            raise RankDeficiency(i, f"column {i} is numerically zero")
        v = raw.normalized()
        for _ in range(2):
            for u in ortho:
                v = v.add(u.scale(-inner_product(v, u)))
        if v.norm() < rank_tol:
            raise RankDeficiency(i)
        ortho.append(v.normalized())
    return Frame(columns[0].descriptor, tuple(ortho), ambient_radius)


def compress(op: GroupAlgebraElement, frame: Frame) -> np.ndarray:
    """The k x k compression eUe: entry [q, p] = <U xi_p, xi_q>."""
    k = frame.rank
    out = np.zeros((k, k), dtype=complex)
    images = [apply(op, col, frame.ambient_radius) for col in frame.columns]
    for p in range(k):
        for q in range(k):
            out[q, p] = inner_product(images[p], frame.columns[q])
    return out


def normalized_trace(a: np.ndarray) -> complex:
    return complex(np.trace(a)) / a.shape[0]


class CommutatorRatio(NamedTuple):
    """||[U,e]||_HS / ||e||_HS by two independent routes."""

    direct: float
    closed_form: float

    @property
    def value(self) -> float:
        return self.closed_form


def _require_single_unitary(op: GroupAlgebraElement) -> tuple[Word, complex]:
    if not op.is_single_unitary:
        raise UnitaryRequired("a single unitary L_g is required here")
    (w,) = op.coefficients.keys()
    (c,) = op.coefficients.values()
    return w, c


def commutator_ratio(op: GroupAlgebraElement, frame: Frame) -> CommutatorRatio:
    """Two evaluations of ||[U,e]||_HS / ||e||_HS for a single unitary U.

    The direct route expands Ue - eU in the group basis; the closed form is
    sqrt(2) * sqrt(1 - tau_k(A* A)) with A the compression.  Both are exact
    up to roundoff and must agree within 1e-9.
    """
    g, lam = _require_single_unitary(op)
    k = frame.rank

    # closed form
    a = compress(op, frame)
    tau_aa = float(np.sum(np.abs(a) ** 2)) / k
    closed = math.sqrt(2.0) * math.sqrt(max(0.0, 1.0 - tau_aa))

    # direct expansion: ||Ue - eU||^2_HS = sum over basis words of ||(Ue - eU) delta_w||^2
    images = [apply(op, col, frame.ambient_radius) for col in frame.columns]
    g_inv = g.inverse()
    # insertion-ordered, so the summation order (and the last bits of the sum)
    # does not depend on the per-process string-hash seed
    domain: dict[Word, None] = {}
    for col in frame.columns:
        for w in col.amplitudes:
            domain[w] = None
            domain[multiply(g_inv, w)] = None
    hs_sq = 0.0
    for w in domain:
        gw = multiply(g, w)
        out: dict[Word, complex] = {}
        for m, col in enumerate(frame.columns):
            cw = col.amplitudes.get(w)
            if cw is not None:  # U e delta_w contribution
                c = cw.conjugate()
                for u, amp in images[m].amplitudes.items():
                    out[u] = out.get(u, 0.0) + c * amp
            cgw = col.amplitudes.get(gw)
            if cgw is not None:  # e U delta_w contribution
                c = lam * cgw.conjugate()
                for u, amp in col.amplitudes.items():
                    out[u] = out.get(u, 0.0) - c * amp
        hs_sq += sum(x.real * x.real + x.imag * x.imag for x in out.values())
    direct = math.sqrt(max(0.0, hs_sq) / k)

    if abs(direct - closed) > 1e-9:
        raise InvariantViolation(f"HS identity violated: {direct} vs {closed}")
    return CommutatorRatio(direct, closed)


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


def vec_to_json(v: L2Vec) -> dict:
    items = sorted(v.amplitudes.items(), key=lambda kv: shortlex_key(kv[0]))
    return {format_word(w): [a.real, a.imag] for w, a in items}
