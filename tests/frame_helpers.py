"""Frames built from sparse columns, the group-basis references the array
code is checked against, and a call counter for the evaluation-count tests."""

from collections import Counter

import numpy as np

from foelner.connes import random_frame
from foelner.errors import PreconditionError, RankDeficiency
from foelner.l2ops import BLAS_CHUNK, RANK_TOL, Frame, gram_schmidt
from foelner.words import element_array, multiply, shortlex_sorted, words_of


def frame_of(descriptor, ambient, columns, orthonormalize=False):
    """The frame whose column j has amplitude columns[j][w] on the word w.

    With `orthonormalize`, the columns go through gram_schmidt first.
    """
    rows = shortlex_sorted(descriptor, {w for col in columns for w in col})
    c = np.array([[col.get(w, 0.0) for col in columns] for w in rows], dtype=complex)
    c = c.reshape(len(rows), len(columns))
    return Frame(descriptor, ambient, element_array(descriptor, rows), gram_schmidt(c) if orthonormalize else c)


def frame_pool(descriptor, rank, ambient_radius, seed, count):
    """`count` random frames from one seeded generator."""
    rng = np.random.default_rng(seed)
    return [random_frame(descriptor, rank, ambient_radius, rng) for _ in range(count)]


def row_words(frame):
    """The Word of each row of the frame."""
    return words_of(frame.descriptor, frame.rows)


def columns_of(frame):
    """Each column of the frame as {word: amplitude} over its nonzero amplitudes."""
    return [{w: a for w, a in zip(row_words(frame), col) if a != 0} for col in frame.C.T.tolist()]


def translate(g, col):
    """(L_g v)(g w) = v(w) on a {word: amplitude} column."""
    return {multiply(g, w): a for w, a in col.items()}


def inner(u, v):
    """<u, v> = sum_w u(w) conj(v(w)) on {word: amplitude} columns."""
    return sum(a * v[w].conjugate() for w, a in u.items() if w in v)


def reference_compression(g, frame):
    """[q, p] = <L_g xi_p, xi_q>, computed word by word."""
    cols = columns_of(frame)
    return np.array([[inner(translate(g, p), q) for p in cols] for q in cols])


def reference_hs_ratio(g, frame):
    """||L_g e - e L_g||_HS / ||e||_HS, expanding (L_g e - e L_g) delta_w over
    every word w of the frame's support and its translate g^-1 * support."""
    cols = columns_of(frame)
    images = [translate(g, col) for col in cols]
    g_inv = g.inverse()
    domain = {}
    for col in cols:
        for w in col:
            domain[w] = None
            domain[multiply(g_inv, w)] = None
    hs_sq = 0.0
    for w in domain:
        gw = multiply(g, w)
        out = {}
        for col, image in zip(cols, images):
            if w in col:  # L_g e delta_w
                for u, amp in image.items():
                    out[u] = out.get(u, 0.0) + col[w].conjugate() * amp
            if gw in col:  # e L_g delta_w
                for u, amp in col.items():
                    out[u] = out.get(u, 0.0) - col[gw].conjugate() * amp
        hs_sq += sum(abs(x) ** 2 for x in out.values())
    return (hs_sq / frame.rank) ** 0.5


def reference_gram_schmidt(raw):
    """The former l2ops.gram_schmidt: conjugates the finished columns afresh
    in every projection, and normalizes through numpy.linalg.norm."""
    q = np.array(raw, dtype=complex)
    if q.ndim != 2 or q.shape[1] < 1:
        raise PreconditionError(f"need an N x k array with k >= 1, got shape {q.shape}")
    for j in range(q.shape[1]):
        col = q[:, j]
        if j:
            prev = q[:, :j]
            for _ in range(2):
                col -= prev @ (prev.conj().T @ col)
        nrm = float(np.linalg.norm(col))
        if nrm < RANK_TOL:
            raise RankDeficiency(j)
        q[:, j] = col / nrm
    return q


def reference_adjoint_product(x, y):
    """The former l2ops adjoint product: x* y in 2-D pieces of at most BLAS_CHUNK
    multiply-adds, whose rows shrink to one once x has 91 or more columns."""
    out = np.zeros((x.shape[1], y.shape[1]), dtype=complex)
    cols = max(1, BLAS_CHUNK // x.shape[1])
    rows = max(1, BLAS_CHUNK // (x.shape[1] * min(cols, y.shape[1])))
    for s in range(0, len(x), rows):
        xs = x[s : s + rows].conj().T
        for t in range(0, y.shape[1], cols):
            out[:, t : t + cols] += xs @ y[s : s + rows, t : t + cols]
    return out


def count_calls(monkeypatch, module, *names):
    """A Counter of the calls to module.<name>, for each of `names`, from now on."""
    counts = Counter()
    for name in names:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts
