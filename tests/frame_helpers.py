"""Frames built from sparse columns, the group-basis references the array
code is checked against, and a call counter for the evaluation-count tests."""

import math
from collections import Counter

import numpy as np

from foelner.connes import FRAME_MAX_SUPPORT, random_frame
from foelner.errors import PreconditionError, RankDeficiency
from foelner.l2ops import BLAS_CHUNK, HS_TILE, RANK_TOL, Frame, _piece_rows, gram_schmidt, translation_gathers
from foelner.words import ball, element_array, multiply, shortlex_sorted, words_of


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


def scalar_draw_frame(descriptor, rank, ambient_radius, rng):
    """(rows, C) of connes.random_frame drawn the former way, with one scalar rng.normal() call
    for each real and each imaginary part."""
    pool = ball(descriptor, ambient_radius - 1)
    while True:
        raw = np.zeros((len(pool), rank), dtype=complex)
        for j in range(rank):
            size = int(rng.integers(2, FRAME_MAX_SUPPORT + 1))
            idx = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
            raw[idx, j] = [complex(rng.normal(), rng.normal()) for _ in idx]
        used = np.flatnonzero(raw.any(axis=1))
        try:
            return pool[used], gram_schmidt(raw[used])
        except RankDeficiency:
            continue


def all_tiles_direct(op, frame):
    """(direct, zero tiles): commutator_ratio's direct route summed over every tile, as it was
    before tiles known to be zero were left out, and how many of the tiles were exactly zero."""
    dst, src = translation_gathers([op], frame)[0]
    k, n = frame.rank, len(frame.rows)
    pos = np.full(n, -1, dtype=np.int64)
    pos[src] = dst
    outside = np.flatnonzero(pos < 0)
    pos[outside] = n + np.arange(len(outside))
    z = np.zeros((n + len(outside), 2 * k), dtype=complex)
    z[pos, :k] = frame.C
    z[:n, k:] = frame.C
    w = z.conj()
    w[:, k:] *= -1
    tile = math.isqrt(BLAS_CHUNK // (2 * k)) if _piece_rows(k, k) else HS_TILE
    hs_sq, zero = 0.0, 0
    for s in range(0, len(z), tile):
        for t in range(0, len(z), tile):
            d = z[s : s + tile] @ w[t : t + tile].T
            hs_sq += float(np.vdot(d, d).real)
            zero += not d.any()
    return math.sqrt(hs_sq / frame.hs_norm_sq), zero


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
