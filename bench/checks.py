"""Output checks for the benchmark jobs, computed apart from the program.

Nothing here imports `foelner`.  Free-group words are parsed from their
textual form (`a1.A2`, `e`) into tuples of signed letters and multiplied by
free reduction; `Z^2` elements are parsed from `(x,y)`.  Every checker takes
the parsed JSON payload of one CLI invocation and returns a list of
failure messages (empty when the payload is correct).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)
TOL = 1e-9


# ---------------------------------------------------------------------------
# Free-group words and Z^2 points, independent of the program.


def parse_free(text: str) -> tuple[int, ...]:
    if text == "e":
        return ()
    out = []
    for tok in text.split("."):
        idx = int(tok[1:])
        out.append(idx if tok[0] == "a" else -idx)
    return tuple(out)


def free_mul(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    out = list(u)
    for x in v:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_reduced(w: tuple[int, ...]) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def free_ball(rank: int, radius: int) -> list[tuple[int, ...]]:
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    layer = [()]
    out = [()]
    for _ in range(radius):
        layer = [w + (x,) for w in layer for x in letters if not (w and w[-1] == -x)]
        out.extend(layer)
    return out


def free_sphere_size(rank: int, r: int) -> int:
    return 1 if r == 0 else 2 * rank * (2 * rank - 1) ** (r - 1)


def free_ball_size(rank: int, r: int) -> int:
    return sum(free_sphere_size(rank, j) for j in range(r + 1))


def parse_point(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.strip("()").split(","))


# ---------------------------------------------------------------------------
# group workload


def check_balls(payload: dict, rank: int, r_max: int) -> list[str]:
    """Every ball-family row equals |S_r| / |B_r| exactly."""
    rows = payload["results"]["history"]
    errs = []
    if [row["radius"] for row in rows] != list(range(1, r_max + 1)):
        errs.append(f"ball family radii {[row['radius'] for row in rows]} != 1..{r_max}")
    for row in rows:
        r = row["radius"]
        size, sphere = free_ball_size(rank, r), free_sphere_size(rank, r)
        got = (row["set_size"], row["boundary_size"], Fraction(row["ratio_rational"]))
        if got != (size, sphere, Fraction(sphere, size)):
            errs.append(f"ball({r}): got {got}, closed form {sphere}/{size}")
    return errs


def check_search(payload: dict, radius: int) -> list[str]:
    """The Z^2 search set lies in the l1 ball and its recomputed ratio is the
    reported one, between the l1-ball optimum 4r/(2r^2+2r+1) and 1."""
    res = payload["results"]
    pts = [parse_point(t) for t in res["best_set"]]
    members = set(pts)
    errs = []
    if len(members) != len(pts) or not pts:
        errs.append("search set is empty or has repeated members")
        return errs
    outside = [p for p in pts if abs(p[0]) + abs(p[1]) > radius]
    if outside:
        errs.append(f"{len(outside)} members outside the l1 ball of radius {radius}")
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    bd = sum(1 for (x, y) in pts if any((x + dx, y + dy) not in members for dx, dy in steps))
    ratio = Fraction(bd, len(pts))
    reported = Fraction(res["ratio_rational"])
    if (res["set_size"], res["boundary_size"], reported) != (len(pts), bd, ratio):
        errs.append(f"search reports {res['boundary_size']}/{res['set_size']}, recomputed {bd}/{len(pts)}")
    floor = Fraction(4 * radius, 2 * radius * radius + 2 * radius + 1)
    if not floor <= ratio <= 1:
        errs.append(f"search ratio {ratio} outside [{floor}, 1]")
    return errs


def exhaustive_minimum(rank: int, radius: int) -> Fraction:
    """Brute-force minimum of #boundary/#A over all non-empty A in ball(radius)."""
    elems = free_ball(rank, radius)
    n = len(elems)
    index = {w: i for i, w in enumerate(elems)}
    masks = np.arange(1, 1 << n, dtype=np.int64)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    interior = member.copy()
    for x in (s * i for i in range(1, rank + 1) for s in (1, -1)):
        nbr = np.array([index.get(free_mul(w, (x,)), -1) for w in elems])
        inside = nbr >= 0
        stays = np.zeros_like(member)
        stays[:, inside] = member[:, nbr[inside]]
        interior &= stays
    size = member.sum(axis=1)
    boundary = size - interior.sum(axis=1)
    return min(Fraction(int(boundary[size == s].min()), s) for s in range(1, n + 1))


def free_boundary_ratio(words: list[tuple[int, ...]], rank: int) -> Fraction:
    members = set(words)
    gens = [(s * i,) for i in range(1, rank + 1) for s in (1, -1)]
    bd = sum(1 for w in words if any(free_mul(w, x) not in members for x in gens))
    return Fraction(bd, len(words))


def check_exhaustive(payload: dict, rank: int, radius: int) -> list[str]:
    res = payload["results"]
    minimum = exhaustive_minimum(rank, radius)
    words = [parse_free(t) for t in res["best_set"]]
    errs = []
    if Fraction(res["ratio_rational"]) != minimum:
        errs.append(f"exhaustive minimum {res['ratio_rational']} != brute force {minimum}")
    ball_words = set(free_ball(rank, radius))
    if not words or len(set(words)) != len(words) or not set(words) <= ball_words:
        errs.append("exhaustive set is empty, repeats a word or leaves the ball")
    elif free_boundary_ratio(words, rank) != minimum or res["set_size"] != len(words):
        errs.append(f"exhaustive set has ratio {free_boundary_ratio(words, rank)}, not {minimum}")
    return errs


# ---------------------------------------------------------------------------
# anneal workload


def dense_q_records(cols: list[dict], unitaries: list[str]) -> tuple[float, dict[str, tuple[float, float]]]:
    """max |C*C - I| for the frame matrix C, and per unitary L_g the pair
    ||UP - PU||_HS / ||P||_HS, |tau(U) - tau_k(PUP)|, from the N x N
    projections P = CC* and UPU* = (UC)(UC)* over the frame's support and its
    translates."""
    k = len(cols)
    gens = [parse_free(u) for u in unitaries]
    support = sorted({w for col in cols for w in col})
    domain = sorted(set(support) | {free_mul(g, w) for g in gens for w in support})
    index = {w: i for i, w in enumerate(domain)}
    c = np.zeros((len(domain), k), dtype=complex)
    for j, col in enumerate(cols):
        for w, a in col.items():
            c[index[w], j] = a
    gram_err = float(np.abs(c.conj().T @ c - np.eye(k)).max())
    p = c @ c.conj().T
    records = {}
    for label, g in zip(unitaries, gens):
        uc = np.zeros_like(c)
        for w in support:
            uc[index[free_mul(g, w)]] = c[index[w]]
        ratio = float(np.linalg.norm(uc @ uc.conj().T - p)) / math.sqrt(k)
        defect = abs(complex(np.trace(c.conj().T @ uc)) / k - (1.0 if not g else 0.0))
        records[f"L[{label}]"] = (ratio, defect)
    return gram_err, records


def check_scan(payload: dict) -> list[str]:
    res = payload["results"]
    cols = [{parse_free(w): complex(re, im) for w, (re, im) in col.items()} for col in res["frame"]]
    if not all(is_reduced(w) for col in cols for w in col):
        return ["frame has an unreduced word"]
    errs = []
    gram_err, dense = dense_q_records(cols, res["config"]["unitaries"])
    if gram_err > TOL:
        errs.append(f"frame is not orthonormal: max |G - I| = {gram_err:.3e}")
    reported = {r["label"]: (r["ratio"], r["defect"]) for r in res["per_unitary"]}
    if set(reported) != set(dense):
        errs.append(f"per-unitary labels {sorted(reported)} != {sorted(dense)}")
        return errs
    for label, (ratio, defect) in dense.items():
        r_ratio, r_defect = reported[label]
        if abs(r_ratio - ratio) > TOL or abs(r_defect - defect) > TOL:
            errs.append(f"{label}: reported ({r_ratio}, {r_defect}), dense ({ratio}, {defect})")
    worst = max(max(v) for v in dense.values())
    if abs(res["best_objective"] - worst) > TOL:
        errs.append(f"best_objective {res['best_objective']} != dense {worst}")
    hist = res["history"]
    if any(b["iteration"] <= a["iteration"] or b["objective"] >= a["objective"] for a, b in zip(hist, hist[1:])):
        errs.append("scan history does not strictly decrease")
    return errs


def check_witness(payload: dict, n: int, k_max: int) -> list[str]:
    sweep = payload["results"]["sweep"]
    errs = []
    if [p["k"] for p in sweep] != list(range(1, k_max + 1)):
        errs.append(f"witness sweep covers {[p['k'] for p in sweep]}, not 1..{k_max}")
    for p in sweep:
        k = p["k"]
        formula = SQRT2 * math.sqrt(1.0 - (k - 1) / (k * n * n))
        if abs(p["epsilon"] - formula) > TOL:
            errs.append(f"witness k={k}: epsilon {p['epsilon']} != {formula}")
    return errs


# ---------------------------------------------------------------------------
# audit workload

PARTITION = ("{e}", "S(a1)", "S(A1)", "S(a2)", "S(A2)")


def check_audit(payload: dict, frames: int) -> list[str]:
    res = payload["results"]
    errs = []
    if res["frames_evaluated"] != frames or len(res["frames"]) != frames:
        errs.append(f"audit evaluated {res['frames_evaluated']} frames, expected {frames}")
    for i, fr in enumerate(res["frames"]):
        mass = sum(fr["c_values"][s] for s in PARTITION)
        if abs(mass - 1.0) > TOL:
            errs.append(f"frame {i}: partition masses sum to {mass}")
        gaps = []
        for label, d in fr["displacement"]["per_unitary"].items():
            certified = 2.0 * math.sqrt(d["w_distance"] ** 2 + d["compression_gap"] ** 2)
            if d["measured"] > d["certified"] or abs(d["certified"] - certified) > TOL:
                errs.append(f"frame {i} {label}: measured {d['measured']}, certified {d['certified']} vs {certified}")
            gaps.append(d["compression_gap"])
        if abs(fr["max_commutator_ratio"] - SQRT2 * max(gaps)) > TOL:
            errs.append(f"frame {i}: max_commutator_ratio {fr['max_commutator_ratio']} != sqrt2 * {max(gaps)}")
        if fr["verdict"] == "contradiction":
            errs.append(f"frame {i}: verdict contradiction")
    if res["verdict"] == "contradiction":
        errs.append("audit verdict contradiction")
    trace = res["paper_trace"]
    expected = {
        "pincer_lower": Fraction(1, 2) - Fraction(4, 49),
        "pincer_upper": Fraction(1, 3) + Fraction(4, 49),
        "pincer_threshold": Fraction(5, 12),
    }
    for key, value in expected.items():
        if abs(trace[key] - float(value)) > 1e-15:
            errs.append(f"paper trace {key} {trace[key]} != {value}")
    return errs

