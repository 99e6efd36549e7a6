"""Command-line entry point: deterministic runs, JSON/CSV reports.

Every stochastic command requires an explicit --seed; identical flags produce
byte-identical payloads (wall time goes to stderr, never into the report)
under the same BLAS thread count: at larger frame ranks (ranks >= 91, and some
smaller ones on larger balls) OpenBLAS sums products in a thread-dependent
order.  Exit codes: 0 success, 2 precondition violation (including an --out
file that cannot be written), 3 numerical non-convergence, 4 a theorem or
consistency check failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from . import __version__
from .boundary import (
    BoundaryReport,
    ElementSet,
    GeneratingSet,
    GroupSearchConfig,
    ball_family_ratios,
    exhaustive_min_ratio,
    local_search_min_ratio,
)
from .connes import (
    ProjectionSearchConfig,
    WitnessConfig,
    anneal_projection,
    certificate_formula,
    foelner_upper_estimate,
    frame_fingerprint,
    limit_formula,
    random_frame,
    witness_certificate,
)
from .errors import ConvergenceError, InvariantViolation, PreconditionError, SearchSpaceTooLarge, SeedRequired
from .l2ops import SVD_MAX_K, GroupAlgebraElement, commutator_ratio, frame_to_json
from .paradox import (
    DERIVED_THRESHOLD,
    PAPER_EPSILON,
    THRESHOLD_NOTE,
    chain_audit,
    make_paper_trace,
    verify_set_identities,
)
from .words import GroupDescriptor, Word, capped_ball_size, format_word, free_group, parse_generators, standard_generators

STOCHASTIC_COMMANDS = {"scan", "audit", "identity-check"}
COUNT_PARAMS = ("iters", "frames", "trials")  # refused below 0

# Caps on the counts, checked by run() before any work.  A count cap bounds the
# fixed cost of each unit (interpreter and numpy-call overhead); scan and audit
# also cap count * rank^2 * |ball(radius - 1)|, which bounds the arithmetic on
# frames of at most |ball(radius - 1)| rows.  README states the worst-case times.
SEARCH_ITERS_CAP = 100_000  # group --mode search, O(|X u X^-1|) per iteration
TRIALS_CAP = 20_000  # identity-check, frames of rank <= 8 and ambient radius <= 5
SCAN_ITERS_CAP = 200_000
SCAN_WORK_CAP = 1 << 30
AUDIT_FRAMES_CAP = 2_000
AUDIT_WORK_CAP = 1 << 28


@dataclass
class RunConfig:
    command: str
    params: dict
    seed: int | None
    out: str | None
    fmt: str  # json | csv


@dataclass
class RunReport:
    config: dict
    version: str
    results: Any
    warnings: list
    wall_ms: float

    def payload(self) -> dict:
        # wall time deliberately excluded: identical configs must produce
        # byte-identical payloads
        return {
            "config": self.config,
            "version": self.version,
            "results": self.results,
            "warnings": self.warnings,
        }


def _element_set_json(s: ElementSet) -> list:
    return [format_word(w) for w in s.sorted_members()]


def _report_json(report: BoundaryReport) -> dict:
    return {
        "set_size": report.set_size,
        "boundary_size": report.boundary_size,
        "ratio_rational": f"{report.ratio.numerator}/{report.ratio.denominator}",
        "ratio_float": report.ratio_float,
    }


# ---------------------------------------------------------------------------
# Command handlers.


def _run_group(cfg: RunConfig) -> tuple[Any, list]:
    p = cfg.params
    descriptor = GroupDescriptor.parse(p["group"])
    if p.get("gens"):
        gens = GeneratingSet.of(descriptor, parse_generators(descriptor, p["gens"]))
    else:
        gens = GeneratingSet.standard(descriptor)
    if p["mode"] == "exhaustive":
        best, report = exhaustive_min_ratio(descriptor, gens, p["radius"])
        best_set, history = _element_set_json(best), []
    elif p["mode"] == "balls":
        family = ball_family_ratios(descriptor, gens, p["radius"])
        report, best_set = family[-1].report, f"ball(radius={family[-1].radius})"
        history = [{"radius": fr.radius, **_report_json(fr.report), "method": fr.method} for fr in family]
    else:  # search
        sc = GroupSearchConfig(p["radius"], seed=cfg.seed, iterations=p["iters"])
        res = local_search_min_ratio(descriptor, gens, sc)
        # vars(): each move's own field dict; asdict() would copy every field of thousands of moves
        report, best_set, history = res.report, _element_set_json(res.best_set), [vars(m) for m in res.history]
    results = {
        "group": descriptor.spec(),
        "generators": [format_word(g) for g in gens.generators],
        "mode": p["mode"],
        "best_set": best_set,
        **_report_json(report),
        "history": history,
    }
    return results, []


def _run_witness(cfg: RunConfig) -> tuple[Any, list]:
    p = cfg.params
    n, k, depth = p["n"], p["k"], p["depth"]
    if p["k_max"] is not None:
        mode = "formula" if p["formula_only"] else "frame"
        est = foelner_upper_estimate(n, p["k_max"], T=depth, mode=mode)
        results = {
            "config": {"n": n, "k_max": p["k_max"], "depth": depth, "mode": mode},
            "sweep": [{"k": kk, "epsilon": eps} for kk, eps in est.sweep],
            "best_k": est.best_k,
            "best_epsilon": est.best_epsilon,
            "limit_epsilon": est.limit_epsilon,
        }
        return results, []
    if p["formula_only"]:
        WitnessConfig(n, k, depth)  # the checks a frame build makes, bar its work cap
        certified = formula = certificate_formula(n, k)
        records, frame = (), {}
    else:
        cert = witness_certificate(n, k, depth)
        certified, formula, records = cert.certified_epsilon, cert.formula_epsilon, cert.records
        frame = {"frame_fingerprint": cert.frame_fingerprint}
    results = {
        "config": {"n": n, "k": k, "depth": depth, "formula_only": p["formula_only"]},
        "per_unitary": [asdict(r) for r in records],
        "certified_epsilon": certified,
        "formula_epsilon": formula,
        "limit_epsilon": limit_formula(n),
        **frame,
    }
    return results, []


def _run_scan(cfg: RunConfig) -> tuple[Any, list]:
    p = cfg.params
    descriptor = free_group(p["n"])
    unitary_words = parse_generators(descriptor, p["unitaries"]) if p.get("unitaries") else standard_generators(descriptor)
    sc = ProjectionSearchConfig(
        descriptor=descriptor,
        rank=p["rank"],
        ambient_radius=p["radius"],
        seed=cfg.seed,
        iterations=p["iters"],
        unitaries=unitary_words,
    )
    res = anneal_projection(sc)
    results = {
        "config": {
            "group": descriptor.spec(),
            "rank": p["rank"],
            "radius": p["radius"],
            "iterations": p["iters"],
            "seed": cfg.seed,
            "unitaries": [format_word(w) for w in unitary_words],
        },
        "per_unitary": [asdict(r) for r in res.records],
        "best_objective": res.objective,
        "history": [{"iteration": it, "objective": obj} for it, obj in res.history],
        "frame_fingerprint": frame_fingerprint(res.frame),
        "frame": frame_to_json(res.frame),
    }
    return results, []


def _audit_one_frame(frame) -> dict:
    report = chain_audit(frame)
    return {
        "c_values": report.c_values,
        "displacement": {
            "measured": max(d["measured"] for d in report.displacements.values()),
            "certified": max(d["certified"] for d in report.displacements.values()),
            "per_unitary": report.displacements,
        },
        "verdict": report.verdict,
        "max_commutator_ratio": report.max_commutator_ratio,
    }


def _run_audit(cfg: RunConfig) -> tuple[Any, list]:
    p = cfg.params
    descriptor = free_group(2)
    identities = verify_set_identities(max(2, p["radius"] + 1))
    rng = np.random.default_rng(cfg.seed)
    evaluated = [_audit_one_frame(random_frame(descriptor, p["rank"], p["radius"], rng)) for _ in range(p["frames"])]
    no_frame = {"c_values": {}, "displacement": {}, "max_commutator_ratio": None}
    worst = min(evaluated, key=lambda e: e["max_commutator_ratio"], default=no_frame)  # the first on ties
    verdicts = {e["verdict"] for e in evaluated}
    results = {
        "set_identities": asdict(identities),
        "thresholds": {"paper": float(PAPER_EPSILON), "derived": DERIVED_THRESHOLD},
        "frames_evaluated": len(evaluated),
        "frames": evaluated,
        "c_values": worst["c_values"],
        "displacement": worst["displacement"],
        "verdict": "contradiction" if "contradiction" in verdicts else ("consistent" if verdicts else "no-frames"),
        "min_max_commutator_ratio": worst["max_commutator_ratio"],
    }
    warnings = [THRESHOLD_NOTE]
    if p["paper_mode"]:
        results["paper_trace"] = asdict(make_paper_trace())
        warnings.append(
            "paper-mode replays the literal constants; verdicts always use the derived regime"
        )
    return results, warnings


def _run_identity_check(cfg: RunConfig) -> tuple[Any, list]:
    p = cfg.params
    descriptor = free_group(2)
    rng = np.random.default_rng(cfg.seed)
    unitary_words = [Word(descriptor, (1,)), Word(descriptor, (2,)), Word(descriptor, (-1,))]
    ops = [GroupAlgebraElement.left_translation(w) for w in unitary_words]
    max_diff = 0.0
    agreements = 0
    ratio_max = 0.0
    defect_max = 0.0
    for _ in range(p["trials"]):
        frame = random_frame(descriptor, int(rng.integers(1, 9)), int(rng.integers(3, 6)), rng)
        for op in ops:
            r = commutator_ratio(op, frame)
            diff = abs(r.direct - r.closed_form)
            max_diff = max(max_diff, diff)
            ratio_max = max(ratio_max, r.direct, r.closed_form)
            defect_max = max(defect_max, r.defect)
            if diff < 1e-9:
                agreements += 1
    results = {
        "trials": p["trials"],
        "unitaries": [format_word(w) for w in unitary_words],
        "checks": p["trials"] * len(ops),
        "agreements_within_1e-9": agreements,
        "max_abs_difference": max_diff,
        "max_ratio": ratio_max,
        "max_defect": defect_max,
        "ratio_upper_bound": float(np.sqrt(2.0)),
    }
    return results, []


_HANDLERS = {
    "group": _run_group,
    "witness": _run_witness,
    "scan": _run_scan,
    "audit": _run_audit,
    "identity-check": _run_identity_check,
}


def _check_counts(cfg: RunConfig) -> None:
    """Refuse a negative count, and one past its command's caps."""
    p = cfg.params
    for name in COUNT_PARAMS:
        if p.get(name, 0) < 0:
            raise PreconditionError(f"--{name} must be >= 0, got {p[name]}")
    if cfg.command == "group" and p["mode"] == "search":
        name, count_cap, work_cap = "iters", SEARCH_ITERS_CAP, None
    elif cfg.command == "identity-check":
        name, count_cap, work_cap = "trials", TRIALS_CAP, None
    elif cfg.command == "scan":
        name, count_cap, work_cap = "iters", SCAN_ITERS_CAP, SCAN_WORK_CAP
    elif cfg.command == "audit":
        if p["rank"] > SVD_MAX_K:  # svd_small's own refusal would come after the first frame
            raise SearchSpaceTooLarge(f"--rank {p['rank']} exceeds the SVD size cap of {SVD_MAX_K}")
        name, count_cap, work_cap = "frames", AUDIT_FRAMES_CAP, AUDIT_WORK_CAP
    else:
        return
    if p[name] > count_cap:
        raise SearchSpaceTooLarge(f"--{name} {p[name]} exceeds the cap of {count_cap}")
    if work_cap is not None:
        # audit frames live in F_2; no ball past words.ENUMERATION_CAP is ever built
        rows = capped_ball_size(free_group(p.get("n", 2)), max(p["radius"] - 1, 0))
        work = p[name] * p["rank"] ** 2 * rows
        if work > work_cap:
            raise SearchSpaceTooLarge(
                f"--{name} {p[name]} at rank {p['rank']} on up to {rows} rows costs {work} > the work cap of {work_cap}"
            )


def _check_output(cfg: RunConfig) -> None:
    """Refuse a csv request for a report with no table, and an --out path whose
    directory does not exist."""
    p = cfg.params
    tabular = (cfg.command == "group" and p["mode"] == "balls") or (cfg.command == "witness" and p["k_max"] is not None)
    if cfg.fmt == "csv" and not tabular:
        raise PreconditionError("csv output is only available for group --mode balls and witness --k-max")
    if cfg.out and not os.path.isdir(os.path.dirname(os.path.abspath(cfg.out))):
        raise PreconditionError(f"the directory of --out {cfg.out} does not exist")


def run(cfg: RunConfig) -> RunReport:
    """Dispatch a validated RunConfig to its owning module."""
    t0 = time.perf_counter()
    if cfg.seed is None:
        if cfg.command in STOCHASTIC_COMMANDS:
            raise SeedRequired(f"command {cfg.command!r} requires an explicit --seed")
        if cfg.command == "group" and cfg.params["mode"] == "search":
            raise SeedRequired("group --mode search requires --seed")
    _check_output(cfg)
    _check_counts(cfg)
    handler = _HANDLERS[cfg.command]
    results, warnings = handler(cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    config_echo = {"command": cfg.command, "seed": cfg.seed, "format": cfg.fmt, **cfg.params}
    return RunReport(config_echo, __version__, results, warnings, wall_ms)


# ---------------------------------------------------------------------------
# Output rendering.


def render_json(report: RunReport) -> str:
    return json.dumps(report.payload(), indent=2, sort_keys=True) + "\n"


def render_csv(report: RunReport) -> str:
    """CSV for the tabular reports: ball families and certificate sweeps (see _check_output)."""
    results = report.results
    buf = io.StringIO()
    rows = results["history"] if results.get("mode") == "balls" else results["sweep"]  # never empty
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def write_report(report: RunReport, out: str | None, fmt: str) -> None:
    text = render_csv(report) if fmt == "csv" else render_json(report)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Argument parsing.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foelner",
        description="Folner-type invariants for groups and group von Neumann algebras",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="boundary-ratio estimators for the group invariant")
    g.add_argument("--group", required=True, help="free:N or abelian:N")
    g.add_argument("--gens", default=None, help="comma-separated generators (default: standard)")
    g.add_argument("--radius", type=int, required=True)
    g.add_argument("--mode", choices=["exhaustive", "balls", "search"], required=True)
    g.add_argument("--iters", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=None)

    w = sub.add_parser("witness", help="explicit upper-bound certificates for L(F_n)")
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--k", type=int, default=8)
    w.add_argument("--depth", type=int, default=6)
    w.add_argument("--k-max", type=int, default=None, help="sweep k = 1..k_max instead of one k")
    w.add_argument("--formula-only", action="store_true")

    s = sub.add_parser("scan", help="annealed projection search for the Q-objective")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--radius", type=int, required=True)
    s.add_argument("--iters", type=int, required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--unitaries", default=None, help="comma-separated words (default: standard generators)")

    a = sub.add_parser("audit", help="paradoxical-decomposition audit over random frames")
    a.add_argument("--rank", type=int, required=True)
    a.add_argument("--radius", type=int, required=True)
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--frames", type=int, default=100)
    a.add_argument("--paper-mode", action="store_true")

    i = sub.add_parser("identity-check", help="HS-identity property run on random frames")
    i.add_argument("--trials", type=int, default=100)
    i.add_argument("--seed", type=int, default=None)

    for p in (g, w, s, a, i):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # every other argument of the subcommand is a parameter, echoed in the payload's config
    params = {name: value for name, value in vars(args).items() if name not in ("command", "seed", "out", "format")}
    return RunConfig(args.command, params, getattr(args, "seed", None), args.out, args.format)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        report = run(cfg)
        write_report(report, cfg.out, cfg.fmt)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4
    print(f"completed in {report.wall_ms:.1f} ms", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
