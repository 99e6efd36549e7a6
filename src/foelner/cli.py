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
import contextlib
import csv
import itertools
import json
import os
import sys
import time
from dataclasses import asdict
from typing import Iterator

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
# fixed cost of each unit (interpreter and numpy-call overhead); audit also caps
# frames * rank^2 * |ball(radius - 1)| and scan iters * rank * (rank + 8) *
# |ball(radius - 1)| * unitaries, which bound the arithmetic on frames of at most
# |ball(radius - 1)| rows.  README states the worst-case times.
SEARCH_ITERS_CAP = 100_000  # group --mode search, O(|X u X^-1|) per iteration
TRIALS_CAP = 20_000  # identity-check, frames of rank <= 8 and ambient radius <= 5
SCAN_ITERS_CAP = 200_000
SCAN_WORK_CAP = 1 << 32
SCAN_CHECK_CAP = 1 << 30  # unitaries * rank * |ball(radius - 1)|^2: the direct route of the final check
AUDIT_FRAMES_CAP = 2_000
AUDIT_WORK_CAP = 1 << 28


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


def _run_group(args: argparse.Namespace) -> tuple[dict, list]:
    descriptor = GroupDescriptor.parse(args.group)
    if args.gens:
        gens = GeneratingSet.of(descriptor, parse_generators(descriptor, args.gens))
    else:
        gens = GeneratingSet.standard(descriptor)
    if args.mode == "exhaustive":
        best, report = exhaustive_min_ratio(descriptor, gens, args.radius)
        best_set, history = _element_set_json(best), []
    elif args.mode == "balls":
        family = ball_family_ratios(descriptor, gens, args.radius)
        report, best_set = family[-1].report, f"ball(radius={family[-1].radius})"
        history = [{"radius": fr.radius, **_report_json(fr.report), "method": fr.method} for fr in family]
    else:  # search
        sc = GroupSearchConfig(args.radius, seed=args.seed, iterations=args.iters)
        res = local_search_min_ratio(descriptor, gens, sc)
        # vars(): each move's own field dict; asdict() would copy every field of thousands of moves
        report, best_set, history = res.report, _element_set_json(res.best_set), [vars(m) for m in res.history]
    results = {
        "group": descriptor.spec(),
        "generators": [format_word(g) for g in gens.generators],
        "mode": args.mode,
        "best_set": best_set,
        **_report_json(report),
        "history": history,
    }
    return results, []


def _run_witness(args: argparse.Namespace) -> tuple[dict, list]:
    if args.k_max is not None:
        mode = "formula" if args.formula_only else "frame"
        est = foelner_upper_estimate(args.n, args.k_max, T=args.depth, mode=mode)
        results = {
            "config": {"n": args.n, "k_max": args.k_max, "depth": args.depth, "mode": mode},
            "sweep": [{"k": kk, "epsilon": eps} for kk, eps in est.sweep],
            "best_k": est.best_k,
            "best_epsilon": est.best_epsilon,
            "limit_epsilon": est.limit_epsilon,
        }
        return results, []
    if args.formula_only:
        WitnessConfig(args.n, args.k, args.depth)  # the checks a frame build makes, bar its work cap
        certified = formula = certificate_formula(args.n, args.k)
        records, frame = (), {}
    else:
        cert = witness_certificate(args.n, args.k, args.depth)
        certified, formula, records = cert.certified_epsilon, cert.formula_epsilon, cert.records
        frame = {"frame_fingerprint": cert.frame_fingerprint}
    results = {
        "config": {"n": args.n, "k": args.k, "depth": args.depth, "formula_only": args.formula_only},
        "per_unitary": [asdict(r) for r in records],
        "certified_epsilon": certified,
        "formula_epsilon": formula,
        "limit_epsilon": limit_formula(args.n),
        **frame,
    }
    return results, []


def _run_scan(args: argparse.Namespace) -> tuple[dict, list]:
    descriptor = free_group(args.n)
    unitary_words = parse_generators(descriptor, args.unitaries) if args.unitaries else standard_generators(descriptor)
    sc = ProjectionSearchConfig(descriptor, args.rank, args.radius, args.seed, args.iters, unitary_words)
    res = anneal_projection(sc)
    columns = frame_to_json(res.frame)
    results = {
        "config": {
            "group": descriptor.spec(),
            "rank": args.rank,
            "radius": args.radius,
            "iterations": args.iters,
            "seed": args.seed,
            "unitaries": [format_word(w) for w in unitary_words],
        },
        "per_unitary": [asdict(r) for r in res.records],
        "best_objective": res.objective,
        "history": [{"iteration": it, "objective": obj} for it, obj in res.history],
        "frame_fingerprint": frame_fingerprint(res.frame, columns),
        "frame": columns,
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


def _run_audit(args: argparse.Namespace) -> tuple[dict, list]:
    descriptor = free_group(2)
    identities = verify_set_identities(max(2, args.radius + 1))
    rng = np.random.default_rng(args.seed)
    evaluated = [_audit_one_frame(random_frame(descriptor, args.rank, args.radius, rng)) for _ in range(args.frames)]
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
    if args.paper_mode:
        results["paper_trace"] = asdict(make_paper_trace())
        warnings.append("paper-mode replays the literal constants; verdicts always use the derived regime")
    return results, warnings


def _run_identity_check(args: argparse.Namespace) -> tuple[dict, list]:
    descriptor = free_group(2)
    rng = np.random.default_rng(args.seed)
    unitary_words = [Word(descriptor, (1,)), Word(descriptor, (2,)), Word(descriptor, (-1,))]
    ops = [GroupAlgebraElement.left_translation(w) for w in unitary_words]
    max_diff = 0.0
    agreements = 0
    ratio_max = 0.0
    defect_max = 0.0
    for _ in range(args.trials):
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
        "trials": args.trials,
        "unitaries": [format_word(w) for w in unitary_words],
        "checks": args.trials * len(ops),
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


def _check_counts(args: argparse.Namespace) -> None:
    """Refuse a negative count, and one past its command's caps."""
    for name in COUNT_PARAMS:
        if getattr(args, name, 0) < 0:
            raise PreconditionError(f"--{name} must be >= 0, got {getattr(args, name)}")
    if args.command == "group" and args.mode == "search":
        name, count_cap, work_cap = "iters", SEARCH_ITERS_CAP, None
    elif args.command == "identity-check":
        name, count_cap, work_cap = "trials", TRIALS_CAP, None
    elif args.command == "scan":
        name, count_cap, work_cap = "iters", SCAN_ITERS_CAP, SCAN_WORK_CAP
        units = args.unitaries.count(",") + 1 if args.unitaries else args.n  # free words hold no commas
        per_row = args.rank * (args.rank + 8) * units  # a k^2 compression and ~8k gathered entries per unitary
    elif args.command == "audit":
        if args.rank < 1 or args.radius < 1:  # frames need rank >= 1 and rows in ball(radius - 1)
            raise PreconditionError(f"audit needs --rank >= 1 and --radius >= 1, got {args.rank} and {args.radius}")
        if args.rank > SVD_MAX_K:  # svd_small's own refusal would come after the first frame
            raise SearchSpaceTooLarge(f"--rank {args.rank} exceeds the SVD size cap of {SVD_MAX_K}")
        name, count_cap, work_cap = "frames", AUDIT_FRAMES_CAP, AUDIT_WORK_CAP
        per_row = args.rank**2
    else:
        return
    if (count := getattr(args, name)) > count_cap:
        raise SearchSpaceTooLarge(f"--{name} {count} exceeds the cap of {count_cap}")
    if work_cap is not None:
        # audit frames live in F_2; no ball past words.ENUMERATION_CAP is ever built
        rows = capped_ball_size(free_group(getattr(args, "n", 2)), max(args.radius - 1, 0))
        if (work := count * per_row * rows) > work_cap:
            raise SearchSpaceTooLarge(
                f"--{name} {count} at rank {args.rank} on up to {rows} rows costs {work} > the work cap of {work_cap}"
            )
        if args.command == "scan" and (work := units * args.rank * rows**2) > SCAN_CHECK_CAP:
            raise SearchSpaceTooLarge(f"the final check on {rows} rows costs {work} > the cap of {SCAN_CHECK_CAP}")


def _check_output(args: argparse.Namespace) -> None:
    """Refuse a csv request for a report with no table, and an --out path whose
    directory does not exist."""
    tabular = args.command == "group" and args.mode == "balls" or args.command == "witness" and args.k_max is not None
    if args.format == "csv" and not tabular:
        raise PreconditionError("csv output is only available for group --mode balls and witness --k-max")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise PreconditionError(f"the directory of --out {args.out} does not exist")


def run(args: argparse.Namespace) -> dict:
    """The payload of parsed arguments: their echo (all but --out), version, results, warnings."""
    if args.seed is None:
        if args.command in STOCHASTIC_COMMANDS:
            raise SeedRequired(f"command {args.command!r} requires an explicit --seed")
        if args.command == "group" and args.mode == "search":
            raise SeedRequired("group --mode search requires --seed")
    elif args.seed < 0:  # numpy's generators take no negative seed
        raise PreconditionError(f"--seed must be >= 0, got {args.seed}")
    _check_output(args)
    _check_counts(args)
    results, warnings = _HANDLERS[args.command](args)
    config = {name: value for name, value in vars(args).items() if name != "out"}
    return {"config": config, "version": __version__, "results": results, "warnings": warnings}


# ---------------------------------------------------------------------------
# Output rendering.


# Encoder tokens joined into one piece of a report.  Python's stdout is unbuffered under
# PYTHONUNBUFFERED=1, so each piece is one write(2) call: the benchmark's search report,
# about 116,000 tokens, goes out in about 115 writes rather than one write a token.
RENDER_BATCH = 1024


def render_json(payload: dict) -> Iterator[str]:
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", in pieces of RENDER_BATCH of the
    tokens of json's own encoder."""
    tokens = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while batch := list(itertools.islice(tokens, RENDER_BATCH)):
        yield "".join(batch)
    yield "\n"


def write_report(payload: dict, out: str | None, fmt: str) -> None:
    """Write the report to `out` (or stdout) piece by piece: JSON as render_json yields it,
    CSV row by row for the tabular reports (ball families and certificate sweeps).  A report
    that fails part-way leaves no cut file: it goes to a temporary file beside the regular
    file `out` names (or will name), which replaces that file once the report is whole and is
    removed otherwise.  A device or a pipe is written in place."""
    path = os.path.realpath(out) if out else None
    tmp = f"{path}.{os.getpid()}.tmp" if out and (os.path.isfile(path) or not os.path.exists(path)) else None
    try:
        with open(tmp, "x") if tmp else open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
            if fmt == "csv":
                results = payload["results"]
                rows = results["history"] if results.get("mode") == "balls" else results["sweep"]  # never empty
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
            else:
                fh.writelines(render_json(payload))
        if tmp:
            os.replace(tmp, path)
    except OSError as exc:
        if not out:
            raise
        raise PreconditionError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp and os.path.exists(tmp):  # the report did not replace `out`
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# Argument parsing.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foelner",
        description="Folner-type invariants for groups and group von Neumann algebras",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.set_defaults(seed=None)  # witness takes no seed; its payload echoes "seed": null
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        payload = run(args)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        write_report(payload, args.out, args.format)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 4
    print(f"completed in {wall_ms:.1f} ms", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
