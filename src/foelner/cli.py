"""Command-line entry point: deterministic runs, JSON/CSV reports.

Each command is one library call, which checks its inputs (an explicit --seed
for every stochastic command) and counts its cost; the CLI checks only the
output options.  Identical flags produce byte-identical payloads (wall time
goes to stderr, never into the report) under the same BLAS thread count: at
larger frame ranks (ranks >= 91, and some smaller ones on larger balls)
OpenBLAS sums products in a thread-dependent order.  Its idle threads spin
2^20 cycles, not 2^28, before they sleep, which moves no bit.  Exit codes: 0
success, 2 precondition violation (including an --out file that cannot be
written), 3 numerical non-convergence, 4 a theorem or consistency check failed.
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

os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")  # read as numpy loads OpenBLAS: before the imports below

from . import __version__
from .boundary import group_run
from .connes import identity_check, scan_run, witness_run
from .errors import ConvergenceError, InvariantViolation, PreconditionError
from .paradox import THRESHOLD_NOTE, audit, make_paper_trace


# ---------------------------------------------------------------------------
# Command handlers.


def _run_audit(args: argparse.Namespace) -> tuple[dict, list]:
    results = audit(args.rank, args.radius, args.seed, args.frames)
    warnings = [THRESHOLD_NOTE]
    if args.paper_mode:
        results["paper_trace"] = asdict(make_paper_trace())
        warnings.append("paper-mode replays the literal constants; verdicts always use the derived regime")
    return results, warnings


_HANDLERS = {
    "group": lambda a: (group_run(a.group, a.gens, a.radius, a.mode, a.iters, a.seed), []),
    "witness": lambda a: (witness_run(a.n, a.k, a.depth, a.k_max, a.formula_only), []),
    "scan": lambda a: (scan_run(a.n, a.rank, a.radius, a.iters, a.seed, a.unitaries), []),
    "audit": _run_audit,
    "identity-check": lambda a: (identity_check(a.trials, a.seed), []),
}


def _table(config: dict) -> str | None:
    """The key of the results' rows that --format csv writes, for the reports with a table (ball
    families and certificate sweeps), read off the parsed arguments; None for the others."""
    if config["command"] == "group" and config["mode"] == "balls":
        return "history"
    return "sweep" if config["command"] == "witness" and config["k_max"] is not None else None


def _check_output(args: argparse.Namespace) -> None:
    """Refuse a csv request for a report with no table, and an --out path whose
    directory does not exist."""
    if args.format == "csv" and _table(vars(args)) is None:
        raise PreconditionError("csv output is only available for group --mode balls and witness --k-max")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise PreconditionError(f"the directory of --out {args.out} does not exist")


def run(args: argparse.Namespace) -> dict:
    """The payload of parsed arguments: their echo (all but --out), version, results, warnings."""
    _check_output(args)
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
                rows = payload["results"][_table(payload["config"])]  # never empty
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
