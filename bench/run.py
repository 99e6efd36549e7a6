"""Benchmark for the foelner CLI.

Usage:
    python3 bench/run.py --workload {group,audit,anneal} --seed N --seconds S --trace {0,1}

Run from the repository root (the directory holding `src/` and
`BENCHMARK.json`).  One driver process runs one job at a time.  A job is one
CLI invocation, `python3 -m foelner.cli ...` with `PYTHONPATH=src`, in its own
process, so it pays interpreter start-up, imports and ball construction as a
user does.  A round runs the workload's job list once, plus two `--version`
invocations that time start-up alone; rounds repeat until S seconds have
passed.

Every job is an operation.  It fails on a non-zero exit, a timeout, a payload
whose bytes differ from the same job's first payload in this invocation, or a
failed output check (see checks.py).  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`:

* `--trace 0`: the end-to-end metrics `wall_s`, `cpu_s`, `peak_rss_mb` and
  `setup_s`.  Per job, the median over rounds is taken; `wall_s` and `cpu_s`
  sum these medians over the job list, `peak_rss_mb` is their maximum and
  `setup_s` is the median over all `--version` invocations.
* `--trace 1`: each job instead runs in-process under cProfile through
  trace_job.py, one fresh process per job, and the metrics are the per-layer
  figures named in BENCHMARK.json (per-job medians summed over the job list).

Metric names and units are read from BENCHMARK.json.  Payloads, stderr and a
copy of the result go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no job may run past this many seconds after the benchmark started
SETUP_PER_ROUND = 2

# sizes of the jobs; README.md records them too
BALLS_RADIUS = 12
SEARCH_RADIUS = 20
SEARCH_ITERS = 20_000
EXHAUSTIVE_RADIUS = 2
AUDIT_FRAMES = 100
SCAN_ITERS = 10_000
WITNESS_K_MAX = 30


@dataclass(frozen=True)
class Job:
    name: str
    args: list[str]
    check: str  # name of the checker in checks.py
    params: dict


def workload_jobs(workload: str, seed: int) -> list[Job]:
    s = str(seed)
    if workload == "group":
        return [
            Job("balls", ["group", "--group", "free:2", "--radius", str(BALLS_RADIUS), "--mode", "balls"],
                "check_balls", {"rank": 2, "r_max": BALLS_RADIUS}),
            Job("search", ["group", "--group", "abelian:2", "--radius", str(SEARCH_RADIUS), "--mode", "search",
                           "--iters", str(SEARCH_ITERS), "--seed", s],
                "check_search", {"radius": SEARCH_RADIUS}),
            Job("exhaustive", ["group", "--group", "free:2", "--radius", str(EXHAUSTIVE_RADIUS), "--mode", "exhaustive"],
                "check_exhaustive", {"rank": 2, "radius": EXHAUSTIVE_RADIUS}),
        ]
    if workload == "audit":
        return [
            Job("audit", ["audit", "--rank", "8", "--radius", "5", "--seed", s, "--frames", str(AUDIT_FRAMES),
                          "--paper-mode"],
                "check_audit", {"frames": AUDIT_FRAMES}),
        ]
    if workload == "anneal":
        return [
            Job("scan", ["scan", "--n", "2", "--rank", "8", "--radius", "5", "--iters", str(SCAN_ITERS), "--seed", s],
                "check_scan", {}),
            Job("witness", ["witness", "--n", "2", "--k-max", str(WITNESS_K_MAX), "--depth", "6"],
                "check_witness", {"n": 2, "k_max": WITNESS_K_MAX}),
        ]
    raise ValueError(workload)


@dataclass
class Sample:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_process(argv: list[str], env: dict, tag: str, timeout: float) -> Sample:
    """Run argv to completion, killing it after `timeout` seconds; rusage comes
    from wait4 on exactly this child."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        lock = threading.Lock()
        exited = False
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def kill() -> None:
            with lock:
                if not exited:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                exited = True
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if not exited:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                  out_path.read_bytes(), err_path.read_bytes())


def layer_figures(summary: dict, payload_bytes: int, wall_s: float) -> dict[str, float]:
    figures = {f"{layer}.self_s": t for layer, t in summary["self_s"].items()}
    for name, (t, calls) in summary["funcs"].items():
        figures[f"{name}.s"] = t
        figures[f"{name}.calls"] = calls
    figures["words.hash.calls"] = summary["hash_calls"]
    figures["connes.random_frame.retries"] = summary["random_frame_gs_calls"] - summary["funcs"]["connes.random_frame"][1]
    figures["cli.payload_bytes"] = payload_bytes
    figures["trace.wall_s"] = wall_s
    return figures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["group", "audit", "anneal"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "foelner" / "cli.py").is_file():
        print(f"error: {SRC / 'foelner' / 'cli.py'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # on SIGTERM, unwind through run_process so that the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FOELNER_THREADS", None)
    jobs = workload_jobs(args.workload, args.seed)
    cli = [sys.executable, "-m", "foelner.cli"]
    tracer = [sys.executable, str(BENCH / "trace_job.py")]

    attempted = failed = 0
    setup: list[float] = []
    done: list[tuple[Job, str, dict]] = []  # (job, payload digest, figures) per operation that exited 0
    payloads: dict[str, bytes] = {}  # digest -> payload, one copy per distinct payload

    def fail(tag: str, why: str) -> None:
        nonlocal failed
        failed += 1
        print(f"FAILED {tag}: {why}", file=sys.stderr)

    start = time.perf_counter()
    deadline = start + args.seconds

    def timeout() -> float:
        return max(1.0, min(JOB_TIMEOUT_S, start + RUN_LIMIT_S - time.perf_counter()))

    rounds = 0
    while True:
        if not args.trace:
            for _ in range(SETUP_PER_ROUND):
                attempted += 1
                s = run_process(cli + ["--version"], env, "version", timeout())
                if s.rc != 0 or not s.stdout.startswith(b"foelner "):
                    fail("--version", f"exit {s.rc}, stdout {s.stdout[:80]!r}")
                else:
                    setup.append(s.wall_s)
        for job in jobs:
            attempted += 1
            tag = f"{args.workload}-{job.name}"
            if args.trace:
                s = run_process(tracer + [str(OUT / f"{tag}.trace.json")] + job.args, env, tag, timeout())
            else:
                s = run_process(cli + job.args, env, tag, timeout())
            if s.rc != 0:
                fail(tag, f"exit {s.rc}: {s.stderr.decode(errors='replace').strip()[-400:]}")
                continue
            digest = hashlib.sha256(s.stdout).hexdigest()
            payloads.setdefault(digest, s.stdout)
            if args.trace:
                summary = json.loads((OUT / f"{tag}.trace.json").read_text())
                figures = layer_figures(summary, len(s.stdout), s.wall_s)
            else:
                figures = {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mb": s.rss_mb}
            done.append((job, digest, figures))
        rounds += 1
        if time.perf_counter() >= deadline:
            break

    # Output checks run after the timed rounds.  Importing numpy into this
    # process earlier would inflate every later child's peak RSS: Linux carries
    # the parent's peak across fork and exec into the child's ru_maxrss.
    import checks

    first: dict[str, str] = {}  # job name -> digest of its first payload
    verdicts: dict[str, list[str]] = {}  # digest -> check failures
    wrong = False
    samples: dict[str, list[dict]] = {job.name: [] for job in jobs}
    for job, digest, figures in done:
        if first.setdefault(job.name, digest) != digest:
            errs = ["payload bytes differ from this job's first payload in the run"]
        else:
            if digest not in verdicts:
                verdicts[digest] = getattr(checks, job.check)(json.loads(payloads[digest]), **job.params)
            errs = verdicts[digest]
        if errs:
            wrong = True
            fail(f"{args.workload}-{job.name}", "; ".join(errs[:5]))
        else:
            samples[job.name].append(figures)

    per_job = {
        name: {key: statistics.median(x[key] for x in rows) for key in rows[0]}
        for name, rows in samples.items() if rows
    }
    figures: dict[str, float] = {}
    if per_job:
        for key in next(iter(per_job.values())):
            vals = [fig[key] for fig in per_job.values()]
            figures[key] = max(vals) if key == "peak_rss_mb" else sum(vals)
    if setup:
        figures["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"error: no measurement for {missing} (every job failed?)", file=sys.stderr)
        return 1
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"rounds": rounds, "per_job": per_job, "samples": samples, **result}, indent=1) + "\n"
    )
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
