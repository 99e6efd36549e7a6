"""CLI behavior: schemas, determinism, exit codes."""

import gc
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import textwrap
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import foelner.boundary
import foelner.cli
import foelner.connes
import foelner.paradox
from foelner import budget, l2ops
from foelner.cli import _handler, build_parser, main, render_json, run
from foelner.connes import ProjectionSearchConfig, anneal_projection
from foelner.errors import ConvergenceError, InvariantViolation, PreconditionError, SearchSpaceTooLarge, SeedRequired
from foelner.words import ball, format_word, free_group, standard_generators, words_of
from frame_helpers import count_calls

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_group_exhaustive_report(tmp_path):
    code, raw = run_cli(
        ["group", "--group", "free:2", "--radius", "2", "--mode", "exhaustive"], tmp_path
    )
    assert code == 0
    doc = json.loads(raw)
    res = doc["results"]
    assert res["ratio_rational"] == "12/17"
    assert res["set_size"] == 17
    assert res["boundary_size"] == 12
    assert len(res["best_set"]) == 17
    assert res["best_set"][0] == "e"
    assert doc["config"]["command"] == "group"


def test_group_balls_json_and_csv(tmp_path):
    code, raw = run_cli(
        ["group", "--group", "abelian:2", "--radius", "5", "--mode", "balls"], tmp_path
    )
    assert code == 0
    res = json.loads(raw)["results"]
    assert len(res["history"]) == 5
    assert res["history"][-1]["ratio_rational"] == "20/61"

    code, raw = run_cli(
        ["group", "--group", "abelian:2", "--radius", "5", "--mode", "balls", "--format", "csv"],
        tmp_path,
        name="out.csv",
    )
    assert code == 0
    lines = raw.decode().strip().splitlines()
    assert lines[0] == "radius,set_size,boundary_size,ratio_rational,ratio_float,method"
    assert len(lines) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--group", "abelian:2", "--radius", "4", "--mode", "search"],
        ["scan", "--n", "2", "--rank", "3", "--radius", "3", "--iters", "10"],
        ["audit", "--rank", "3", "--radius", "4", "--frames", "2"],
        ["identity-check", "--trials", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_stochastic_command_requires_a_seed(argv, monkeypatch, capsys):
    _refuse_balls(monkeypatch)  # refused before any ball is built
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err


def test_group_bad_spec(tmp_path, capsys):
    code = main(["group", "--group", "braid:3", "--radius", "2", "--mode", "exhaustive"])
    assert code == 2


def test_malformed_abelian_generator_exits_2(capsys):
    code = main(["group", "--group", "abelian:2", "--gens", "(1-2,0)", "--radius", "2", "--mode", "balls"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # digits of other scripts, which int() reads: Arabic-Indic two and one, fullwidth two
        ["group", "--group", "free:\u0662", "--radius", "1", "--mode", "balls"],
        ["group", "--group", "abelian:\uff12", "--radius", "1", "--mode", "balls"],
        ["group", "--group", "abelian:2", "--gens", "(\u0661,0)", "--radius", "1", "--mode", "balls"],
        ["group", "--group", "free:2", "--gens", "a\u0661", "--radius", "1", "--mode", "balls"],
        ["scan", "--n", "2", "--rank", "1", "--radius", "3", "--iters", "1", "--seed", "1", "--unitaries", "a\u0661"],
    ],
)
def test_non_ascii_digits_exit_2(argv, monkeypatch, capsys):
    _refuse_balls(monkeypatch)  # refused as text, before any ball is built
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exhaustive_cap_exit_code(capsys):
    code = main(["group", "--group", "free:2", "--radius", "3", "--mode", "exhaustive"])
    assert code == 2
    assert "predicted to take" in capsys.readouterr().err


def test_witness_report(tmp_path):
    code, raw = run_cli(["witness", "--n", "2", "--k", "8", "--depth", "6"], tmp_path)
    assert code == 0
    res = json.loads(raw)["results"]
    assert abs(res["certified_epsilon"] - 1.25) < 1e-12
    assert abs(res["formula_epsilon"] - 1.25) < 1e-9
    assert abs(res["limit_epsilon"] - 1.224744871391589) < 1e-12
    assert {r["label"] for r in res["per_unitary"]} == {"L[a1]", "L[a2]"}


def test_witness_sweep_csv(tmp_path):
    code, raw = run_cli(
        ["witness", "--n", "2", "--k-max", "16", "--formula-only", "--format", "csv"],
        tmp_path,
        name="sweep.csv",
    )
    assert code == 0
    lines = raw.decode().strip().splitlines()
    assert lines[0] == "k,epsilon"
    assert len(lines) == 17


def test_scan_report(tmp_path):
    code, raw = run_cli(
        ["scan", "--n", "2", "--rank", "3", "--radius", "3", "--iters", "50", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    res = json.loads(raw)["results"]
    assert res["best_objective"] > 0.05
    assert len(res["frame"]) == 3
    objs = [h["objective"] for h in res["history"]]
    assert objs == sorted(objs, reverse=True)


def test_audit_report(tmp_path):
    args = ["audit", "--rank", "3", "--radius", "4", "--seed", "9", "--frames", "4", "--paper-mode"]
    code, raw = run_cli(args, tmp_path)
    assert code == 0
    doc = json.loads(raw)
    res = doc["results"]
    assert res["set_identities"]["disjoint_ok"]
    assert res["set_identities"]["corrected_cover_ok"]
    assert not res["set_identities"]["literal_cover_holds"]
    assert abs(res["thresholds"]["paper"] - 1 / 7) < 1e-12
    assert abs(res["thresholds"]["derived"] - 0.058925565) < 1e-9
    assert res["verdict"] == "consistent"
    assert res["frames_evaluated"] == 4
    assert res["paper_trace"]["chain_closes"]
    assert res["min_max_commutator_ratio"] > 0.05
    assert doc["warnings"]


def test_identity_check(tmp_path):
    code, raw = run_cli(["identity-check", "--trials", "10", "--seed", "1"], tmp_path)
    assert code == 0
    res = json.loads(raw)["results"]
    assert res["agreements_within_1e-9"] == res["checks"] == 30
    assert res["max_abs_difference"] < 1e-9
    assert res["max_ratio"] <= res["ratio_upper_bound"] + 1e-12
    assert res["max_defect"] <= 2.0


def test_identity_check_hundred_trials(tmp_path):
    code, raw = run_cli(["identity-check", "--trials", "100", "--seed", "1"], tmp_path)
    assert code == 0
    res = json.loads(raw)["results"]
    assert res["trials"] == 100
    assert res["agreements_within_1e-9"] == res["checks"]
    assert res["max_abs_difference"] < 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--group", "free:2", "--radius", "2", "--mode", "exhaustive"],
        ["group", "--group", "abelian:2", "--radius", "8", "--mode", "search", "--iters", "300", "--seed", "4"],
        ["group", "--group", "free:3", "--radius", "4", "--mode", "balls"],
        ["witness", "--n", "3", "--k", "4", "--depth", "3"],
        ["scan", "--n", "2", "--rank", "2", "--radius", "3", "--iters", "40", "--seed", "2"],
        ["audit", "--rank", "2", "--radius", "3", "--seed", "2", "--frames", "3"],
        ["identity-check", "--trials", "5", "--seed", "3"],
    ],
)
def test_determinism_byte_identical(argv, tmp_path):
    _, first = run_cli(argv, tmp_path, name="a.json")
    _, second = run_cli(argv, tmp_path, name="b.json")
    assert first == second
    assert first  # non-empty


def test_identity_check_payload_independent_of_hash_seed():
    argv = [sys.executable, "-m", "foelner.cli", "identity-check", "--trials", "20", "--seed", "11"]
    payloads = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        payloads.append(proc.stdout)
    assert payloads[0] == payloads[1]
    assert payloads[0]


def _child_env(**extra):
    """os.environ with PYTHONPATH leading to src, no OPENBLAS_THREAD_TIMEOUT (importing foelner.cli
    here sets it) and the variables `extra`."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **extra}


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--rank", "100", "--radius", "5", "--seed", "1", "--frames", "1"],
        ["scan", "--n", "2", "--rank", "30", "--radius", "6", "--iters", "20", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_blas_idle_spin_moves_no_bit(argv):
    # both runs put products on OpenBLAS's threads; the CLI's short idle spin and OpenBLAS's
    # default of 2^28 cycles give the same bytes
    cli = [sys.executable, "-m", "foelner.cli", *argv]
    payloads = [subprocess.run(cli, env=_child_env(**setting), capture_output=True, timeout=120, check=True).stdout
                for setting in ({}, {"OPENBLAS_THREAD_TIMEOUT": "28"})]
    assert payloads[0] == payloads[1]
    assert payloads[0]


@pytest.mark.parametrize("value", [None, "7", "28"])
def test_cli_import_shortens_the_blas_idle_spin_unless_the_environment_sets_it(value):
    script = "import os, foelner.cli; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    env = _child_env() if value is None else _child_env(OPENBLAS_THREAD_TIMEOUT=value)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=120, check=True)
    seen = proc.stdout.decode().strip()
    assert seen == value if value else int(seen) < 28  # shorter than OpenBLAS's default of 2^28 cycles


# ---------------------------------------------------------------------------
# What a CLI process loads and how it ends.

# The process entry run as __main__, as `python -m foelner.cli` runs it, then the names of every loaded
# module on the last line of stderr.
LOADED_SCRIPT = textwrap.dedent(
    """\
    import runpy, sys
    try:
        runpy.run_module("foelner.cli", run_name="__main__", alter_sys=True)
    except SystemExit:  # argparse's exits: --version, --help and refusals
        pass
    print(" ".join(sorted(sys.modules)), file=sys.stderr)
    """
)
RUN_MODULES = {f"foelner.{name}" for name in ("words", "budget", "boundary", "l2ops", "connes", "paradox")}


def _loaded(argv: list) -> set:
    proc = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, *argv], env=_child_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-400:]
    return set(proc.stderr.decode().splitlines()[-1].split())


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["group", "--group", "free:2", "--radius", "x"]],
                         ids=["version", "help", "refusal"])
def test_parser_exits_load_no_numpy_and_no_run_module(argv):
    loaded = _loaded(argv)
    assert "foelner" in loaded
    assert not loaded & (RUN_MODULES | {"numpy"}), sorted(loaded & (RUN_MODULES | {"numpy"}))


@pytest.mark.parametrize(
    "argv, own, others",
    [
        ("group --group free:2 --radius 2 --mode balls", "boundary", {"l2ops", "connes", "paradox"}),
        ("scan --n 2 --rank 1 --radius 2 --iters 2 --seed 1", "connes", {"boundary", "paradox"}),
        ("witness --n 2 --k 2 --depth 2", "connes", {"boundary", "paradox"}),
        ("identity-check --trials 1 --seed 1", "connes", {"boundary", "paradox"}),
        ("audit --rank 2 --radius 3 --seed 1 --frames 1", "paradox", {"boundary"}),
    ],
    ids=lambda value: value.split()[0] if " " in value else None,
)
def test_each_command_loads_only_its_own_run_modules(argv, own, others):
    loaded = _loaded(argv.split())
    assert {f"foelner.{own}", "numpy"} <= loaded
    assert not loaded & {f"foelner.{name}" for name in others}, sorted(loaded & {f"foelner.{name}" for name in others})


def test_main_in_process_freezes_nothing(tmp_path):
    # only the process entry freezes the heap, after main returns: a caller of main that goes on collects as usual
    assert gc.get_freeze_count() == 0
    assert run_cli(["group", "--group", "free:2", "--radius", "2", "--mode", "exhaustive"], tmp_path)[0] == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--group", "abelian:2", "--radius", "10", "--mode", "search", "--iters", "2000", "--seed", "3"],
        ["audit", "--rank", "8", "--radius", "5", "--seed", "1", "--frames", "5", "--paper-mode"],
    ],
    ids=lambda argv: argv[0],
)
def test_process_entry_writes_the_in_process_report(argv, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "foelner.cli", *argv], env=_child_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-400:]
    code, raw = run_cli(argv, tmp_path)
    assert code == 0 and proc.stdout == raw


def test_the_foelner_script_is_the_process_entry():
    # `python -m foelner.cli` runs foelner.cli.entry; the installed script must too
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert 'foelner = "foelner.cli:entry"' in pyproject
    assert "raise SystemExit(entry())" in (SRC / "foelner" / "cli.py").read_text()


def _edge(template: str, last: int) -> tuple[list, list]:
    return template.format(last).split(), template.format(last + 1).split()


# Each cost formula's edge: the largest input the budget admits (README's caps table times
# each one) and the input one step past it, refused before any ball or frame is built.
EDGES = [
    _edge("identity-check --trials {} --seed 1", 6250),
    _edge("audit --rank 8 --radius 5 --seed 1 --frames {}", 3561),
    _edge("audit --rank 200 --radius 6 --seed 1 --frames {}", 52),
    _edge("audit --rank 1 --radius {} --seed 1 --frames 1", 11),  # the set identities read ball(F_2, radius)
    _edge("audit --rank {} --radius 7 --seed 1 --frames 1", 299),  # the memory bound, below ball(F_2, 6)'s 1,457 words
    _edge("scan --n 2 --rank 8 --radius 5 --iters {} --seed 1", 24646),
    _edge("scan --n 2 --rank 150 --radius 7 --iters {} --seed 1", 84),
    _edge("scan --n 2 --rank 1 --radius {} --iters 1 --seed 1", 9),  # the direct routes of the final records
    _edge("scan --n {} --rank 1 --radius 2 --iters 0 --seed 1", 502),
    _edge("group --group abelian:9 --radius 6 --mode search --iters {} --seed 1", 115150),  # every move accepted, as the model assumes
    _edge("group --group free:2 --radius 10 --mode search --iters {} --seed 1", 134408),
    _edge("group --group abelian:2 --radius {} --mode search --iters 10000 --seed 1", 494),
    _edge("group --group abelian:9 --radius {} --mode search --iters 10000 --seed 1", 6),
    _edge("group --group free:1 --radius {} --mode search --iters 10 --seed 1", 2764),  # the letters of F_1 balls and their table
    _edge("group --group abelian:2 --radius {} --mode balls", 494),
    _edge("group --group abelian:4 --radius {} --mode balls", 25),
    _edge("group --group abelian:1 --radius {} --mode exhaustive", 12),
    _edge("group --group free:2 --radius {} --mode balls", 9008),  # the digits of its closed forms
    _edge("group --group free:1 --radius {} --mode balls", 121414),
    _edge("witness --n 5 --k 32 --depth {}", 19),
    _edge("witness --n 5 --k-max {} --depth 8", 28),
    _edge("witness --n 2 --k-max {} --depth 6", 67),
    _edge("scan --n 2 --rank 8 --radius 5 --iters {} --seed 1 --unitaries " + ",".join(["a1"] * 2000), 43),
    _edge("witness --n 2 --k-max {} --formula-only", 279620),
    _edge("group --group abelian:{} --radius 0 --mode exhaustive", 977),  # the d^2 integers of Z^d's generators
]


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--group", "abelian:30", "--radius", "40", "--mode", "search", "--seed", "1"],
        # frame ranks past the dimension their ball can span, |ball(F_2, radius - 1)| for audit
        ["audit", "--rank", "3", "--radius", "1", "--seed", "1", "--frames", "1"],
        ["audit", "--rank", "6", "--radius", "2", "--seed", "1", "--frames", "1"],
        ["audit", "--rank", "200", "--radius", "5", "--seed", "1", "--frames", "1"],
        ["audit", "--rank", "200", "--radius", "5", "--seed", "1", "--frames", "0"],
        ["scan", "--n", "2", "--rank", "200", "--radius", "5", "--iters", "1", "--seed", "1"],
        # ball families past the budget, of closed forms and of enumerated balls
        ["group", "--group", "free:2", "--radius", "20001", "--mode", "balls"],
        ["group", "--group", "abelian:2", "--radius", "1000", "--mode", "balls"],
        # witness inputs: the same n >= 2, k >= 1, depth >= 1 checks in every mode
        ["witness", "--n", "0", "--k", "2", "--formula-only"],
        ["witness", "--n", "1", "--k", "2", "--formula-only"],
        ["witness", "--n", "2", "--k", "0", "--formula-only"],
        ["witness", "--n", "2", "--k", "2", "--depth", "0", "--formula-only"],
        ["witness", "--n", "2", "--k-max", "0"],
        ["witness", "--n", "2", "--k-max", "0", "--formula-only"],
        # witness frames and formula sweeps far past the budget
        ["witness", "--n", "5", "--k", "32", "--depth", "90"],
        ["witness", "--n", "5", "--k-max", "10000000", "--depth", "8"],
        ["witness", "--n", "2", "--k-max", "10000000", "--formula-only"],
        # negative counts
        ["identity-check", "--trials", "-1", "--seed", "1"],
        ["audit", "--rank", "2", "--radius", "3", "--seed", "1", "--frames", "-1"],
        ["scan", "--n", "2", "--rank", "2", "--radius", "3", "--iters", "-1", "--seed", "1"],
        ["group", "--group", "abelian:2", "--radius", "3", "--mode", "search", "--iters", "-1", "--seed", "1"],
        # audit ranks and radii below 1, refused also when no frame is drawn
        ["audit", "--rank", "0", "--radius", "3", "--seed", "1", "--frames", "0"],
        ["audit", "--rank", "2", "--radius", "0", "--seed", "1", "--frames", "0"],
        # negative seeds, which numpy's generators refuse
        ["group", "--group", "free:2", "--radius", "3", "--mode", "search", "--iters", "5", "--seed", "-1"],
        ["scan", "--n", "2", "--rank", "1", "--radius", "3", "--iters", "1", "--seed", "-5"],
        ["audit", "--rank", "2", "--radius", "3", "--frames", "1", "--seed", "-1"],
        ["identity-check", "--trials", "1", "--seed", "-1"],
    ]
    + [past for _, past in EDGES]
    # an empty generator list, or an empty item in one: never dropped, never the standard generators
    + [["group", "--group", "abelian:2", "--gens", gens, "--radius", "2", "--mode", "balls"]
       for gens in ("(1,0),", "(1,0),,(0,1)", "")]
    + [["scan", "--n", "2", "--rank", "2", "--radius", "3", "--iters", "5", "--seed", "1", "--unitaries", unitaries]
       for unitaries in ("a1,", "")],
)
def test_unbounded_inputs_refused_with_exit_2(argv, monkeypatch, capsys):
    _refuse_balls(monkeypatch)  # refused before any ball is built
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


class BallBuilt(Exception):
    """Raised by a patched builder: the input passed every check made before the build."""


def _refuse_balls(monkeypatch):
    def build(*args):
        raise BallBuilt

    for module in ("boundary", "connes", "paradox"):
        monkeypatch.setattr(f"foelner.{module}.ball", build)
    monkeypatch.setattr("foelner.boundary.ball_size", build)  # ball families in closed form
    monkeypatch.setattr("foelner.connes.prefixed_words", build)  # witness frames
    monkeypatch.setattr("foelner.connes.certificate_formula", build)  # formula sweeps


@pytest.mark.parametrize("argv", [admitted for admitted, _ in EDGES])
def test_counts_at_their_caps_admitted(argv, monkeypatch):
    # each edge (a row of README's caps table) is predicted within both bounds
    predicted = []

    def check(what, *phases, **units):
        predicted.append(real_check(what, *phases, **units))
        return predicted[-1]

    real_check = budget.check
    monkeypatch.setattr(budget, "check", check)
    _refuse_balls(monkeypatch)
    with pytest.raises(BallBuilt):
        main(argv)
    assert predicted
    assert max(s for s, _ in predicted) <= budget.TIME_BOUND_S
    assert max(mb for _, mb in predicted) <= budget.MEMORY_BOUND_MB


@pytest.mark.parametrize(
    "argv",
    [
        argv.split()
        for argv in (
            # README's commands
            "group --group free:2 --radius 2 --mode exhaustive",
            "group --group free:2 --radius 12 --mode balls --format csv",
            "group --group abelian:2 --radius 12 --mode search --iters 10000 --seed 2",
            "witness --n 2 --k 8 --depth 6",
            "witness --n 2 --k-max 10000 --formula-only --format csv",
            "scan --n 2 --rank 8 --radius 5 --iters 10000 --seed 42",
            "audit --rank 8 --radius 5 --seed 1 --frames 100 --paper-mode",
            "identity-check --trials 100 --seed 1",
            # the benchmark's other jobs
            "group --group free:2 --radius 12 --mode balls",
            "group --group abelian:2 --radius 20 --mode search --iters 20000 --seed 1",
            "scan --n 2 --rank 8 --radius 5 --iters 10000 --seed 1",
            "witness --n 2 --k-max 30 --depth 6",
            # the acceptance suite's inputs, and the CLI forms of its library calls
            "group --group abelian:2 --radius 10 --mode search --iters 500 --seed 6",
            "group --group free:2 --radius 8 --mode balls --format csv",
            "witness --n 3 --k-max 64 --formula-only",
            "scan --n 2 --rank 3 --radius 4 --iters 60 --seed 11",
            "audit --rank 3 --radius 4 --seed 12 --frames 5 --paper-mode",
            "identity-check --trials 8 --seed 13",
            "witness --n 5 --k 32 --depth 6",
            "group --group abelian:2 --radius 20 --mode search --iters 40000 --seed 2",
            # the 100,000-iteration searches README has timed since before the budget
            *(f"group --group {g} --radius {r} --mode search --iters 100000 --seed 1" for g, r in (
                ("abelian:9", 6), ("abelian:5", 13), ("abelian:4", 22), ("free:4", 6), ("abelian:3", 52),
                ("free:1", 1413), ("abelian:2", 300), ("abelian:1", 99999))),
            # audit's frames edges at its largest ranks on ball(F_2, 5), whose 485 words they can span
            "audit --rank 485 --radius 6 --seed 1 --frames 6",
            "audit --rank 400 --radius 6 --seed 1 --frames 10",
        )
    ],
)
def test_inputs_at_the_caps_reach_the_build(argv, monkeypatch):
    # inputs that must stay admitted pass every check made before the build
    _refuse_balls(monkeypatch)
    with pytest.raises(BallBuilt):
        main(argv)


def test_scan_charges_its_parsed_unitaries(monkeypatch):
    # "a1.A1.a1" is the one-letter word a1: the charge is taken from the parsed words, not the text
    charged = []
    real_check = budget.check
    monkeypatch.setattr(budget, "check", lambda what, *phases, **units: charged.append(real_check(what, *phases, **units)))
    _refuse_balls(monkeypatch)
    for unitaries in ("a1.A1.a1", "a1"):
        with pytest.raises(BallBuilt):
            main(["scan", "--n", "2", "--rank", "2", "--radius", "3", "--iters", "5", "--seed", "1", "--unitaries", unitaries])
    assert charged[0] == charged[1]


def test_audit_at_its_rank_edge_runs(tmp_path):
    # the budget is the only size policy: audit's rank edge on ball(F_2, 6) (EDGES) runs,
    # with its 299 x 299 compressions through svd_small
    code, raw = run_cli(["audit", "--rank", "299", "--radius", "7", "--seed", "1", "--frames", "1"], tmp_path)
    assert code == 0
    assert json.loads(raw)["results"]["frames_evaluated"] == 1


@pytest.mark.parametrize("argv", [past for _, past in EDGES])
def test_one_step_past_each_edge_refused_before_building(argv, monkeypatch, capsys):
    _refuse_balls(monkeypatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "predicted to" in err or "decimal digits" in err
    assert "audit of" in err if argv[0] == "audit" else True  # audit's message names its whole cost


# ---------------------------------------------------------------------------
# The library runs of the five commands, which check and charge their inputs themselves.

# each command's run and the options it takes, in order
LIBRARY_RUNS = {
    "group": (foelner.boundary.group_run, "group gens radius mode iters seed"),
    "witness": (foelner.connes.witness_run, "n k depth k_max formula_only"),
    "scan": (foelner.connes.scan_run, "n rank radius iters seed unitaries"),
    "audit": (foelner.paradox.audit, "rank radius seed frames"),
    "identity-check": (foelner.connes.identity_check, "trials seed"),
}


def _library_args(argv: list) -> tuple:
    """The arguments of the library run of a command line."""
    args = build_parser().parse_args(argv)
    return tuple(getattr(args, name) for name in LIBRARY_RUNS[args.command][1].split())


def _library_run(command: str, args: tuple) -> dict:
    return LIBRARY_RUNS[command][0](*args)


@pytest.mark.parametrize(
    "argv",
    [
        argv.split()
        for argv in (
            "group --group free:2 --radius 2 --mode exhaustive",
            "group --group abelian:2 --radius 5 --mode balls",
            "group --group free:2 --radius 8 --mode balls",
            "group --group free:2 --gens a1.a2,A1 --radius 3 --mode balls",
            "group --group free:2 --gens a1 --radius 2 --mode exhaustive",  # a proper subgroup
            "group --group abelian:2 --gens (0,0),(1,0) --radius 2 --mode balls",  # the identity beside a mover
            "group --group abelian:2 --radius 10 --mode search --iters 500 --seed 6",
            "group --group free:2 --radius 2 --mode exhaustive --iters -1 --seed -4",  # read by the search only
            "witness --n 2 --k 8 --depth 6",
            "witness --n 2 --k 3 --formula-only",
            "witness --n 2 --k-max 30 --depth 6",
            "witness --n 3 --k-max 64 --formula-only",
            "witness --n 2 --k 0 --k-max 3",  # a sweep reads no --k
            "scan --n 2 --rank 3 --radius 4 --iters 60 --seed 11",
            "scan --n 2 --rank 1 --radius 3 --iters 5 --seed 2 --unitaries a1.a2,A2",
            "audit --rank 8 --radius 5 --seed 1 --frames 100",
            "identity-check --trials 100 --seed 1",
        )
    ],
    ids=lambda argv: argv[0],
)
def test_library_run_is_the_commands_results(argv, tmp_path):
    code, raw = run_cli(argv, tmp_path)
    assert code == 0
    results = _library_run(argv[0], _library_args(argv))
    assert json.dumps(results, sort_keys=True) == json.dumps(json.loads(raw)["results"], sort_keys=True)


@pytest.mark.parametrize(
    "command, args, error",
    [
        ("audit", (8, 5, None, 1), SeedRequired),
        ("audit", (8, 5, -1, 1), PreconditionError),
        ("audit", (8, 5, 1, -1), PreconditionError),
        ("audit", (0, 5, 1, 0), PreconditionError),  # a rank or radius below 1, also with no frame drawn
        ("audit", (2, 0, 1, 0), PreconditionError),
        ("audit", (162, 5, 1, 0), PreconditionError),  # a rank past |ball(F_2, 4)| = 161
        ("identity-check", (1, None), SeedRequired),
        ("identity-check", (1, -1), PreconditionError),
        ("identity-check", (-1, 1), PreconditionError),
    ]
    + [(past[0], _library_args(past), SearchSpaceTooLarge) for _, past in EDGES]
    + [
        ("group", ("free:2", None, 3, "search", 5, None), SeedRequired),
        ("group", ("free:2", None, 3, "search", -1, 1), PreconditionError),
        ("group", ("free:2", "a1,", 3, "balls", 0, None), PreconditionError),  # an empty generator item
        ("group", ("braid:3", None, 3, "balls", 0, None), PreconditionError),
        ("group", ("free:2", None, 3, "huge", 0, None), PreconditionError),
        ("witness", (1, 2, 6, None, False), PreconditionError),
        ("witness", (2, 2, 0, None, True), PreconditionError),  # the depth a frame build checks, with no frame built
        ("witness", (2, 8, 6, 0, True), PreconditionError),
        ("scan", (2, 1, 3, 5, None, None), SeedRequired),
        ("scan", (2, 1, 3, 5, 1, ""), PreconditionError),
        ("scan", (2, 1, 1, 5, 1, "a1.a2"), PreconditionError),  # an ambient radius below the unitaries' length
        # generators that are all the identity, so no set has a boundary
        ("group", ("free:2", "e", 2, "exhaustive", 0, None), PreconditionError),
        ("group", ("free:2", "a1.A1", 2, "balls", 0, None), PreconditionError),
        ("group", ("abelian:2", "(0,0)", 2, "search", 5, 1), PreconditionError),
        ("group", ("abelian:2", "(0,0),(0,0)", 2, "exhaustive", 0, None), PreconditionError),
    ],
)
def test_library_run_refuses_before_building(command, args, error, monkeypatch):
    _refuse_balls(monkeypatch)
    with pytest.raises(error):
        _library_run(command, args)


@pytest.mark.parametrize("argv", [admitted for admitted, _ in EDGES])
def test_library_run_admits_its_edges(argv, monkeypatch):
    _refuse_balls(monkeypatch)
    with pytest.raises(BallBuilt):
        _library_run(argv[0], _library_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        # tables of translates past the budget: 199,998 generators times 199,999 words,
        # and the 4,372 words of ball(F_2, 7) other than e times that ball
        ["group", "--group", "free:99999", "--radius", "1", "--mode", "search", "--iters", "1", "--seed", "1"],
        ["group", "--group", "free:2", "--radius", "7", "--mode", "search", "--iters", "1", "--seed", "1", "--gens",
         ",".join(format_word(w) for w in words_of(free_group(2), ball(free_group(2), 7)) if not w.is_identity)],
        # scan's cost counts its parsed unitaries: 2,000 of them at rank 8 on 161 rows
        # are past the time bound at 44 iterations
        ["scan", "--n", "2", "--rank", "8", "--radius", "5", "--iters", "100000", "--seed", "1", "--unitaries",
         ",".join(["a1"] * 2000)],
        ["scan", "--n", "2", "--rank", "8", "--radius", "5", "--iters", "44", "--seed", "1", "--unitaries",
         ",".join(["a1"] * 2000)],
        # the direct routes of scan's final check, about (2 rows)^2 tile entries per unitary:
        # 99,999 unitaries on ball(F_99999, 1) (whose row gathers are also past the bound),
        # 2 on ball(F_2, 10) and 860 on ball(F_860, 1)
        ["scan", "--n", "99999", "--rank", "1", "--radius", "2", "--iters", "0", "--seed", "1"],
        ["scan", "--n", "2", "--rank", "1", "--radius", "11", "--iters", "1", "--seed", "1"],
        ["scan", "--n", "860", "--rank", "1", "--radius", "2", "--iters", "0", "--seed", "1"],
        # ball families past the budget: the 224,143 words of ball(Z^9, 7), 9 integers each,
        # and the table of the 4,372 words of ball(F_2, 7) other than e
        ["group", "--group", "abelian:9", "--radius", "7", "--mode", "balls"],
        ["group", "--group", "free:2", "--radius", "7", "--mode", "balls", "--gens",
         ",".join(format_word(w) for w in words_of(free_group(2), ball(free_group(2), 7)) if not w.is_identity)],
    ],
)
def test_large_tables_and_checks_refused_before_building(argv, monkeypatch, capsys):
    _refuse_balls(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, builder",
    [
        # F_1 balls whose letters are past the memory bound
        (["group", "--group", "free:1", "--radius", "99999", "--mode", "search", "--seed", "1"], "words._free_words"),
        (["scan", "--n", "1", "--rank", "1", "--radius", "100000", "--iters", "1", "--seed", "1"], "words._free_words"),
        # subset passes past the time bound
        (["group", "--group", "free:1", "--radius", "99999", "--mode", "exhaustive"], "boundary.ball"),
        (["group", "--group", "abelian:1", "--radius", "99999", "--mode", "exhaustive"], "boundary.ball"),
    ],
)
def test_large_balls_refused_before_building(argv, builder, monkeypatch, capsys):
    def build(*args):
        raise RuntimeError("the ball was built")

    monkeypatch.setattr("foelner." + builder, build)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, products, gathers",
    [
        (["audit", "--rank", "8", "--radius", "5", "--seed", "1", "--frames", "100", "--paper-mode"], 300, 100),
        (["witness", "--n", "2", "--k-max", "30", "--depth", "6"], 90, 30),
        (["identity-check", "--trials", "100", "--seed", "1"], 400, 100),
    ],
)
def test_one_evaluation_per_unitary_and_frame(argv, products, gathers, monkeypatch, tmp_path):
    # one Gram check and one row gather per frame, and one compression per (unitary, frame):
    # L_a and L_b on each audit frame, the two generators on each witness frame,
    # and three unitaries on each identity-check frame
    counts = count_calls(monkeypatch, l2ops, "adjoint_product", "translation_indices")
    code, _ = run_cli(argv, tmp_path)
    assert code == 0
    assert counts == {"adjoint_product": products, "translation_indices": gathers}


def test_huge_abelian_rank_refused_before_allocating():
    # without the memory bound, the 50,000 standard generators of Z^50000 alone hold 2.5e9
    # integers; the address-space limit turns such an allocation into a
    # MemoryError instead of exhausting the machine
    script = textwrap.dedent(
        """
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from foelner.cli import main
        sys.exit(main(["group", "--group", "abelian:50000", "--radius", "1", "--mode", "balls"]))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 2, proc.stderr.decode(errors="replace")[-400:]
    assert b"bounds of" in proc.stderr


def test_convergence_error_maps_to_exit_3(monkeypatch, capsys):
    def boom(cfg):
        raise ConvergenceError("forced")

    monkeypatch.setattr(foelner.cli, "_handler", lambda command: boom)
    code = main(["witness", "--n", "2", "--k", "2", "--depth", "2"])
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err


def test_invariant_violation_maps_to_exit_4(monkeypatch, capsys):
    def boom(cfg):
        raise InvariantViolation("forced")

    monkeypatch.setattr(foelner.cli, "_handler", lambda command: boom)
    code = main(["witness", "--n", "2", "--k", "2", "--depth", "2"])
    assert code == 4
    assert "invariant violated" in capsys.readouterr().err


def test_witness_formula_mismatch_maps_to_exit_4(monkeypatch, capsys):
    # a frame-certified epsilon off the closed form is a failed theorem check, not a bad input
    monkeypatch.setattr(foelner.connes, "certificate_formula", lambda n, k: 1.0)
    code = main(["witness", "--n", "2", "--k", "3", "--depth", "2"])
    assert code == 4
    assert "does not match the formula" in capsys.readouterr().err


def test_run_config_echo_includes_everything():
    payload = run(build_parser().parse_args(["witness", "--n", "2", "--k", "2", "--depth", "2"]), _handler("witness"))
    assert payload["config"]["command"] == "witness"
    assert payload["config"]["n"] == 2
    assert payload["config"]["format"] == "json"
    assert payload["config"]["seed"] is None
    assert "wall" not in json.dumps(payload)


def test_parser_rejects_unknown_mode():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["group", "--group", "free:2", "--radius", "2", "--mode", "huge"])


def test_csv_unavailable_for_non_tabular(capsys):
    code = main(["witness", "--n", "2", "--k", "2", "--depth", "2", "--format", "csv"])
    assert code == 2


def _refuse_work(monkeypatch):
    def work(command):
        raise AssertionError(f"{command} was loaded although its output was to be refused")

    monkeypatch.setattr(foelner.cli, "_handler", work)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--n", "2", "--rank", "8", "--radius", "5", "--iters", "10000", "--seed", "1"],
        ["audit", "--rank", "2", "--radius", "3", "--seed", "1", "--frames", "3"],
        ["identity-check", "--trials", "5", "--seed", "1"],
        ["group", "--group", "free:2", "--radius", "2", "--mode", "exhaustive"],
        ["witness", "--n", "2", "--k", "2", "--depth", "2"],
    ],
)
def test_csv_refused_before_the_run(argv, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    assert main(argv + ["--format", "csv"]) == 2
    assert capsys.readouterr().err.startswith("error: csv output")


def test_out_in_missing_directory_refused_before_the_run(tmp_path, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    code = main(["witness", "--n", "2", "--k", "8", "--out", str(tmp_path / "missing" / "x.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: the directory of --out")


def test_unwritable_out_maps_to_exit_2(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    code = main(["witness", "--n", "2", "--k", "2", "--depth", "2", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_out_on_a_full_device_maps_to_exit_2(capsys):
    # every write to /dev/full fails, so the report fails once its first buffer is flushed,
    # well before its last piece
    argv = ["group", "--group", "abelian:2", "--radius", "10", "--mode", "search", "--iters", "2000", "--seed", "1"]
    assert main(argv + ["--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out /dev/full") and err.count("\n") == 1


def test_out_cut_short_leaves_no_file_and_keeps_the_old_one(tmp_path):
    # a file-size limit of 100 KB in the child cuts the 734 KB report short: the run exits 2,
    # and --out names no file, or still the one it named before
    argv = ["group", "--group", "abelian:2", "--radius", "20", "--mode", "search", "--iters", "20000", "--seed", "1"]
    out = tmp_path / "F"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run_limited():
        limit = (100 * 1024, 100 * 1024)
        return subprocess.run(
            [sys.executable, "-m", "foelner.cli", *argv, "--out", str(out)],
            env=env, capture_output=True, timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, limit),
        )

    proc = run_limited()
    assert proc.returncode == 2 and proc.stderr.startswith(b"error: cannot write --out")
    assert not out.exists()
    out.write_bytes(b"the report before")
    assert run_limited().returncode == 2
    assert out.read_bytes() == b"the report before"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]  # no temporary file left behind


class _WriteRecorder(io.StringIO):
    """A text stream that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def test_report_is_written_in_pieces(monkeypatch):
    # the benchmark's search job: about 734 KB of JSON, none of it held whole
    argv = ["group", "--group", "abelian:2", "--radius", "20", "--mode", "search", "--iters", "20000", "--seed", "1"]
    recorder = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(argv) == 0
    text = recorder.getvalue()
    assert len(text) > 700_000 and max(recorder.writes) <= 64 * 1024
    assert len(recorder.writes) <= 1_000  # batches of encoder tokens, not one write a token or an item
    assert text == json.dumps(run(build_parser().parse_args(argv), _handler("group")), indent=2, sort_keys=True) + "\n"


def test_scan_serializes_its_frame_once(monkeypatch, tmp_path):
    # the payload's "frame" and its fingerprint hash the same columns
    in_connes = count_calls(monkeypatch, foelner.connes, "frame_to_json")
    code, raw = run_cli(["scan", "--n", "2", "--rank", "3", "--radius", "3", "--iters", "50", "--seed", "5"], tmp_path)
    assert code == 0
    assert in_connes["frame_to_json"] == 1
    # and the fingerprint is the one frame_fingerprint builds its own columns for
    F2 = free_group(2)
    frame = anneal_projection(ProjectionSearchConfig(F2, 3, 3, 5, 50, standard_generators(F2))).frame
    assert json.loads(raw)["results"]["frame_fingerprint"] == foelner.connes.frame_fingerprint(frame)


# JSON values as the payloads hold them, and the corners of json.dumps's spelling
TEXT = st.one_of(st.text(), st.sampled_from(['say "hi"', "back\\slash", "\x00\x1f\n\t\x7f", "é ☃ 𝄞", ""]))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=10**60).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e-05, 1e16, 1e-300, 2.5e300, math.nan, math.inf, -math.inf, True, 1, 0, False]),
    TEXT,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=30,
)
DEEP = st.builds(lambda x: {"a": [[{"b": ({"c": [x]},)}]]}, JSON_VALUES)  # nesting of depth 6 and more


@settings(derandomize=True, database=None, max_examples=400)
@given(st.one_of(JSON_VALUES, DEEP))
@example({})
@example([])
@example({"t": True, "o": 1, "l": [True, 1, {}, [], ()], "e": {"": {}}})
@example([[[[[[[0.1]]]]]]])
@example({1: "int keys", 2: [0]})
@example({2.5: True, 1e16: [None], -math.inf: {}})
@example({None: ["null key"]})
def test_render_json_pieces_join_to_json_dumps(value):
    assert "".join(render_json(value)) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["audit", "--rank", "3", "--radius", "4", "--seed", "12", "--frames", "5", "--paper-mode"],
            "e6cf819c979dc9f3656ccc307aef9755c0f467243185dc614c9739aa30e764e4",
        ),
        (
            ["identity-check", "--trials", "8", "--seed", "13"],
            "7eecab7a3d61a0baa0ee66c6241cd1d1cb9607a37c648d3b131f7426c182a98e",
        ),
        (
            ["group", "--group", "abelian:2", "--radius", "6", "--mode", "balls"],  # enumerated family
            "03d2674fae82eadaeaad0f56d4f6f67ca2f02261448770134b886e576133cb5f",
        ),
        (
            ["group", "--group", "free:2", "--radius", "8", "--mode", "balls"],  # closed-form family
            "f3c7c995d685f1cdd2f720cf7b1c5fa4f4c9501eab5f164e8903cc757b61299e",
        ),
        (
            ["group", "--group", "abelian:2", "--radius", "10", "--mode", "search", "--iters", "500", "--seed", "6"],
            "60e4123def239d64f239b34639d4df45ac067d15a589c128d789a7fd5e2ee9fe",
        ),
        (
            ["group", "--group", "free:2", "--radius", "2", "--mode", "exhaustive"],
            "5c03a1d29da89a5d83304e863e6241ddc246ab33af9412ad78942760430dd5dc",
        ),
        (
            ["audit", "--rank", "100", "--radius", "5", "--seed", "1", "--frames", "1"],  # products run whole
            "565357172081d40d6ce7d519d88eff8a7580f375fb77a611ca69c53ee080d9cf",
        ),
        # Z^d generators whose entries fit no integer dtype: their translates leave every ball
        (
            ["group", "--group", "abelian:2", "--radius", "2", "--mode", "search", "--iters", "5", "--seed", "1",
             "--gens", "(99999999999999999999,0)"],
            "d8405aa90e563d47c2d525bee16be77021747f27717dfdeacf6edb90e96b954f",
        ),
        (
            ["group", "--group", "abelian:2", "--radius", "3", "--mode", "search", "--iters", "50", "--seed", "1",
             "--gens", "(99999999999999999999,0),(0,-99999999999999999999),(1,-1),(-3,0)"],
            "44ef405dca3d99d744550c8cf435c2d078f18350ed3e12e65e1596dbc0f62d94",
        ),
        # witness in each of its four branches, scan with and without --unitaries
        (
            ["witness", "--n", "2", "--k", "8", "--depth", "6"],
            "f0ddfefb176e6bf5c644389086b8635944d2f35459cdc3d272998a9426335f00",
        ),
        (
            ["witness", "--n", "2", "--k", "3", "--formula-only"],
            "0d5c34ae647bbf5c1d81e993e2aacfed33036ef6484fa05fa2cc6db158396ed1",
        ),
        (
            ["witness", "--n", "2", "--k-max", "30", "--depth", "6"],
            "a8bcf1076b2ae36206d7b56cbb2dbf64eb98234fca941c8b2d9434108420409e",
        ),
        (
            ["witness", "--n", "3", "--k-max", "64", "--formula-only"],
            "b8a50093f69a2489863685c300bbd7afaf8606a564bbb07ff6c2839ee45a3d03",
        ),
        (
            ["scan", "--n", "2", "--rank", "3", "--radius", "4", "--iters", "60", "--seed", "11"],
            "effaf3fc094a0d7c83b4054b15c40172cb9b02d7a7766c8ab266f43852fc422f",
        ),
        (
            ["scan", "--n", "2", "--rank", "1", "--radius", "3", "--iters", "5", "--seed", "2", "--unitaries", "a1.a2,A2"],
            "f4cac54dd40400e28c8c4537aca23af4ec5cf2d442da74a9c64282063275bc0e",
        ),
    ],
)
def test_payload_pinned(argv, sha256, tmp_path):
    # the --out file of these commands, byte for byte
    code, raw = run_cli(argv, tmp_path)
    assert code == 0
    assert hashlib.sha256(raw).hexdigest() == sha256


# ---------------------------------------------------------------------------
# Fuzzing: every argument tuple ends in a documented exit code.

SMALL = st.integers(-2, 4)
SEED = st.one_of(st.none(), st.integers(0, 3)).map(lambda s: [] if s is None else ["--seed", str(s)])


def _argv(*parts):
    return [str(p) for p in parts]


# Admitted draws that take seconds each run once, as explicit examples of the test below, and are
# kept out of the random draws, which could repeat them.
SLOW_GROUP_ARGV = _argv("group", "--group", "abelian:2", "--radius", 3, "--mode", "exhaustive")  # 2^25 subsets
SLOW_AUDIT_ARGV = _argv("audit", "--rank", 200, "--radius", 6, "--frames", 14, "--seed", 1)

FUZZ_ARGV = st.one_of(
    st.builds(
        lambda group, radius, mode, iters, seed: _argv("group", "--group", group, "--radius", radius, "--mode", mode,
                                                       "--iters", iters) + seed,
        st.sampled_from(["free:0", "free:1", "free:2", "free:3", "abelian:1", "abelian:2", "abelian:3", "abelian:1001"]),
        st.one_of(SMALL, st.just(2001)),
        st.sampled_from(["exhaustive", "balls", "search"]),
        st.integers(-2, 30),
        SEED,
    ).filter(lambda argv: argv[:7] != SLOW_GROUP_ARGV),
    st.builds(
        lambda n, k, depth, k_max, formula: _argv("witness", "--n", n, "--k", k, "--depth", depth)
        + ([] if k_max is None else ["--k-max", str(k_max)]) + (["--formula-only"] if formula else []),
        SMALL,
        SMALL,
        SMALL,
        st.one_of(st.none(), SMALL),
        st.booleans(),
    ),
    st.sampled_from(
        [
            _argv("witness", "--n", 5, "--k", 32, "--depth", 9),
            _argv("witness", "--n", 5, "--k-max", 19, "--depth", 8),
            _argv("witness", "--n", 2, "--k-max", 100_001, "--formula-only"),
            _argv("group", "--group", "abelian:2", "--radius", 3, "--mode", "search", "--iters", 100_001, "--seed", 1),
            _argv("identity-check", "--trials", 20_001, "--seed", 1),
            _argv("scan", "--n", 1, "--rank", 1, "--radius", 2, "--iters", 200_001, "--seed", 1),
            _argv("scan", "--n", 2, "--rank", 8, "--radius", 5, "--iters", 104_207, "--seed", 1),
            _argv("audit", "--rank", 1, "--radius", 1, "--frames", 2_001, "--seed", 1),
            _argv("audit", "--rank", 400, "--radius", 7, "--frames", 1, "--seed", 1),
        ]
    ),
    st.builds(
        lambda n, rank, radius, iters, seed: _argv("scan", "--n", n, "--rank", rank, "--radius", radius,
                                                   "--iters", iters) + seed,
        st.integers(-1, 3),
        SMALL,
        SMALL,
        st.integers(-2, 20),
        SEED,
    ),
    st.builds(
        lambda rank, radius, frames, paper, seed: _argv("audit", "--rank", rank, "--radius", radius, "--frames", frames)
        + (["--paper-mode"] if paper else []) + seed,
        SMALL,
        SMALL,
        st.integers(-2, 3),
        st.booleans(),
        SEED,
    ),
    st.builds(lambda trials, seed: _argv("identity-check", "--trials", trials) + seed, st.integers(-2, 3), SEED),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(FUZZ_ARGV)
@example(SLOW_GROUP_ARGV)
@example(SLOW_AUDIT_ARGV)
def test_cli_fuzz_exit_codes(argv):
    try:
        code = main(argv + ["--out", os.devnull])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    assert code in (0, 2, 3), argv


# Generator text: parenthesised entries over "-0123 ", well formed or not.  Its own test, since a
# branch of FUZZ_ARGV would change which examples the derandomized run above draws.
GENS_ARGV = st.builds(
    lambda group, parts, radius: _argv("group", "--group", group, "--gens", "(" + ",".join(parts) + ")",
                                       "--radius", radius, "--mode", "balls"),
    st.sampled_from(["abelian:1", "abelian:2", "abelian:3"]),
    st.lists(st.text("-0123 ", max_size=3), min_size=1, max_size=3),
    SMALL,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=timedelta(seconds=5))
@given(GENS_ARGV)
def test_cli_fuzz_generator_text_exit_codes(argv):
    try:
        code = main(argv + ["--out", os.devnull])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    assert code in (0, 2), argv
