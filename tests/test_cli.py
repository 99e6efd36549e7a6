"""CLI behavior: schemas, determinism, exit codes."""

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

import foelner.cli
import foelner.connes
from foelner import l2ops
from foelner.cli import _HANDLERS, _check_counts, build_parser, main, render_json, run
from foelner.connes import ProjectionSearchConfig, anneal_projection
from foelner.errors import ConvergenceError, InvariantViolation
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


def test_group_search_seed_required(tmp_path, capsys):
    code = main(["group", "--group", "abelian:2", "--radius", "4", "--mode", "search"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_group_bad_spec(tmp_path, capsys):
    code = main(["group", "--group", "braid:3", "--radius", "2", "--mode", "exhaustive"])
    assert code == 2


def test_exhaustive_cap_exit_code(capsys):
    code = main(["group", "--group", "free:2", "--radius", "3", "--mode", "exhaustive"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


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


def test_scan_seed_required(capsys):
    code = main(["scan", "--n", "2", "--rank", "3", "--radius", "3", "--iters", "10"])
    assert code == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--rank", "3", "--radius", "1", "--seed", "1", "--frames", "1"],
        ["audit", "--rank", "6", "--radius", "2", "--seed", "1", "--frames", "1"],
        ["group", "--group", "abelian:30", "--radius", "40", "--mode", "search", "--seed", "1"],
        # ball families past boundary.FAMILY_RADIUS_CAP, and enumerated ones whose
        # ball(radius) exceeds words.ENUMERATION_CAP: ball(Z^2, 316) has 200,345 elements
        ["group", "--group", "free:2", "--radius", "2001", "--mode", "balls"],
        ["group", "--group", "abelian:2", "--radius", "316", "--mode", "balls"],
        # witness inputs: the same n >= 2, k >= 1, depth >= 1 checks in every mode
        ["witness", "--n", "0", "--k", "2", "--formula-only"],
        ["witness", "--n", "1", "--k", "2", "--formula-only"],
        ["witness", "--n", "2", "--k", "0", "--formula-only"],
        ["witness", "--n", "2", "--k", "2", "--depth", "0", "--formula-only"],
        ["witness", "--n", "2", "--k-max", "0"],
        ["witness", "--n", "2", "--k-max", "0", "--formula-only"],
        # just past connes.WITNESS_WORK_CAP, for one frame and for a sweep, and
        # just past connes.FORMULA_K_MAX_CAP
        ["witness", "--n", "5", "--k", "32", "--depth", "9"],
        ["witness", "--n", "5", "--k-max", "19", "--depth", "8"],
        ["witness", "--n", "2", "--k-max", "100001", "--formula-only"],
        # negative counts
        ["identity-check", "--trials", "-1", "--seed", "1"],
        ["audit", "--rank", "2", "--radius", "3", "--seed", "1", "--frames", "-1"],
        ["scan", "--n", "2", "--rank", "2", "--radius", "3", "--iters", "-1", "--seed", "1"],
        ["group", "--group", "abelian:2", "--radius", "3", "--mode", "search", "--iters", "-1", "--seed", "1"],
        # counts just past the cli caps: the count caps, then the work caps
        # count * rank^2 * |ball(radius - 1)| of scan (rank 8 on 161 rows) and
        # audit (rank 200 on 485 rows)
        ["group", "--group", "abelian:2", "--radius", "3", "--mode", "search", "--iters", "100001", "--seed", "1"],
        ["identity-check", "--trials", "20001", "--seed", "1"],
        ["scan", "--n", "1", "--rank", "1", "--radius", "2", "--iters", "200001", "--seed", "1"],
        ["audit", "--rank", "1", "--radius", "1", "--seed", "1", "--frames", "2001"],
        ["scan", "--n", "2", "--rank", "8", "--radius", "5", "--iters", "104207", "--seed", "1"],
        ["audit", "--rank", "200", "--radius", "6", "--seed", "1", "--frames", "14"],
        # an audit rank past l2ops.SVD_MAX_K, refused before any frame is drawn
        ["audit", "--rank", "400", "--radius", "7", "--seed", "1", "--frames", "1"],
        # audit ranks and radii below 1, refused also when no frame is drawn
        ["audit", "--rank", "0", "--radius", "3", "--seed", "1", "--frames", "0"],
        ["audit", "--rank", "2", "--radius", "0", "--seed", "1", "--frames", "0"],
        # negative seeds, which numpy's generators refuse
        ["group", "--group", "free:2", "--radius", "3", "--mode", "search", "--iters", "5", "--seed", "-1"],
        ["scan", "--n", "2", "--rank", "1", "--radius", "3", "--iters", "1", "--seed", "-5"],
        ["audit", "--rank", "2", "--radius", "3", "--frames", "1", "--seed", "-1"],
        ["identity-check", "--trials", "1", "--seed", "-1"],
    ],
)
def test_unbounded_inputs_refused_with_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


AT_THE_CAPS = [
    ["group", "--group", "abelian:2", "--radius", "3", "--mode", "search", "--iters", "100000", "--seed", "1"],
    ["identity-check", "--trials", "20000", "--seed", "1"],
    ["scan", "--n", "1", "--rank", "1", "--radius", "2", "--iters", "200000", "--seed", "1"],
    ["audit", "--rank", "1", "--radius", "1", "--seed", "1", "--frames", "2000"],
    ["scan", "--n", "2", "--rank", "8", "--radius", "5", "--iters", "104206", "--seed", "1"],
    ["audit", "--rank", "200", "--radius", "6", "--seed", "1", "--frames", "13"],
    ["audit", "--rank", "256", "--radius", "7", "--seed", "1", "--frames", "2"],
]


@pytest.mark.parametrize("argv", AT_THE_CAPS)
def test_counts_at_their_caps_admitted(argv):
    _check_counts(build_parser().parse_args(argv))  # checks only; runs nothing


class BallBuilt(Exception):
    """Raised by a patched ball(): the input passed every check made before the build."""


def _refuse_balls(monkeypatch):
    def build(*args):
        raise BallBuilt

    for module in ("boundary", "connes", "paradox"):
        monkeypatch.setattr(f"foelner.{module}.ball", build)


@pytest.mark.parametrize(
    "argv",
    AT_THE_CAPS
    + [
        # the slowest admitted inputs of README's caps table
        ["group", "--group", "abelian:9", "--radius", "6", "--mode", "search", "--iters", "100000", "--seed", "1"],
        ["group", "--group", "abelian:2", "--radius", "300", "--mode", "search", "--iters", "100000", "--seed", "1"],
        ["group", "--group", "abelian:1", "--radius", "99999", "--mode", "search", "--iters", "100000", "--seed", "1"],
        ["group", "--group", "free:1", "--radius", "1413", "--mode", "search", "--iters", "100000", "--seed", "1"],
        ["scan", "--n", "2", "--rank", "150", "--radius", "7", "--iters", "32", "--seed", "1"],
        ["scan", "--n", "2", "--rank", "8", "--radius", "5", "--iters", "104", "--seed", "1", "--unitaries",
         ",".join(["a1"] * 2000)],
        # enumerated ball families read every radius off the one table of ball(radius)
        ["group", "--group", "abelian:2", "--radius", "66", "--mode", "balls"],
        ["group", "--group", "abelian:2", "--radius", "315", "--mode", "balls"],
        ["group", "--group", "abelian:4", "--radius", "22", "--mode", "balls"],
        ["group", "--group", "abelian:9", "--radius", "6", "--mode", "balls"],
    ],
)
def test_inputs_at_the_caps_reach_the_build(argv, monkeypatch):
    _refuse_balls(monkeypatch)
    with pytest.raises(BallBuilt):
        main(argv)


@pytest.mark.parametrize(
    "argv",
    [
        # tables of translates past words.TABLE_CAP: 199,998 generators times 199,999 words,
        # and the 4,372 words of ball(F_2, 7) other than e times that ball
        ["group", "--group", "free:99999", "--radius", "1", "--mode", "search", "--iters", "1", "--seed", "1"],
        ["group", "--group", "free:2", "--radius", "7", "--mode", "search", "--iters", "1", "--seed", "1", "--gens",
         ",".join(format_word(w) for w in words_of(free_group(2), ball(free_group(2), 7)) if not w.is_identity)],
        # scan's work cap counts the unitaries: 2,000 of them at rank 8 on 161 rows
        # admit 104 iterations
        ["scan", "--n", "2", "--rank", "8", "--radius", "5", "--iters", "100000", "--seed", "1", "--unitaries",
         ",".join(["a1"] * 2000)],
        ["scan", "--n", "2", "--rank", "8", "--radius", "5", "--iters", "105", "--seed", "1", "--unitaries",
         ",".join(["a1"] * 2000)],
        # the direct route of scan's final check, unitaries * rank * rows^2: 99,999 * 199,999^2
        # on ball(F_99999, 1) (whose row gathers would also exceed words.TABLE_CAP),
        # 2 * 118,097^2 on ball(F_2, 10) and 860 * 1,721^2 on ball(F_860, 1)
        ["scan", "--n", "99999", "--rank", "1", "--radius", "2", "--iters", "0", "--seed", "1"],
        ["scan", "--n", "2", "--rank", "1", "--radius", "11", "--iters", "1", "--seed", "1"],
        ["scan", "--n", "860", "--rank", "1", "--radius", "2", "--iters", "0", "--seed", "1"],
        # tables of translates of ball families past words.TABLE_CAP: 18 translations of the
        # 224,143 words of ball(Z^9, 7), and the 4,372 words of ball(F_2, 7) other than e
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
        # F_1 balls under the element cap that store more than words.LETTER_CAP letters
        (["group", "--group", "free:1", "--radius", "99999", "--mode", "search", "--seed", "1"], "words._free_words"),
        (["scan", "--n", "1", "--rank", "1", "--radius", "100000", "--iters", "1", "--seed", "1"], "words._free_words"),
        # balls past boundary.EXHAUSTIVE_BALL_CAP
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
        (["audit", "--rank", "8", "--radius", "5", "--seed", "1", "--frames", "100", "--paper-mode"], 300, 200),
        (["witness", "--n", "2", "--k-max", "30", "--depth", "6"], 90, 60),
        (["identity-check", "--trials", "100", "--seed", "1"], 400, 300),
    ],
)
def test_one_evaluation_per_unitary_and_frame(argv, products, gathers, monkeypatch, tmp_path):
    # one Gram check per frame, and one row gather and compression per (unitary, frame):
    # L_a and L_b on each audit frame, the two generators on each witness frame,
    # and three unitaries on each identity-check frame
    counts = count_calls(monkeypatch, l2ops, "adjoint_product", "translation_indices")
    code, _ = run_cli(argv, tmp_path)
    assert code == 0
    assert counts == {"adjoint_product": products, "translation_indices": gathers}


def test_huge_abelian_rank_refused_before_allocating():
    # without a cap, the 50,000 standard generators of Z^50000 alone hold 2.5e9
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
    assert b"cap" in proc.stderr


def test_convergence_error_maps_to_exit_3(monkeypatch, capsys):
    def boom(cfg):
        raise ConvergenceError("forced")

    monkeypatch.setitem(_HANDLERS, "witness", boom)
    code = main(["witness", "--n", "2", "--k", "2", "--depth", "2"])
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err


def test_invariant_violation_maps_to_exit_4(monkeypatch, capsys):
    def boom(cfg):
        raise InvariantViolation("forced")

    monkeypatch.setitem(_HANDLERS, "witness", boom)
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
    payload = run(build_parser().parse_args(["witness", "--n", "2", "--k", "2", "--depth", "2"]))
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
    def work(cfg):
        raise AssertionError(f"{cfg.command} ran although its output was to be refused")

    for command in _HANDLERS:
        monkeypatch.setitem(_HANDLERS, command, work)


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
    assert text == json.dumps(run(build_parser().parse_args(argv)), indent=2, sort_keys=True) + "\n"


def test_scan_serializes_its_frame_once(monkeypatch, tmp_path):
    # the payload's "frame" and its fingerprint hash the same columns
    in_cli = count_calls(monkeypatch, foelner.cli, "frame_to_json")
    in_connes = count_calls(monkeypatch, foelner.connes, "frame_to_json")
    code, raw = run_cli(["scan", "--n", "2", "--rank", "3", "--radius", "3", "--iters", "50", "--seed", "5"], tmp_path)
    assert code == 0
    assert in_cli["frame_to_json"] + in_connes["frame_to_json"] == 1
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


FUZZ_ARGV = st.one_of(
    st.builds(
        lambda group, radius, mode, iters, seed: _argv("group", "--group", group, "--radius", radius, "--mode", mode,
                                                       "--iters", iters) + seed,
        st.sampled_from(["free:0", "free:1", "free:2", "free:3", "abelian:1", "abelian:2", "abelian:3", "abelian:1001"]),
        st.one_of(SMALL, st.just(2001)),
        st.sampled_from(["exhaustive", "balls", "search"]),
        st.integers(-2, 30),
        SEED,
    ),
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
            _argv("audit", "--rank", 200, "--radius", 6, "--frames", 14, "--seed", 1),
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
def test_cli_fuzz_exit_codes(argv):
    try:
        code = main(argv + ["--out", os.devnull])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    assert code in (0, 2, 3), argv
