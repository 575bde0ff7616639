from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

import pytest

from cpl import cli, evalharness
from cpl.core import (
    Library,
    ProofScript,
    TheoremStatement,
    load_library,
    read_json_lines,
    save_library,
)
from cpl.evalharness import check_run, same_run
from cpl.events import read_events
from cpl.gateway import ChatRequest, ChatResponse, Exchange, Gateway, read_transcript
from cpl.prompts import PROVER_FALSE_PROMPT, PROVER_PROMPT
from cpl.verifier import Diagnostic, VerifierStartupError

FIXTURES = Path(__file__).parent / "fixtures"
DEMO_CONFIG = FIXTURES / "cpl_demo" / "config.json"
SEED = "import Mathlib\n"


def write_replay(dir_path: Path, role: str, responses: list[str]) -> None:
    """Append one transcript line per response to `dir_path`'s transcript,
    as a run that made these calls would have."""
    dir_path.mkdir(parents=True, exist_ok=True)
    with open(dir_path / "transcript.jsonl", "a", encoding="utf-8") as handle:
        for text in responses:
            line = {"role_id": role, "response": {"text": text}, "error": None}
            handle.write(json.dumps(line) + "\n")


def small_library(path: Path) -> Library:
    lib = Library(seed_source=SEED)
    for i in range(2):
        lib = lib.append(
            TheoremStatement.from_source(f"theorem c{i} : {i} = {i} := sorry"),
            ProofScript(f"by tac{i}"),
            "fixture",
            "1970-01-01T00:00:00+00:00",
        )
    save_library(lib, path)
    return lib


def test_run_demo_and_analyze(tmp_path, capsys):
    out = tmp_path / "run"
    assert (
        cli.main(
            ["run", "--mode", "cpl", "--config", str(DEMO_CONFIG), "--out", str(out)]
        )
        == 0
    )
    assert (out / "library.lean").exists()
    assert (out / "events.jsonl").exists()
    assert (out / "transcript.jsonl").exists()
    run_report = json.loads((out / "report.json").read_text(encoding="utf-8"))

    assert (
        cli.main(
            [
                "analyze",
                "histogram",
                "--library",
                str(out / "library.lean"),
                "--bin",
                "10",
                "--csv",
                str(tmp_path / "hist.csv"),
            ]
        )
        == 0
    )
    captured = capsys.readouterr().out
    assert "bin width=10" in captured
    csv_text = (tmp_path / "hist.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("bin_start,bin_end,count,metric")

    assert cli.main(["analyze", "report", "--run-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["run"]["theorems_added"] == 4
    # the run's own keys survive the analysis
    assert report["config"] == run_report["config"]
    assert report["gateway_calls"] == run_report["gateway_calls"]


@pytest.mark.parametrize("flag", [["--max-trials", "0"], ["--budget", "0"], ["--loops", "-2"]])
def test_a_run_flag_no_run_can_use_exits_2_and_leaves_the_run_directory_as_it_was(
    tmp_path, capsys, flag
):
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(DEMO_CONFIG), "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert cli.main(["run", "--config", str(DEMO_CONFIG), "--out", str(out), *flag]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_run_loops_flag_overrides_config(tmp_path):
    out = tmp_path / "short"
    code = cli.main(
        [
            "run",
            "--mode",
            "cpl",
            "--config",
            str(DEMO_CONFIG),
            "--loops",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["loops"] == 1
    assert report["library_entries"] == 2  # only loop 1's appends


def test_run_missing_seed_errors(tmp_path):
    code = cli.main(
        ["run", "--mode", "cpl", "--seed", str(tmp_path / "nope.lean"),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_simple_loop_via_cli(tmp_path):
    seed_path = tmp_path / "seed.lean"
    seed_path.write_text(SEED, encoding="utf-8")
    replay = tmp_path / "replay"
    write_replay(
        replay,
        "simple_loop",
        ["theorem s0 : 0 = 0 := by rfl", "theorem s1 : 1 = 1 := by rfl"],
    )
    verifier_fixture = tmp_path / "verifier.json"
    verifier_fixture.write_text(
        json.dumps({"defaults": {"verify_proof": "verified"}}), encoding="utf-8"
    )
    out = tmp_path / "out"
    code = cli.main(
        [
            "run",
            "--mode",
            "simple-loop",
            "--seed",
            str(seed_path),
            "--loops",
            "2",
            "--replay",
            str(replay),
            "--verifier-fixtures",
            str(verifier_fixture),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = (out / "library.lean").read_text(encoding="utf-8")
    assert "theorem s0" in text and "theorem s1" in text
    assert "simple_loop" in text  # provenance marker


def test_run_takes_its_mode_from_the_config_unless_mode_is_given(tmp_path):
    seed_path = tmp_path / "seed.lean"
    seed_path.write_text(SEED, encoding="utf-8")
    replay = tmp_path / "replay"
    write_replay(replay, "simple_loop", ["theorem s0 : 0 = 0 := by rfl"])
    verifier_fixture = tmp_path / "verifier.json"
    verifier_fixture.write_text(
        json.dumps({"defaults": {"verify_proof": "verified"}}), encoding="utf-8"
    )
    simple = tmp_path / "simple.json"
    simple.write_text(
        json.dumps(
            {
                "mode": "simple_loop",
                "seed_path": str(seed_path),
                "loops": 1,
                "replay_dir": str(replay),
                "verifier_fixtures": str(verifier_fixture),
                "clock": "fixed",
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "simple"
    assert cli.main(["run", "--config", str(simple), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["mode"] == "simple_loop"
    assert [e.provenance for e in load_library(out / "library.lean").entries] == ["simple_loop"]

    # An explicit --mode overrides the file's.
    demo = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    for name in ("seed_path", "replay_dir", "verifier_fixtures"):
        demo[name] = str((DEMO_CONFIG.parent / demo[name]).resolve())
    demo["mode"] = "simple_loop"
    config = tmp_path / "demo.json"
    config.write_text(json.dumps(demo), encoding="utf-8")
    reference, out = tmp_path / "reference", tmp_path / "cpl"
    assert cli.main(["run", "--config", str(DEMO_CONFIG), "--out", str(reference)]) == 0
    assert cli.main(["run", "--config", str(config), "--mode", "cpl", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["mode"] == "cpl"
    for name in ("library.lean", "events.jsonl"):
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name


def test_reprove_all_via_cli(tmp_path):
    library_path = tmp_path / "library.lean"
    small_library(library_path)
    replay = tmp_path / "replay"
    write_replay(replay, "prover", ["by re0", "by re1"])
    verifier_fixture = tmp_path / "verifier.json"
    verifier_fixture.write_text(
        json.dumps(
            {
                "checks": [
                    {
                        "op": "verify_proof",
                        "statement": "0 = 0",
                        "proof": "by re0",
                        "verdict": "verified",
                    },
                    {
                        "op": "verify_proof",
                        "statement": "1 = 1",
                        "proof": "by re1",
                        "verdict": "verified",
                    },
                ]
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = cli.main(
        [
            "reprove-all",
            "--library",
            str(library_path),
            "--mode",
            "with_context",
            "--replay",
            str(replay),
            "--verifier-fixtures",
            str(verifier_fixture),
            "--max-trials",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(
        (out / "reprove_with_context.json").read_text(encoding="utf-8")
    )
    assert report["success_count"] == 2
    assert report["success_rate"]["percent"] == "100%"


def test_reprove_focused_via_cli(tmp_path):
    library_path = tmp_path / "library.lean"
    small_library(library_path)
    statement_path = tmp_path / "statement.lean"
    statement_path.write_text(
        "theorem focus : 9 = 9 := sorry\n", encoding="utf-8"
    )
    replay = tmp_path / "replay"
    write_replay(replay, "prover", ["", "", ""])
    out = tmp_path / "out"
    code = cli.main(
        [
            "reprove-focused",
            "--statement",
            str(statement_path),
            "--library",
            str(library_path),
            "--prefix",
            "1",
            "--n",
            "3",
            "--replay",
            str(replay),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "reprove_focused.json").read_text(encoding="utf-8"))
    assert report["total"] == 3
    assert report["breakdown"]["declared_unprovable"] == 3
    assert report["mode"] == "focused[1 entries]"


@pytest.mark.parametrize(
    "options, message",
    [
        (["--prefix", "-1"], "--prefix is -1; the library has 2 entries"),
        (["--prefix", "3"], "--prefix is 3; the library has 2 entries"),
        (["--n", "0"], "--n is 0; a focused campaign runs at least once"),
        (["--n", "-2"], "--n is -2; a focused campaign runs at least once"),
        (["--no-library", "--prefix", "0"], "--prefix needs --library, the entries it counts"),
    ],
)
def test_reprove_focused_refuses_a_prefix_outside_the_library_or_no_repetition(
    tmp_path, capsys, options, message
):
    library_path = tmp_path / "library.lean"
    small_library(library_path)
    statement_path = tmp_path / "statement.lean"
    statement_path.write_text("theorem focus : 9 = 9 := sorry\n", encoding="utf-8")
    replay = tmp_path / "replay"
    write_replay(replay, "prover", [""])
    out = tmp_path / "out"
    args = ["reprove-focused", "--statement", str(statement_path)]
    args += ["--replay", str(replay), "--out", str(out)]
    if options[0] == "--no-library":
        options = options[1:]
    else:
        args += ["--library", str(library_path)]
    assert cli.main(args + options) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    # The bounds themselves are accepted.
    for edge in (["--prefix", "0"], ["--prefix", "2"], ["--n", "1"]):
        edge_out = tmp_path / "edge" / "".join(edge)
        edge_args = args[:-1] + [str(edge_out), "--library", str(library_path), "--n", "1"]
        assert cli.main(edge_args + edge) == 0


@pytest.mark.parametrize("command", ["reprove-all", "reprove-focused"])
def test_eval_commands_close_their_lean_session(
    tmp_path, fake_repl_cmd, repl_gone, command
):
    library_path = tmp_path / "library.lean"
    small_library(library_path)
    pid_file = tmp_path / "repl.pid"
    config = tmp_path / "config.json"
    lean_command = fake_repl_cmd + ["--pid-file", str(pid_file)]
    config.write_text(json.dumps({"lean_command": lean_command}), encoding="utf-8")
    replay = tmp_path / "replay"
    write_replay(replay, "prover", ["by rfl", "by rfl"])
    args = [command, "--config", str(config), "--library", str(library_path)]
    args += ["--replay", str(replay), "--verifier", "lean", "--max-trials", "1"]
    if command == "reprove-focused":
        statement = tmp_path / "statement.lean"
        statement.write_text("theorem focus : 9 = 9 := sorry\n", encoding="utf-8")
        args += ["--statement", str(statement), "--n", "1"]
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 0
    assert repl_gone(pid_file)


def test_nl_workflow_via_cli(tmp_path, capsys):
    replay = tmp_path / "replay"
    write_replay(replay, "nl_prover", ["False", "Here is a proof sketch..."])
    out = tmp_path / "nl_out"
    assert (
        cli.main(
            ["nl", "run", "--n", "2", "--replay", str(replay), "--out", str(out)]
        )
        == 0
    )
    # report refuses while a response is ungraded
    assert cli.main(["nl", "report", "--run-dir", str(out)]) == 1
    assert "response_001" in capsys.readouterr().err

    assert (
        cli.main(
            [
                "nl",
                "grade",
                "--run-dir",
                str(out),
                "--id",
                "response_001",
                "--category",
                "gap",
                "--grader",
                "reviewer",
                "--note",
                "inclusion reversed",
            ]
        )
        == 0
    )
    capsys.readouterr()  # drain the grade confirmation line
    assert cli.main(["nl", "report", "--run-dir", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["categories"]["rejected_as_false"] == 1
    assert report["categories"]["gap"] == 1


def test_resume_via_cli_after_complete_run_is_noop(tmp_path):
    out = tmp_path / "out"
    args = ["run", "--mode", "cpl", "--config", str(DEMO_CONFIG), "--out", str(out)]
    assert cli.main(args) == 0
    before = (out / "library.lean").read_bytes()
    assert cli.main(args + ["--resume"]) == 0
    assert (out / "library.lean").read_bytes() == before


def test_run_replays_a_run_directorys_transcript(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    args = ["run", "--config", str(DEMO_CONFIG), "--out"]
    assert cli.main(args + [str(first)]) == 0
    assert cli.main(args + [str(second), "--replay", str(first)]) == 0
    for name in ("library.lean", "events.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_replay_into_its_own_directory_is_refused(tmp_path, capsys):
    out = tmp_path / "run"
    run_args = ["run", "--config", str(DEMO_CONFIG), "--out", str(out)]
    assert cli.main(run_args) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    library = str(out / "library.lean")
    for args in (
        run_args + ["--replay", str(out)],
        run_args + ["--replay", str(out), "--resume"],
        ["reprove-all", "--library", library, "--replay", str(out), "--out", str(out)],
        ["nl", "run", "--n", "1", "--replay", str(out), "--out", str(out)],
    ):
        assert cli.main(args) == 1, args
        assert "into itself" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_eval_commands_continue_a_run_directorys_numbering(tmp_path):
    out = tmp_path / "run"
    run_args = ["run", "--mode", "cpl", "--config", str(DEMO_CONFIG), "--out", str(out)]
    assert cli.main(run_args) == 0
    replay = tmp_path / "replay"
    write_replay(replay, "prover", [f"by re{i}" for i in range(4)])
    write_replay(replay, "nl_prover", ["False", "a sketch"])
    verifier_fixture = tmp_path / "verifier.json"
    verifier_fixture.write_text(
        json.dumps({"defaults": {"verify_proof": "verified"}}), encoding="utf-8"
    )
    reprove_args = [
        "reprove-all",
        "--library",
        str(out / "library.lean"),
        "--replay",
        str(replay),
        "--verifier-fixtures",
        str(verifier_fixture),
        "--max-trials",
        "1",
        "--out",
        str(out),
    ]
    assert cli.main(reprove_args) == 0
    nl_args = ["nl", "run", "--n", "2", "--replay", str(replay), "--out", str(out)]
    assert cli.main(nl_args) == 0

    for name in ("events.jsonl", "transcript.jsonl"):
        sequences = [line["sequence"] for line in read_json_lines(out / name)]
        assert sequences == list(range(len(sequences))), name
    assert len(list(read_json_lines(out / "transcript.jsonl"))) == 13 + 4 + 2


def test_an_eval_command_after_a_kill_cuts_torn_lines_and_continues(tmp_path):
    out = tmp_path / "run"
    run_args = ["run", "--mode", "cpl", "--config", str(DEMO_CONFIG), "--out", str(out)]
    assert cli.main(run_args) == 0
    for name, torn in (
        ("events.jsonl", b'{"sequence": 99, "timestamp": "19'),
        ("transcript.jsonl", b'{"sequence": 99, "role_id": "pro'),
    ):
        with open(out / name, "ab") as handle:
            handle.write(torn)
    replay = tmp_path / "replay"
    write_replay(replay, "prover", [f"by re{i}" for i in range(4)])
    verifier_fixture = tmp_path / "verifier.json"
    verifier_fixture.write_text(
        json.dumps({"defaults": {"verify_proof": "verified"}}), encoding="utf-8"
    )
    reprove_args = [
        "reprove-all",
        "--library",
        str(out / "library.lean"),
        "--replay",
        str(replay),
        "--verifier-fixtures",
        str(verifier_fixture),
        "--max-trials",
        "1",
        "--out",
        str(out),
    ]
    assert cli.main(reprove_args) == 0

    events = [event.sequence for event in read_events(out / "events.jsonl")]
    transcript = [entry["sequence"] for entry in read_transcript(out / "transcript.jsonl")]
    assert events == list(range(len(events)))
    assert transcript == list(range(13 + 4))


@pytest.mark.parametrize("command", ["reprove-all", "reprove-focused", "nl"])
def test_an_eval_command_removes_the_temp_files_killed_writes_left(tmp_path, command):
    # A kill between `write_atomically`'s temp file and its rename leaves
    # the temp file; only names of that form are removed.
    library_path = tmp_path / "library.lean"
    small_library(library_path)
    replay = tmp_path / "replay"
    write_replay(replay, "prover", ["by re0", "by re1"])
    write_replay(replay, "nl_prover", ["a sketch"])
    verifier_fixture = tmp_path / "verifier.json"
    verifier_fixture.write_text(
        json.dumps({"defaults": {"verify_proof": "verified"}}), encoding="utf-8"
    )
    out = tmp_path / "out"
    (out / "nl_responses").mkdir(parents=True)
    left = ["reprove_with_context.json.0123456789abcdef.tmp"]
    kept = ["nl_responses/notes.tmp", "notes.tmp"]
    if command == "nl":
        left.append("nl_responses/response_001.txt.fedcba9876543210.tmp")
        args = ["nl", "run", "--n", "1"]
    else:
        args = [command, "--library", str(library_path), "--verifier-fixtures"]
        args += [str(verifier_fixture), "--max-trials", "1"]
    if command == "reprove-focused":
        statement = tmp_path / "statement.lean"
        statement.write_text("theorem focus : 9 = 9 := sorry\n", encoding="utf-8")
        args += ["--statement", str(statement), "--n", "1"]
    for name in left + kept:
        (out / name).write_bytes(b'{"partial')
    assert cli.main(args + ["--replay", str(replay), "--out", str(out)]) == 0
    assert sorted(str(path.relative_to(out)) for path in out.rglob("*.tmp")) == kept
    assert not [finding for finding in check_run(out) if "temp file" in finding]


@pytest.mark.parametrize("command", ["reprove-all", "reprove-focused"])
def test_an_eval_command_fsyncs_its_transcript_before_it_writes_its_report(
    tmp_path, writes, command
):
    library_path = tmp_path / "library.lean"
    small_library(library_path)
    replay = tmp_path / "replay"
    write_replay(replay, "prover", ["by re0", "by re1"])
    out = tmp_path / "out"
    args = [command, "--library", str(library_path), "--replay", str(replay)]
    args += ["--max-trials", "1", "--out", str(out)]
    if command == "reprove-focused":
        statement = tmp_path / "statement.lean"
        statement.write_text("theorem focus : 9 = 9 := sorry\n", encoding="utf-8")
        args += ["--statement", str(statement), "--n", "2"]
    assert cli.main(args) == 0
    transcript = out / "transcript.jsonl"
    name = "reprove_focused.json" if command == "reprove-focused" else "reprove_with_context.json"
    report = next(n for n, write in enumerate(writes) if write.name == name)
    lines = [n for n, write in enumerate(writes) if write.path == transcript and write.data]
    synced = [n for n, write in enumerate(writes) if write.path == transcript and write.fsync]
    # The last transcript line, then its fsync, then the report.
    assert len(lines) == 2 and synced and lines[-1] < synced[-1] < report


def test_reprove_focused_with_definitions_only_gives_the_prover_no_entry(tmp_path):
    library_path = tmp_path / "library.lean"
    small_library(library_path)
    statement = tmp_path / "statement.lean"
    statement.write_text("theorem focus : 9 = 9 := sorry\n", encoding="utf-8")
    replay = tmp_path / "replay"
    write_replay(replay, "prover", ["", ""])
    out = tmp_path / "out"
    args = ["reprove-focused", "--statement", str(statement), "--library", str(library_path)]
    args += ["--mode", "definitions_only", "--n", "2", "--replay", str(replay), "--out", str(out)]
    assert cli.main(args) == 0
    report = json.loads((out / "reprove_focused.json").read_text(encoding="utf-8"))
    assert report["mode"] == "focused[0 entries]"
    assert report["breakdown"]["declared_unprovable"] == 2
    requests = [entry["request"] for entry in read_transcript(out / "transcript.jsonl")]
    assert len(requests) == 2
    for request in requests:
        assert "theorem c0" not in request["user_content"]
        assert request["user_content"].startswith(SEED)
        assert request["user_content"].rstrip().endswith("theorem focus : 9 = 9 := sorry")


def test_reprove_focused_without_a_library_proves_against_the_configs_seed(tmp_path, capsys):
    seed = tmp_path / "seed.lean"
    seed.write_text(SEED + "\ndef marker : ℕ := 7\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed_path": "seed.lean"}), encoding="utf-8")
    statement = tmp_path / "statement.lean"
    statement.write_text("theorem focus : 9 = 9 := sorry\n", encoding="utf-8")
    replay = tmp_path / "replay"
    write_replay(replay, "prover", [""])
    out = tmp_path / "out"
    args = ["reprove-focused", "--statement", str(statement), "--n", "1"]
    args += ["--replay", str(replay), "--out", str(out)]
    assert cli.main(args + ["--config", str(config)]) == 0
    report = json.loads((out / "reprove_focused.json").read_text(encoding="utf-8"))
    assert report["mode"] == "focused[0 entries]"
    (entry,) = read_transcript(out / "transcript.jsonl")
    assert "def marker : ℕ := 7" in entry["request"]["user_content"]

    # With neither a library nor a seed there is nothing to prove against.
    no_seed = tmp_path / "no_seed.json"
    no_seed.write_text("{}", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(args[:-1] + [str(tmp_path / "other"), "--config", str(no_seed)]) == 2
    assert capsys.readouterr().err == "error: provide --library or a config with seed_path\n"


def test_nl_run_sends_the_statement_of_its_statement_file(tmp_path):
    statement = tmp_path / "statement.txt"
    statement.write_text("Every finite group of prime order is cyclic.\n", encoding="utf-8")
    replay = tmp_path / "replay"
    write_replay(replay, "nl_prover", ["A proof."])
    out = tmp_path / "out"
    args = ["nl", "run", "--n", "1", "--statement-file", str(statement)]
    assert cli.main(args + ["--replay", str(replay), "--out", str(out)]) == 0
    (entry,) = read_transcript(out / "transcript.jsonl")
    assert entry["request"]["user_content"] == "Every finite group of prime order is cyclic.\n"
    assert (out / "nl_responses" / "response_000.txt").read_text(encoding="utf-8") == "A proof."


def test_analyze_report_over_a_run_directory_with_an_nl_session(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(DEMO_CONFIG), "--out", str(out)]) == 0
    replay = tmp_path / "replay"
    write_replay(replay, "nl_prover", ["False", "a sketch", "another sketch"])
    assert cli.main(["nl", "run", "--n", "3", "--replay", str(replay), "--out", str(out)]) == 0
    grade = ["nl", "grade", "--run-dir", str(out), "--id", "response_001"]
    assert cli.main(grade + ["--category", "gap", "--grader", "reviewer"]) == 0
    assert cli.main(["analyze", "report", "--run-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["nl"] == {
        "total": 3,
        "failed_fetch": 0,
        "pending": ["response_002"],
        "categories": {"correctly_proven": 0, "gap": 1, "rejected_as_false": 1},
    }
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert text.endswith(
        "natural-language session\n"
        "  correctly_proven: 0\n"
        "  gap: 1\n"
        "  rejected_as_false: 1\n"
        "  pending grades: 1\n"
    )


def test_main_exits_1_on_a_verifier_startup_error(tmp_path, capsys, monkeypatch):
    # No REPL command configured: the session cannot start.
    args = ["run", "--config", str(DEMO_CONFIG), "--verifier", "lean"]
    assert cli.main(args + ["--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "verifier startup error: no verifier command configured\n"

    # A seed that does not elaborate: its diagnostics follow, one a line.
    def seed_fails(config, seed_source):
        raise VerifierStartupError(
            "seed failed to elaborate", (Diagnostic("error", 3, 4, "unknown identifier 'x'"),)
        )

    monkeypatch.setattr(cli, "build_verifier", seed_fails)
    library_path = tmp_path / "library.lean"
    small_library(library_path)
    write_replay(tmp_path / "replay", "prover", ["by rfl"])
    args = ["reprove-all", "--library", str(library_path), "--replay", str(tmp_path / "replay")]
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "verifier startup error: seed failed to elaborate\n"
        "  3:4 error unknown identifier 'x'\n"
    )


def test_main_exits_1_on_a_resume_error(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["run", "--config", str(DEMO_CONFIG), "--out", str(out)]
    assert cli.main(args) == 0
    library = out / "library.lean"
    tampered = library.read_text(encoding="utf-8").replace("theorem", "lemma")
    library.write_text(tampered, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(args + ["--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("resume error: library file diverges from event log")


def cpl(*args) -> None:
    assert cli.main([str(arg) for arg in args]) == 0


def test_nl_grade_of_an_unknown_id_exits_2(tmp_path, capsys):
    write_replay(tmp_path / "replay", "nl_prover", ["a sketch"])
    cpl("nl", "run", "--n", 1, "--replay", tmp_path / "replay", "--out", tmp_path / "out")
    capsys.readouterr()
    grade = ["nl", "grade", "--run-dir", str(tmp_path / "out"), "--id", "bogus"]
    assert cli.main(grade + ["--category", "gap", "--grader", "reviewer"]) == 2
    assert capsys.readouterr().err == "error: unknown response id 'bogus'\n"
    assert not (tmp_path / "out" / "grades.jsonl").exists()


def test_nl_run_and_grade_fsync_what_each_index_line_names_before_it(tmp_path, writes):
    write_replay(tmp_path / "replay", "nl_prover", ["False", "a sketch"])
    out = tmp_path / "out"
    writes.clear()
    cpl("nl", "run", "--n", 2, "--replay", tmp_path / "replay", "--out", out)
    expected = []
    for n in range(2):
        # The response file and the transcript line, then the index line.
        response = f"response_00{n}.txt"
        expected += [("transcript.jsonl", "append"), (response, "append"), (response, "fsync")]
        expected += [("transcript.jsonl", "fsync"), ("index.jsonl", "append")]
        if n == 0:  # a literal False is graded at once
            expected.append(("grades.jsonl", "append"))
    assert writes.steps() == expected + [("index.jsonl", "fsync"), ("grades.jsonl", "fsync")]
    assert {write.path.parent for write in writes} == {out, out / "nl_responses"}
    writes.clear()
    cpl("nl", "grade", "--run-dir", out, "--id", "response_001", "--category", "gap", "--grader", "r")
    assert writes.steps() == [("grades.jsonl", "append"), ("grades.jsonl", "fsync")]


def test_reprove_focused_asks_with_the_falsity_prompt_whatever_the_config_holds(tmp_path):
    small_library(tmp_path / "library.lean")
    (tmp_path / "statement.lean").write_text("theorem focus : 9 = 9 := sorry\n", encoding="utf-8")
    (tmp_path / "config.json").write_text('{"prompt_variant": "not_provable"}', encoding="utf-8")
    write_replay(tmp_path / "replay", "prover", [""])
    args = ["reprove-focused", "--config", tmp_path / "config.json", "--n", 1]
    args += ["--statement", tmp_path / "statement.lean", "--library", tmp_path / "library.lean"]
    for variant, prompt in (([], PROVER_FALSE_PROMPT), (["--variant", "not_provable"], PROVER_PROMPT)):
        out = tmp_path / f"out{len(variant)}"
        cpl(*args, *variant, "--replay", tmp_path / "replay", "--out", out)
        (entry,) = read_transcript(out / "transcript.jsonl")
        assert entry["request"]["system_prompt"] == prompt


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, tuple[Path, Path]]:
    """Pairs of directories that hold the same run: a demo run and its
    replay, each eval command on its library and its replay, two copies
    of the run that reprove-all appended to, and an NL session and its
    replay. (`test_orchestrator` checks resumed and simple-loop runs.)"""
    root = tmp_path_factory.mktemp("runs")
    demo, library = ["--config", DEMO_CONFIG], ["--library", root / "run" / "library.lean"]
    cpl("run", *demo, "--out", root / "run")
    cpl("run", *demo, "--replay", root / "run", "--out", root / "replayed")
    pairs = {"a run, replayed": (root / "run", root / "replayed")}
    for name, command in {
        "reprove-all with_context": ["reprove-all", "--mode", "with_context"],
        "reprove-all definitions_only": ["reprove-all", "--mode", "definitions_only"],
        "reprove-focused": ["reprove-focused", "--n", 2, "--statement", FIXTURES / "focused_statement.lean"],
    }.items():
        command += [*demo, *library, "--max-trials", 2]
        cpl(*command, "--replay", root / "run", "--out", root / name)
        cpl(*command, "--replay", root / name, "--out", root / f"{name} replayed")
        pairs[f"{name}, replayed"] = (root / name, root / f"{name} replayed")
    for name in ("appended", "appended again"):
        shutil.copytree(root / "run", root / name)
        cpl("reprove-all", *demo, *library, "--replay", root / "run", "--out", root / name)
    pairs["a run reprove-all appended to, twice"] = (root / "appended", root / "appended again")
    write_replay(root / "nl replies", "nl_prover", ["False", "a sketch"])
    cpl("nl", "run", "--n", 2, "--replay", root / "nl replies", "--out", root / "nl")
    cpl("nl", "run", "--n", 2, "--replay", root / "nl", "--out", root / "nl replayed")
    pairs["an nl run, replayed"] = (root / "nl", root / "nl replayed")
    return pairs


def test_the_checker_finds_nothing_in_any_directory_the_commands_write(runs):
    for name, (a, b) in runs.items():
        assert check_run(a) == check_run(b) == same_run(a, b) == [], name
    # reprove-all appended more prover lines than the run's events count.
    appended, run = runs["a run reprove-all appended to, twice"][0], runs["a run, replayed"][0]
    assert len(read_transcript(appended / "transcript.jsonl")) > len(read_transcript(run / "transcript.jsonl"))


@pytest.mark.parametrize(
    "how, check_findings, same_run_findings",
    [
        ("library cut mid-block", ["library.lean: not the library the event log builds"],
         ["library.lean: differs from byte 6547 on"]),
        ("a dropped transcript line", ["transcript.jsonl: 6 prover lines, 7 logged"],
         ["transcript.jsonl: differs from record 12 on"]),
        ("a report whose library_entries disagrees", ["report.json: library_entries is 5, 4 logged"],
         ["report.json: differs in library_entries"]),
        ("a repeated event sequence", ["events.jsonl: record 5 has sequence 4"], []),
        ("a repeated transcript sequence", ["transcript.jsonl: record 5 has sequence 4"], []),
        ("a replay whose requests differ", [], [
            "events.jsonl: differs from record 18 on",
            "report.json: differs in config",
            "transcript.jsonl: differs from record 7 on",
        ]),
    ],
)
def test_the_checker_finds_a_corrupted_copy_of_the_demo_run(
    runs, tmp_path, how, check_findings, same_run_findings
):
    reference, out = runs["a run, replayed"][0], tmp_path / "copy"
    shutil.copytree(reference, out)
    if how == "library cut mid-block":
        (out / "library.lean").write_bytes((reference / "library.lean").read_bytes()[:-40])
    elif how == "a dropped transcript line":
        lines = (reference / "transcript.jsonl").read_bytes().splitlines(keepends=True)
        (out / "transcript.jsonl").write_bytes(b"".join(lines[:-1]))
    elif how == "a report whose library_entries disagrees":
        report = json.loads((reference / "report.json").read_text(encoding="utf-8"))
        report["library_entries"] += 1
        (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    elif how.startswith("a repeated"):
        name = "events.jsonl" if "event" in how else "transcript.jsonl"
        lines = (reference / name).read_bytes().splitlines(keepends=True)
        lines[5] = json.dumps({**json.loads(lines[5]), "sequence": 4}).encode() + b"\n"
        (out / name).write_bytes(b"".join(lines))
    else:  # past a 700-char budget, contexts are cut
        cpl("run", "--config", DEMO_CONFIG, "--budget", 700, "--replay", reference, "--out", out)
    assert check_run(out) == check_findings
    assert same_run(reference, out) == same_run_findings


def test_check_run_reads_the_event_log_once(runs, monkeypatch):
    reads, read_events = [], evalharness.read_events
    monkeypatch.setattr(evalharness, "read_events", lambda path: reads.append(path) or read_events(path))
    reference = runs["a run, replayed"][0]
    assert check_run(reference) == []
    assert reads == [reference / "events.jsonl"]


def test_analyze_check_prints_a_line_a_finding_and_exits_1(runs, tmp_path, capsys):
    reference, out = runs["a run, replayed"][0], tmp_path / "copy"
    shutil.copytree(reference, out)
    check = ["analyze", "check", "--run-dir", str(out), "--same-as", str(reference)]
    assert cli.main(check) == 0
    assert capsys.readouterr().out == ""
    (out / "library.lean").write_bytes((reference / "library.lean").read_bytes()[:-40])
    assert cli.main(check) == 1
    assert capsys.readouterr().out == (
        f"{out}: library.lean: not the library the event log builds\n"
        f"{out}: library.lean: differs from byte 6547 on\n"
    )
    assert cli.main(["analyze", "check", "--run-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path} holds neither events.jsonl nor transcript.jsonl\n"


def test_same_run_passes_over_what_two_directories_of_one_run_may_differ_in(runs, tmp_path):
    reference, out = runs["a run, replayed"][0], tmp_path / "copy"
    shutil.copytree(reference, out)

    def rewrite(name, change):
        records = list(read_json_lines(reference / name))
        for record in records:
            change(record)
        (out / name).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

    # Timestamps, sequence numbers, replies, latencies, where each run was
    # written and whether it was resumed or replayed, and other files.
    rewrite("events.jsonl", lambda e: e.update(sequence=e["sequence"] + 5, timestamp="2030"))
    # A line may copy from the reply before it, so the other replies are
    # written by a gateway, as a run that was given them writes them.
    (out / "transcript.jsonl").unlink()
    gateway = Gateway(None, transcript_path=out / "transcript.jsonl")
    for entry in read_transcript(reference / "transcript.jsonl"):
        reply = ChatResponse("other", entry["response"]["provider"], 9.0, entry["response"]["attempt"])
        gateway.record(Exchange(ChatRequest(entry["role_id"], **entry["request"]), reply))
    report = json.loads((reference / "report.json").read_text(encoding="utf-8"))
    report["config"].update(output_dir="x", resume=True, replay_dir="y", clock="system")
    (out / "report.json").write_text(json.dumps(report), encoding="utf-8")
    (out / "report.txt").write_text("a table", encoding="utf-8")
    assert same_run(reference, out) == []
    # A payload that differs, and a file in only one of them.
    rewrite("events.jsonl", lambda e: e["sequence"] == 3 and e["payload"].update(extra=1))
    (out / "reprove_with_context.json").write_text("{}", encoding="utf-8")
    assert same_run(reference, out) == [
        "events.jsonl: differs from record 3 on",
        f"reprove_with_context.json: not in {reference}",
    ]
    with pytest.raises(FileNotFoundError):
        same_run(reference, tmp_path)


_IO = [("--config", "config"), ("--out", "out"), ("--replay", "replay")]
_CHECKING = [("--max-trials", "max_trials"), ("--verifier", "verifier"),
             ("--verifier-fixtures", "verifier_fixtures")]
_REPROVE = [("--mode", "reprove_mode"), ("--variant", "variant")]
_HISTOGRAM = [("--bin", "bin"), ("--metric", "metric")]
OPTION_TABLE = {
    "run": _IO + _CHECKING + [
        ("--budget", "budget"), ("--iterations", "iterations"), ("--loops", "loops"),
        ("--mode", "mode"), ("--resume", "resume"), ("--seed", "seed"),
    ],
    "reprove-all": _IO + _CHECKING + _REPROVE + [("--library", "library")],
    "reprove-focused": _IO + _CHECKING + _REPROVE + [
        ("--library", "library"), ("--n", "n"), ("--prefix", "prefix"),
        ("--statement", "statement"),
    ],
    "nl": [],
    "nl run": _IO + [("--n", "n"), ("--statement-file", "statement_file")],
    "nl grade": [
        ("--category", "category"), ("--grader", "grader"), ("--id", "id"),
        ("--note", "note"), ("--run-dir", "run_dir"),
    ],
    "nl report": [("--run-dir", "run_dir")],
    "analyze": [],
    "analyze histogram": _HISTOGRAM + [("--csv", "csv"), ("--library", "library")],
    "analyze report": _HISTOGRAM + [("--run-dir", "run_dir")],
    "analyze check": [("--run-dir", "run_dir"), ("--same-as", "same_as")],
}


def option_table(parser, prefix=()) -> dict:
    """{subcommand: sorted (option string, dest) pairs}, help left out."""
    table = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(option_table(sub, prefix + (name,)))
    if prefix:
        table[" ".join(prefix)] = sorted(
            (option, action.dest)
            for action in parser._actions
            if action.dest != "help"
            for option in action.option_strings
        )
    return table


def test_each_subcommand_keeps_its_options():
    expected = {name: sorted(pairs) for name, pairs in OPTION_TABLE.items()}
    assert option_table(cli.build_parser()) == expected
