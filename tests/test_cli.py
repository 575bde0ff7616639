from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from cpl import cli
from cpl.core import Library, ProofScript, TheoremStatement, save_library

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
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        sequences = [json.loads(line)["sequence"] for line in lines]
        assert sequences == list(range(len(sequences))), name
    transcript = (out / "transcript.jsonl").read_text(encoding="utf-8")
    assert len(transcript.splitlines()) == 13 + 4 + 2


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
