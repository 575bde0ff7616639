from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cpl.core import Library, ProofScript, TheoremStatement
from cpl.evalharness import (
    DEFAULT_FOCUSED_REPETITIONS,
    DEFAULT_NL_REPETITIONS,
    PendingGradesError,
    emit_reports,
    grade_response,
    nl_report,
    nl_session,
    proof_length_histogram,
    render_percent,
    reprove_all,
    reprove_focused,
    summarize_events,
)
from cpl.gateway import Gateway, ReplayProvider, TransportError
from cpl.orchestrator import RunConfig, run
from cpl.prompts import DEFAULT_NL_STATEMENT, NL_PROVER_PROMPT
from cpl.verifier import CheckResult, Diagnostic, ScriptedVerifier
from providers import CallableProvider

SEED = "import Mathlib\n"
FIXTURES = Path(__file__).parent / "fixtures"


def stmt(source: str) -> TheoremStatement:
    return TheoremStatement.from_source(source)


def proof_of_length(lines: int) -> ProofScript:
    body = "\n".join(f"  have h{i} : True := trivial" for i in range(lines - 1))
    return ProofScript("by\n" + body if body else "by trivial")


def library_of(n: int, lengths: list[int] | None = None) -> Library:
    lib = Library(seed_source=SEED)
    for i in range(n):
        length = lengths[i] if lengths else 1
        lib = lib.append(
            stmt(f"theorem gen{i} : {i} = {i} := sorry"),
            proof_of_length(length),
            "fixture",
            "1970-01-01T00:00:00+00:00",
        )
    return lib


# ---------------------------------------------------------------------------
# reprove_all
# ---------------------------------------------------------------------------


def test_reprove_nine_of_ten_renders_ninety_percent():
    lib = library_of(10)
    session = ScriptedVerifier(SEED)
    for i in range(10):
        if i != 7:
            result = CheckResult("verified")
        else:
            result = CheckResult(
                "failed", diagnostics=(Diagnostic("error", 1, 0, "no"),)
            )
        session.script("verify_proof", f"{i} = {i}", result, f"by attempt{i}")
    gateway = Gateway(
        ReplayProvider({"prover": [f"by attempt{i}" for i in range(10)]}),
        sleep=lambda s: None,
    )
    report = reprove_all(lib, "with_context", session, gateway, max_trials=1)
    assert report.success_count == 9
    assert report.total == 10
    assert report.success_rate == Fraction(9, 10)
    assert report.percent == "90%"
    assert report.breakdown["verified"] == 9
    assert report.breakdown["failed_exhausted"] == 1


def test_reprove_with_context_entry_zero_sees_seed_only():
    contexts: list[str] = []

    class Capture:
        name = "capture"

        def complete(self, request):
            contexts.append(request.user_content)
            return ""  # surrender immediately

    lib = library_of(3)
    session = ScriptedVerifier(SEED)
    gateway = Gateway(Capture(), sleep=lambda s: None)
    reprove_all(lib, "with_context", session, gateway, max_trials=1)
    # entry 0: no prior entries; its context is seed + the target only
    assert "theorem gen" not in contexts[0].replace("theorem gen0", "")
    # entry 2 sees entries 0 and 1 but never itself-with-proof or entry 2+
    assert "theorem gen0" in contexts[2]
    assert "theorem gen1" in contexts[2]
    assert contexts[2].count("theorem gen2") == 1  # only as the sorry target


def test_reprove_definitions_only_never_includes_entries():
    contexts: list[str] = []

    class Capture:
        name = "capture"

        def complete(self, request):
            contexts.append(request.user_content)
            return ""

    lib = library_of(3)
    gateway = Gateway(Capture(), sleep=lambda s: None)
    reprove_all(lib, "definitions_only", ScriptedVerifier(SEED), gateway, max_trials=1)
    for i, context in enumerate(contexts):
        for j in range(3):
            if j == i:
                continue
            assert f"theorem gen{j}" not in context


def test_reprove_empty_library_is_an_error():
    with pytest.raises(ValueError):
        reprove_all(
            Library(seed_source=SEED),
            "with_context",
            ScriptedVerifier(SEED),
            Gateway(ReplayProvider(), sleep=lambda s: None),
        )


def test_reprove_transport_failures_are_flagged():
    def always_down(request):
        raise TransportError("down")

    lib = library_of(2)
    gateway = Gateway(
        CallableProvider(always_down), retry_cap=1, sleep=lambda s: None
    )
    report = reprove_all(
        lib, "with_context", ScriptedVerifier(SEED), gateway, max_trials=1
    )
    assert report.success_count == 0
    assert report.transport_flagged == [0, 1]


def test_a_lean_error_that_mentions_transport_is_not_flagged():
    lib = library_of(2)
    session = ScriptedVerifier(SEED)
    lean_says = Diagnostic("error", 3, 2, "unknown identifier 'transport_map'")
    session.script(
        "verify_proof",
        lib.entries[0].statement,
        CheckResult("failed", diagnostics=(lean_says,)),
        "by simp [transport_map]",
    )

    def down_for_the_second(request):
        if "gen1" in request.user_content:
            raise TransportError("down")
        return "by simp [transport_map]"

    gateway = Gateway(
        CallableProvider(down_for_the_second), retry_cap=1, sleep=lambda s: None
    )
    report = reprove_all(lib, "with_context", session, gateway, max_trials=1)
    assert report.success_count == 0
    assert report.transport_flagged == [1]


# ---------------------------------------------------------------------------
# reprove_focused
# ---------------------------------------------------------------------------


def test_focused_defaults_to_128_repetitions():
    gateway = Gateway(CallableProvider(lambda r: ""), sleep=lambda s: None)
    report = reprove_focused(
        stmt("theorem f : 1 = 1 := sorry"),
        Library(seed_source=SEED),
        ScriptedVerifier(SEED),
        gateway,
    )
    assert DEFAULT_FOCUSED_REPETITIONS == 128
    assert report.total == 128


def test_focused_all_declared_false_breakdown():
    gateway = Gateway(CallableProvider(lambda r: ""), sleep=lambda s: None)
    report = reprove_focused(
        stmt("theorem f : 1 = 1 := sorry"),
        Library(seed_source=SEED),
        ScriptedVerifier(SEED),
        gateway,
        n=8,
    )
    assert report.breakdown["declared_unprovable"] == 8
    assert report.breakdown["verified"] == 0
    assert report.success_rate == Fraction(0)


def test_focused_uses_exactly_the_given_prefix():
    contexts: list[str] = []

    class Capture:
        name = "capture"

        def complete(self, request):
            contexts.append(request.user_content)
            return ""

    lib = library_of(6).prefix(4)
    gateway = Gateway(Capture(), sleep=lambda s: None)
    reprove_focused(
        stmt("theorem f : 100 = 100 := sorry"),
        lib,
        ScriptedVerifier(SEED),
        gateway,
        n=1,
    )
    (context,) = contexts
    for i in range(4):
        assert f"theorem gen{i}" in context
    assert "theorem gen4" not in context
    assert "theorem gen5" not in context


def test_focused_uses_false_variant_by_default(tmp_path):
    from cpl.gateway import read_transcript
    from cpl.prompts import PROVER_FALSE_PROMPT

    transcript = tmp_path / "t.jsonl"
    gateway = Gateway(
        CallableProvider(lambda r: ""),
        sleep=lambda s: None,
        transcript_path=transcript,
    )
    reprove_focused(
        stmt("theorem f : 1 = 1 := sorry"),
        Library(seed_source=SEED),
        ScriptedVerifier(SEED),
        gateway,
        n=1,
    )
    (entry,) = read_transcript(transcript)
    assert entry["request"]["system_prompt"] == PROVER_FALSE_PROMPT


# ---------------------------------------------------------------------------
# Natural-language session
# ---------------------------------------------------------------------------


def test_nl_session_default_16_and_default_statement(tmp_path):
    seen = []

    def capture(request):
        seen.append(request)
        return "False"

    gateway = Gateway(CallableProvider(capture), sleep=lambda s: None)
    ids = nl_session(gateway, out_dir=tmp_path)
    assert DEFAULT_NL_REPETITIONS == 16
    assert len(ids) == 16
    assert all(r.user_content == DEFAULT_NL_STATEMENT for r in seen)
    assert all(r.system_prompt == NL_PROVER_PROMPT for r in seen)


def test_nl_false_auto_categorized_and_prose_pending(tmp_path):
    gateway = Gateway(
        ReplayProvider({"nl_prover": ["False", "Consider the interior..."]}),
        sleep=lambda s: None,
    )
    ids = nl_session(gateway, n=2, out_dir=tmp_path)
    report = nl_report(tmp_path, require_complete=False)
    assert report["categories"]["rejected_as_false"] == 1
    assert report["pending"] == [ids[1]]
    stored = (tmp_path / "nl_responses" / f"{ids[1]}.txt").read_text(encoding="utf-8")
    assert stored == "Consider the interior..."


def test_nl_grade_flow_and_finalization(tmp_path):
    gateway = Gateway(
        ReplayProvider({"nl_prover": ["False", "a proof attempt", "another one"]}),
        sleep=lambda s: None,
    )
    ids = nl_session(gateway, n=3, out_dir=tmp_path)
    with pytest.raises(PendingGradesError) as excinfo:
        nl_report(tmp_path)
    assert set(excinfo.value.pending) == {ids[1], ids[2]}

    grade_response(tmp_path, ids[1], "gap", grader="reviewer-a", note="subset flip")
    grade_response(tmp_path, ids[2], "correctly_proven", grader="reviewer-a")
    report = nl_report(tmp_path)
    assert report["categories"] == {
        "correctly_proven": 1,
        "gap": 1,
        "rejected_as_false": 1,
    }


def test_nl_regrade_appends_audit_trail_latest_wins(tmp_path):
    gateway = Gateway(ReplayProvider({"nl_prover": ["hmm"]}), sleep=lambda s: None)
    (rid,) = nl_session(gateway, n=1, out_dir=tmp_path)
    grade_response(tmp_path, rid, "correctly_proven", grader="a")
    grade_response(tmp_path, rid, "gap", grader="b", note="second look")
    report = nl_report(tmp_path)
    assert report["categories"]["gap"] == 1
    assert report["categories"]["correctly_proven"] == 0
    # both grades stay on disk
    lines = (tmp_path / "grades.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2


def test_nl_unknown_response_id_rejected(tmp_path):
    gateway = Gateway(ReplayProvider({"nl_prover": ["x"]}), sleep=lambda s: None)
    nl_session(gateway, n=1, out_dir=tmp_path)
    with pytest.raises(KeyError):
        grade_response(tmp_path, "response_999", "gap", grader="a")


def test_nl_transport_failure_stored_as_placeholder(tmp_path):
    def down(request):
        raise TransportError("no link")

    gateway = Gateway(CallableProvider(down), retry_cap=1, sleep=lambda s: None)
    ids = nl_session(gateway, n=2, out_dir=tmp_path)
    report = nl_report(tmp_path)  # failed fetches are not pending grades
    assert report["failed_fetch"] == 2
    assert report["pending"] == []
    assert len(ids) == 2


def test_a_second_nl_session_in_a_directory_continues_its_numbering(tmp_path):
    first = nl_session(
        Gateway(ReplayProvider({"nl_prover": ["first A", "False"]})), n=2, out_dir=tmp_path
    )
    second = nl_session(
        Gateway(ReplayProvider({"nl_prover": ["second A", "second B"]})),
        n=2,
        out_dir=tmp_path,
    )
    assert first + second == [f"response_{i:03d}" for i in range(4)]
    stored = [
        (tmp_path / "nl_responses" / f"{rid}.txt").read_text(encoding="utf-8")
        for rid in first + second
    ]
    assert stored == ["first A", "False", "second A", "second B"]
    report = nl_report(tmp_path, require_complete=False)
    assert report["total"] == 4
    assert report["pending"] == [first[0], *second]
    assert report["categories"]["rejected_as_false"] == 1


def test_an_nl_session_keeps_every_record_of_an_index_that_repeats_ids(tmp_path):
    """Older versions restarted the ids at 0 on each `nl run` into one
    directory; a later session keeps both runs' records and numbers after
    all of them."""
    index = tmp_path / "nl_responses" / "index.jsonl"
    index.parent.mkdir()
    old = b"".join(
        json.dumps({"id": f"response_{i:03d}", "status": status}).encode() + b"\n"
        for status in ("pending", "rejected_as_false")
        for i in range(2)
    )
    index.write_bytes(old)
    ids = nl_session(Gateway(ReplayProvider({"nl_prover": ["C"]})), n=1, out_dir=tmp_path)
    assert ids == ["response_004"]
    assert index.read_bytes() == old + b'{"id": "response_004", "status": "pending"}\n'


def tear_the_nl_index(out_dir: Path) -> bytes:
    """Two responses, then a record torn by a kill during `nl run`; returns
    the index's complete records."""
    nl_session(Gateway(ReplayProvider({"nl_prover": ["A", "B"]})), n=2, out_dir=out_dir)
    index = out_dir / "nl_responses" / "index.jsonl"
    whole = index.read_bytes()
    with open(index, "ab") as handle:
        handle.write(b'{"id": "response_002", "sta')
    return whole


def test_nl_report_and_grade_skip_a_torn_index_record(tmp_path):
    tear_the_nl_index(tmp_path)
    report = nl_report(tmp_path, require_complete=False)
    assert report["total"] == 2
    assert report["pending"] == ["response_000", "response_001"]
    grade_response(tmp_path, "response_000", "gap", grader="a")
    with pytest.raises(KeyError):
        grade_response(tmp_path, "response_002", "gap", grader="a")


def test_an_nl_session_after_a_torn_index_record_cuts_it_and_continues(tmp_path):
    whole = tear_the_nl_index(tmp_path)
    ids = nl_session(
        Gateway(ReplayProvider({"nl_prover": ["C"]})), n=1, out_dir=tmp_path
    )
    assert ids == ["response_002"]
    index = tmp_path / "nl_responses" / "index.jsonl"
    assert index.read_bytes() == whole + b'{"id": "response_002", "status": "pending"}\n'
    assert nl_report(tmp_path, require_complete=False)["total"] == 3


def test_a_grade_torn_by_a_kill_is_cut_before_the_next_grade(tmp_path):
    ids = nl_session(
        Gateway(ReplayProvider({"nl_prover": ["A", "B"]})), n=2, out_dir=tmp_path
    )
    grade_response(tmp_path, ids[0], "gap", grader="a")
    grades = tmp_path / "grades.jsonl"
    with open(grades, "ab") as handle:
        handle.write(b'{"response_id": "response_001", "cate')
    report = nl_report(tmp_path, require_complete=False)
    assert report["pending"] == [ids[1]]
    assert report["categories"]["gap"] == 1
    grade_response(tmp_path, ids[1], "correctly_proven", grader="b")
    lines = grades.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["response_id"] for line in lines] == ids
    assert nl_report(tmp_path)["categories"] == {
        "correctly_proven": 1,
        "gap": 1,
        "rejected_as_false": 0,
    }


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


def test_histogram_example_bins():
    lib = library_of(3, lengths=[3, 12, 19])
    assert proof_length_histogram(lib, bin_width=10) == [(0, 1), (10, 2)]


def test_histogram_empty_library():
    assert proof_length_histogram(Library(seed_source=SEED)) == []


def test_histogram_width_one_conservation():
    lib = library_of(4, lengths=[2, 2, 5, 9])
    hist = proof_length_histogram(lib, bin_width=1)
    assert hist == [(2, 2), (5, 1), (9, 1)]
    assert sum(c for _, c in hist) == 4


def test_histogram_conservation_randomized():
    rng = random.Random(11)
    for _ in range(5):
        n = rng.randint(1, 12)
        lengths = [rng.randint(1, 40) for _ in range(n)]
        lib = library_of(n, lengths=lengths)
        width = rng.choice([1, 5, 10])
        hist = proof_length_histogram(lib, bin_width=width)
        assert sum(count for _, count in hist) == n


def test_histogram_rejects_bad_width():
    with pytest.raises(ValueError):
        proof_length_histogram(library_of(1), bin_width=0)


# ---------------------------------------------------------------------------
# Percent rendering
# ---------------------------------------------------------------------------


def test_render_percent_whole_percent_rounding():
    assert render_percent(Fraction(9, 10)) == "90%"
    # reference-scale checks: 267/269 and 242/269 round to 99% and 90%
    assert render_percent(Fraction(267, 269)) == "99%"
    assert render_percent(Fraction(242, 269)) == "90%"


# ---------------------------------------------------------------------------
# emit_reports
# ---------------------------------------------------------------------------


def run_demo(tmp_path) -> Path:
    config = RunConfig.from_file(FIXTURES / "cpl_demo" / "config.json")
    config.output_dir = str(tmp_path / "run")
    run(config)
    return Path(config.output_dir)


def test_emit_reports_matches_event_log(tmp_path):
    run_dir = run_demo(tmp_path)
    written = emit_reports(run_dir)
    report = json.loads(written["report.json"].read_text(encoding="utf-8"))
    summary = summarize_events(run_dir / "events.jsonl")
    assert report["run"] == summary
    assert report["run"]["theorems_added"] == 4
    assert report["library"]["entries"] == 4
    total = sum(row[2] for row in report["library"]["histogram"]["bins"])
    assert total == 4
    assert (run_dir / "histogram.csv").exists()
    assert (run_dir / "report.txt").exists()


def test_emit_reports_requires_event_log(tmp_path):
    with pytest.raises(FileNotFoundError) as excinfo:
        emit_reports(tmp_path)
    assert "events.jsonl" in str(excinfo.value)


def test_emit_reports_includes_reprove_sections(tmp_path):
    run_dir = run_demo(tmp_path)
    fake = {
        "mode": "with_context",
        "success_rate": {"numerator": 9, "denominator": 10, "exact": "9/10", "percent": "90%"},
    }
    (run_dir / "reprove_with_context.json").write_text(
        json.dumps(fake), encoding="utf-8"
    )
    written = emit_reports(run_dir)
    report = json.loads(written["report.json"].read_text(encoding="utf-8"))
    assert report["reprove"][0]["mode"] == "with_context"
    text = (run_dir / "report.txt").read_text(encoding="utf-8")
    assert "9/10 (90%)" in text
