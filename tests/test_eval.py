from __future__ import annotations

import errno
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cpl.core import (
    Library,
    LibraryEntry,
    ProofScript,
    TheoremStatement,
    dump_library,
    load_library,
    read_json_lines,
)
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
from cpl.gateway import INLINE_CONTEXT_CHARS, Gateway, ReplayProvider, TransportError, read_transcript
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


def loaded_library_of(path: Path, n: int, proof_lines: int) -> Library:
    """`library_of(n)` with proofs of `proof_lines` lines, written to `path`
    and loaded back, as `cpl reprove-all` reads a library."""
    path.write_text(dump_library(library_of(n, [proof_lines] * n)), encoding="utf-8")
    return load_library(path)


def test_reprove_with_context_renders_each_entry_of_a_loaded_library_once(tmp_path, monkeypatch):
    library = loaded_library_of(tmp_path / "library.lean", 40, 3)
    render_source = LibraryEntry.render_source
    rendered: list[str] = []

    def counted(entry):
        rendered.append(entry.statement.name)
        return render_source(entry)

    monkeypatch.setattr(LibraryEntry, "render_source", counted)
    gateway = Gateway(ReplayProvider({"prover": [""] * 40}), sleep=lambda s: None)
    reprove_all(library, "with_context", ScriptedVerifier(SEED), gateway, max_trials=1)
    assert len(rendered) <= len(library) + 2


@pytest.mark.parametrize("budget", [400_000, 9_000])
def test_a_reprove_with_context_writes_each_campaigns_new_text_not_its_library(tmp_path, budget):
    """Each campaign's context is the one before's plus one entry, with
    another target, and past the budget its front moves on. Its first line
    copies the line before, so the transcript grows with each prompt's new
    text, not with the library."""
    library = loaded_library_of(tmp_path / "library.lean", 60, 10)
    assert len(library.rendered[0]) > 4 * INLINE_CONTEXT_CHARS
    path = tmp_path / "transcript.jsonl"
    sent: list[str] = []

    def echo(request):
        sent.append(request.user_content)
        return "by simp"

    gateway = Gateway(CallableProvider(echo), sleep=lambda s: None, transcript_path=path)
    session = ScriptedVerifier(SEED, defaults={"verify_proof": "failed"})
    reprove_all(library, "with_context", session, gateway, max_trials=2, context_budget=budget)
    # past the budget, the last campaigns' contexts drop the oldest entries
    assert ("theorem gen0 :" in sent[-1]) == (budget == 400_000)
    assert [e["request"]["user_content"] for e in read_transcript(path)] == sent
    lines = [line["request"] for line in read_json_lines(path)]
    long_lines = [line for line, text in zip(lines, sent) if len(text) >= INLINE_CONTEXT_CHARS]
    assert len(long_lines) > len(lines) / 2
    # No long context is written whole, the first one included: each copies the line before.
    assert not any("user_content" in line or "user_content_base" in line for line in long_lines)
    # Written whole, the 45 long campaign contexts took 531 kB at budget
    # 400000 and 412 kB at 9000; as copies, the transcript is 55 kB.
    assert path.stat().st_size < len(library.rendered[0]) + 1024 * len(lines)


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


def test_a_verifier_that_fails_twice_flags_its_campaign():
    from cpl.verifier import VerifierTransportError

    class DownForGen1(ScriptedVerifier):
        def verify_proof(self, context, statement, proof):
            if statement.name == "gen1":
                raise VerifierTransportError("repl gone")
            return super().verify_proof(context, statement, proof)

    gateway = Gateway(CallableProvider(lambda request: "by simp"), sleep=lambda s: None)
    report = reprove_all(library_of(3), "with_context", DownForGen1(SEED), gateway, max_trials=1)
    assert report.transport_flagged == [1]


def test_a_lean_error_that_begins_like_a_fault_is_not_flagged():
    # Lean's messages may begin with the very words of `prover`'s fault
    # diagnostics; only a trial's `fault` flags a campaign.
    lib = library_of(2)
    session = ScriptedVerifier(SEED)
    for entry, message in zip(
        lib.entries,
        ("gateway transport failure: said by Lean", "verifier transport error: also Lean"),
    ):
        lean_says = Diagnostic("error", 1, 0, message)
        session.script(
            "verify_proof", entry.statement, CheckResult("failed", (lean_says,)), "by simp"
        )
    gateway = Gateway(CallableProvider(lambda request: "by simp"), sleep=lambda s: None)
    report = reprove_all(lib, "with_context", session, gateway, max_trials=1)
    assert report.per_theorem == [(0, "failed_exhausted"), (1, "failed_exhausted")]
    assert report.transport_flagged == []


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
    assert len(list(read_json_lines(tmp_path / "grades.jsonl"))) == 2


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
    assert [grade["response_id"] for grade in read_json_lines(grades)] == ids
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


@pytest.mark.parametrize("name", ["histogram.csv", "report.txt"])
def test_a_report_write_that_fails_partway_leaves_the_previous_file(tmp_path, writes, name):
    run_dir = run_demo(tmp_path)
    emit_reports(run_dir)
    before = (run_dir / name).read_bytes()
    writes.tear(OSError(errno.ENOSPC, "No space left on device"), name=name)
    with pytest.raises(OSError, match="No space left"):
        emit_reports(run_dir, bin_width=3)  # would rewrite both files
    assert (run_dir / name).read_bytes() == before
    assert not list(run_dir.glob("*.tmp"))
    writes.tear()
    emit_reports(run_dir, bin_width=3)
    assert (run_dir / name).read_bytes() != before


def test_an_nl_response_write_that_fails_partway_leaves_no_response_file(tmp_path, writes):
    gateway = Gateway(ReplayProvider({"nl_prover": ["A proof.", "Another proof."]}))
    assert nl_session(gateway, n=1, out_dir=tmp_path) == ["response_000"]
    writes.tear(OSError(errno.ENOSPC, "No space left on device"), name="response_001.txt")
    with pytest.raises(OSError, match="No space left"):
        nl_session(gateway, n=1, out_dir=tmp_path)
    nl_dir = tmp_path / "nl_responses"
    assert sorted(path.name for path in nl_dir.iterdir()) == ["index.jsonl", "response_000.txt"]
    assert [record["id"] for record in read_json_lines(nl_dir / "index.jsonl")] == ["response_000"]
