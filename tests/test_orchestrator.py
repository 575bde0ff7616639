from __future__ import annotations

import importlib.util
import json
import os
import shutil
import stat
import threading
import time
from pathlib import Path

import pytest

from cpl import orchestrator
from cpl.core import (
    Library,
    ProofScript,
    TheoremStatement,
    dump_tail,
    load_library,
    read_json_lines,
    replace,
    save_library,
)
from cpl.evalharness import check_run, same_run
from cpl.events import (
    EventLog,
    FixedClock,
    read_events,
    replay_library,
    truncate_events,
)
from cpl.gateway import (
    INLINE_CONTEXT_CHARS,
    FixtureExhaustedError,
    Gateway,
    ReplayProvider,
    TransportError,
    read_transcript,
)
from cpl.orchestrator import (
    ResumeConsistencyError,
    RunConfig,
    run,
    run_cpl,
    run_simple_loop,
)
from cpl.verifier import CheckResult, ScriptedVerifier
from fixtures.fake_repl import Repl
from fixtures.full_resend import FullResend
from providers import CallableProvider

SEED = "import Mathlib\n"

FIXTURES = Path(__file__).parent / "fixtures"
DEMO_CONFIG = FIXTURES / "cpl_demo" / "config.json"


class SimulatedCrash(Exception):
    pass


def write_seed(tmp_path) -> Path:
    seed_path = tmp_path / "seed.lean"
    seed_path.write_text(SEED, encoding="utf-8")
    return seed_path


def base_config(tmp_path, **overrides) -> RunConfig:
    config = RunConfig(
        mode="cpl",
        seed_path=str(write_seed(tmp_path)),
        output_dir=str(tmp_path / "out"),
        clock="fixed",
        verifier_backend="scripted",
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def decl(name: str, n: int) -> str:
    return f"theorem {name} : {n} = {n} := sorry"


# ---------------------------------------------------------------------------
# CPL trace
# ---------------------------------------------------------------------------


def test_cpl_trace_three_loops(tmp_path):
    # loop 1 conjectures {c1, c2}; loop 2 {c3}; loop 3 {}; proofs succeed
    # for c1 and c3 only -> final library is [c1, c3].
    config = base_config(
        tmp_path, loops=3, conjecture_iterations=1, max_trials=2
    )
    provider = ReplayProvider(
        {
            "conjecturer": [decl("c1", 1) + "\n\n" + decl("c2", 2), decl("c3", 3), ""],
            "prover": ["by p1", "by bad_a", "by bad_b", "by p3"],
        }
    )
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", "1 = 1", CheckResult("verified"), "by p1")
    session.script("verify_proof", "3 = 3", CheckResult("verified"), "by p3")
    gateway = Gateway(provider, sleep=lambda s: None)
    library = run_cpl(config, gateway=gateway, session=session)

    assert [e.statement.name for e in library.entries] == ["c1", "c3"]
    assert [e.provenance for e in library.entries] == ["cpl", "cpl"]

    events = read_events(Path(config.output_dir) / "events.jsonl")
    assert sum(1 for e in events if e.kind == "loop_complete") == 3
    assert sum(1 for e in events if e.kind == "run_complete") == 1
    # an empty third loop still counted
    assert events[-1].payload["library_size"] == 2


def test_cpl_persists_library_and_report(tmp_path):
    config = base_config(tmp_path, loops=1, conjecture_iterations=1)
    provider = ReplayProvider(
        {"conjecturer": [decl("only", 7)], "prover": ["by p"]}
    )
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", "7 = 7", CheckResult("verified"), "by p")
    run_cpl(config, gateway=Gateway(provider, sleep=lambda s: None), session=session)

    out = Path(config.output_dir)
    loaded = load_library(out / "library.lean")
    assert [e.statement.name for e in loaded.entries] == ["only"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["library_entries"] == 1
    assert report["mode"] == "cpl"


def test_event_log_reconstructs_library_exactly(tmp_path):
    config = base_config(tmp_path, loops=2, conjecture_iterations=1)
    provider = ReplayProvider(
        {
            "conjecturer": [decl("a", 1), decl("b", 2)],
            "prover": ["by pa", "by pb"],
        }
    )
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", "1 = 1", CheckResult("verified"), "by pa")
    session.script("verify_proof", "2 = 2", CheckResult("verified"), "by pb")
    library = run_cpl(
        config, gateway=Gateway(provider, sleep=lambda s: None), session=session
    )
    events = read_events(Path(config.output_dir) / "events.jsonl")
    assert replay_library(events, SEED) == library


def test_library_file_is_consistent_at_every_append(tmp_path):
    config = base_config(tmp_path, loops=2, conjecture_iterations=1)
    library_path = Path(config.output_dir) / "library.lean"
    seen_sizes = []

    def listener(event):
        if event.kind == "theorem_added":
            on_disk = load_library(library_path)
            seen_sizes.append(len(on_disk.entries))
            assert len(on_disk.entries) == event.payload["sequence_index"] + 1

    provider = ReplayProvider(
        {
            "conjecturer": [decl("a", 1), decl("b", 2)],
            "prover": ["by pa", "by pb"],
        }
    )
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", "1 = 1", CheckResult("verified"), "by pa")
    session.script("verify_proof", "2 = 2", CheckResult("verified"), "by pb")
    run_cpl(
        config,
        gateway=Gateway(provider, sleep=lambda s: None),
        session=session,
        listener=listener,
    )
    assert seen_sizes == [1, 2]


# ---------------------------------------------------------------------------
# Simple loop
# ---------------------------------------------------------------------------


def full_decl(name: str, n: int, proof: str) -> str:
    return f"theorem {name} : {n} = {n} := {proof}"


def test_simple_loop_trace(tmp_path):
    # iterations 1 and 3 succeed; iteration 2 exhausts all 16 trials.
    config = base_config(tmp_path, mode="simple_loop", loops=3, max_trials=16)
    responses = [full_decl("s1", 1, "by rfl")]
    responses += [full_decl("s2", 2, f"by bad{i}") for i in range(16)]
    responses += [full_decl("s3", 3, "by rfl")]
    provider = ReplayProvider({"simple_loop": responses})
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", "1 = 1", CheckResult("verified"), "by rfl")
    session.script("verify_proof", "3 = 3", CheckResult("verified"), "by rfl")
    library = run_simple_loop(
        config, gateway=Gateway(provider, sleep=lambda s: None), session=session
    )
    assert [e.statement.name for e in library.entries] == ["s1", "s3"]
    assert all(e.provenance == "simple_loop" for e in library.entries)

    events = read_events(Path(config.output_dir) / "events.jsonl")
    second_loop_attempts = [
        e
        for e in events
        if e.kind == "proof_attempt" and e.payload.get("loop") == 2
    ]
    assert len(second_loop_attempts) == 16


def test_simple_loop_rejects_sorry_declaration(tmp_path):
    config = base_config(tmp_path, mode="simple_loop", loops=1, max_trials=2)
    provider = ReplayProvider(
        {
            "simple_loop": [
                full_decl("cheat", 1, "by sorry"),
                full_decl("honest", 1, "by rfl"),
            ]
        }
    )
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", "1 = 1", CheckResult("verified"), "by rfl")
    library = run_simple_loop(
        config, gateway=Gateway(provider, sleep=lambda s: None), session=session
    )
    assert [e.statement.name for e in library.entries] == ["honest"]
    events = read_events(Path(config.output_dir) / "events.jsonl")
    attempts = [e for e in events if e.kind == "proof_attempt"]
    assert len(attempts) == 2
    assert attempts[0].payload["verdict"] == "failed"
    assert "sorry" in attempts[0].payload["diagnostics"][0]


def test_simple_loop_feedback_reaches_next_trial(tmp_path):
    config = base_config(tmp_path, mode="simple_loop", loops=1, max_trials=2)
    transcript = Path(config.output_dir) / "transcript.jsonl"
    Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    provider = ReplayProvider(
        {
            "simple_loop": [
                full_decl("try1", 1, "by nope"),
                full_decl("try2", 1, "by rfl"),
            ]
        }
    )
    from cpl.verifier import Diagnostic

    session = ScriptedVerifier(SEED)
    session.script(
        "verify_proof",
        "1 = 1",
        CheckResult(
            "failed", diagnostics=(Diagnostic("error", 1, 30, "nope is not a tactic"),)
        ),
        "by nope",
    )
    session.script("verify_proof", "1 = 1", CheckResult("verified"), "by rfl")
    gateway = Gateway(provider, sleep=lambda s: None, transcript_path=transcript)
    run_simple_loop(config, gateway=gateway, session=session)
    entries = read_transcript(transcript)
    assert "previous attempt:" in entries[1]["request"]["user_content"]
    assert "nope is not a tactic" in entries[1]["request"]["user_content"]


def scripted_replies(replies):
    """A provider answering from `replies`; an exception instance is raised."""
    queue = list(replies)

    def reply(request):
        item = queue.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    return CallableProvider(reply)


def test_simple_loop_attempt_payloads_cover_every_trial_branch(tmp_path):
    config = base_config(tmp_path, mode="simple_loop", loops=1, max_trials=6)
    unparsable = "I cannot write this in Lean."
    provider = scripted_replies(
        [
            TransportError("connection reset"),
            "",
            unparsable,
            full_decl("cheat", 1, "by sorry"),
            full_decl("wrong", 2, "by nope"),
            full_decl("right", 3, "by rfl"),
        ]
    )
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", "3 = 3", CheckResult("verified"), "by rfl")
    gateway = Gateway(provider, retry_cap=1, sleep=lambda s: None)
    library = run_simple_loop(config, gateway=gateway, session=session)
    assert [e.statement.name for e in library.entries] == ["right"]

    events = read_events(Path(config.output_dir) / "events.jsonl")
    attempts = [e.payload for e in events if e.kind == "proof_attempt"]

    def failed(trial, proof, message, empty=False):
        return {
            "loop": 1,
            "trial": trial,
            "proof": proof,
            "verdict": "failed",
            "diagnostics": [f"1:0 error {message}"],
            "empty_response": empty,
        }

    expected = [
        failed(
            1,
            "",
            "gateway transport failure: retries exhausted (1) for role "
            "'simple_loop': connection reset",
        ),
        # An empty reply is a failed trial here, not a surrender as in prove().
        failed(2, "", "unusable declaration: empty response", empty=True),
        failed(3, unparsable, "unusable declaration: no theorem declaration found"),
        failed(
            4,
            full_decl("cheat", 1, "by sorry"),
            "unusable declaration: proof script contains the 'sorry' token",
        ),
        {
            "loop": 1,
            "trial": 5,
            "conjecture": "wrong",
            "proof": full_decl("wrong", 2, "by nope"),
            "verdict": "failed",
            "diagnostics": ["1:0 error no fixture for verify_proof (default verdict)"],
            "empty_response": False,
        },
        {
            "loop": 1,
            "trial": 6,
            "conjecture": "right",
            "proof": full_decl("right", 3, "by rfl"),
            "verdict": "verified",
            "diagnostics": [],
            "empty_response": False,
        },
    ]
    # Key order too: it fixes the bytes of events.jsonl.
    assert [list(a.items()) for a in attempts] == [
        list(e.items()) for e in expected
    ]


def test_simple_loop_warns_once_per_iteration_on_truncated_context(tmp_path):
    # Iteration 1 adds s1; from then on seed + s1 exceeds the budget, so
    # iteration 2's context is truncated for each of its three trials.
    config = base_config(
        tmp_path, mode="simple_loop", loops=2, max_trials=3, context_budget=30
    )
    responses = [full_decl("s1", 1, "by rfl")]
    responses += [full_decl("s2", 2, f"by bad{i}") for i in range(3)]
    provider = ReplayProvider({"simple_loop": responses})
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", "1 = 1", CheckResult("verified"), "by rfl")
    run_simple_loop(
        config, gateway=Gateway(provider, sleep=lambda s: None), session=session
    )
    events = read_events(Path(config.output_dir) / "events.jsonl")
    truncations = [
        e
        for e in events
        if e.kind == "warning" and e.payload.get("where") == "simple_loop_context"
    ]
    assert len(truncations) == 1
    assert truncations[0].payload["message"].startswith("context truncated")


# ---------------------------------------------------------------------------
# Resume and crash consistency (bundled replay fixtures)
# ---------------------------------------------------------------------------


def demo_config(out_dir: Path) -> RunConfig:
    config = RunConfig.from_file(DEMO_CONFIG)
    config.output_dir = str(out_dir)
    return config


def run_demo_uninterrupted(out_dir: Path):
    return run(demo_config(out_dir))


def test_the_tracked_demo_fixtures_are_what_their_generator_writes(tmp_path):
    path = FIXTURES / "generate_cpl_demo.py"
    spec = importlib.util.spec_from_file_location("generate_cpl_demo", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    shutil.copy(FIXTURES / "seed.lean", tmp_path / "seed.lean")
    generator.main(tmp_path / "cpl_demo")
    for name in ("config.json", "verifier.json"):
        written = (tmp_path / "cpl_demo" / name).read_bytes()
        assert written == (FIXTURES / "cpl_demo" / name).read_bytes(), name

    def exchanges(responses: Path) -> list:
        entries = read_transcript(responses / "transcript.jsonl")
        return [(e["role_id"], e["request"], e["response"]) for e in entries]

    assert exchanges(tmp_path / "cpl_demo" / "responses") == exchanges(DEMO_RESPONSES)


def resume_demo(crash_dir: Path, reference: Path) -> None:
    """Resume the killed demo run; it must end as the uninterrupted one."""
    config = demo_config(crash_dir)
    config.resume = True
    run(config)
    assert check_run(crash_dir) == same_run(reference, crash_dir) == []


def test_resume_after_interrupt_matches_uninterrupted(tmp_path):
    run_demo_uninterrupted(tmp_path / "ref")
    crash_dir = tmp_path / "crash"
    state = {"loops": 0}

    def listener(event):
        if event.kind == "loop_complete":
            state["loops"] += 1
            if state["loops"] == 2:
                raise SimulatedCrash("interrupted after loop 2 of 3")

    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir), listener=listener)
    resume_demo(crash_dir, tmp_path / "ref")


def test_resume_mid_loop_rolls_back_uncommitted_entries(tmp_path):
    ref_dir = tmp_path / "ref"
    run_demo_uninterrupted(ref_dir)

    crash_dir = tmp_path / "crash"
    counter = {"added": 0}

    def listener(event):
        if event.kind == "theorem_added":
            counter["added"] += 1
            if counter["added"] == 2:  # mid-loop 1 (two appends in loop 1)
                raise SimulatedCrash("killed right after an append")

    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir), listener=listener)
    resume_demo(crash_dir, ref_dir)
    events = read_events(crash_dir / "events.jsonl")
    assert len([e for e in events if e.payload.get("where") == "resume"]) == 1


def test_library_file_is_the_dump_of_the_logged_library_at_every_append(tmp_path):
    out = tmp_path / "run"
    added = []

    def listener(event):
        if event.kind == "theorem_added":
            assert check_run(out) == []
            added.append(event.payload["sequence_index"])

    run(demo_config(out), listener=listener)
    assert added == [0, 1, 2, 3]


@pytest.mark.parametrize("kill_at_append", [1, 4])  # loop 1, loop 3
@pytest.mark.parametrize("written", ["all", "half", "mid-character"])
def test_a_kill_in_or_after_an_append_resumes_to_the_uninterrupted_bytes(
    tmp_path, writes, kill_at_append, written
):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    appends = [n for n, write in enumerate(writes) if write.path == reference / "library.lean"]
    keep = {
        "all": len,
        "half": lambda data: len(data) // 2,
        # inside a multi-byte character
        "mid-character": lambda data: next(i for i, byte in enumerate(data) if 0x80 <= byte < 0xC0),
    }[written]
    writes.clear()
    crash_dir = tmp_path / "crash"
    crash = SimulatedCrash("killed before the append's event")
    writes.tear(crash, index=appends[kill_at_append - 1], keep=keep)
    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir))
    writes.tear()
    resume_demo(crash_dir, reference)


def test_resume_ignores_a_torn_last_event_line(tmp_path):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    crash_dir = tmp_path / "crash"

    def listener(event):
        if event.kind == "loop_complete" and event.payload["loop"] == 2:
            raise SimulatedCrash("interrupted after loop 2 of 3")

    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir), listener=listener)
    with open(crash_dir / "events.jsonl", "ab") as handle:
        handle.write(b'{"sequence": 99999, "timestamp": "1970')
    resume_demo(crash_dir, reference)


def test_resume_continues_transcript_sequence_numbers(tmp_path):
    crash_dir = tmp_path / "crash"
    counter = {"added": 0}

    def listener(event):
        if event.kind == "theorem_added":
            counter["added"] += 1
            if counter["added"] == 3:  # in loop 2, after loop 1 committed
                raise SimulatedCrash("killed right after an append")

    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir), listener=listener)
    transcript = crash_dir / "transcript.jsonl"
    before = len(transcript_sequences(crash_dir))

    config = demo_config(crash_dir)
    config.resume = True
    run(config)
    sequences = transcript_sequences(crash_dir)
    assert len(sequences) > before
    assert sequences == list(range(len(sequences)))


def replay_demo(source: Path, out: Path, reference: Path) -> None:
    """Replay the demo run in `source` into `out`; it must end as the
    uninterrupted demo run in `reference`."""
    config = demo_config(out)
    config.replay_dir = str(source)
    run(config)
    assert check_run(out) == same_run(reference, out) == []


@pytest.mark.parametrize("kill_at_append", [1, 3])  # loop 1 (nothing committed), loop 2
def test_resumed_recorded_run_keeps_only_committed_exchanges_and_replays(
    tmp_path, kill_at_append
):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    expected = read_transcript(reference / "transcript.jsonl")

    crash_dir = tmp_path / "crash"
    counter = {"added": 0}

    def listener(event):
        if event.kind == "theorem_added":
            counter["added"] += 1
            if counter["added"] == kill_at_append:
                raise SimulatedCrash("killed right after an append")

    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir), listener=listener)
    held = len(transcript_lines(crash_dir))
    with open(crash_dir / "transcript.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"sequence": 99, "role_id": "pro')  # a torn last write
    config = demo_config(crash_dir)
    config.resume = True
    run(config)

    sequences = transcript_sequences(crash_dir)
    assert len(sequences) == len(expected) == 13
    assert sequences == list(range(13))
    entries = read_transcript(crash_dir / "transcript.jsonl")
    assert [e["request"] for e in entries] == [e["request"] for e in expected]
    # The redone loop's exchanges the kill left whole were served from the
    # transcript; the torn write was not one of them.
    committed = {1: 0, 3: 6}[kill_at_append]
    assert reused_flags(crash_dir) == [committed <= i < held for i in range(13)]
    assert [e["response"]["text"] for e in entries] == [
        e["response"]["text"] for e in expected
    ]
    replay_demo(crash_dir, tmp_path / "replayed", reference)


def test_fresh_recorded_run_into_a_used_directory_starts_its_records_over(tmp_path):
    used = tmp_path / "used"
    run_demo_uninterrupted(used)
    run_demo_uninterrupted(used)
    assert transcript_sequences(used) == list(range(13))
    replay_demo(used, tmp_path / "replayed", reference=used)


def test_a_fresh_run_through_a_gateway_that_made_calls_starts_its_counts_over(tmp_path):
    out = tmp_path / "out"
    gateway = Gateway(
        ReplayProvider.from_dir(FIXTURES / "cpl_demo" / "responses"),
        retry_cap=1,
        transcript_path=out / "transcript.jsonl",
        clock=FixedClock(),
    )
    run(demo_config(out), gateway=gateway)
    first = [(out / name).read_bytes() for name in ("library.lean", "events.jsonl")]
    run(demo_config(out), gateway=gateway)
    assert transcript_sequences(out) == list(range(13))
    starts = [
        e.payload["gateway_calls"]
        for e in read_events(out / "events.jsonl")
        if e.kind == "phase_start" and "gateway_calls" in e.payload
    ]
    assert set(starts[0].values()) == {0}
    assert [(out / name).read_bytes() for name in ("library.lean", "events.jsonl")] == first


def test_an_exhausted_call_replays_as_a_failed_trial(tmp_path):
    fixture = ReplayProvider.from_dir(FIXTURES / "cpl_demo" / "responses")
    prover_calls = {"n": 0}

    def reply(request):
        # The second prover call fails every attempt; later calls get
        # the replies the fixture holds from that call on.
        if request.role_id == "prover":
            prover_calls["n"] += 1
            if 2 <= prover_calls["n"] <= 4:
                raise TransportError("endpoint down")
        return fixture.complete(request)

    live = tmp_path / "live"
    live.mkdir()
    gateway = Gateway(
        CallableProvider(reply),
        retry_cap=3,
        transcript_path=live / "transcript.jsonl",
        sleep=lambda s: None,
    )
    run(demo_config(live), gateway=gateway)
    entries = read_transcript(live / "transcript.jsonl")
    assert [e["error"] for e in entries if e["response"] is None] == ["endpoint down"]

    replayed = tmp_path / "replayed"
    config = demo_config(replayed)
    config.replay_dir = str(live)
    run(config)
    assert (replayed / "library.lean").read_bytes() == (
        live / "library.lean"
    ).read_bytes()

    def attempts(out: Path) -> list:
        # The gateway's message counts the attempts: 3 live, 1 in a replay.
        events = [(e.kind, e.payload) for e in read_events(out / "events.jsonl")]
        return [json.dumps(e).replace("(3)", "(1)") for e in events]

    assert attempts(replayed) == attempts(live)
    assert "retries exhausted (1)" in (replayed / "events.jsonl").read_text("utf-8")


def test_a_config_with_a_replay_dir_replays_offline(tmp_path, monkeypatch):
    monkeypatch.delenv("CPL_API_KEY", raising=False)
    run_demo_uninterrupted(tmp_path / "ref")
    demo = FIXTURES / "cpl_demo"
    config = RunConfig(
        seed_path=str(FIXTURES / "seed.lean"),
        loops=3,
        conjecture_iterations=2,
        output_dir=str(tmp_path / "coded"),
        replay_dir=str(demo / "responses"),
        verifier_fixtures=str(demo / "verifier.json"),
    )
    run(config)
    assert (tmp_path / "coded" / "library.lean").read_bytes() == (
        tmp_path / "ref" / "library.lean"
    ).read_bytes()


def test_every_artifact_gets_the_mode_a_plain_open_gives(tmp_path):
    out = tmp_path / "run"
    previous = os.umask(0o022)
    try:
        with pytest.raises(SimulatedCrash):
            # after loop 2's append: the resume cuts every file
            run(demo_config(out), listener=KillAt(20))
        config = demo_config(out)
        config.resume = True
        run(config)
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
    assert set(modes) == {"library.lean", "events.jsonl", "transcript.jsonl", "report.json"}
    assert set(modes.values()) == {0o644}


def test_resume_with_tampered_library_names_entry(tmp_path):
    crash_dir = tmp_path / "crash"
    state = {"loops": 0}

    def listener(event):
        if event.kind == "loop_complete":
            state["loops"] += 1
            if state["loops"] == 2:
                raise SimulatedCrash()

    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir), listener=listener)

    library_path = crash_dir / "library.lean"
    text = library_path.read_text(encoding="utf-8")
    library_path.write_text(
        text.replace("Set.empty_subset _", "Set.univ_subset _"), encoding="utf-8"
    )
    config = demo_config(crash_dir)
    config.resume = True
    with pytest.raises(ResumeConsistencyError) as excinfo:
        run(config)
    assert "alphaOpen_empty" in str(excinfo.value)


def test_resume_of_complete_run_is_noop(tmp_path):
    out = tmp_path / "full"
    first = run_demo_uninterrupted(out)
    events_before = (out / "events.jsonl").read_bytes()
    config = demo_config(out)
    config.resume = True
    again = run(config)
    assert [e.statement.name for e in again.entries] == [
        e.statement.name for e in first.entries
    ]
    assert (out / "events.jsonl").read_bytes() == events_before


def test_resume_without_logs_refuses(tmp_path):
    config = demo_config(tmp_path / "empty")
    config.resume = True
    with pytest.raises(ResumeConsistencyError):
        run(config)


def test_a_resume_refuses_a_run_the_other_mode_wrote_and_changes_no_file(tmp_path):
    # A 2-loop simple-loop run killed after loop 1, resumed as a cpl run.
    config = base_config(tmp_path, mode="simple_loop", loops=2, max_trials=1)
    out = Path(config.output_dir)
    out.mkdir()
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", "1 = 1", CheckResult("verified"), "by rfl")
    gateway = Gateway(
        ReplayProvider({"simple_loop": [full_decl("s1", 1, "by rfl")] * 2}),
        sleep=lambda s: None,
        transcript_path=out / "transcript.jsonl",
    )

    def kill_after_loop_1(event) -> None:
        if event.kind == "loop_complete":
            raise SimulatedCrash("killed after loop 1")

    with pytest.raises(SimulatedCrash):
        run(config, gateway=gateway, session=session, listener=kill_after_loop_1)
    names = ("events.jsonl", "library.lean", "transcript.jsonl")
    before = {name: (out / name).read_bytes() for name in names}
    assert [e.payload["phase"] for e in read_events(out / "events.jsonl") if e.kind == "phase_start"] == ["simple"]

    config.mode, config.resume = "cpl", True
    with pytest.raises(ResumeConsistencyError, match="'simple'.*'conjecture'"):
        run(config)
    assert {name: (out / name).read_bytes() for name in names} == before

    from cpl import cli

    config_path = tmp_path / "simple.json"
    config_path.write_text(
        json.dumps({"mode": "simple_loop", "seed_path": config.seed_path, "loops": 2,
                    "max_trials": 1, "verifier_backend": "scripted", "clock": "fixed"}),
        encoding="utf-8",
    )
    args = ["run", "--config", str(config_path), "--out", str(out), "--resume"]
    assert cli.main(args + ["--mode", "cpl"]) == 1
    assert {name: (out / name).read_bytes() for name in names} == before


def test_prover_calls_match_transcript_and_attempts(tmp_path):
    out = tmp_path / "run"
    run(demo_config(out))
    events = read_events(out / "events.jsonl")
    attempt_events = [e for e in events if e.kind == "proof_attempt"]
    prover_calls = [t for t in transcript_lines(out) if t["role_id"] == "prover"]
    assert len(prover_calls) == len(attempt_events)
    # Every library entry corresponds to a verified attempt earlier in the log.
    verified_names = {
        e.payload.get("conjecture")
        for e in attempt_events
        if e.payload.get("verdict") == "verified"
    }
    for event in events:
        if event.kind == "theorem_added":
            assert event.payload["name"] in verified_names


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def test_config_defaults_match_protocol_constants():
    assert RunConfig(mode="cpl").resolved_loops() == 30
    assert RunConfig(mode="simple_loop").resolved_loops() == 400
    config = RunConfig()
    assert config.conjecture_iterations == 16
    assert config.max_trials == 16


def test_config_rejects_modes_run_does_not_handle():
    with pytest.raises(ValueError):
        RunConfig(mode="analyze")


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_trials", 0),
        ("retry_cap", 0),
        ("conjecture_iterations", 0),
        ("context_budget", 0),
        ("loops", -2),
        ("max_trials", None),
        ("rate_limit_rps", -1.0),
        ("rate_limit_rps", 0),
        ("command_timeout", 0.0),
        ("novelty_timeout", -5),
    ],
)
def test_config_rejects_a_setting_no_run_can_use(field, value):
    with pytest.raises(ValueError, match=f"^{field} is "):
        RunConfig(**{field: value})


def test_config_takes_the_least_settings_a_run_can_use():
    least = RunConfig(
        loops=0, max_trials=1, retry_cap=1, conjecture_iterations=1, context_budget=1,
        rate_limit_rps=0.01, command_timeout=0.5, novelty_timeout=1,
    )
    assert least.resolved_loops() == 0
    assert RunConfig(loops=None, rate_limit_rps=None).rate_limit_rps is None


def test_config_from_file_resolves_relative_paths(tmp_path):
    (tmp_path / "seed.lean").write_text(SEED, encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"mode": "cpl", "seed_path": "seed.lean", "loops": 2}),
        encoding="utf-8",
    )
    config = RunConfig.from_file(config_path)
    assert Path(config.seed_path).is_absolute()
    assert Path(config.seed_path).read_text(encoding="utf-8") == SEED
    assert config.loops == 2


def test_config_from_file_rejects_unknown_keys(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"mode": "cpl", "loopz": 3}), encoding="utf-8")
    with pytest.raises(ValueError):
        RunConfig.from_file(config_path)


def test_replay_defaults_to_fixed_clock():
    assert RunConfig(replay_dir="x").resolved_clock() == "fixed"
    assert RunConfig().resolved_clock() == "system"


# ---------------------------------------------------------------------------
# A kill at every write, for both drivers
# ---------------------------------------------------------------------------


class KillAt:
    """A listener that raises at the run's `index`-th event."""

    def __init__(self, index: int):
        self.index = index
        self.seen = 0

    def __call__(self, event) -> None:
        self.seen += 1
        if self.seen == self.index + 1:
            raise SimulatedCrash(f"killed at event {self.index}")


def transcript_sequences(out: Path) -> list[int]:
    return [line["sequence"] for line in read_json_lines(out / "transcript.jsonl")]


def resume_notes(out: Path) -> list[str]:
    return [
        e.payload["message"]
        for e in read_events(out / "events.jsonl")
        if e.payload.get("where") == "resume"
    ]


def torn(size: int) -> tuple[int, ...]:
    """How many of a write's `size` bytes a kill leaves on disk: none, one,
    half or all but one."""
    return (0, 1, size // 2, size - 1)


def assert_kills_resume_to(
    reference: Path, tmp_path: Path, start, writes, keeps=torn
) -> tuple[list[str], int]:
    """Kill `start(out, resume, replay_dir)` in each write of the reference
    run, which `writes` holds, once for each count of its bytes on disk that
    `keeps(size)` gives. Resume it, or run it again when the kill came
    before `events.jsonl` was written, and compare the ends; then replay
    the resumed directory into a fresh one and compare again. Returns the
    resume notes and the number of kills."""
    made = list(writes)
    assert check_run(reference) == []
    notes, kills = [], 0
    for n, write in enumerate(made):
        for keep in keeps(len(write.data)) if write.data else ():
            out, replayed = tmp_path / "killed", tmp_path / "replayed"
            writes.clear()
            writes.tear(SimulatedCrash(f"killed in write {n}"), index=n, keep=lambda data: keep)
            with pytest.raises(SimulatedCrash):
                start(out, False, None)
            writes.tear()
            start(out, (out / "events.jsonl").exists(), None)
            start(replayed, False, out)
            for ended in (out, replayed):
                assert check_run(ended) == same_run(reference, ended) == [], (n, keep, ended)
            notes += resume_notes(out)
            shutil.rmtree(out)
            shutil.rmtree(replayed)
            kills += 1
    return notes, kills


def test_a_kill_in_any_write_of_the_demo_run_resumes_to_the_uninterrupted_run(
    tmp_path, writes
):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)

    def start(out, resume, replay_dir):
        config = demo_config(out)
        config.resume = resume
        if replay_dir is not None:
            config.replay_dir = str(replay_dir)
        run(config)

    carrying = sum(1 for write in writes if write.data)
    notes, kills = assert_kills_resume_to(reference, tmp_path, start, writes)
    assert any("rolled back 1 uncommitted entry" in note for note in notes)
    print(f"{kills} kills in the demo run")
    assert kills == 4 * carrying == 4 * 49


def test_a_kill_in_any_write_of_a_simple_loop_run_resumes_to_the_uninterrupted_run(
    tmp_path, writes
):
    # loop 1 verifies at once, loop 2 fails both trials, loop 3 verifies
    # at its second trial, loop 4 at once.
    responses = [full_decl("s1", 1, "by rfl")]
    responses += [full_decl("s2", 2, f"by bad{i}") for i in range(2)]
    responses += [full_decl("s3", 3, "by bad"), full_decl("s3", 3, "by rfl")]
    responses += [full_decl("s4", 4, "by rfl")]

    def start(out, resume, replay_dir):
        config = base_config(
            tmp_path, mode="simple_loop", loops=4, max_trials=2, resume=resume
        )
        config.output_dir = str(out)
        config.replay_dir = replay_dir and str(replay_dir)
        out.mkdir(parents=True, exist_ok=True)
        session = ScriptedVerifier(SEED)
        for n in (1, 3, 4):
            session.script("verify_proof", f"{n} = {n}", CheckResult("verified"), "by rfl")
        gateway = None  # built from `replay_dir`
        if replay_dir is None:
            gateway = Gateway(
                ReplayProvider({"simple_loop": responses}),
                sleep=lambda s: None,
                transcript_path=out / "transcript.jsonl",
            )
        run(config, gateway=gateway, session=session)

    reference = tmp_path / "ref"
    start(reference, False, None)
    assert len(load_library(reference / "library.lean").entries) == 3
    carrying = sum(1 for write in writes if write.data)
    notes, kills = assert_kills_resume_to(reference, tmp_path, start, writes)
    assert any("rolled back 1 uncommitted entry" in note for note in notes)
    print(f"{kills} kills in the simple loop run")
    assert kills == 4 * carrying == 4 * 29


# ---------------------------------------------------------------------------
# Campaigns overlapping the conjecture phase's model waits
# ---------------------------------------------------------------------------

DEMO_RESPONSES = FIXTURES / "cpl_demo" / "responses"


class SlowReplay:
    """A replay provider whose every call first waits, as a model would:
    `delays[role]` seconds. It notes the most calls in flight at once and,
    for each call, its role and whether the main thread made it, and its
    request."""

    name = "replay"

    def __init__(self, source: Path, delays: dict[str, float]):
        self._replay = ReplayProvider.from_dir(source)
        self._delays = delays
        self._lock = threading.Lock()
        self._in_flight = 0
        self.most_in_flight = 0
        self.calls: list[tuple[str, bool]] = []
        self.requests: list = []

    def fast_forward(self, role_id: str, count: int) -> None:
        self._replay.fast_forward(role_id, count)

    def complete(self, request):
        with self._lock:
            self._in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self._in_flight)
            self.calls.append(
                (request.role_id, threading.current_thread() is threading.main_thread())
            )
            self.requests.append(request)
        try:
            time.sleep(self._delays[request.role_id])
            return self._replay.complete(request)
        finally:
            with self._lock:
                self._in_flight -= 1


def slow_gateway(source: Path, out: Path, conjecturer: float, prover: float) -> Gateway:
    """The gateway `build_gateway` makes to replay `source`, over `SlowReplay`."""
    return Gateway(
        SlowReplay(source, {"conjecturer": conjecturer, "prover": prover}),
        retry_cap=1,
        transcript_path=out / "transcript.jsonl",
        clock=FixedClock(),
    )


class OneAtATime:
    """A verifier session that notes whether two threads were ever inside
    its checks at once; each check takes a millisecond, so an overlap
    would show."""

    def __init__(self, session):
        self._session = session
        self._lock = threading.Lock()
        self._inside = 0
        self.overlapped = False

    def __getattr__(self, name):
        return getattr(self._session, name)

    def _check(self, method: str, *args):
        with self._lock:
            self._inside += 1
            self.overlapped |= self._inside > 1
        try:
            time.sleep(0.001)
            return getattr(self._session, method)(*args)
        finally:
            with self._lock:
                self._inside -= 1

    def check_validity(self, *args):
        return self._check("check_validity", *args)

    def check_novelty(self, *args):
        return self._check("check_novelty", *args)

    def verify_proof(self, *args):
        return self._check("verify_proof", *args)


def demo_session(config: RunConfig) -> OneAtATime:
    seed = Path(config.seed_path).read_text(encoding="utf-8")
    return OneAtATime(orchestrator.build_verifier(config, seed))


def test_campaigns_run_during_the_phase_write_what_a_serial_run_writes(tmp_path):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    out = tmp_path / "slow"
    config = demo_config(out)
    # A campaign's exchange and check (a millisecond each) take less time
    # than a conjecturer call, so the phase's calls end while the helper
    # works on.
    gateway = slow_gateway(DEMO_RESPONSES, out, conjecturer=0.006, prover=0.002)
    session = demo_session(config)
    threads = threading.active_count()
    run(config, gateway=gateway, session=session)
    assert threading.active_count() == threads
    assert check_run(out) == same_run(reference, out) == []
    calls = gateway.provider.calls
    assert gateway.provider.most_in_flight == 2
    assert ("prover", False) in calls  # a campaign ran on the helper
    assert ("prover", True) in calls  # and one after the phase, on the main thread
    assert not session.overlapped


def test_a_kill_in_any_write_of_a_run_with_campaigns_in_the_phase_resumes_to_the_uninterrupted_run(
    tmp_path, writes
):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    threads = threading.active_count()
    providers = []

    def start(out, resume, replay_dir):
        config = demo_config(out)
        config.resume = resume
        source = DEMO_RESPONSES
        if replay_dir is not None:
            source = replay_dir
            config.replay_dir = str(replay_dir)
        gateway = slow_gateway(source, out, conjecturer=0.001, prover=0.001)
        providers.append(gateway.provider)
        try:
            run(config, gateway=gateway)
        finally:
            assert threading.active_count() == threads

    # Torn bytes are the other sweeps' concern: here a kill leaves none of
    # the write, so it lands between two whole writes, as an event kill did.
    carrying = sum(1 for write in writes if write.data)
    notes, kills = assert_kills_resume_to(reference, tmp_path, start, writes, keeps=lambda size: (0,))
    assert kills == carrying == 49
    assert any("rolled back 1 uncommitted entry" in note for note in notes)
    assert any(("prover", False) in provider.calls for provider in providers)


def short_transcript(out: Path, role: str, keep: int) -> Path:
    """A copy of the demo's recording that holds only `role`'s first `keep`
    replies."""
    out.mkdir()
    seen = 0
    with open(out / "transcript.jsonl", "w", encoding="utf-8") as handle:
        for line in read_json_lines(DEMO_RESPONSES / "transcript.jsonl"):
            if line["role_id"] == role:
                seen += 1
                if seen > keep:
                    continue
            handle.write(json.dumps(line, ensure_ascii=False) + "\n")
    return out


@pytest.mark.parametrize(
    "role, keep",
    [
        ("prover", 0),  # the helper's first campaign runs out
        ("conjecturer", 1),  # the phase runs out during the helper's campaign
    ],
)
def test_a_run_that_runs_out_of_replies_leaves_the_files_and_error_of_a_serial_run(
    tmp_path, role, keep
):
    source = short_transcript(tmp_path / "short", role, keep)
    reference = demo_config(tmp_path / "ref")
    reference.replay_dir = str(source)
    with pytest.raises(FixtureExhaustedError) as serial:
        run(reference)

    config = demo_config(tmp_path / "slow")
    config.replay_dir = str(source)
    gateway = slow_gateway(source, tmp_path / "slow", conjecturer=0.005, prover=0.005)
    threads = threading.active_count()
    with pytest.raises(FixtureExhaustedError) as overlapped:
        run(config, gateway=gateway)
    assert threading.active_count() == threads
    assert str(overlapped.value) == str(serial.value)
    assert same_run(tmp_path / "ref", tmp_path / "slow") == []
    assert gateway.provider.most_in_flight == 2
    # The helper made a prover call; with no prover replies, it made the
    # only one, which ran out.
    provers = [call for call in gateway.provider.calls if call[0] == "prover"]
    assert ("prover", False) in provers
    assert role != "prover" or provers == [("prover", False)]


class Interrupted(BaseException):
    """Stands for a KeyboardInterrupt."""


def test_an_interrupt_while_the_helper_holds_the_lock_still_stops_and_joins_it(
    tmp_path, monkeypatch
):
    out = tmp_path / "out"
    config = demo_config(out)
    # The helper runs two campaigns during the second conjecturer call.
    gateway = slow_gateway(DEMO_RESPONSES, out, conjecturer=0.05, prover=0.001)
    seed = Path(config.seed_path).read_text(encoding="utf-8")
    session = orchestrator.build_verifier(config, seed)
    checking, interrupted = threading.Event(), threading.Event()
    verify_proof = session.verify_proof

    def helper_holds_the_lock(context, stmt, proof):
        # The helper's first check of the campaign that takes two trials
        # waits for the interrupt, holding the lock.
        if threading.current_thread() is not threading.main_thread():
            if stmt.name == "alphaOpen_univ" and not checking.is_set():
                checking.set()
                assert interrupted.wait(10)
        return verify_proof(context, stmt, proof)

    session.verify_proof = helper_holds_the_lock
    take = orchestrator._Campaigns._take
    seen = []

    def interrupt_the_first_retake_after_the_helper_starts(self):
        if threading.current_thread() is threading.main_thread():
            if self._thread is not None and not interrupted.is_set():
                assert checking.wait(10)
                seen.append(self)
                interrupted.set()
                raise Interrupted()
        take(self)

    monkeypatch.setattr(
        orchestrator._Campaigns, "_take", interrupt_the_first_retake_after_the_helper_starts
    )
    threads = threading.active_count()
    with pytest.raises(Interrupted):
        run(config, gateway=gateway, session=session)
    assert threading.active_count() == threads
    (campaigns,) = seen
    assert campaigns.stopped
    # The helper finished its first campaign. The second one's next
    # exchange let the lock go to `close`, and it unwound when that returned.
    first, second = campaigns.ran
    assert first.outcome.status == "verified"
    assert second.outcome is None and isinstance(second.error, orchestrator._Stopped)
    assert [call for call in gateway.provider.calls if call[0] == "prover"] == [
        ("prover", False)
    ] * 3
    # Nothing the helper staged is written.
    kinds = [event.kind for event in read_events(out / "events.jsonl")]
    assert kinds == ["phase_start", "conjecture_accepted", "conjecture_accepted"]
    assert [e["role_id"] for e in read_transcript(out / "transcript.jsonl")] == ["conjecturer"]


def test_the_helper_starts_a_campaign_only_while_the_main_threads_exchange_runs(
    tmp_path, monkeypatch
):
    # A campaign the helper starts once the main thread's exchange has
    # returned holds the main thread until that campaign's first exchange.
    # Here the second conjecturer call ends while the helper's first
    # campaign runs and a second one waits, and the main thread then takes
    # the lock back only after that first campaign ends.
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    out = tmp_path / "out"
    config = demo_config(out)
    gateway = slow_gateway(DEMO_RESPONSES, out, conjecturer=0.001, prover=0.001)
    session = demo_session(config)
    started, gap_opened, first_done = threading.Event(), threading.Event(), threading.Event()
    in_gap = threading.Event()  # set while the main thread's re-take is held back
    helper_starts = []  # (statement, whether the main thread was in its gap)

    prove = orchestrator._Campaigns.prove

    def noted_prove(self, stmt, gateway, events):
        if threading.current_thread() is threading.main_thread():
            return prove(self, stmt, gateway, events)
        helper_starts.append((stmt.name, in_gap.is_set()))
        started.set()
        try:
            return prove(self, stmt, gateway, events)
        finally:
            first_done.set()

    complete = gateway.provider.complete
    conjecturer_calls = []

    def second_conjecturer_call_waits_for_the_helper(request):
        if request.role_id == "conjecturer":
            conjecturer_calls.append(request)
            if len(conjecturer_calls) == 2:
                assert started.wait(10)
        return complete(request)

    verify_proof = session.verify_proof

    def helper_checks_once_the_gap_opens(context, stmt, proof):
        if threading.current_thread() is not threading.main_thread():
            assert gap_opened.wait(10)
        return verify_proof(context, stmt, proof)

    take = orchestrator._Campaigns._take

    def retake_late_after_the_helper_starts(self):
        main = threading.current_thread() is threading.main_thread()
        if not main or not started.is_set() or gap_opened.is_set():
            return take(self)
        in_gap.set()
        gap_opened.set()
        assert first_done.wait(10)
        take(self)
        in_gap.clear()

    monkeypatch.setattr(orchestrator._Campaigns, "prove", noted_prove)
    monkeypatch.setattr(orchestrator._Campaigns, "_take", retake_late_after_the_helper_starts)
    gateway.provider.complete = second_conjecturer_call_waits_for_the_helper
    session.verify_proof = helper_checks_once_the_gap_opens
    run(config, gateway=gateway, session=session)
    assert gap_opened.is_set() and helper_starts
    assert [name for name, during_gap in helper_starts if during_gap] == []
    assert check_run(out) == same_run(reference, out) == []
    assert not session.overlapped


@pytest.mark.parametrize("short", [False, True])
def test_a_run_closes_the_lean_session_it_opened(
    tmp_path, fake_repl_cmd, repl_gone, short
):
    pid_file = tmp_path / "repl.pid"
    out = tmp_path / "out"
    config = demo_config(out)
    config.verifier_backend = "lean"
    config.lean_command = fake_repl_cmd + ["--pid-file", str(pid_file)]
    if short:
        config.replay_dir = str(short_transcript(tmp_path / "short", "prover", 0))
        with pytest.raises(FixtureExhaustedError):
            run(config)
    else:
        assert len(run(config)) == 6
        # The fake applies Lean's environment rules in the child process
        # and in process under the full-resend reference: a check that sent
        # a declaration again on an environment holding it would be a
        # redeclaration in the first run only.
        full = tmp_path / "full"
        seed = Path(config.seed_path).read_text(encoding="utf-8")
        reference = FullResend(seed, command=[], client=Repl())
        run(replace(config, output_dir=str(full)), session=reference)
        assert check_run(out) == check_run(full) == same_run(full, out) == []
    assert repl_gone(pid_file)


# ---------------------------------------------------------------------------
# report.json describes the run in its directory
# ---------------------------------------------------------------------------


def test_a_fresh_run_clears_an_earlier_runs_report(tmp_path):
    out = tmp_path / "run"
    run_demo_uninterrupted(out)
    config = demo_config(out)
    config.loops = 2

    def listener(event):
        if event.kind == "loop_complete":
            raise SimulatedCrash("killed after loop 1")

    with pytest.raises(SimulatedCrash):
        run(config, listener=listener)
    assert not (out / "report.json").exists()


def test_a_fresh_run_removes_what_derives_from_the_earlier_runs_library(tmp_path):
    out = tmp_path / "run"
    run_demo_uninterrupted(out)
    derived = ["reprove_with_context.json", "reprove_focused.json", "report.txt", "histogram.csv"]
    kept = ["grades.jsonl", "nl_responses/index.jsonl"]
    (out / "nl_responses").mkdir()
    for name in derived + kept:
        (out / name).write_text("{}\n", encoding="utf-8")
    config = demo_config(out)
    config.loops = 1
    run(config)
    assert [name for name in derived if (out / name).exists()] == []
    assert [name for name in kept if (out / name).exists()] == kept


def test_a_resume_and_a_fresh_run_remove_the_temp_files_killed_writes_left(tmp_path):
    # A kill between `write_atomically`'s temp file and its rename leaves
    # the temp file; only names of that form are removed or reported.
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    out = tmp_path / "crash"
    left = ["library.lean.fedcba9876543210.tmp", "report.json.0123456789abcdef.tmp"]
    kept = ["notes.tmp", "report.json.0123456789ABCDEF.tmp", "report.json.tmp"]

    def place(names):
        for name in names:
            (out / name).write_bytes(b'{"partial')

    def listener(event):
        if event.kind == "loop_complete":
            raise SimulatedCrash("killed after loop 1")

    with pytest.raises(SimulatedCrash):
        run(demo_config(out), listener=listener)
    place(left + kept)
    assert check_run(out) == [f"{name}: a temp file a killed write left" for name in left]
    resume_demo(out, reference)
    assert sorted(path.name for path in out.glob("*.tmp")) == kept
    place(left)
    run(demo_config(out))
    assert check_run(out) == same_run(reference, out) == []
    assert sorted(path.name for path in out.glob("*.tmp")) == kept
    (out / "nl_responses").mkdir()
    (out / "nl_responses" / "r1.txt.0123456789abcdef.tmp").write_bytes(b"partial")
    assert check_run(out) == ["nl_responses/r1.txt.0123456789abcdef.tmp: a temp file a killed write left"]


def test_a_kill_right_after_run_complete_keeps_the_report(tmp_path):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    out = tmp_path / "crash"

    def listener(event):
        if event.kind == "run_complete":
            raise SimulatedCrash("killed after the run was committed")

    with pytest.raises(SimulatedCrash):
        run(demo_config(out), listener=listener)
    config = demo_config(out)
    config.resume = True
    run(config)
    assert same_run(reference, out) == []


# ---------------------------------------------------------------------------
# A resume reads the event log once and cuts both files in place
# ---------------------------------------------------------------------------


def write_killed_run(out: Path, loops: int, filler: int = 0) -> int:
    """A run directory killed in loop `loops + 1`, after one append:
    `loops` committed loops of two appends each, with `filler` warnings
    per loop. Returns the number of events up to the last committed loop."""
    out.mkdir(parents=True)
    library = Library(seed_source=SEED)
    save_library(library, out / "library.lean")
    log = EventLog(out / "events.jsonl", clock=FixedClock())
    opened = orchestrator._OpenRun(
        None, FixedClock(), None, None, log, out / "library.lean", "cpl"
    )
    keep = 0
    with log:
        for loop in range(1, loops + 2):
            log.emit("phase_start", loop=loop, phase="conjecture", library_size=len(library))
            for i in range(filler):
                log.emit("warning", message=f"ℕ ≤ {loop}.{i} " + "x" * 200)
            for i in range(2 if loop <= loops else 1):
                statement = TheoremStatement.from_source(decl(f"t{loop}_{i}", loop))
                library = opened.add(library, statement, ProofScript("rfl"), loop)
            if loop <= loops:
                log.emit(
                    "loop_complete",
                    loop=loop,
                    library_size=len(library),
                    gateway_calls={"conjecturer": loop, "prover": 2 * loop},
                )
                keep = log.next_sequence
    return keep


def resume_files(out: Path):
    return orchestrator._load_resume_point(
        SEED, out / "events.jsonl", out / "library.lean", "conjecture"
    )


def committed_bytes(out: Path, keep: int, tmp_path: Path) -> tuple[bytes, bytes]:
    """The event log as `truncate_events` cuts it and the library file as
    a rewrite to the committed entries leaves it."""
    reference = tmp_path / "reference"
    reference.mkdir()
    (reference / "events.jsonl").write_bytes((out / "events.jsonl").read_bytes())
    truncate_events(reference / "events.jsonl", keep)
    events = read_events(reference / "events.jsonl")
    save_library(replay_library(events, SEED), reference / "library.lean")
    return (
        (reference / "events.jsonl").read_bytes(),
        (reference / "library.lean").read_bytes(),
    )


def test_a_resume_cuts_a_large_log_to_the_bytes_truncate_events_leaves(tmp_path):
    out = tmp_path / "run"
    keep = write_killed_run(out, loops=3, filler=400)
    assert (out / "events.jsonl").stat().st_size > 3 * (1 << 16)  # several 64 KiB blocks
    events, library = committed_bytes(out, keep, tmp_path)
    committed, completed, sequence, calls, rolled_back = resume_files(out)
    assert (out / "events.jsonl").read_bytes() == events
    assert (out / "library.lean").read_bytes() == library
    assert (len(committed), completed, sequence, rolled_back) == (6, 3, keep, 1)
    assert calls == {"conjecturer": 3, "prover": 6, "simple_loop": 0, "nl_prover": 0}


@pytest.mark.parametrize(
    "torn",
    [
        b'{"sequence": 99999, "timestamp": "1970',
        '{"sequence": 99999, "payload": {"message": "ℕ'.encode()[:-1],
    ],
    ids=["inside a value", "inside a character"],
)
def test_a_resume_cuts_a_torn_last_event_line(tmp_path, torn):
    out = tmp_path / "run"
    keep = write_killed_run(out, loops=2, filler=3)
    events, library = committed_bytes(out, keep, tmp_path)
    with open(out / "events.jsonl", "ab") as handle:
        handle.write(torn)
    resume_files(out)
    assert (out / "events.jsonl").read_bytes() == events
    assert (out / "library.lean").read_bytes() == library


@pytest.mark.parametrize("written", ["all but the newline", "inside a character"])
def test_a_resume_cuts_a_library_block_torn_by_a_kill(tmp_path, written):
    out = tmp_path / "run"
    keep = write_killed_run(out, loops=2)
    events, library = committed_bytes(out, keep, tmp_path)
    # A block whose append was cut short, with no `theorem_added` logged.
    statement = TheoremStatement.from_source("theorem ℕ_torn : (1 : ℕ) = 1 := sorry")
    grown = Library(seed_source=SEED).append(statement, ProofScript("rfl"), "cpl", "t")
    tail = dump_tail(grown, 0).encode("utf-8")
    cut = len(tail) - 1 if written == "all but the newline" else tail.index("ℕ".encode()) + 1
    with open(out / "library.lean", "ab") as handle:
        handle.write(tail[:cut])
    *_, rolled_back = resume_files(out)
    assert rolled_back == 2
    assert (out / "events.jsonl").read_bytes() == events
    assert (out / "library.lean").read_bytes() == library


@pytest.mark.parametrize(
    "after", [b"", "\n-- [cpl:entry 4 ℕ".encode()[:-1]], ids=["nothing", "a torn block"]
)
def test_a_resume_appends_the_end_of_the_committed_dump_a_file_lacks(tmp_path, after):
    out = tmp_path / "run"
    keep = write_killed_run(out, loops=2)
    events, library = committed_bytes(out, keep, tmp_path)
    # The log's last append is uncommitted; drop it, then the final newline.
    (out / "library.lean").write_bytes(library[:-1] + after)
    path = out / "events.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:keep]))
    inode = (out / "library.lean").stat().st_ino
    resume_files(out)
    assert (out / "library.lean").read_bytes() == library
    assert (out / "library.lean").stat().st_ino == inode
    assert (out / "events.jsonl").read_bytes() == events


@pytest.mark.parametrize(
    "bad", [b'{"sequence": 1, "times', b"1, 2", b"[[3"], ids=["torn", "two", "open"]
)
def test_a_bad_line_before_the_last_stops_the_resume_and_changes_nothing(tmp_path, bad):
    out = tmp_path / "run"
    write_killed_run(out, loops=2, filler=2)
    path = out / "events.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(3, bad + b"\n")
    path.write_bytes(b"".join(lines))
    before = {name: (out / name).read_bytes() for name in ("events.jsonl", "library.lean")}
    with pytest.raises(json.JSONDecodeError):
        resume_files(out)
    assert {name: (out / name).read_bytes() for name in before} == before


def test_a_resume_keeps_the_library_files_inode_and_mode(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(SimulatedCrash):
        run(demo_config(out), listener=KillAt(20))  # after loop 2's append
    path = out / "library.lean"
    path.chmod(0o640)
    inode = path.stat().st_ino
    config = demo_config(out)
    config.resume = True
    run(config)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.stat().st_ino == inode
    run_demo_uninterrupted(tmp_path / "ref")
    assert path.read_bytes() == (tmp_path / "ref" / "library.lean").read_bytes()


def test_a_resume_of_a_finished_run_leaves_both_files_untouched(tmp_path):
    out = tmp_path / "full"
    run_demo_uninterrupted(out)
    paths = [out / "events.jsonl", out / "library.lean"]
    before = [(p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino) for p in paths]
    config = demo_config(out)
    config.resume = True
    run(config)
    assert [(p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino) for p in paths] == before


def test_a_run_past_its_budget_splices_its_prompts_and_reads_them_back(tmp_path):
    config = base_config(tmp_path, loops=10, conjecture_iterations=3, context_budget=5000)
    big = 10**120
    received = []

    def reply(request):
        received.append((request.role_id, request.user_content))
        if request.role_id == "prover":
            return "by omega"
        n = big + len(received)
        return f"theorem c{len(received)} (x : ℕ) : x + {n} = {n} + x := sorry"

    out = Path(config.output_dir)
    gateway = Gateway(
        CallableProvider(reply), sleep=lambda s: None, transcript_path=out / "transcript.jsonl"
    )
    session = ScriptedVerifier(SEED, defaults={"verify_proof": "verified"})
    run_cpl(config, gateway=gateway, session=session)

    events = read_events(out / "events.jsonl")
    assert any(e.payload.get("message", "").startswith("context truncated") for e in events)
    entries = read_transcript(out / "transcript.jsonl")
    assert [(e["role_id"], e["request"]["user_content"]) for e in entries] == received
    long_contexts = {text for _, text in received if len(text) >= INLINE_CONTEXT_CHARS}
    bases = [
        line for line in read_json_lines(out / "transcript.jsonl")
        if len(line["request"].get("user_content", "")) >= INLINE_CONTEXT_CHARS
    ]
    assert 0 < len(bases) < len(long_contexts) / 4
    assert not (out / "prompts").exists()


# ---------------------------------------------------------------------------
# A resume serves the redone loop's exchanges from the transcript
# ---------------------------------------------------------------------------


def transcript_lines(out: Path) -> list[dict]:
    """The lines of `out`'s transcript as written; none if there is none."""
    path = out / "transcript.jsonl"
    if not path.exists():
        return []
    return list(read_json_lines(path))


def test_transcript_helpers_read_lines_that_hold_unicode_line_breaks(tmp_path):
    # Transcript lines hold U+2028, U+2029 and U+0085 raw; `str.splitlines`
    # breaks a line at each of them, a reader of JSON lines must not.
    breaks = "\u2028 \u2029 \u0085"
    seed = tmp_path / "seed.lean"
    text = (FIXTURES / "seed.lean").read_text(encoding="utf-8")
    seed.write_text(text + "\n/- " + breaks + " -/\n", encoding="utf-8")
    recorded, replayed = tmp_path / "recorded", tmp_path / "replayed"
    for out, replay_dir in ((recorded, None), (replayed, recorded)):
        config = demo_config(out)
        config.seed_path = str(seed)
        if replay_dir is not None:
            config.replay_dir = str(replay_dir)
        run(config)
    text = (recorded / "transcript.jsonl").read_text(encoding="utf-8")
    assert len(text.splitlines()) > text.count("\n") == 13
    assert same_run(recorded, replayed) == []
    requests = [e["request"] for e in read_transcript(recorded / "transcript.jsonl")]
    assert all(breaks in request["user_content"] for request in requests)
    for out in (recorded, replayed):
        sequences = [line["sequence"] for line in transcript_lines(out)]
        assert sequences == transcript_sequences(out) == list(range(13))


def reused_flags(out: Path) -> list[bool]:
    """For each transcript line, whether its reply was served from the
    transcript a resume cut."""
    lines = transcript_lines(out)
    return [bool(line["response"] and line["response"].get("reused")) for line in lines]


def committed_calls(out: Path) -> int:
    """The calls the last `loop_complete` of `out`'s event log counts."""
    ends = [e for e in read_events(out / "events.jsonl") if e.kind == "loop_complete"]
    return sum(ends[-1].payload["gateway_calls"].values()) if ends else 0


def role_counts(lines) -> dict[str, int]:
    roles = [line["role_id"] for line in lines]
    return {role: roles.count(role) for role in ("conjecturer", "prover")}


def resume_through(out: Path, delay: float = 0.0, **overrides) -> SlowReplay:
    """Resume the demo run in `out` through a replay of the demo's replies
    that waits `delay` seconds a call; the replay, with the calls it got."""
    config = demo_config(out)
    config.resume = True
    for key, value in overrides.items():
        setattr(config, key, value)
    gateway = slow_gateway(DEMO_RESPONSES, out, conjecturer=delay, prover=delay)
    run(config, gateway=gateway, session=demo_session(config))
    return gateway.provider


@pytest.mark.parametrize("delay", [0.0, 0.001])  # counting only; sleeping as a model would
def test_a_resume_asks_the_model_only_for_the_exchanges_the_killed_transcript_lacks(
    tmp_path, delay
):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    wanted = role_counts(transcript_lines(reference))
    for k in range(len(read_events(reference / "events.jsonl"))):
        out = tmp_path / f"kill-{k}"
        with pytest.raises(SimulatedCrash):
            run(demo_config(out), listener=KillAt(k))
        held = role_counts(transcript_lines(out))
        committed = committed_calls(out)
        provider = resume_through(out, delay)
        assert check_run(out) == same_run(reference, out) == []
        asked = {role: sum(call[0] == role for call in provider.calls) for role in wanted}
        assert asked == {role: wanted[role] - held[role] for role in wanted}, k
        assert sum(reused_flags(out)) == sum(held.values()) - committed, k


class Reworded:
    """A verifier session whose failed proof checks of theorem `name` give
    `message` as their diagnostics' text."""

    def __init__(self, session, name: str, message: str):
        self._session, self._name, self._message = session, name, message

    def __getattr__(self, name):
        return getattr(self._session, name)

    def verify_proof(self, context, stmt, proof):
        result = self._session.verify_proof(context, stmt, proof)
        if stmt.name != self._name:
            return result
        diagnostics = tuple(
            replace(d, message=self._message) for d in result.diagnostics
        )
        return replace(result, diagnostics=diagnostics)


def cut_events_after(out: Path, index: int) -> None:
    """Keep the first `index + 1` lines of `out`'s event log, as a kill
    right after that event leaves it."""
    lines = (out / "events.jsonl").read_bytes().splitlines(keepends=True)
    (out / "events.jsonl").write_bytes(b"".join(lines[: index + 1]))


def test_a_resume_asks_a_role_again_from_its_first_request_that_differs(tmp_path):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    out = tmp_path / "out"
    shutil.copytree(reference, out)
    # Inside loop 1, after its prove phase starts: nothing is committed, and
    # the transcript holds the whole run, so every loop could be served.
    cut_events_after(out, 8)
    config = demo_config(out)
    config.resume = True
    gateway = slow_gateway(DEMO_RESPONSES, out, conjecturer=0.0, prover=0.0)
    # alphaOpen_univ's first trial fails with other diagnostics, so the
    # feedback in its retry, the run's third prover request, differs.
    session = Reworded(demo_session(config), "alphaOpen_univ", "tactic failed")
    run(config, gateway=gateway, session=session)

    provider = gateway.provider
    assert (out / "library.lean").read_bytes() == (reference / "library.lean").read_bytes()
    lines, expected = transcript_lines(out), transcript_lines(reference)
    assert [line["role_id"] for line in lines] == [line["role_id"] for line in expected]
    # Every conjecturer line is served; prover lines only up to the first
    # that differs. Live calls take the replies at the same positions.
    assert reused_flags(out) == [
        line["role_id"] == "conjecturer" or line["sequence"] in (2, 3) for line in expected
    ]
    assert [line["response"]["text"] for line in lines] == [
        line["response"]["text"] for line in expected
    ]
    assert [call[0] for call in provider.calls] == ["prover"] * 5
    assert "tactic failed" in provider.requests[0].user_content


def kill_before_loop_one_commits(event) -> None:
    if event.kind == "proof_attempt" and event.payload["conjecture"] == "semiOpen_of_isOpen":
        raise SimulatedCrash("killed before loop 1 commits")


def test_a_line_without_a_reply_is_asked_again_and_ends_its_roles_reuse(tmp_path):
    fixture = ReplayProvider.from_dir(DEMO_RESPONSES)
    prover_calls = {"n": 0}

    def reply(request):
        # The second prover call fails every attempt.
        if request.role_id == "prover":
            prover_calls["n"] += 1
            if 2 <= prover_calls["n"] <= 4:
                raise TransportError("endpoint down")
        return fixture.complete(request)

    out = tmp_path / "out"
    out.mkdir()
    gateway = Gateway(
        CallableProvider(reply),
        retry_cap=3,
        transcript_path=out / "transcript.jsonl",
        sleep=lambda s: None,
    )
    with pytest.raises(SimulatedCrash):
        run(demo_config(out), gateway=gateway, listener=kill_before_loop_one_commits)
    killed = read_transcript(out / "transcript.jsonl")
    assert [line["role_id"] for line in killed] == ["conjecturer"] * 2 + ["prover"] * 5
    assert killed[3]["response"] is None and killed[3]["error"] == "endpoint down"

    provider = resume_through(out)
    # The conjecturer lines and the prover line before the exhausted one
    # are served. The exhausted call and every prover call after it are
    # asked, from the fixture's second prover reply on, so the run ends as
    # the demo does.
    assert reused_flags(out) == [True] * 3 + [False] * 10
    asked = [r for r in provider.requests if r.role_id == "prover"]
    assert len(asked) == 6
    assert (asked[0].system_prompt, asked[0].user_content) == (
        killed[3]["request"]["system_prompt"],
        killed[3]["request"]["user_content"],
    )
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    assert check_run(out) == same_run(reference, out) == []


def test_a_torn_last_line_is_not_served_though_it_holds_the_next_request(tmp_path):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    out = tmp_path / "out"
    with pytest.raises(SimulatedCrash):
        run(demo_config(out), listener=KillAt(20))  # loop 2's append
    assert (len(transcript_lines(out)), committed_calls(out)) == (9, 6)
    # Loop 3's first line, whole but for its newline: a write a kill tore.
    line = (reference / "transcript.jsonl").read_bytes().splitlines()[9]
    with open(out / "transcript.jsonl", "ab") as handle:
        handle.write(line)
    provider = resume_through(out)
    assert check_run(out) == same_run(reference, out) == []
    assert reused_flags(out) == [6 <= i < 9 for i in range(13)]
    assert sorted(call[0] for call in provider.calls) == ["conjecturer"] * 2 + ["prover"] * 2


def test_a_fresh_run_into_a_used_directory_serves_nothing_from_its_transcript(tmp_path):
    out = tmp_path / "used"
    with pytest.raises(SimulatedCrash):
        run(demo_config(out), listener=kill_before_loop_one_commits)
    gateway = slow_gateway(DEMO_RESPONSES, out, conjecturer=0.0, prover=0.0)
    run(demo_config(out), gateway=gateway)
    assert len(gateway.provider.calls) == 13
    assert reused_flags(out) == [False] * 13


def test_a_resume_with_another_prompt_variant_serves_no_prover_exchange(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SimulatedCrash):
        run(demo_config(out), listener=kill_before_loop_one_commits)
    held = role_counts(transcript_lines(out))
    assert held == {"conjecturer": 2, "prover": 4}
    provider = resume_through(out, prompt_variant="false")
    served = [line["role_id"] for line in transcript_lines(out) if line["response"].get("reused")]
    assert served == ["conjecturer", "conjecturer"]
    assert [call[0] for call in provider.calls].count("prover") == 7


def test_a_resume_past_the_budget_serves_exchanges_whose_prompts_are_stored(tmp_path):
    big = 10**120

    def reply(request):
        if request.role_id == "prover":
            return "by omega"
        n = big + len(request.user_content)
        return f"theorem c{len(request.user_content)} (x : ℕ) : x + {n} = {n} + x := sorry"

    def start(out: Path, listener=None, resume=False) -> list:
        config = base_config(
            tmp_path, loops=12, conjecture_iterations=3, context_budget=5000, resume=resume
        )
        config.output_dir = str(out)
        asked = []

        def answer(request):
            asked.append(request)
            return reply(request)

        gateway = Gateway(
            CallableProvider(answer), sleep=lambda s: None, transcript_path=out / "transcript.jsonl"
        )
        session = ScriptedVerifier(SEED, defaults={"verify_proof": "verified"})
        run_cpl(config, gateway=gateway, session=session, listener=listener)
        return asked

    def kill_in_loop_eleven(event):
        if event.kind == "theorem_added" and event.payload["loop"] == 11:
            raise SimulatedCrash("killed after an append in loop 11")

    reference, out = tmp_path / "ref", tmp_path / "out"
    total = len(start(reference))
    with pytest.raises(SimulatedCrash):
        start(out, kill_in_loop_eleven)
    killed = transcript_lines(out)
    committed = committed_calls(out)
    # The cut removes lines that copy a long prompt from a base line it keeps.
    read_back = read_transcript(out / "transcript.jsonl")
    assert any(
        line["request"].get("user_content_base", committed) < committed
        and len(entry["request"]["user_content"]) >= INLINE_CONTEXT_CHARS
        for line, entry in zip(killed[committed:], read_back[committed:])
    )
    asked = start(out, resume=True)
    # The base lines the cut removed are written again, in the transcript.
    assert not (out / "prompts").exists()

    assert check_run(out) == same_run(reference, out) == []
    assert len(asked) == total - len(killed)
    assert reused_flags(out) == [committed <= i < len(killed) for i in range(total)]


# ---------------------------------------------------------------------------
# The transcript outlasts a power loss as far as `loop_complete` counts it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["cpl", "simple_loop"])
def test_the_transcript_is_fsynced_before_each_loop_complete(tmp_path, writes, mode):
    if mode == "cpl":
        out = tmp_path / "run"
        run(demo_config(out))
    else:
        config = base_config(tmp_path, mode="simple_loop", loops=3, max_trials=2)
        out = Path(config.output_dir)
        replies = [full_decl(f"s{i}", i, "by rfl") for i in range(3)]
        session = ScriptedVerifier(SEED, defaults={"verify_proof": "verified"})
        gateway = Gateway(
            ReplayProvider({"simple_loop": replies}),
            sleep=lambda s: None,
            transcript_path=out / "transcript.jsonl",
        )
        run_simple_loop(config, gateway=gateway, session=session)
    transcript = out / "transcript.jsonl"
    ends = [
        n
        for n, write in enumerate(writes)
        if write.path == out / "events.jsonl" and write.data
        and json.loads(write.data)["kind"] == "loop_complete"
    ]
    assert len(ends) == 3
    start = 0
    for end in ends:
        lines = [n for n in range(start, end) if writes[n].path == transcript and writes[n].data]
        synced = [n for n in range(start, end) if writes[n].path == transcript and writes[n].fsync]
        # The loop's last transcript line, then the fsync, then its end.
        assert lines and synced and lines[-1] < synced[-1]
        start = end


def test_a_resume_over_a_short_transcript_warns_that_a_replay_will_not_reproduce_it(
    tmp_path,
):
    reference, out = tmp_path / "ref", tmp_path / "out"
    run_demo_uninterrupted(reference)
    shutil.copytree(reference, out)
    lines = (out / "events.jsonl").read_bytes().splitlines(keepends=True)
    ends = [n for n, line in enumerate(lines) if json.loads(line)["kind"] == "loop_complete"]
    (out / "events.jsonl").write_bytes(b"".join(lines[: ends[1] + 1]))
    transcript = (out / "transcript.jsonl").read_bytes().splitlines(keepends=True)
    (out / "transcript.jsonl").write_bytes(b"".join(transcript[:6]))
    counted = sum(json.loads(lines[ends[1]])["payload"]["gateway_calls"].values())
    assert counted == 9

    config = demo_config(out)
    config.resume = True
    run(config)
    # Both of the resume's notes carry `where: "resume"`, one after the other.
    (first, resumed), second = [
        (e.sequence, e.payload["message"])
        for e in read_events(out / "events.jsonl")
        if e.kind == "warning" and e.payload.get("where") == "resume"
    ]
    assert resumed.startswith("resumed at loop 3")
    assert second == (
        first + 1,
        "transcript.jsonl holds 6 lines, fewer than the 9 model calls the committed "
        "loops count; --replay of this directory will not reproduce the run",
    )
    assert (out / "library.lean").read_bytes() == (reference / "library.lean").read_bytes()
    # A transcript that holds every counted call gets no such warning.
    shutil.rmtree(out)
    shutil.copytree(reference, out)
    (out / "events.jsonl").write_bytes(b"".join(lines[: ends[1] + 1]))
    run(config)
    assert [note.startswith("resumed at loop 3") for note in resume_notes(out)] == [True]
