from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import pytest

from cpl import orchestrator
from cpl.core import (
    Library,
    ProofScript,
    TheoremStatement,
    dump_library,
    dump_tail,
    load_library,
    save_library,
)
from cpl.events import (
    EventLog,
    FixedClock,
    read_events,
    replay_library,
    truncate_events,
)
from cpl.gateway import (
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


def test_resume_after_interrupt_matches_uninterrupted(tmp_path):
    reference = run_demo_uninterrupted(tmp_path / "ref")
    reference_bytes = (tmp_path / "ref" / "library.lean").read_bytes()

    crash_dir = tmp_path / "crash"
    state = {"loops": 0}

    def listener(event):
        if event.kind == "loop_complete":
            state["loops"] += 1
            if state["loops"] == 2:
                raise SimulatedCrash("interrupted after loop 2 of 3")

    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir), listener=listener)

    config = demo_config(crash_dir)
    config.resume = True
    resumed = run(config)
    assert (crash_dir / "library.lean").read_bytes() == reference_bytes
    assert [e.statement.name for e in resumed.entries] == [
        e.statement.name for e in reference.entries
    ]


def test_resume_mid_loop_rolls_back_uncommitted_entries(tmp_path):
    reference_bytes = None
    ref_dir = tmp_path / "ref"
    run_demo_uninterrupted(ref_dir)
    reference_bytes = (ref_dir / "library.lean").read_bytes()

    crash_dir = tmp_path / "crash"
    counter = {"added": 0}

    def listener(event):
        if event.kind == "theorem_added":
            counter["added"] += 1
            if counter["added"] == 2:  # mid-loop 1 (two appends in loop 1)
                raise SimulatedCrash("killed right after an append")

    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir), listener=listener)

    config = demo_config(crash_dir)
    config.resume = True
    run(config)
    assert (crash_dir / "library.lean").read_bytes() == reference_bytes
    events = read_events(crash_dir / "events.jsonl")
    resumed_notes = [
        e for e in events if e.kind == "warning" and "resumed" in e.payload["message"]
    ]
    assert len(resumed_notes) == 1


def logged_events(path: Path) -> list:
    """(kind, payload) of each event, without the note a resume adds."""
    return [
        (e.kind, e.payload)
        for e in read_events(path)
        if not (e.kind == "warning" and e.payload["message"].startswith("resumed at"))
    ]


def resume_demo(crash_dir: Path, reference: Path) -> None:
    """Resume the killed demo run; it must end as the uninterrupted one."""
    config = demo_config(crash_dir)
    config.resume = True
    run(config)
    assert (crash_dir / "library.lean").read_bytes() == (
        reference / "library.lean"
    ).read_bytes()
    assert logged_events(crash_dir / "events.jsonl") == logged_events(
        reference / "events.jsonl"
    )


def test_library_file_is_the_dump_of_the_logged_library_at_every_append(tmp_path):
    out = tmp_path / "run"
    seed = (FIXTURES / "seed.lean").read_text(encoding="utf-8")
    added = []

    def listener(event):
        if event.kind == "theorem_added":
            library = replay_library(read_events(out / "events.jsonl"), seed)
            text = (out / "library.lean").read_text(encoding="utf-8")
            assert text == dump_library(library)
            added.append(event.payload["sequence_index"])

    run(demo_config(out), listener=listener)
    assert added == [0, 1, 2, 3]


@pytest.mark.parametrize("kill_at_append", [1, 4])  # loop 1, loop 3
@pytest.mark.parametrize("written", ["all", "half", "mid-character"])
def test_a_kill_in_or_after_an_append_resumes_to_the_uninterrupted_bytes(
    tmp_path, monkeypatch, kill_at_append, written
):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)
    crash_dir = tmp_path / "crash"
    save_library = orchestrator.save_library
    appends = {"n": 0}

    def save(library, path, on_disk=None):
        if on_disk is None:
            return save_library(library, path)
        appends["n"] += 1
        if appends["n"] != kill_at_append:
            return save_library(library, path, on_disk=on_disk)
        tail = dump_library(library).encode("utf-8")[Path(path).stat().st_size :]
        if written == "all":
            cut = len(tail)
        elif written == "half":
            cut = len(tail) // 2
        else:  # inside a multi-byte character
            cut = next(i for i, byte in enumerate(tail) if 0x80 <= byte < 0xC0)
        with open(path, "ab") as handle:
            handle.write(tail[:cut])
        raise SimulatedCrash("killed before the append's event")

    monkeypatch.setattr(orchestrator, "save_library", save)
    with pytest.raises(SimulatedCrash):
        run(demo_config(crash_dir))
    monkeypatch.undo()
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
    before = len(transcript.read_text(encoding="utf-8").splitlines())

    config = demo_config(crash_dir)
    config.resume = True
    run(config)
    lines = transcript.read_text(encoding="utf-8").splitlines()
    assert len(lines) > before
    assert [json.loads(line)["sequence"] for line in lines] == list(range(len(lines)))


def replay_demo(source: Path, out: Path, reference: Path) -> None:
    """Replay the demo run in `source` into `out`; it must end as the
    uninterrupted demo run in `reference`."""
    config = demo_config(out)
    config.replay_dir = str(source)
    run(config)
    assert (out / "library.lean").read_bytes() == (
        reference / "library.lean"
    ).read_bytes()
    assert logged_events(out / "events.jsonl") == logged_events(
        reference / "events.jsonl"
    )


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
    with open(crash_dir / "transcript.jsonl", "a", encoding="utf-8") as handle:
        handle.write('{"sequence": 99, "role_id": "pro')  # a torn last write
    config = demo_config(crash_dir)
    config.resume = True
    run(config)

    lines = (crash_dir / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(expected) == 13
    assert [json.loads(line)["sequence"] for line in lines] == list(range(13))
    entries = read_transcript(crash_dir / "transcript.jsonl")
    assert [e["request"] for e in entries] == [e["request"] for e in expected]
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
        events = logged_events(out / "events.jsonl")
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


def test_prover_calls_match_transcript_and_attempts(tmp_path):
    out = tmp_path / "run"
    run(demo_config(out))
    events = read_events(out / "events.jsonl")
    attempt_events = [e for e in events if e.kind == "proof_attempt"]
    transcript_lines = [
        json.loads(line)
        for line in (out / "transcript.jsonl").read_text().splitlines()
    ]
    prover_calls = [t for t in transcript_lines if t["role_id"] == "prover"]
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
# A kill at every event, for both drivers
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


def run_report(out: Path) -> dict:
    """report.json without what differs between two directories and
    between a fresh and a resumed invocation."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    del report["config"]["output_dir"], report["config"]["resume"]
    return report


def transcript_sequences(out: Path) -> list[int]:
    lines = (out / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["sequence"] for line in lines]


def resume_notes(out: Path) -> list[str]:
    return [
        e.payload["message"]
        for e in read_events(out / "events.jsonl")
        if e.kind == "warning" and e.payload["message"].startswith("resumed at")
    ]


def assert_kills_resume_to(reference: Path, tmp_path: Path, start) -> list[str]:
    """Kill `start(out, listener, resume, replay_dir)` at each event of the
    reference run, resume it, and compare the ends; then replay the
    resumed directory into a fresh one and compare again. Returns the
    resume notes."""
    count = len(read_events(reference / "events.jsonl"))
    notes = []
    for k in range(count):
        out = tmp_path / f"kill-{k}"
        with pytest.raises(SimulatedCrash):
            start(out, KillAt(k), False, None)
        start(out, None, True, None)
        replayed = tmp_path / f"replay-{k}"
        start(replayed, None, False, out)
        for ended in (out, replayed):
            assert (ended / "library.lean").read_bytes() == (
                reference / "library.lean"
            ).read_bytes(), (k, ended)
            assert logged_events(ended / "events.jsonl") == logged_events(
                reference / "events.jsonl"
            ), (k, ended)
        sequences = transcript_sequences(out)
        assert sequences == list(range(len(sequences))), k
        assert run_report(out) == run_report(reference), k
        notes += resume_notes(out)
    return notes


def test_a_kill_at_any_event_of_the_demo_run_resumes_to_the_uninterrupted_run(
    tmp_path,
):
    reference = tmp_path / "ref"
    run_demo_uninterrupted(reference)

    def start(out, listener, resume, replay_dir):
        config = demo_config(out)
        config.resume = resume
        if replay_dir is not None:
            config.replay_dir = str(replay_dir)
        run(config, listener=listener)

    notes = assert_kills_resume_to(reference, tmp_path, start)
    assert any("rolled back 1 uncommitted entry" in note for note in notes)


def test_a_kill_at_any_event_of_a_simple_loop_run_resumes_to_the_uninterrupted_run(
    tmp_path,
):
    # loop 1 verifies at once, loop 2 fails both trials, loop 3 verifies
    # at its second trial, loop 4 at once.
    responses = [full_decl("s1", 1, "by rfl")]
    responses += [full_decl("s2", 2, f"by bad{i}") for i in range(2)]
    responses += [full_decl("s3", 3, "by bad"), full_decl("s3", 3, "by rfl")]
    responses += [full_decl("s4", 4, "by rfl")]

    def start(out, listener, resume, replay_dir):
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
        run(config, gateway=gateway, session=session, listener=listener)

    reference = tmp_path / "ref"
    start(reference, None, False, None)
    assert len(load_library(reference / "library.lean").entries) == 3
    notes = assert_kills_resume_to(reference, tmp_path, start)
    assert any("rolled back 1 uncommitted entry" in note for note in notes)


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
    assert run_report(out) == run_report(reference)


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
        SEED, out / "events.jsonl", out / "library.lean"
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
    from cpl.gateway import INLINE_CONTEXT_CHARS

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
    blobs = list((out / "prompts").iterdir())
    assert 0 < len(blobs) < len(long_contexts) / 4
