"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines. Criteria 4, 5 and 8 need a real Lean toolchain with Mathlib and
are skipped (with an explicit line) unless CPL_LEAN_REPL_CMD is set;
see the README for how to point them at a toolchain.
"""

from __future__ import annotations

import json
import os
import random
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cpl import cli
from cpl.core import Library, ProofScript, TheoremStatement
from cpl.evalharness import (
    nl_session,
    proof_length_histogram,
    reprove_all,
    reprove_focused,
)
from cpl.events import normalized_event_lines, read_events
from cpl.gateway import Gateway, ReplayProvider, read_transcript
from cpl.orchestrator import RunConfig, run, run_cpl, run_simple_loop
from cpl.prover import prove
from cpl.verifier import CheckResult, Diagnostic, LeanVerifier, ScriptedVerifier
from providers import CallableProvider

FIXTURES = Path(__file__).parent / "fixtures"
DEMO_CONFIG = FIXTURES / "cpl_demo" / "config.json"
SEED = "import Mathlib\n"

LEAN_CMD_ENV = "CPL_LEAN_REPL_CMD"
LEAN_CWD_ENV = "CPL_LEAN_REPL_CWD"


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def skip_line(n: int, reason: str) -> None:
    print(f"ACCEPTANCE {n}: SKIPPED - {reason}")


def lean_session_or_skip(n: int, seed_source: str) -> LeanVerifier:
    command = os.environ.get(LEAN_CMD_ENV)
    if not command:
        reason = (
            f"no Lean toolchain configured (set {LEAN_CMD_ENV}, e.g. "
            f"'lake env repl', and {LEAN_CWD_ENV} to a Mathlib project)"
        )
        skip_line(n, reason)
        pytest.skip(reason)
    return LeanVerifier(
        seed_source,
        command=shlex.split(command),
        cwd=os.environ.get(LEAN_CWD_ENV),
    )


def demo_config(out_dir: Path) -> RunConfig:
    config = RunConfig.from_file(DEMO_CONFIG)
    config.output_dir = str(out_dir)
    return config


# ---------------------------------------------------------------------------
# 1. Deterministic pipeline replay (scripted providers + scripted verifier)
# ---------------------------------------------------------------------------


def test_criterion_1_deterministic_replay(tmp_path):
    started = time.monotonic()
    for name in ("a", "b"):
        code = cli.main(
            [
                "run",
                "--mode",
                "cpl",
                "--config",
                str(DEMO_CONFIG),
                "--out",
                str(tmp_path / name),
            ]
        )
        assert code == 0
    elapsed = time.monotonic() - started

    lib_a = (tmp_path / "a" / "library.lean").read_bytes()
    lib_b = (tmp_path / "b" / "library.lean").read_bytes()
    assert lib_a == lib_b, "library.lean differs between replay runs"

    events_a = normalized_event_lines(tmp_path / "a" / "events.jsonl")
    events_b = normalized_event_lines(tmp_path / "b" / "events.jsonl")
    assert events_a == events_b, "events.jsonl differs after timestamp normalization"

    assert elapsed < 5.0, f"replay runs took {elapsed:.2f}s (budget 5s)"
    verdict(
        1,
        True,
        f"two replay runs byte-identical ({len(lib_a)} byte library, "
        f"{elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 2. Protocol constants from default configs
# ---------------------------------------------------------------------------


def test_criterion_2_protocol_constants(tmp_path):
    started = time.monotonic()
    seed_path = tmp_path / "seed.lean"
    seed_path.write_text(SEED, encoding="utf-8")

    # 30 CPL loops x 16 conjecturer iterations per phase (defaults).
    cpl_config = RunConfig(
        mode="cpl",
        seed_path=str(seed_path),
        output_dir=str(tmp_path / "cpl"),
        clock="fixed",
    )
    assert cpl_config.resolved_loops() == 30
    gateway = Gateway(CallableProvider(lambda r: ""), sleep=lambda s: None)
    run_cpl(cpl_config, gateway=gateway, session=ScriptedVerifier(SEED))
    events = read_events(tmp_path / "cpl" / "events.jsonl")
    loops = sum(1 for e in events if e.kind == "loop_complete")
    assert loops == 30, f"expected 30 loops, saw {loops}"
    assert gateway.calls_by_role["conjecturer"] == 30 * 16

    # 16 max prover trials (default), counted on an always-failing prover.
    trials_config = RunConfig(
        mode="cpl",
        seed_path=str(seed_path),
        output_dir=str(tmp_path / "trials"),
        loops=1,
        clock="fixed",
    )
    state = {"first": True}

    def one_conjecture(request):
        if request.role_id == "conjecturer":
            if state["first"]:
                state["first"] = False
                return "theorem lone : 1 = 1 := sorry"
            return ""
        return "by failing_tactic"

    gateway = Gateway(CallableProvider(one_conjecture), sleep=lambda s: None)
    run_cpl(trials_config, gateway=gateway, session=ScriptedVerifier(SEED))
    events = read_events(tmp_path / "trials" / "events.jsonl")
    attempts = [e for e in events if e.kind == "proof_attempt"]
    assert len(attempts) == 16, f"expected 16 prover trials, saw {len(attempts)}"

    # 400 simple-loop iterations (default).
    simple_config = RunConfig(
        mode="simple_loop",
        seed_path=str(seed_path),
        output_dir=str(tmp_path / "simple"),
        clock="fixed",
    )
    assert simple_config.resolved_loops() == 400
    counter = {"n": 0}

    def unique_decl(request):
        counter["n"] += 1
        return f"theorem s{counter['n']} : {counter['n']} = {counter['n']} := by rfl"

    session = ScriptedVerifier(SEED, defaults={"verify_proof": "verified"})
    gateway = Gateway(CallableProvider(unique_decl), sleep=lambda s: None)
    run_simple_loop(simple_config, gateway=gateway, session=session)
    events = read_events(tmp_path / "simple" / "events.jsonl")
    iterations = sum(1 for e in events if e.kind == "loop_complete")
    assert iterations == 400, f"expected 400 iterations, saw {iterations}"

    # 128 focused repetitions and 16 NL repetitions (defaults).
    gateway = Gateway(CallableProvider(lambda r: ""), sleep=lambda s: None)
    focused = reprove_focused(
        TheoremStatement.from_source("theorem f : 1 = 1 := sorry"),
        Library(seed_source=SEED),
        ScriptedVerifier(SEED),
        gateway,
    )
    assert focused.total == 128
    assert gateway.calls_by_role["prover"] == 128

    gateway = Gateway(CallableProvider(lambda r: "False"), sleep=lambda s: None)
    ids = nl_session(gateway, out_dir=tmp_path / "nl")
    assert len(ids) == 16
    assert gateway.calls_by_role["nl_prover"] == 16

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"constant checks took {elapsed:.2f}s (budget 10s)"
    verdict(
        2,
        True,
        f"16 iterations/phase, 16 trials, 30 cpl loops, 400 simple "
        f"iterations, 128 focused, 16 NL ({elapsed:.2f}s)",
    )


# ---------------------------------------------------------------------------
# 3. Prover-loop state machine
# ---------------------------------------------------------------------------


def test_criterion_3_prover_state_machine(tmp_path):
    conj = TheoremStatement.from_source("theorem goal : (1 : ℕ) = 1 := sorry")
    lib = Library(seed_source=SEED)

    # (a) success on trial 1 stops immediately
    session = ScriptedVerifier(SEED)
    session.script("verify_proof", conj, CheckResult("verified"), "by rfl")
    gateway = Gateway(ReplayProvider({"prover": ["by rfl", "never sent"]}), sleep=lambda s: None)
    outcome = prove(conj, lib, session, gateway)
    assert outcome.status == "verified"
    assert len(outcome.attempts) == 1
    assert gateway.calls_by_role["prover"] == 1

    # (b) empty response at trial k: k gateway calls, k-1 verifier calls
    k = 4
    session = ScriptedVerifier(SEED)
    responses = [f"by fail{i}" for i in range(k - 1)] + [""]
    gateway = Gateway(ReplayProvider({"prover": responses}), sleep=lambda s: None)
    outcome = prove(conj, lib, session, gateway)
    assert outcome.status == "declared_unprovable"
    assert len(outcome.attempts) == k
    assert gateway.calls_by_role["prover"] == k
    assert len(session.calls) == k - 1

    # (c) 16 failing trials; trial t>1 embeds trial t-1's diagnostics
    session = ScriptedVerifier(SEED)
    for i in range(16):
        session.script(
            "verify_proof",
            conj,
            CheckResult(
                "failed",
                diagnostics=(Diagnostic("error", 1, i, f"distinct diag {i}"),),
            ),
            f"by fail{i}",
        )
    transcript = tmp_path / "transcript.jsonl"
    gateway = Gateway(
        ReplayProvider({"prover": [f"by fail{i}" for i in range(16)]}),
        sleep=lambda s: None,
        transcript_path=transcript,
    )
    outcome = prove(conj, lib, session, gateway, max_trials=16)
    assert outcome.status == "failed_exhausted"
    assert len(outcome.attempts) == 16
    entries = read_transcript(transcript)
    assert len(entries) == 16
    for t in range(1, 16):
        user = entries[t]["request"]["user_content"]
        assert f"previous attempt:\nby fail{t - 1}" in user
        assert f"1:{t - 1} error distinct diag {t - 1}" in user
    verdict(3, True, "stop-on-success, surrender bookkeeping, feedback embedding")


# ---------------------------------------------------------------------------
# 4. Novelty semantics (gated on a real Lean 4 + Mathlib toolchain)
# ---------------------------------------------------------------------------


@pytest.mark.lean
def test_criterion_4_novelty_semantics(seed_source):
    session = lean_session_or_skip(4, seed_source)
    try:
        trivial = TheoremStatement.from_source("theorem t : 1 = 1 := sorry")
        result = session.check_novelty(seed_source, trivial)
        assert result.verdict == "known", result
        assert result.closing_term

        prior = TheoremStatement.from_source(
            "theorem listed_before : 2 + 2 = 4 := sorry"
        )
        context = seed_source + "\n" + prior.source_text + "\n"
        duplicate = TheoremStatement.from_source(
            "theorem listed_again : 2 + 2 = 4 := sorry"
        )
        result = session.check_novelty(context, duplicate)
        assert result.verdict == "known", result

        focused = TheoremStatement.from_source(
            (FIXTURES / "focused_statement.lean").read_text(encoding="utf-8")
        )
        result = session.check_novelty(seed_source, focused)
        assert result.verdict == "novel", result
    finally:
        session.close()
    verdict(4, True, "exact? classifies trivial, duplicated, and fresh statements")


# ---------------------------------------------------------------------------
# 5. The published intersection proof verifies (gated)
# ---------------------------------------------------------------------------


@pytest.mark.lean
def test_criterion_5_published_proof_verifies(seed_source, intersection_proof_declaration):
    session = lean_session_or_skip(5, seed_source)
    try:
        head, _, proof_text = intersection_proof_declaration.partition(":= ")
        statement = TheoremStatement.from_source(head.rstrip() + " := sorry")
        proof = ProofScript(proof_text.rstrip("\n"))
        result = session.verify_proof(seed_source, statement, proof)
        assert result.verdict == "verified", result.diagnostics
    finally:
        session.close()
    verdict(5, True, "intersection_of_alpha_open_sets_is_alpha_open verifies")


# ---------------------------------------------------------------------------
# 6. Accounting fidelity
# ---------------------------------------------------------------------------


def test_criterion_6_accounting_fidelity():
    lib = Library(seed_source=SEED)
    for i in range(10):
        lib = lib.append(
            TheoremStatement.from_source(f"theorem r{i} : {i} = {i} := sorry"),
            ProofScript(f"by tac{i}"),
            "fixture",
            "1970-01-01T00:00:00+00:00",
        )
    session = ScriptedVerifier(SEED)
    for i in range(10):
        result = (
            CheckResult("verified")
            if i != 3
            else CheckResult(
                "failed", diagnostics=(Diagnostic("error", 1, 0, "scripted miss"),)
            )
        )
        session.script("verify_proof", f"{i} = {i}", result, f"by re{i}")
    gateway = Gateway(
        ReplayProvider({"prover": [f"by re{i}" for i in range(10)]}),
        sleep=lambda s: None,
    )
    report = reprove_all(lib, "with_context", session, gateway, max_trials=1)
    assert report.success_count == 9
    assert report.total == 10
    assert report.success_rate == Fraction(9, 10)
    assert report.percent == "90%"

    hist_lib = Library(seed_source=SEED)
    for i, lines in enumerate([3, 12, 19]):
        body = "\n".join(f"  have h{j} : True := trivial" for j in range(lines - 1))
        hist_lib = hist_lib.append(
            TheoremStatement.from_source(f"theorem h{i} : {i} = {i} := sorry"),
            ProofScript("by\n" + body),
            "fixture",
            "1970-01-01T00:00:00+00:00",
        )
    histogram = proof_length_histogram(hist_lib, bin_width=10)
    assert histogram == [(0, 1), (10, 2)]
    assert sum(count for _, count in histogram) == 3
    verdict(6, True, "9/10 renders 90%; histogram bins 1 and 2 with total 3")


# ---------------------------------------------------------------------------
# 7. Crash-consistency at randomized kill points
# ---------------------------------------------------------------------------


class SimulatedKill(Exception):
    pass


def test_criterion_7_crash_consistency(tmp_path):
    reference_dir = tmp_path / "ref"
    run(demo_config(reference_dir))
    reference = (reference_dir / "library.lean").read_bytes()
    total_appends = sum(
        1
        for e in read_events(reference_dir / "events.jsonl")
        if e.kind == "theorem_added"
    )
    assert total_appends == 4

    rng = random.Random(2024)
    kill_points = rng.sample(range(1, total_appends + 1), 3)
    for kill_at in kill_points:
        crash_dir = tmp_path / f"kill_{kill_at}"
        seen = {"added": 0}

        def listener(event):
            if event.kind == "theorem_added":
                seen["added"] += 1
                if seen["added"] == kill_at:
                    raise SimulatedKill(f"killed after append #{kill_at}")

        with pytest.raises(SimulatedKill):
            run(demo_config(crash_dir), listener=listener)
        config = demo_config(crash_dir)
        config.resume = True
        run(config)
        resumed = (crash_dir / "library.lean").read_bytes()
        assert resumed == reference, f"kill point {kill_at} diverged"
    verdict(7, True, f"resume identical at kill points {sorted(kill_points)}")


# ---------------------------------------------------------------------------
# 8. The persisted fixture-run library elaborates for real (gated)
# ---------------------------------------------------------------------------


@pytest.mark.lean
def test_criterion_8_library_file_elaborates(tmp_path):
    run_dir = tmp_path / "run"
    run(demo_config(run_dir))
    library_text = (run_dir / "library.lean").read_text(encoding="utf-8")
    # Opening a session over the whole file is exactly the "elaborates
    # with zero errors" check; it raises VerifierStartupError otherwise.
    session = lean_session_or_skip(8, library_text)
    session.close()
    verdict(8, True, "fixture-run library.lean elaborates with zero errors")
