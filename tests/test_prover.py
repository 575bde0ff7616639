from __future__ import annotations

import pytest

from cpl.core import Library, ProofScript, TheoremStatement, render_context
from cpl.gateway import (
    Gateway,
    ReplayProvider,
    TransportError,
    read_transcript,
)
from cpl.prompts import PROVER_FALSE_PROMPT, PROVER_PROMPT
from cpl.prover import (
    STATUS_FAILED,
    STATUS_UNPROVABLE,
    STATUS_VERIFIED,
    format_feedback,
    prove,
)
from cpl.verifier import CheckResult, Diagnostic, ScriptedVerifier
from providers import CallableProvider

SEED = "import Mathlib\n"
CONJ = TheoremStatement.from_source("theorem goal : (1 : ℕ) = 1 := sorry")


def library() -> Library:
    return Library(seed_source=SEED)


def gateway_for(responses: list[str], **kw) -> Gateway:
    return Gateway(ReplayProvider({"prover": responses}), sleep=lambda s: None, **kw)


def scripted(verified_proofs: dict[str, bool] | None = None) -> ScriptedVerifier:
    session = ScriptedVerifier(SEED)
    for text, ok in (verified_proofs or {}).items():
        if ok:
            session.script("verify_proof", CONJ, CheckResult("verified"), text)
        else:
            session.script(
                "verify_proof",
                CONJ,
                CheckResult(
                    "failed",
                    diagnostics=(Diagnostic("error", 2, 4, f"broken: {text[:20]}"),),
                ),
                text,
            )
    return session


def test_success_on_first_trial_stops_immediately():
    session = scripted({"by rfl": True})
    gateway = gateway_for(["by rfl", "unused"])
    outcome = prove(CONJ, library(), session, gateway, max_trials=16)
    assert outcome.status == STATUS_VERIFIED
    assert len(outcome.attempts) == 1
    assert outcome.final_proof == ProofScript("by rfl")
    assert gateway.calls_by_role["prover"] == 1
    assert len(session.calls) == 1


def test_empty_response_at_trial_k_declares_unprovable():
    k = 3
    session = scripted({"bad0": False, "bad1": False})
    gateway = gateway_for(["bad0", "bad1", ""])
    outcome = prove(CONJ, library(), session, gateway, max_trials=16)
    assert outcome.status == STATUS_UNPROVABLE
    assert len(outcome.attempts) == k
    assert gateway.calls_by_role["prover"] == k
    assert len(session.calls) == k - 1  # no verifier call for the empty trial
    assert outcome.attempts[-1].result is None
    assert outcome.attempts[-1].proof_text == ""


def test_sixteen_failing_trials_exhaust_with_feedback(tmp_path):
    proofs = {f"by attempt_{i}": False for i in range(16)}
    session = scripted(proofs)
    transcript = tmp_path / "transcript.jsonl"
    gateway = gateway_for(list(proofs), transcript_path=transcript)
    outcome = prove(CONJ, library(), session, gateway, max_trials=16)
    assert outcome.status == STATUS_FAILED
    assert len(outcome.attempts) == 16
    assert gateway.calls_by_role["prover"] == 16

    entries = read_transcript(transcript)
    assert len(entries) == 16
    assert "previous attempt:" not in entries[0]["request"]["user_content"]
    for t in range(1, 16):
        user = entries[t]["request"]["user_content"]
        prior = f"by attempt_{t - 1}"
        assert f"previous attempt:\n{prior}" in user
        assert f"2:4 error broken: {prior[:20]}" in user


def test_feedback_block_format():
    diags = (Diagnostic("error", 3, 7, "unknown identifier 'zap'"),)
    text = format_feedback("CTX", "by zap", diags)
    assert text == (
        "CTX\n\nprevious attempt:\nby zap\n\nerrors:\n"
        "3:7 error unknown identifier 'zap'"
    )


def test_sorry_proof_is_failed_trial_without_verifier_call():
    session = scripted({"by rfl": True})
    gateway = gateway_for(["by\n  sorry", "by rfl"])
    outcome = prove(CONJ, library(), session, gateway, max_trials=16)
    assert outcome.status == STATUS_VERIFIED
    assert len(outcome.attempts) == 2
    first = outcome.attempts[0]
    assert first.result is not None and first.result.verdict == "failed"
    assert "sorry" in first.result.diagnostics[0].message
    assert len(session.calls) == 1  # only the good proof reached the verifier


def test_code_fences_stripped_from_responses():
    session = scripted({"by rfl": True})
    gateway = gateway_for(["```lean\nby rfl\n```"])
    outcome = prove(CONJ, library(), session, gateway)
    assert outcome.status == STATUS_VERIFIED
    assert outcome.final_proof == ProofScript("by rfl")


def test_transport_error_counts_trial_and_continues():
    state = {"n": 0}

    def flaky(request):
        state["n"] += 1
        if state["n"] == 1:
            raise TransportError("blip")
        return "by rfl"

    session = scripted({"by rfl": True})
    gateway = Gateway(CallableProvider(flaky), retry_cap=1, sleep=lambda s: None)
    outcome = prove(CONJ, library(), session, gateway, max_trials=3)
    assert outcome.status == STATUS_VERIFIED
    assert len(outcome.attempts) == 2
    assert "transport" in outcome.attempts[0].result.diagnostics[0].message


def test_verifier_crash_retried_once_then_counted_failed():
    from cpl.verifier import VerifierTransportError

    class CrashingVerifier(ScriptedVerifier):
        def __init__(self, crashes: int):
            super().__init__(SEED)
            self.crashes = crashes
            self.script("verify_proof", CONJ, CheckResult("verified"), "by rfl")

        def verify_proof(self, context, stmt, proof):
            if self.crashes > 0:
                self.crashes -= 1
                raise VerifierTransportError("backend crashed")
            return super().verify_proof(context, stmt, proof)

    # one crash: the retry succeeds within the same trial
    session = CrashingVerifier(crashes=1)
    gateway = gateway_for(["by rfl"])
    outcome = prove(CONJ, library(), session, gateway, max_trials=2)
    assert outcome.status == STATUS_VERIFIED
    assert len(outcome.attempts) == 1

    # persistent crashes: the trial is counted as failed, the loop goes on
    session = CrashingVerifier(crashes=10)
    gateway = gateway_for(["by rfl", ""])
    outcome = prove(CONJ, library(), session, gateway, max_trials=3)
    assert outcome.status == STATUS_UNPROVABLE
    assert outcome.attempts[0].result.verdict == "failed"
    assert "transport" in outcome.attempts[0].result.diagnostics[0].message


def test_prompt_variant_selects_false_prompt(tmp_path):
    transcript = tmp_path / "t.jsonl"
    session = scripted()
    gateway = gateway_for([""], transcript_path=transcript)
    outcome = prove(CONJ, library(), session, gateway, prompt_variant="false")
    assert outcome.status == STATUS_UNPROVABLE
    (entry,) = read_transcript(transcript)
    assert entry["request"]["system_prompt"] == PROVER_FALSE_PROMPT
    assert entry["request"]["system_prompt"] != PROVER_PROMPT


def entries_library(seed: str, count: int) -> Library:
    lib = Library(seed_source=seed)
    for i in range(count):
        stmt = TheoremStatement.from_source(f"theorem e{i} : ({i} : ℕ) = {i} := sorry")
        lib = lib.append(stmt, ProofScript("by\n  rfl"), "cpl", "t")
    return lib


def test_model_and_verifier_get_same_context(tmp_path):
    """Both see the same library. The prompt is the seed, the entries the
    budget keeps and the target's stub. The verifier gets the library's
    own rendering at every budget (every entry, no seed, no stub), so the
    proof is the target's only declaration and Lean sees what the prompt
    dropped."""
    stub = CONJ.source_text.strip()
    full = 400_000
    cases = [
        (Library(seed_source=SEED), full),
        (Library(seed_source="import Mathlib"), full),
        (Library(seed_source=""), full),
        (entries_library(SEED, 3), full),
        (entries_library("import Mathlib", 3), full),
    ]
    lib = entries_library(SEED, 6)
    budget = len(render_context(lib.prefix(0), [CONJ], full)) + 60
    cases.append((lib, budget))
    for index, (lib, budget) in enumerate(cases):
        seen = []

        class CapturingVerifier(ScriptedVerifier):
            def verify_proof(self, context, stmt, proof):
                seen.append(context)
                return super().verify_proof(context, stmt, proof)

        session = CapturingVerifier(lib.seed_source)
        session.script("verify_proof", CONJ, CheckResult("verified"), "by rfl")
        transcript = tmp_path / f"t{index}.jsonl"
        gateway = gateway_for(["by simp", "by rfl"], transcript_path=transcript)
        outcome = prove(CONJ, lib, session, gateway, context_budget=budget)
        assert outcome.status == STATUS_VERIFIED
        first, retry = read_transcript(transcript)
        notes: list[str] = []
        prompt = render_context(lib, [CONJ], budget, warnings=notes)
        assert first["request"]["user_content"] == prompt, index
        assert retry["request"]["user_content"].startswith(prompt + "\n\n")
        assert prompt.endswith(stub)
        assert bool(notes) == (budget != full)
        # Every trial's check gets the one cached rendering.
        assert len(seen) == 2 and all(c is lib.rendered[0] for c in seen), index
        assert stub not in seen[0]
        if notes:
            # Lean sees the entries the prompt dropped.
            assert "theorem e0 " in seen[0] and "theorem e0 " not in prompt
        else:
            # The same text as the prompt after the seed, less the stub.
            tail = prompt[len(lib.seed_source) :].strip("\n")
            assert tail == (seen[0] + "\n\n" + stub if seen[0] else stub), index


def test_verified_proof_reverifies_with_same_inputs():
    session = scripted({"by rfl": True})
    gateway = gateway_for(["by rfl"])
    lib = library()
    outcome = prove(CONJ, lib, session, gateway)
    context = render_context(lib, [CONJ], 400_000)
    again = session.verify_proof(context, CONJ, outcome.final_proof)
    assert again.verdict == "verified"


def test_gateway_calls_equal_attempt_count():
    session = scripted({"by one": False, "by two": False, "by three": False})
    gateway = gateway_for(["by one", "by two", "by three"])
    outcome = prove(CONJ, library(), session, gateway, max_trials=3)
    assert outcome.status == STATUS_FAILED
    assert gateway.calls_by_role["prover"] == len(outcome.attempts) == 3


def test_events_logged_per_attempt(tmp_path):
    from cpl.events import EventLog, FixedClock, read_events

    session = scripted({"by rfl": True})
    gateway = gateway_for(["by nope", "by rfl"])
    session.script(
        "verify_proof",
        CONJ,
        CheckResult("failed", diagnostics=(Diagnostic("error", 1, 0, "no"),)),
        "by nope",
    )
    with EventLog(tmp_path / "e.jsonl", clock=FixedClock()) as events:
        prove(
            CONJ,
            library(),
            session,
            gateway,
            events=events,
            event_extra={"loop": 2},
        )
    logged = read_events(tmp_path / "e.jsonl")
    attempts = [e for e in logged if e.kind == "proof_attempt"]
    assert len(attempts) == 2
    assert attempts[0].payload["loop"] == 2
    assert attempts[0].payload["verdict"] == "failed"
    assert attempts[1].payload["verdict"] == "verified"
