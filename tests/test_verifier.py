from __future__ import annotations

import json
import random
import re
import sys
import textwrap
import time

import pytest

from cpl.conjecture import run_conjecture_phase
from cpl.core import Library, ProofScript, TheoremStatement, render_context
from cpl.gateway import Gateway, ReplayProvider
from cpl.prover import verify_with_retry
from cpl.verifier import (
    CheckResult,
    Diagnostic,
    LeanReplClient,
    LeanVerifier,
    ScriptedVerifier,
    VerifierStartupError,
    VerifierTimeoutError,
    VerifierTransportError,
    _parse_messages,
    _rebase,
    open_session,
)

STMT = TheoremStatement.from_source("theorem t : (1 : ℕ) = 1 := sorry")
PROOF = ProofScript("rfl")


# ---------------------------------------------------------------------------
# CheckResult invariants
# ---------------------------------------------------------------------------


def test_known_requires_closing_term():
    with pytest.raises(ValueError):
        CheckResult(verdict="known")
    with pytest.raises(ValueError):
        CheckResult(verdict="novel", closing_term="rfl")
    CheckResult(verdict="known", closing_term="rfl")


def test_invalid_and_failed_require_error_diagnostic():
    with pytest.raises(ValueError):
        CheckResult(verdict="invalid")
    with pytest.raises(ValueError):
        CheckResult(
            verdict="failed",
            diagnostics=(Diagnostic("warning", 1, 0, "just a warning"),),
        )
    CheckResult(
        verdict="failed", diagnostics=(Diagnostic("error", 1, 0, "boom"),)
    )


# ---------------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------------


def test_scripted_hit_and_miss(seed_source):
    session = ScriptedVerifier(seed_source)
    session.script("verify_proof", STMT, CheckResult("verified"), proof_text="rfl")
    hit = session.verify_proof("ctx", STMT, PROOF)
    assert hit.verdict == "verified"
    assert session.fixture_misses == []

    miss = session.verify_proof("ctx", STMT, ProofScript("by norm_num"))
    assert miss.verdict == "failed"  # per-op default
    assert miss.errors()
    assert len(session.fixture_misses) == 1


def test_scripted_defaults_per_operation(seed_source):
    session = ScriptedVerifier(seed_source)
    assert session.check_validity("ctx", STMT).verdict == "valid"
    assert session.check_novelty("ctx", STMT).verdict == "novel"
    assert session.verify_proof("ctx", STMT, PROOF).verdict == "failed"


def test_scripted_results_are_deterministic(seed_source):
    session = ScriptedVerifier(seed_source)
    session.script(
        "check_novelty", STMT, CheckResult("known", closing_term="rfl")
    )
    first = session.check_novelty("ctx", STMT)
    second = session.check_novelty("ctx", STMT)
    assert first == second
    assert first.closing_term == "rfl"


def test_scripted_key_is_whitespace_insensitive(seed_source):
    session = ScriptedVerifier(seed_source)
    session.script("check_validity", "(1 : ℕ) = 1", CheckResult("valid"))
    spaced = TheoremStatement.from_source(
        "theorem other : (1 :  ℕ)  = 1 := sorry"
    )
    session.check_validity("ctx", spaced)
    assert session.fixture_misses == []


def test_scripted_from_file(tmp_path, seed_source):
    fixture = {
        "defaults": {"verify_proof": "verified"},
        "checks": [
            {
                "op": "check_validity",
                "statement": "(1 : ℕ) = 1",
                "verdict": "invalid",
                "diagnostics": [
                    {"severity": "error", "line": 1, "column": 5, "message": "nope"}
                ],
            }
        ],
    }
    path = tmp_path / "verifier.json"
    path.write_text(json.dumps(fixture), encoding="utf-8")
    session = ScriptedVerifier.from_file(path, seed_source)
    assert session.check_validity("ctx", STMT).verdict == "invalid"
    assert session.verify_proof("ctx", STMT, PROOF).verdict == "verified"


def test_scripted_self_detection_bookkeeping(seed_source):
    # Novel on first sight; once the statement is part of the context the
    # fixtures flip it to known, mirroring what `exact?` does for real.
    session = ScriptedVerifier(seed_source)
    session.script("check_novelty", STMT, CheckResult("novel"))
    assert session.check_novelty(seed_source, STMT).verdict == "novel"
    session.script(
        "check_novelty", STMT, CheckResult("known", closing_term="t")
    )
    after = session.check_novelty(seed_source + "\n" + STMT.source_text, STMT)
    assert after.verdict == "known"
    assert after.closing_term == "t"


def test_open_session_scripted_startup_error():
    seed = "def x : := 3"
    session = ScriptedVerifier(seed)  # fine without a startup fixture
    assert session.seed_source == seed

    checks = {
        ("open_session", "def x : := 3", ""): CheckResult(
            "invalid",
            diagnostics=(Diagnostic("error", 1, 8, "unexpected token ':='"),),
        )
    }
    with pytest.raises(VerifierStartupError) as excinfo:
        ScriptedVerifier(seed, checks=checks)
    assert excinfo.value.diagnostics


# ---------------------------------------------------------------------------
# Diagnostic re-basing
# ---------------------------------------------------------------------------


def test_rebase_shifts_into_snippet_coordinates():
    diags = [
        Diagnostic("error", 12, 4, "inside snippet"),
        Diagnostic("warning", 3, 0, "context sorry warning"),
        Diagnostic("error", 2, 0, "context error"),
    ]
    rebased = _rebase(diags, offset_lines=10)
    assert rebased[0] == Diagnostic("error", 2, 4, "inside snippet")
    # Context warnings vanish; context errors are kept, clamped to 1:0.
    assert rebased[1] == Diagnostic("error", 1, 0, "context error")
    assert len(rebased) == 2


# ---------------------------------------------------------------------------
# LeanVerifier over a fake protocol client
# ---------------------------------------------------------------------------


class FakeClient:
    def __init__(self, items):
        self.items = list(items)
        self.requests: list[dict] = []
        self.closed = False

    def run(self, payload, timeout):
        self.requests.append({"payload": payload, "timeout": timeout})
        item = self.items.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def close(self):
        self.closed = True


def make_session(seed: str, items) -> tuple[LeanVerifier, FakeClient]:
    client = FakeClient([{"env": 7, "messages": []}] + list(items))
    session = LeanVerifier(seed, command=[], client=client)
    return session, client


def sorry_warning(line: int) -> dict:
    return {
        "severity": "warning",
        "pos": {"line": line, "column": 0},
        "data": "declaration uses 'sorry'",
    }


def test_base_environment_built_once_from_seed():
    seed = "import Mathlib\n\ndef marker := 1\n"
    session, client = make_session(seed, [{"env": 8, "messages": []}])
    assert session.base_environment == 7
    assert client.requests[0]["payload"] == {"cmd": seed}
    session.check_validity(seed, STMT)
    assert client.requests[1]["payload"]["env"] == 7


def test_seed_without_mathlib_gets_import_prepended():
    session, client = make_session("def marker := 1\n", [])
    assert client.requests[0]["payload"]["cmd"].startswith("import Mathlib\n")


def test_startup_error_carries_diagnostics():
    client = FakeClient(
        [
            {
                "env": 0,
                "messages": [
                    {
                        "severity": "error",
                        "pos": {"line": 1, "column": 8},
                        "data": "unexpected token",
                    }
                ],
            }
        ]
    )
    with pytest.raises(VerifierStartupError) as excinfo:
        LeanVerifier("def x : := 3", command=[], client=client)
    assert excinfo.value.diagnostics[0].message == "unexpected token"


def test_validity_accepts_sorry_warning_only():
    seed = "import Mathlib\n"
    session, client = make_session(seed, [{"env": 9, "messages": [sorry_warning(1)]}])
    result = session.check_validity(seed, STMT)
    assert result.verdict == "valid"
    # The seed prefix is stripped: only the statement is submitted.
    assert client.requests[1]["payload"]["cmd"] == STMT.source_text


def test_validity_error_is_invalid():
    seed = "import Mathlib\n"
    session, _ = make_session(
        seed,
        [
            {
                "env": 9,
                "messages": [
                    {
                        "severity": "error",
                        "pos": {"line": 1, "column": 12},
                        "data": "unknown identifier 'wat'",
                    }
                ],
            }
        ],
    )
    result = session.check_validity(seed, STMT)
    assert result.verdict == "invalid"
    assert result.errors()[0].message == "unknown identifier 'wat'"


def test_context_is_submitted_and_positions_rebased():
    seed = "import Mathlib\n"
    context = seed + "theorem prior : True := sorry"
    session, client = make_session(
        seed,
        [
            {
                "env": 9,
                "messages": [
                    sorry_warning(1),  # belongs to the context line: dropped
                    {
                        "severity": "error",
                        "pos": {"line": 3, "column": 4},
                        "data": "type mismatch",
                    },
                ],
            }
        ],
    )
    result = session.check_validity(context, STMT)
    sent = client.requests[1]["payload"]["cmd"]
    assert sent == "theorem prior : True := sorry\n\n" + STMT.source_text
    assert result.verdict == "invalid"
    (diag,) = result.diagnostics
    assert (diag.line, diag.column) == (1, 4)


def test_validity_timeout_is_conservative_invalid():
    seed = "import Mathlib\n"
    session, _ = make_session(seed, [VerifierTimeoutError("slow")])
    result = session.check_validity(seed, STMT)
    assert result.verdict == "invalid"
    assert "timed out" in result.errors()[0].message


def test_novelty_try_this_means_known():
    seed = "import Mathlib\n"
    session, client = make_session(
        seed,
        [
            {
                "env": 9,
                "messages": [
                    {
                        "severity": "info",
                        "pos": {"line": 1, "column": 30},
                        "data": "Try this: exact Nat.le_refl 1",
                    }
                ],
            }
        ],
    )
    result = session.check_novelty(seed, STMT)
    assert result.verdict == "known"
    assert result.closing_term == "Nat.le_refl 1"
    assert client.requests[1]["payload"]["cmd"].endswith(":= by exact?")


def test_novelty_failure_means_novel():
    seed = "import Mathlib\n"
    session, _ = make_session(
        seed,
        [
            {
                "env": 9,
                "messages": [
                    {
                        "severity": "error",
                        "pos": {"line": 1, "column": 30},
                        "data": "exact? could not close the goal",
                    }
                ],
            }
        ],
    )
    assert session.check_novelty(seed, STMT).verdict == "novel"


def test_novelty_timeout_keeps_the_conjecture():
    seed = "import Mathlib\n"
    session, _ = make_session(seed, [VerifierTimeoutError("deep search")])
    result = session.check_novelty(seed, STMT)
    assert result.verdict == "novel"
    assert any(d.severity == "warning" for d in result.diagnostics)


def test_verify_proof_success():
    seed = "import Mathlib\n"
    session, client = make_session(seed, [{"env": 9, "messages": [], "sorries": []}])
    result = session.verify_proof(seed, STMT, PROOF)
    assert result.verdict == "verified"
    assert client.requests[1]["payload"]["cmd"] == "theorem t : (1 : ℕ) = 1 := rfl"


def test_verify_proof_remaining_sorry_goal_fails():
    seed = "import Mathlib\n"
    session, _ = make_session(
        seed,
        [
            {
                "env": 9,
                "messages": [sorry_warning(1)],
                "sorries": [{"pos": {"line": 1, "column": 0}, "goal": "True"}],
            }
        ],
    )
    result = session.verify_proof(seed, STMT, ProofScript("by exact h"))
    assert result.verdict == "failed"
    assert result.errors()


def test_verify_proof_unknown_identifier_fails():
    seed = "import Mathlib\n"
    session, _ = make_session(
        seed,
        [
            {
                "env": 9,
                "messages": [
                    {
                        "severity": "error",
                        "pos": {"line": 1, "column": 28},
                        "data": "unknown identifier 'nonexistent_lemma'",
                    }
                ],
            }
        ],
    )
    result = session.verify_proof(seed, STMT, ProofScript("nonexistent_lemma"))
    assert result.verdict == "failed"
    assert "unknown identifier" in result.errors()[0].message


def test_verify_proof_timeout_fails():
    seed = "import Mathlib\n"
    session, _ = make_session(seed, [VerifierTimeoutError("slow")])
    assert session.verify_proof(seed, STMT, PROOF).verdict == "failed"


def test_verdicts_deterministic_for_fixed_fake_backend():
    seed = "import Mathlib\n"
    response = {"env": 9, "messages": [], "sorries": []}
    first, _ = make_session(seed, [dict(response)])
    second, _ = make_session(seed, [dict(response)])
    a = first.verify_proof(seed, STMT, PROOF)
    b = second.verify_proof(seed, STMT, PROOF)
    # elapsed is wall clock; everything that matters must match exactly
    assert (a.verdict, a.diagnostics, a.closing_term) == (
        b.verdict,
        b.diagnostics,
        b.closing_term,
    )


def test_base_response_without_env_id_is_a_startup_error():
    # A check sent without `env` would start from an empty environment:
    # no Mathlib, no seed.
    client = FakeClient([{"messages": []}])
    with pytest.raises(VerifierStartupError, match="no environment id"):
        LeanVerifier("import Mathlib\n", command=[], client=client)
    assert len(client.requests) == 1


# ---------------------------------------------------------------------------
# Environment reuse: contract tests against a full-resend reference
# ---------------------------------------------------------------------------

SEED = "import Mathlib\n"
_BLOCK_SPLIT = re.compile(r"\n\n(?=theorem\s)")
_NAME = re.compile(r"theorem\s+(\S+)")


def message(severity: str, line: int, data: str) -> dict:
    return {"severity": severity, "pos": {"line": line, "column": 2}, "data": data}


class EnvRepl:
    """Contract fake of the Lean REPL that keeps the text each environment
    holds and answers for the whole of it, as Lean would.

    A command on environment `e` continues `e`'s text. In each block of a
    command: a name declared before is an error, a `BAD` token is an
    error, a `:= sorry` stub warns and counts in `sorries`, `by exact?`
    fails unless `answers` says otherwise, and `answers[block]` adds
    messages (lines relative to the block). `raise_next` makes the next
    check raise instead.
    """

    def __init__(self, answers: dict | None = None):
        self.answers = answers or {}
        self.held: dict[int, str] = {}
        self.sent: list[tuple[int, str, int | None]] = []  # (env, cmd, reply env)
        self.raise_next: Exception | None = None

    def run(self, payload, timeout):
        if "env" not in payload:
            self.held[0] = ""
            return {"env": 0, "messages": []}
        env, cmd = payload["env"], payload["cmd"]
        if self.raise_next is not None:
            exc, self.raise_next = self.raise_next, None
            self.sent.append((env, cmd, None))
            raise exc
        base = self.held[env]
        names = set(_NAME.findall(base))
        messages, sorries = [], []
        line = 1
        for block in _BLOCK_SPLIT.split(cmd):
            name = _NAME.match(block).group(1)
            if name in names:
                messages.append(message("error", line, f"'{name}' has already been declared"))
            names.add(name)
            if "BAD" in block:
                messages.append(message("error", line, "unknown identifier 'BAD'"))
            if block.endswith(":= sorry"):
                messages.append(message("warning", line, "declaration uses 'sorry'"))
                sorries.append({"pos": {"line": line, "column": 0}, "goal": "⊢ True"})
            extra = self.answers.get(block)
            if extra is None and block.endswith("by exact?"):
                extra = [("error", 1, "`exact?` could not close the goal")]
            for severity, at, data in extra or []:
                messages.append(message(severity, line + at - 1, data))
            line += block.count("\n") + 2
        reply = len(self.held)
        self.held[reply] = base + "\n\n" + cmd if base else cmd
        self.sent.append((env, cmd, reply))
        return {"env": reply, "messages": messages, "sorries": sorries}

    def close(self):
        pass


class FullResend(LeanVerifier):
    """The reference: every check sends its whole tail on the base
    environment, and no environment is remembered."""

    def _submit(self, context, decl_text, timeout, proof=False):
        if context.startswith(self.seed_source):
            tail = context[len(self.seed_source) :].strip("\n")
        else:
            tail = context.strip("\n")
        if tail:
            snippet, offset = tail + "\n\n" + decl_text, tail.count("\n") + 2
        else:
            snippet, offset = decl_text, 0
        started = time.monotonic()
        response = self._client.run(
            {"cmd": snippet, "env": self.base_environment}, timeout=timeout
        )
        diags = _rebase(_parse_messages(response), offset)
        sorries = len(response.get("sorries") or [])
        return diags, sorries, time.monotonic() - started, None


def statement(name: str, body: str = "(1 : ℕ) = 1") -> TheoremStatement:
    return TheoremStatement.from_source(f"theorem {name} : {body} := sorry")


def check(session, step) -> CheckResult:
    op, context, stmt, proof = step
    if op == "verify_proof":
        return getattr(session, op)(context, stmt, proof)
    return getattr(session, op)(context, stmt)


CLEAN = ("valid", "verified")


def assert_matches_reference(steps, answers=None, raising=None, seed=SEED) -> tuple:
    """Run `steps` through a full-resend reference and the real session,
    each over its own `EnvRepl`, and check the contract request by request.

    `raising` maps a step index to the exception the session's client
    raises there (the reference gets the same). Returns (reference repl,
    session repl, session).
    """
    raising = raising or {}
    ref_repl, repl = EnvRepl(answers), EnvRepl(answers)
    reference = FullResend(seed, command=[], client=ref_repl)
    session = LeanVerifier(seed, command=[], client=repl)
    texts: dict[int, str] = {}  # reply env of a clean check -> its reference cmd
    for index, step in enumerate(steps):
        if index in raising:
            ref_repl.raise_next = repl.raise_next = raising[index]
        try:
            want = check(reference, step)
        except VerifierTransportError:
            with pytest.raises(VerifierTransportError):
                check(session, step)
            want = got = None
        else:
            got = check(session, step)
            assert (got.verdict, got.diagnostics, got.closing_term) == (
                want.verdict,
                want.diagnostics,
                want.closing_term,
            ), index
        # One request per check, a suffix of the reference's, sent on the
        # environment of the clean check whose text it leaves out.
        assert len(repl.sent) == len(ref_repl.sent) == index + 1
        _, full, _ = ref_repl.sent[-1]
        env, cmd, reply = repl.sent[-1]
        assert full.endswith(cmd), index
        if env == 0:
            assert cmd == full, index
        else:
            assert texts[env] + "\n\n" + cmd == full, index
        assert repl.held[env] + ("\n\n" if repl.held[env] else "") + cmd == full
        if got is not None and got.verdict in CLEAN:
            texts[reply] = full
    return ref_repl, repl, session


def loop_steps(answers: dict) -> list:
    """The checks three cpl loops make, with their contexts rendered as
    the conjecture phase and `prove` render them."""
    steps = []
    library = Library(seed_source=SEED)
    plans = [
        # (candidates: name, body, novelty known?), (proofs tried, last verified?)
        [("c1", "(1 : ℕ) = 1", False), ("c2", "BAD = 1", False),
         ("c3", "(2 : ℕ) = 2", True), ("c4", "(3 : ℕ) = 3", False)],
        [("c5", "(5 : ℕ) = 5", False), ("c6", "(6 : ℕ) = 6", False)],
        [("c7", "(7 : ℕ) = 7", False)],
    ]
    outcomes = {"c1": True, "c4": True, "c5": True, "c6": False, "c7": True}
    for plan in plans:
        accepted: list[TheoremStatement] = []
        for name, body, known in plan:
            stmt = statement(name, body)
            context = render_context(library, accepted, 400_000)
            steps.append(("check_validity", context, stmt, None))
            if "BAD" in body:
                continue
            steps.append(("check_novelty", context, stmt, None))
            if known:
                answers[stmt.render_for_exact_check()] = [("info", 1, "Try this: exact rfl")]
                continue
            accepted.append(stmt)
        verified = []
        for stmt in accepted:
            # Each campaign renders its own (equal) context.
            context = render_context(library, [], 400_000)
            bad = ProofScript("by\n  simp")
            answers[stmt.render_with_proof(bad)] = [("error", 2, "unsolved goals")]
            steps.append(("verify_proof", context, stmt, bad))
            if outcomes[stmt.name]:
                steps.append(("verify_proof", context, stmt, ProofScript("by rfl")))
                verified.append((stmt, ProofScript("by rfl"), "cpl", "t"))
        library = library.extend(verified)
    return steps


def test_reuse_sends_a_suffix_on_the_environment_holding_the_rest():
    answers: dict = {}
    steps = loop_steps(answers)
    ref_repl, repl, _ = assert_matches_reference(steps, answers)
    replies = {reply: index for index, (_, _, reply) in enumerate(repl.sent)}
    # The step whose environment each check continues (None: the base).
    assert [replies.get(env) for env, _, _ in repl.sent] == [
        None, None, 0, 0, 0, 0, 0,  # loop 1: c1's stub, then its stub's env
        None, None, None, None,  # its proofs: the library is empty
        8, 8, 11, 11,  # loop 2: c1's verified proof, then c5's stub
        8, 8, 8,  # its proofs: the library is still c1, c4
        16, 16, 16, 16,  # loop 3: c5's verified proof holds all of c1, c4, c5
    ]
    sent = sum(len(cmd) for _, cmd, _ in repl.sent)
    assert sent < sum(len(cmd) for _, cmd, _ in ref_repl.sent) / 2
    # No check declares a name twice, so no "already declared" error.
    for full in ref_repl.held.values():
        names = _NAME.findall(full)
        assert len(names) == len(set(names))


def test_random_sessions_match_the_full_resend_reference():
    """Random contexts that continue earlier checks, drop blocks, or start
    over: each check still sends a suffix of the reference cmd, on the
    environment holding the rest, with the reference's verdict and
    rebased diagnostics."""
    rng = random.Random(5)
    proofs = (ProofScript("by rfl"), ProofScript("by\n  simp"))
    reused = 0
    for trial in range(30):
        answers: dict = {}
        pool = [statement(f"p{trial}_{i}", f"({i} : ℕ) = {i}") for i in range(10)]
        for i, stmt in enumerate(pool):
            if i % 3 == 0:
                answers[stmt.render_for_exact_check()] = [("info", 1, "Try this: exact rfl")]
            if i % 4 == 1:
                answers[stmt.render_with_proof(proofs[1])] = [("error", 2, "unsolved goals")]
        blocks: list[str] = ["theorem bad : BAD := by rfl"]
        context_blocks: list[str] = []
        steps = []
        for _ in range(40):
            move = rng.random()
            if move < 0.5 and steps:  # continue the last check's text
                context_blocks = context_blocks + [blocks[-1]]
            elif move < 0.65:
                context_blocks = context_blocks + [rng.choice(blocks)]
            elif move < 0.85 and context_blocks:
                context_blocks = context_blocks[: rng.randrange(len(context_blocks))]
            else:
                context_blocks = rng.sample(blocks, min(len(blocks), rng.randrange(3)))
            context = SEED + "\n" + "\n\n".join(context_blocks) if context_blocks else SEED
            stmt = rng.choice(pool)
            op = rng.choice(("check_validity", "check_novelty", "verify_proof"))
            proof = rng.choice(proofs)
            steps.append((op, context, stmt, proof))
            blocks.append(
                {
                    "check_validity": stmt.source_text,
                    "check_novelty": stmt.render_for_exact_check(),
                    "verify_proof": stmt.render_with_proof(proof),
                }[op]
            )
        _, repl, _ = assert_matches_reference(steps, answers)
        reused += sum(env != 0 for env, _, _ in repl.sent)
    assert reused > 30 * 40 // 10  # the reuse paths were exercised


def test_nothing_is_reused_after_an_unclean_check():
    good, other = statement("good"), statement("other", "(2 : ℕ) = 2")
    bad = statement("bad", "BAD = 1")
    answers = {
        good.render_with_proof(ProofScript("by\n  simp")): [("error", 2, "unsolved goals")],
        good.render_for_exact_check(): [("info", 1, "Try this: exact rfl")],
    }
    steps = [
        ("check_validity", SEED, bad, None),  # INVALID
        ("check_novelty", SEED, good, None),  # KNOWN
        ("check_novelty", SEED, other, None),  # NOVEL
        ("verify_proof", SEED, good, ProofScript("by\n  simp")),  # FAILED
    ]
    # Each later context extends one of those checks' texts.
    for decl in (
        bad.source_text,
        good.render_for_exact_check(),
        other.render_for_exact_check(),
        good.render_with_proof(ProofScript("by\n  simp")),
    ):
        steps.append(("check_validity", SEED + "\n" + decl, statement("next"), None))
    _, repl, _ = assert_matches_reference(steps, answers)
    assert [env for env, _, _ in repl.sent] == [0] * len(steps)


@pytest.mark.parametrize(
    "failure", [VerifierTimeoutError("slow"), VerifierTransportError("gone")]
)
def test_client_failure_forgets_every_environment(failure):
    a, b, c = statement("a"), statement("b", "(2 : ℕ) = 2"), statement("c", "(3 : ℕ) = 3")
    context = SEED + "\n" + a.source_text
    steps = [
        ("check_validity", SEED, a, None),  # VALID: its environment holds `a`
        ("check_validity", context, b, None),  # reuses it
        ("check_validity", context, c, None),  # the client fails
        ("check_validity", context, c, None),  # starts from the base again
    ]
    _, repl, session = assert_matches_reference(steps, raising={2: failure})
    assert [env for env, _, _ in repl.sent] == [0, 1, 1, 0]
    assert session._prefixes == []
    assert session._checks == {c.source_text: (repl.sent[-1][2], False)}


def test_a_declaration_extended_within_its_block_is_not_reused():
    a, z = statement("a"), statement("z")
    proof = ProofScript("by\n  simp")
    decl = a.render_with_proof(proof)  # a VERIFIED check's environment holds it
    for grown, reused in (
        (decl + "_all", False),  # a': the same text, more chars
        (decl + "\n\n  rfl", False),  # a blank line, then more of the same proof
        (decl + "\n\ntheorem_b", False),  # an identifier, not the keyword
        (decl + " \ntheorem b : True := sorry", False),  # no blank line
        (decl + "\n\n" + statement("b").source_text, True),  # a new block
        (decl, True),  # the same text
    ):
        steps = [
            ("verify_proof", SEED, a, proof),
            ("check_validity", SEED + "\n" + grown, z, None),
        ]
        _, repl, _ = assert_matches_reference(steps)
        assert [env for env, _, _ in repl.sent] == [0, 1 if reused else 0], grown


def test_a_context_that_differs_before_the_held_text_is_not_reused():
    # `x1` and `x2` have the same length, so every position lines up.
    x1, x2 = statement("x1"), statement("x2")
    a, b, z = statement("a"), statement("b"), statement("z")
    held = SEED + "\n" + x1.source_text
    steps = [
        ("check_validity", held, a, None),  # holds x1, a
        ("check_validity", SEED + "\n" + x2.source_text + "\n\n" + a.source_text, z, None),
        ("check_validity", held + "\n\n" + a.source_text, b, None),  # holds x1, a, b
        ("check_validity", held + "\n\n" + a.source_text + "\n\n" + b.source_text, z, None),
        ("check_validity", SEED + "\n" + x2.source_text + "\n\n" + a.source_text, z, None),
    ]
    _, repl, _ = assert_matches_reference(steps)
    assert [env for env, _, _ in repl.sent] == [0, 0, 0, 3, 0]


def test_a_context_whose_tail_starts_elsewhere_is_not_reused():
    # A context without the seed is checked whole; this seed happens to
    # start with the text an environment holds, so a context with the
    # seed shares that text, but its tail starts after it.
    a, z, w = statement("a"), statement("z"), statement("w")
    seed = a.source_text + "\n\n" + z.source_text + "\n"
    steps = [
        ("check_validity", a.source_text, z, None),  # holds a, z
        ("check_validity", a.source_text + "\n\n" + z.source_text, w, None),
        ("check_validity", seed + "\n" + w.source_text, statement("v"), None),
    ]
    _, repl, _ = assert_matches_reference(steps, seed=seed)
    assert [env for env, _, _ in repl.sent] == [0, 1, 0]


def test_proof_checks_never_build_on_a_sorry_stub():
    # A VALID check's environment holds its `sorry` stub; a proof check
    # on top of it would not see that sorry in `sorries`.
    stub, target = statement("stub"), statement("target", "(2 : ℕ) = 2")
    context = SEED + "\n" + stub.source_text
    steps = [
        ("check_validity", SEED, stub, None),
        ("verify_proof", context, target, ProofScript("by rfl")),
        ("check_novelty", context, target, None),
    ]
    _, repl, _ = assert_matches_reference(steps)
    assert [env for env, _, _ in repl.sent] == [0, 0, 1]


def test_checks_against_one_context_rebase_from_where_each_command_starts():
    a, b = statement("a"), statement("b", "(2 : ℕ) = 2")
    x, y = statement("x", "(3 : ℕ) = 3"), statement("y", "(4 : ℕ) = 4")
    bad = ProofScript("by\n  simp\n  done")
    answers = {y.render_with_proof(bad): [("error", 3, "no goals")]}
    context = SEED + "\n" + a.source_text + "\n\n" + b.source_text
    steps = [
        ("check_validity", SEED, a, None),  # VALID: its environment holds `a`
        ("check_validity", context, x, None),  # sends `b` and `x` on it
        ("verify_proof", context, y, bad),  # no stub under a proof: from the base
        ("check_validity", context, b, None),  # on `a`'s environment again
    ]
    _, repl, _ = assert_matches_reference(steps, answers)
    assert [env for env, _, _ in repl.sent] == [0, 1, 0, 1]


def test_remembered_environments_stay_bounded_over_unrelated_contexts():
    repl = EnvRepl()
    session = LeanVerifier(SEED, command=[], client=repl)
    for i in range(1000):
        entry = statement(f"e{i}", f"({i} : ℕ) = {i}")
        context = SEED + "\n" + entry.render_with_proof(ProofScript("by rfl"))
        session.check_validity(context, statement(f"s{i}", f"({i} : ℕ) = {i}"))
        session.verify_proof(context, statement(f"t{i}"), ProofScript("by rfl"))
        assert len(session._prefixes) + len(session._checks) <= 2
    assert len(repl.sent) == 2000


# ---------------------------------------------------------------------------
# Error replies: the REPL refused the request and checked nothing
# ---------------------------------------------------------------------------

UNKNOWN_ENV = {"message": "Unknown environment."}
FALSE_STMT = TheoremStatement.from_source("theorem t : (1:ℕ) = 2 := sorry")


class RestartedRepl(EnvRepl):
    """An `EnvRepl` that can lose every environment but the base, as a
    restarted REPL would, and then answers a command on a lost one as the
    Lean REPL does: a top-level `message` and no `env`."""

    def __init__(self, answers: dict | None = None):
        super().__init__(answers)
        self.lost: set[int] = set()

    def restart(self) -> None:
        self.lost.update(env for env in self.held if env != 0)

    def run(self, payload, timeout):
        if payload.get("env") in self.lost:
            self.sent.append((payload["env"], payload["cmd"], None))
            return dict(UNKNOWN_ENV)
        return super().run(payload, timeout)


def test_an_error_reply_is_no_verdict():
    session, client = make_session(SEED, [dict(UNKNOWN_ENV) for _ in range(5)])
    for check_op in (session.check_validity, session.check_novelty):
        with pytest.raises(VerifierTransportError, match="Unknown environment"):
            check_op(SEED, FALSE_STMT)
    with pytest.raises(VerifierTransportError):
        session.verify_proof(SEED, FALSE_STMT, PROOF)
    # `prove` retries once, then counts a failed trial.
    result = verify_with_retry(session, SEED, FALSE_STMT, PROOF)
    assert result.verdict == "failed"
    assert "Unknown environment" in result.diagnostics[0].message
    assert not client.items


def test_the_conjecture_phase_rejects_a_candidate_on_an_error_reply():
    session, _ = make_session(SEED, [dict(UNKNOWN_ENV)])
    gateway = Gateway(
        ReplayProvider({"conjecturer": [FALSE_STMT.source_text]}), sleep=lambda s: None
    )
    report = run_conjecture_phase(
        Library(seed_source=SEED), session, gateway, iterations=1
    )
    assert report.rejected_invalid == 1
    assert not report.accepted


def test_after_an_error_reply_the_next_request_goes_on_the_base_environment():
    a, b = statement("a"), statement("b", "(2 : ℕ) = 2")
    repl = RestartedRepl()
    session = LeanVerifier(SEED, command=[], client=repl)
    assert session.check_validity(SEED, a).verdict == "valid"
    context = SEED + "\n" + a.source_text
    repl.restart()
    with pytest.raises(VerifierTransportError):
        session.check_validity(context, b)  # on `a`'s lost environment
    assert session.check_validity(context, b).verdict == "valid"
    assert [env for env, _, _ in repl.sent] == [0, 1, 0]
    assert repl.sent[-1][1] == a.source_text + "\n\n" + b.source_text

    # A proof check retries once, on the base environment.
    proof = ProofScript("by rfl")
    assert session.verify_proof(SEED, a, proof).verdict == "verified"
    context = SEED + "\n" + a.render_with_proof(proof)
    repl.restart()
    sent = len(repl.sent)
    assert verify_with_retry(session, context, b, proof).verdict == "verified"
    lost = repl.sent[sent - 1][2]
    assert [env for env, _, _ in repl.sent[sent:]] == [lost, 0]


# ---------------------------------------------------------------------------
# Wire protocol against a fake REPL child process
# ---------------------------------------------------------------------------

FAKE_REPL = textwrap.dedent(
    """
    import json, sys, time

    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        cmd = request.get("cmd", "")
        if "SLEEP" in cmd:
            time.sleep(30)
        response = {"env": request.get("env", -1) + 1, "messages": [], "extra": 1}
        if "BAD" in cmd:
            response["messages"] = [
                {"severity": "error", "pos": {"line": 1, "column": 0},
                 "data": "boom", "endPos": None}
            ]
        sys.stdout.write(json.dumps(response, indent=2) + "\\n\\n")
        sys.stdout.flush()
    """
)


@pytest.fixture()
def fake_repl_cmd(tmp_path):
    script = tmp_path / "fake_repl.py"
    script.write_text(FAKE_REPL, encoding="utf-8")
    return [sys.executable, str(script)]


def test_client_roundtrip_with_pretty_printed_response(fake_repl_cmd):
    client = LeanReplClient(fake_repl_cmd)
    try:
        response = client.run({"cmd": "import Mathlib"}, timeout=10)
        assert response["env"] == 0
        response = client.run({"cmd": "theorem BAD", "env": 0}, timeout=10)
        assert response["messages"][0]["data"] == "boom"
    finally:
        client.close()


def test_client_timeout_kills_process(fake_repl_cmd):
    client = LeanReplClient(fake_repl_cmd)
    with pytest.raises(VerifierTimeoutError):
        client.run({"cmd": "SLEEP"}, timeout=0.5)
    assert client._proc.returncode is not None
    with pytest.raises(VerifierTransportError):
        client.run({"cmd": "after death"}, timeout=1)


def test_full_session_over_fake_process(fake_repl_cmd):
    session = LeanVerifier(
        "import Mathlib\n", command=fake_repl_cmd, startup_timeout=10
    )
    try:
        result = session.check_validity("import Mathlib\n", STMT)
        assert result.verdict == "valid"
    finally:
        session.close()


def test_open_session_unknown_backend(seed_source):
    with pytest.raises(VerifierStartupError):
        open_session(seed_source, backend="prolog")
