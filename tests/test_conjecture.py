from __future__ import annotations

import random

import pytest

from cpl.conjecture import PhaseAborted, run_conjecture_phase
from cpl.core import Library, TheoremStatement
from cpl.gateway import (
    FatalGatewayError,
    Gateway,
    ReplayProvider,
    TransportError,
)
from cpl.verifier import CheckResult, Diagnostic, ScriptedVerifier
from providers import CallableProvider

SEED = "import Mathlib\n"


def gateway_for(responses: list[str]) -> Gateway:
    return Gateway(ReplayProvider({"conjecturer": responses}), sleep=lambda s: None)


def decl(name: str, lhs: str) -> str:
    return f"theorem {name} : {lhs} = {lhs} := sorry"


def test_happy_path_two_accepted():
    gateway = gateway_for([decl("a", "1") + "\n\n" + decl("b", "2")])
    session = ScriptedVerifier(SEED)  # defaults: valid + novel
    report = run_conjecture_phase(
        Library(seed_source=SEED), session, gateway, iterations=1
    )
    assert [s.name for s in report.accepted] == ["a", "b"]
    assert report.raw_candidates == 2
    assert report.rejected_parse == 0
    assert report.rejected_duplicate == 0
    assert report.rejected_invalid == 0
    assert report.rejected_known == 0
    assert report.counters_consistent()


def test_duplicate_mod_whitespace_rejected_second_iteration():
    gateway = gateway_for(
        [decl("a", "1"), "theorem a2 : 1  =\n 1 := sorry"]
    )
    session = ScriptedVerifier(SEED)
    report = run_conjecture_phase(
        Library(seed_source=SEED), session, gateway, iterations=2
    )
    assert [s.name for s in report.accepted] == ["a"]
    assert report.rejected_duplicate == 1
    assert report.counters_consistent()


def test_default_iteration_count_is_16_even_when_first_yields_nothing():
    calls = {"n": 0}

    def responder(request):
        calls["n"] += 1
        return ""  # never any candidates

    gateway = Gateway(CallableProvider(responder), sleep=lambda s: None)
    session = ScriptedVerifier(SEED)
    report = run_conjecture_phase(Library(seed_source=SEED), session, gateway)
    assert calls["n"] == 16
    assert report.iterations_run == 16
    assert len(report.accepted) == 0


def test_invalid_and_known_and_parse_rejections_counted():
    response = "\n\n".join(
        [
            decl("good", "1"),
            "theorem has_proof : True := by trivial",  # parse reject
            decl("bad", "2"),  # scripted invalid
            decl("old", "3"),  # scripted known
        ]
    )
    session = ScriptedVerifier(SEED)
    session.script(
        "check_validity",
        "2 = 2",
        CheckResult(
            "invalid", diagnostics=(Diagnostic("error", 1, 0, "nope"),)
        ),
    )
    session.script("check_novelty", "3 = 3", CheckResult("known", closing_term="rfl"))
    gateway = gateway_for([response])
    report = run_conjecture_phase(
        Library(seed_source=SEED), session, gateway, iterations=1
    )
    assert [s.name for s in report.accepted] == ["good"]
    assert report.raw_candidates == 4
    assert report.rejected_parse == 1
    assert report.rejected_invalid == 1
    assert report.rejected_known == 1
    assert report.counters_consistent()


def test_later_candidates_see_earlier_acceptances_in_context():
    contexts: list[str] = []

    class Capture:
        name = "capture"

        def __init__(self):
            self.queue = [decl("first", "1"), decl("second", "2")]

        def complete(self, request):
            contexts.append(request.user_content)
            return self.queue.pop(0)

    gateway = Gateway(Capture(), sleep=lambda s: None)
    session = ScriptedVerifier(SEED)
    report = run_conjecture_phase(
        Library(seed_source=SEED), session, gateway, iterations=2
    )
    assert len(report.accepted) == 2
    assert "theorem first" not in contexts[0]
    assert "theorem first : 1 = 1 := sorry" in contexts[1]


def test_transport_error_skips_iteration_but_phase_continues():
    state = {"n": 0}

    def flaky(request):
        state["n"] += 1
        if state["n"] == 1:
            raise TransportError("offline")
        return decl("late", "5")

    gateway = Gateway(CallableProvider(flaky), retry_cap=1, sleep=lambda s: None)
    session = ScriptedVerifier(SEED)
    report = run_conjecture_phase(
        Library(seed_source=SEED), session, gateway, iterations=2
    )
    assert report.iterations_run == 2
    assert [s.name for s in report.accepted] == ["late"]


def test_fatal_error_aborts_with_partial_report():
    state = {"n": 0}

    def dying(request):
        state["n"] += 1
        if state["n"] == 1:
            return decl("kept", "1")
        raise FatalGatewayError("credential revoked")

    gateway = Gateway(CallableProvider(dying), sleep=lambda s: None)
    session = ScriptedVerifier(SEED)
    with pytest.raises(PhaseAborted) as excinfo:
        run_conjecture_phase(
            Library(seed_source=SEED), session, gateway, iterations=3
        )
    partial = excinfo.value.report
    assert [s.name for s in partial.accepted] == ["kept"]
    assert isinstance(excinfo.value.cause, FatalGatewayError)


def test_counter_identity_over_randomized_fixtures():
    rng = random.Random(42)
    for trial in range(10):
        session = ScriptedVerifier(SEED)
        responses = []
        n_names = 0
        for _ in range(rng.randint(1, 4)):  # iterations' worth of responses
            parts = []
            for _ in range(rng.randint(0, 5)):
                kind = rng.choice(["ok", "invalid", "known", "dup", "parse"])
                n_names += 1
                name = f"c{trial}_{n_names}"
                if kind == "parse":
                    parts.append(f"theorem {name} : True := by trivial")
                    continue
                if kind == "dup":
                    parts.append(decl(name, "0"))  # same body every time
                    continue
                body = f"{n_names} = {n_names}"
                parts.append(decl(name, str(n_names)))
                if kind == "invalid":
                    session.script(
                        "check_validity",
                        body,
                        CheckResult(
                            "invalid",
                            diagnostics=(Diagnostic("error", 1, 0, "bad"),),
                        ),
                    )
                elif kind == "known":
                    session.script(
                        "check_novelty",
                        body,
                        CheckResult("known", closing_term="rfl"),
                    )
            responses.append("\n\n".join(parts) if parts else "nothing today")
        gateway = gateway_for(responses)
        report = run_conjecture_phase(
            Library(seed_source=SEED),
            session,
            gateway,
            iterations=len(responses),
        )
        assert report.counters_consistent(), report.to_payload()
        # the accepted list never contains two items with equal bodies
        keys = [" ".join(s.body.split()) for s in report.accepted]
        assert len(keys) == len(set(keys))


def test_accepted_list_only_grows_and_events_logged(tmp_path):
    from cpl.events import EventLog, FixedClock, read_events

    gateway = gateway_for([decl("a", "1"), decl("b", "2")])
    session = ScriptedVerifier(SEED)
    log_path = tmp_path / "events.jsonl"
    with EventLog(log_path, clock=FixedClock()) as events:
        report = run_conjecture_phase(
            Library(seed_source=SEED),
            session,
            gateway,
            iterations=2,
            events=events,
            loop=1,
        )
    assert len(report.accepted) == 2
    kinds = [e.kind for e in read_events(log_path)]
    assert kinds.count("conjecture_accepted") == 2


@pytest.mark.parametrize("failing_op", ["check_validity", "check_novelty"])
def test_verifier_transport_error_rejects_candidate_as_invalid(tmp_path, failing_op):
    from cpl.events import EventLog, FixedClock, read_events
    from cpl.verifier import VerifierTransportError

    def fail(context, stmt):
        raise VerifierTransportError("repl died")

    session = ScriptedVerifier(SEED)
    setattr(session, failing_op, fail)
    log_path = tmp_path / "events.jsonl"
    with EventLog(log_path, clock=FixedClock()) as events:
        report = run_conjecture_phase(
            Library(seed_source=SEED),
            session,
            gateway_for([decl("a", "1")]),
            iterations=1,
            events=events,
            loop=1,
        )
    assert report.rejected_invalid == 1
    assert len(report.accepted) == 0
    assert report.counters_consistent()
    rejected = [e.payload for e in read_events(log_path) if e.kind == "conjecture_rejected"]
    # Key order too: it fixes the bytes of events.jsonl.
    assert [list(payload.items()) for payload in rejected] == [
        [
            ("reason", "invalid"),
            ("iteration", 1),
            ("name", "a"),
            ("statement", decl("a", "1")),
            ("detail", "verifier transport error: repl died"),
            ("loop", 1),
        ]
    ]


def test_checks_reuse_the_prompt_until_a_candidate_is_accepted(monkeypatch):
    import cpl.conjecture
    from cpl.core import ProofScript, render_context

    prompts: list[str] = []
    checked: list[tuple[str, str, str]] = []  # (op, name, context)

    class Capture:
        name = "capture"

        def __init__(self):
            self.queue = [
                "\n\n".join([decl("bad", "0"), decl("a", "1"), decl("b", "2")]),
                decl("c", "3"),
            ]

        def complete(self, request):
            prompts.append(request.user_content)
            return self.queue.pop(0)

    class Recording(ScriptedVerifier):
        def check_validity(self, context, stmt):
            checked.append(("validity", stmt.name, context))
            return super().check_validity(context, stmt)

        def check_novelty(self, context, stmt):
            checked.append(("novelty", stmt.name, context))
            return super().check_novelty(context, stmt)

    renders = []

    def counted_render(*args, **kwargs):
        renders.append(args[1])
        return render_context(*args, **kwargs)

    monkeypatch.setattr(cpl.conjecture, "render_context", counted_render)
    old = TheoremStatement.from_source(decl("old", "9"))
    library = Library(seed_source=SEED).append(old, ProofScript("rfl"), "fixture", "t")
    session = Recording(SEED)
    session.script(
        "check_validity",
        "0 = 0",
        CheckResult("invalid", (Diagnostic("error", 1, 0, "nope"),)),
    )
    report = run_conjecture_phase(
        library, session, Gateway(Capture(), sleep=lambda s: None), iterations=2
    )
    assert [s.name for s in report.accepted] == ["a", "b", "c"]
    first, second = prompts
    # Until `a` is accepted, the checks get the prompt itself.
    assert [(op, name) for op, name, _ in checked[:3]] == [
        ("validity", "bad"),
        ("validity", "a"),
        ("novelty", "a"),
    ]
    assert all(context is first for _, _, context in checked[:3])
    # `b` is checked against the prompt plus `a`, rendered once.
    stmt_a = report.accepted.items[0]
    assert checked[3][2] == checked[4][2] == render_context(library, [stmt_a], 400_000)
    assert checked[3][2] is checked[4][2]
    # The next iteration's checks get its prompt again.
    assert all(context is second for _, name, context in checked if name == "c")
    # Two prompts and the one check context after an acceptance.
    assert [[s.name for s in extras] for extras in renders] == [[], ["a"], ["a", "b"]]
