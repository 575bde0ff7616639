from __future__ import annotations

import random

import pytest

from cpl.conjecture import run_conjecture_phase
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


def test_fatal_error_aborts_with_partial_report(tmp_path):
    """The error propagates; what the phase accepted before it is in the
    event log, after which the phase's warning says it aborted."""
    from cpl.events import EventLog, FixedClock, read_events

    state = {"n": 0}

    def dying(request):
        state["n"] += 1
        if state["n"] == 1:
            return decl("kept", "1")
        raise FatalGatewayError("credential revoked")

    gateway = Gateway(CallableProvider(dying), sleep=lambda s: None)
    session = ScriptedVerifier(SEED)
    log_path = tmp_path / "events.jsonl"
    with EventLog(log_path, clock=FixedClock()) as events:
        with pytest.raises(FatalGatewayError, match="credential revoked"):
            run_conjecture_phase(
                Library(seed_source=SEED), session, gateway, iterations=3, events=events
            )
    logged = [(e.kind, e.payload) for e in read_events(log_path)]
    assert [(kind, payload.get("name")) for kind, payload in logged] == [
        ("conjecture_accepted", "kept"),
        ("warning", None),
    ]
    assert logged[1][1]["message"] == "conjecture phase aborted: credential revoked"


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
        assert report.counters_consistent(), report
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


def test_checks_get_the_library_and_one_string_per_acceptance(monkeypatch):
    """Prompts are rendered as before, cut to the budget. The checks get
    the library's own rendering, which no budget cuts, then the accepted
    stubs: one new string per acceptance, kept across iterations, and no
    `render_context` call of their own."""
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
                decl("d", "4"),
                decl("e", "5"),
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
    older = TheoremStatement.from_source(decl("older", "8"))
    library = Library(seed_source=SEED).extend(
        [(older, ProofScript("rfl"), "fixture", "t"), (old, ProofScript("rfl"), "fixture", "t")]
    )
    entries = library.rendered[0]
    full = 400_000
    # A budget that keeps `old` but not `older` once two stubs are listed.
    budget = len(render_context(library.prefix(0), [], full)) + len(entries) + 40
    for context_budget in (full, budget):
        for log in (prompts, checked, renders):
            log.clear()
        session = Recording(SEED)
        session.script(
            "check_validity",
            "0 = 0",
            CheckResult("invalid", (Diagnostic("error", 1, 0, "nope"),)),
        )
        session.script("check_novelty", "4 = 4", CheckResult("known", closing_term="rfl"))
        report = run_conjecture_phase(
            library,
            session,
            Gateway(Capture(), sleep=lambda s: None),
            iterations=4,
            context_budget=context_budget,
        )
        assert [s.name for s in report.accepted] == ["a", "b", "c", "e"]
        # The prompts are unchanged: one render per iteration.
        a, b, c, _ = report.accepted.items
        assert [[s.name for s in extras] for extras in renders] == [
            [], ["a", "b"], ["a", "b", "c"], ["a", "b", "c"]
        ]
        assert prompts == [
            render_context(library, extras, context_budget)
            for extras in ([], [a, b], [a, b, c], [a, b, c])
        ]
        assert ("theorem older " in prompts[1]) == (context_budget == full)
        # The checks: the rendering itself until `a` is accepted, then one
        # string per acceptance, each the last one plus the new stub.
        stubs = [s.source_text.strip() for s in (a, b, c)]
        contexts = {
            0: entries,
            1: entries + "\n\n" + stubs[0],
            2: entries + "\n\n" + "\n\n".join(stubs[:2]),
            3: entries + "\n\n" + "\n\n".join(stubs),
        }
        want = [
            ("validity", "bad", 0),
            ("validity", "a", 0),
            ("novelty", "a", 0),
            ("validity", "b", 1),
            ("novelty", "b", 1),
            ("validity", "c", 2),
            ("novelty", "c", 2),
            ("validity", "d", 3),
            ("novelty", "d", 3),
            ("validity", "e", 3),
            ("novelty", "e", 3),
        ]
        assert [(op, name, context) for op, name, context in checked] == [
            (op, name, contexts[n]) for op, name, n in want
        ]
        assert all(context is entries for _, _, context in checked[:3])
        for n in range(1, 4):
            same = [context for (_, _, context), w in zip(checked, want) if w[2] == n]
            assert all(context is same[0] for context in same)
        # Kept across iterations: `d` (known) and `e` share one string.
        assert checked[7][2] is checked[9][2]
