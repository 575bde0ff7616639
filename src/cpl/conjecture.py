"""The conjecture phase: query, parse, dedup, validity- and novelty-check.

Each phase runs a fixed number of conjecturer calls. Every candidate
statement is filtered in order through textual dedup, verifier validity,
and `exact?` novelty; survivors join the conjecture list immediately so
later candidates are deduped against earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    ConjectureList,
    Library,
    ParseWarning,
    parse_theorem_declarations,
    render_context,
)
from .gateway import ChatRequest, FatalGatewayError, Gateway, TransportError
from .prompts import CONJECTURER_PROMPT
from .verifier import KNOWN, VALID, VerifierError

DEFAULT_ITERATIONS = 16


@dataclass
class ConjecturePhaseReport:
    iterations_run: int = 0
    raw_candidates: int = 0
    rejected_parse: int = 0
    rejected_duplicate: int = 0
    rejected_invalid: int = 0
    rejected_known: int = 0
    accepted: ConjectureList = field(default_factory=ConjectureList)

    def counters_consistent(self) -> bool:
        return self.raw_candidates == (
            self.rejected_parse
            + self.rejected_duplicate
            + self.rejected_invalid
            + self.rejected_known
            + len(self.accepted)
        )

    def to_payload(self) -> dict:
        return {
            "iterations_run": self.iterations_run,
            "raw_candidates": self.raw_candidates,
            "rejected_parse": self.rejected_parse,
            "rejected_duplicate": self.rejected_duplicate,
            "rejected_invalid": self.rejected_invalid,
            "rejected_known": self.rejected_known,
            "accepted": [stmt.name for stmt in self.accepted],
        }


def run_conjecture_phase(
    library: Library,
    session,
    gateway: Gateway,
    iterations: int = DEFAULT_ITERATIONS,
    context_budget: int = 400_000,
    system_prompt: str = CONJECTURER_PROMPT,
    temperature: float = 1.0,
    max_output: int = 16384,
    events=None,
    loop: int | None = None,
) -> ConjecturePhaseReport:
    """Run one full conjecture phase and report its bookkeeping."""
    report = ConjecturePhaseReport()
    accepted = report.accepted
    # The checks see all of the library, whatever the prompt's budget
    # dropped, then the accepted stubs: one join per accepted stub.
    checked = library.rendered[0]

    def emit(kind: str, **payload) -> None:
        if events is not None:
            if loop is not None:
                payload.setdefault("loop", loop)
            events.emit(kind, **payload)

    for iteration in range(1, iterations + 1):
        truncations: list[str] = []
        prompt = render_context(
            library, list(accepted), context_budget, warnings=truncations
        )
        for note in truncations:
            emit("warning", message=note, where="conjecture_context")
        request = ChatRequest(
            role_id="conjecturer",
            system_prompt=system_prompt,
            user_content=prompt,
            temperature=temperature,
            max_output=max_output,
        )
        try:
            response = gateway.complete(request)
        except TransportError as exc:
            emit(
                "warning",
                message=f"conjecturer call failed, iteration skipped: {exc}",
                iteration=iteration,
            )
            report.iterations_run = iteration
            continue
        except FatalGatewayError as exc:
            report.iterations_run = iteration
            emit("warning", message=f"conjecture phase aborted: {exc}")
            raise
        report.iterations_run = iteration

        warnings: list[ParseWarning] = []
        candidates = parse_theorem_declarations(response.text, warnings)
        skipped = [w for w in warnings if w.kind == "skipped_declaration"]
        report.raw_candidates += len(candidates) + len(skipped)
        report.rejected_parse += len(skipped)
        for warning in warnings:
            emit(
                "conjecture_rejected" if warning.kind == "skipped_declaration" else "warning",
                reason="parse",
                iteration=iteration,
                detail=str(warning),
            )

        for stmt in candidates:

            def reject(reason: str, detail=None) -> None:
                counter = f"rejected_{reason}"
                setattr(report, counter, getattr(report, counter) + 1)
                payload = {
                    "reason": reason,
                    "iteration": iteration,
                    "name": stmt.name,
                    "statement": stmt.source_text,
                }
                if detail is not None:  # a duplicate carries no detail
                    payload["detail"] = detail
                emit("conjecture_rejected", **payload)

            if accepted.contains(stmt):
                reject("duplicate")
                continue
            try:
                validity = session.check_validity(checked, stmt)
                if validity.verdict != VALID:
                    reject("invalid", [d.format() for d in validity.diagnostics])
                    continue
                novelty = session.check_novelty(checked, stmt)
            except VerifierError as exc:
                reject("invalid", f"verifier transport error: {exc}")
                continue
            if novelty.verdict == KNOWN:
                reject("known", novelty.closing_term)
                continue
            accepted.add(stmt)
            stub = stmt.source_text.strip()
            checked = f"{checked}\n\n{stub}" if checked else stub
            emit(
                "conjecture_accepted",
                iteration=iteration,
                name=stmt.name,
                statement=stmt.source_text,
            )
    return report
