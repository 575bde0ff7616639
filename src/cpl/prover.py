"""The prover loop: bounded retries with verifier error feedback.

One trial per gateway call. A verified proof ends the loop as success,
an empty response means the model declared the statement unprovable
(or false, under the alternate prompt), and exhausting the trial
budget ends it as failure. From the second trial on, the previous
proof and its diagnostics are embedded in the prompt. The simple-loop
baseline runs the same loop (`run_trials`) with its own reply parser.
"""

from __future__ import annotations

from .core import (
    DEFAULT_CONTEXT_BUDGET,
    FrozenRecord,
    Library,
    ProofScript,
    TheoremStatement,
    render_context,
    replace,
    strip_code_fences,
)
from .gateway import (
    DEFAULT_MAX_OUTPUT,
    DEFAULT_TEMPERATURE,
    ChatRequest,
    Gateway,
    TransportError,
)
from .prompts import PROVER_PROMPT_VARIANTS
from .verifier import FAILED, VERIFIED, CheckResult, Diagnostic, VerifierError

DEFAULT_MAX_TRIALS = 16
DEFAULT_PROMPT_VARIANT = "not_provable"

STATUS_VERIFIED = "verified"
STATUS_FAILED = "failed_exhausted"
STATUS_UNPROVABLE = "declared_unprovable"

# The first words of a fault's diagnostic, where Lean gave none: a trial's
# (whose `CheckResult.fault` holds the error) or a conjecture's.
GATEWAY_FAULT = "gateway transport failure: "
VERIFIER_FAULT = "verifier transport error: "


class ProofAttempt(FrozenRecord):
    """One trial of a campaign: the attempt text and its check, which is
    None exactly for the empty surrender response."""

    def __init__(self, proof_text: str, result: CheckResult | None):
        self.__dict__.update(proof_text=proof_text, result=result)


class ProofOutcome(FrozenRecord):
    """How a campaign ended, its trials, and the proof that verified."""

    def __init__(
        self,
        status: str,
        attempts: tuple[ProofAttempt, ...],
        final_proof: ProofScript | None = None,
        final_statement: TheoremStatement | None = None,
    ):
        if status == STATUS_VERIFIED and final_proof is None:
            raise ValueError("verified outcome requires a final proof")
        self.__dict__.update(
            status=status,
            attempts=attempts,
            final_proof=final_proof,
            final_statement=final_statement,
        )


def format_feedback(
    context: str, previous_proof: str, diagnostics: tuple[Diagnostic, ...]
) -> str:
    """User content for retry trials: context, prior proof, its errors."""
    lines = [context, "", "previous attempt:", previous_proof, "", "errors:"]
    lines.extend(d.format() for d in diagnostics)
    return "\n".join(lines)


def _synthetic_failure(message: str, fault: Exception | None = None) -> CheckResult:
    """A failed trial that Lean never judged: an unusable reply, or with
    `fault` set, the error of a gateway or verifier that gave up."""
    return CheckResult(
        verdict=FAILED, diagnostics=(Diagnostic("error", 1, 0, message),), fault=fault
    )


def verify_with_retry(session, context, stmt, proof) -> CheckResult:
    """verify_proof with one retry on transport failure.

    A second failure is converted into a failed-trial result, with the
    error as its `fault`, rather than an exception, so a crashing backend
    costs one trial, not the run.
    """
    for remaining in (1, 0):
        try:
            return session.verify_proof(context, stmt, proof)
        except VerifierError as exc:
            if remaining:
                continue
            return _synthetic_failure(f"{VERIFIER_FAULT}{exc}", exc)
    raise AssertionError("unreachable")


class Unusable(Exception):
    """Raised by a trial's `read` step for a reply that cannot be checked.

    `text` stands for the attempt in feedback and in the attempt record;
    the message becomes the trial's diagnostic.
    """

    def __init__(self, text: str, message: str):
        super().__init__(message)
        self.text = text


def run_trials(
    session, gateway: Gateway, request: ChatRequest, library, read, max_trials, emit
) -> ProofOutcome:
    """The retry-on-error loop shared by `prove` and the simple loop.

    `request` carries the first trial's prompt; later trials append the
    previous attempt and its diagnostics to it. `read(reply)` returns
    `(text, statement, proof)` to verify against all of `library`, whatever
    the prompt's budget dropped, raises `Unusable` for a failed trial, or
    returns None to surrender.
    `emit(trial, text, statement, proof, result)` records each trial;
    `text` is None when there is no attempt text (a gateway transport
    failure or the surrender), and `result` is None for the surrender.
    """
    context = library.rendered[0]
    attempts: list[ProofAttempt] = []
    previous: tuple[str, tuple[Diagnostic, ...]] | None = None
    for trial in range(1, max_trials + 1):
        trial_request = request
        if previous is not None:
            trial_request = replace(
                request, user_content=format_feedback(request.user_content, *previous)
            )
        text = statement = proof = result = None
        try:
            reading = read(gateway.complete(trial_request).text)
        except TransportError as exc:
            result = _synthetic_failure(f"{GATEWAY_FAULT}{exc}", exc)
        except Unusable as exc:
            text, result = exc.text, _synthetic_failure(str(exc))
        else:
            if reading is not None:
                text, statement, proof = reading
                result = verify_with_retry(session, context, statement, proof)
        attempts.append(ProofAttempt(proof_text=text or "", result=result))
        emit(trial, text, statement, proof, result)
        if result is None:
            return ProofOutcome(status=STATUS_UNPROVABLE, attempts=tuple(attempts))
        if result.verdict == VERIFIED:
            return ProofOutcome(
                status=STATUS_VERIFIED,
                attempts=tuple(attempts),
                final_proof=proof,
                final_statement=statement,
            )
        previous = (text or "", result.diagnostics)
    return ProofOutcome(status=STATUS_FAILED, attempts=tuple(attempts))


def prove(
    conjecture: TheoremStatement,
    library: Library,
    session,
    gateway: Gateway,
    max_trials: int = DEFAULT_MAX_TRIALS,
    prompt_variant: str = DEFAULT_PROMPT_VARIANT,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
    temperature: float = DEFAULT_TEMPERATURE,
    max_output: int = DEFAULT_MAX_OUTPUT,
    events=None,
    event_extra: dict | None = None,
) -> ProofOutcome:
    """Run one prover campaign for a single conjecture."""
    truncations: list[str] = []
    prompt = render_context(
        library, [conjecture], context_budget, warnings=truncations
    )
    if events is not None:
        for note in truncations:
            payload = dict(event_extra or {})
            payload.update(message=note, where="prover_context")
            events.emit("warning", **payload)

    def read(reply: str):
        text = strip_code_fences(reply).strip()
        if not text:
            return None  # surrender: no verifier call for this trial
        try:
            return text, conjecture, ProofScript(text=text)
        except ValueError as exc:
            raise Unusable(text, f"rejected before submission: {exc}") from exc

    def emit(trial, text, statement, proof, result) -> None:
        if events is None:
            return
        payload = dict(event_extra or {})
        payload.update(
            conjecture=conjecture.name,
            trial=trial,
            proof=text or "",
            verdict=None if result is None else result.verdict,
            diagnostics=[]
            if result is None
            else [d.format() for d in result.diagnostics],
            empty_response=result is None,
        )
        events.emit("proof_attempt", **payload)

    request = ChatRequest(
        role_id="prover",
        system_prompt=PROVER_PROMPT_VARIANTS[prompt_variant],
        user_content=prompt,
        temperature=temperature,
        max_output=max_output,
    )
    return run_trials(session, gateway, request, library, read, max_trials, emit)
