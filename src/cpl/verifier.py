"""Lean 4 verification sessions: validity, `exact?` novelty, proof checking.

Two interchangeable session implementations:

* `LeanVerifier` drives a real Lean REPL child process speaking JSON
  over stdin/stdout, with one expensive base environment (Mathlib plus
  the seed file) per session. Each check is one command: the context
  after the seed (the library's own rendering, never a prompt), then the
  checked declaration. The session keeps the environment of each clean
  check (VALID, VERIFIED), and a later check whose text extends that
  check's text at a block start sends only the rest, on that environment.
* `ScriptedVerifier` replays canned verdicts from a fixture map, making
  the whole pipeline deterministic and runnable offline.

Both expose the same three checks; `open_session` picks one from
configuration.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import queue
import re
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .core import ProofScript, TheoremStatement, normalize_statement

logger = logging.getLogger(__name__)

VALID = "valid"
INVALID = "invalid"
VERIFIED = "verified"
FAILED = "failed"
NOVEL = "novel"
KNOWN = "known"

VERDICTS = (VALID, INVALID, VERIFIED, FAILED, NOVEL, KNOWN)

SORRY_WARNING_TEXT = "declaration uses 'sorry'"

DEFAULT_COMMAND_TIMEOUT = 120.0
DEFAULT_NOVELTY_TIMEOUT = 300.0
DEFAULT_STARTUP_TIMEOUT = 1800.0  # Mathlib import can take minutes.


class VerifierError(Exception):
    pass


class VerifierStartupError(VerifierError):
    def __init__(self, message: str, diagnostics: tuple = ()):
        super().__init__(message)
        self.diagnostics = diagnostics


class VerifierTransportError(VerifierError):
    pass


class VerifierTimeoutError(VerifierError):
    pass


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning" | "info"
    line: int
    column: int
    message: str

    def format(self) -> str:
        return f"{self.line}:{self.column} {self.severity} {self.message}"


@dataclass(frozen=True)
class CheckResult:
    verdict: str
    diagnostics: tuple[Diagnostic, ...] = ()
    closing_term: str | None = None
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == KNOWN) != (self.closing_term is not None):
            raise ValueError("closing_term must be present exactly for 'known'")
        if self.verdict in (INVALID, FAILED) and not any(
            d.severity == "error" for d in self.diagnostics
        ):
            raise ValueError(f"verdict {self.verdict!r} requires an error diagnostic")

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


def _timeout_diag(op: str, timeout: float, severity: str = "error") -> Diagnostic:
    return Diagnostic(
        severity=severity,
        line=1,
        column=0,
        message=f"{op} timed out after {timeout:.0f}s",
    )


def proof_text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _normalize_key(body_text: str) -> str:
    return " ".join(body_text.split())


# ---------------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------------

_OP_DEFAULT_VERDICTS = {
    "check_validity": VALID,
    "check_novelty": NOVEL,
    "verify_proof": FAILED,
}


class ScriptedVerifier:
    """Deterministic fixture-backed session for offline runs and tests.

    Fixture keys are (operation, normalized statement body, proof text
    hash); unknown keys fall back to a per-operation default verdict
    and are logged as fixture misses.
    """

    def __init__(
        self,
        seed_source: str,
        checks: dict[tuple[str, str, str], CheckResult] | None = None,
        defaults: dict[str, str] | None = None,
    ):
        self.seed_source = seed_source
        self._checks = dict(checks or {})
        self.defaults = dict(_OP_DEFAULT_VERDICTS)
        self.defaults.update(defaults or {})
        self.calls: list[tuple[str, str]] = []
        self.fixture_misses: list[tuple[str, str, str]] = []
        startup = self._checks.get(("open_session", _normalize_key(seed_source), ""))
        if startup is not None and startup.errors():
            raise VerifierStartupError(
                "seed failed to elaborate (scripted)", startup.diagnostics
            )

    # -- fixture authoring helpers -----------------------------------------

    def script(
        self,
        op: str,
        statement: TheoremStatement | str,
        result: CheckResult,
        proof_text: str = "",
    ) -> None:
        key = self._key(op, statement, proof_text)
        self._checks[key] = result

    def _key(
        self, op: str, statement: TheoremStatement | str, proof_text: str
    ) -> tuple[str, str, str]:
        if isinstance(statement, TheoremStatement):
            norm = normalize_statement(statement)
        else:
            norm = _normalize_key(statement)
        digest = proof_text_hash(proof_text) if proof_text else ""
        return (op, norm, digest)

    @classmethod
    def from_file(cls, path: str | Path, seed_source: str) -> "ScriptedVerifier":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        session = cls(
            seed_source=seed_source, defaults=data.get("defaults") or None
        )
        for item in data.get("checks", []):
            diags = tuple(
                Diagnostic(
                    severity=d.get("severity", "error"),
                    line=d.get("line", 1),
                    column=d.get("column", 0),
                    message=d.get("message", ""),
                )
                for d in item.get("diagnostics", [])
            )
            result = CheckResult(
                verdict=item["verdict"],
                diagnostics=diags,
                closing_term=item.get("closing_term"),
            )
            session.script(
                op=item["op"],
                statement=item["statement"],
                result=result,
                proof_text=item.get("proof", ""),
            )
        return session

    # -- the three checks ---------------------------------------------------

    def _lookup(self, op: str, statement, proof_text: str = "") -> CheckResult:
        key = self._key(op, statement, proof_text)
        self.calls.append((op, key[1]))
        hit = self._checks.get(key)
        if hit is not None:
            return hit
        self.fixture_misses.append(key)
        logger.warning("scripted verifier fixture miss: %s", key)
        verdict = self.defaults[op]
        if verdict in (INVALID, FAILED):
            return CheckResult(
                verdict=verdict,
                diagnostics=(
                    Diagnostic(
                        "error", 1, 0, f"no fixture for {op} (default verdict)"
                    ),
                ),
            )
        if verdict == KNOWN:
            return CheckResult(verdict=KNOWN, closing_term="exact (fixture default)")
        return CheckResult(verdict=verdict)

    def check_validity(self, context: str, stmt: TheoremStatement) -> CheckResult:
        return self._lookup("check_validity", stmt)

    def check_novelty(self, context: str, stmt: TheoremStatement) -> CheckResult:
        return self._lookup("check_novelty", stmt)

    def verify_proof(
        self, context: str, stmt: TheoremStatement, proof: ProofScript
    ) -> CheckResult:
        return self._lookup("verify_proof", stmt, proof.text)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Real backend: JSON request/response over a child process's stdio
# ---------------------------------------------------------------------------


class LeanReplClient:
    """Minimal client for the Lean REPL wire protocol.

    One request at a time: a JSON object (``{"cmd": ..., "env": ...}``)
    followed by a blank line; the response is a JSON object (possibly
    pretty-printed over several lines) terminated by a blank line.
    Unknown response fields are ignored.
    """

    def __init__(self, command: list[str], cwd: str | None = None):
        try:
            self._proc = subprocess.Popen(
                command,
                cwd=cwd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as exc:
            raise VerifierTransportError(f"cannot start verifier: {exc}") from exc
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._dead = False
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def run(self, payload: dict, timeout: float) -> dict:
        if self._dead:
            raise VerifierTransportError("verifier process is no longer usable")
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.write(json.dumps(payload, ensure_ascii=False) + "\n\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self._dead = True
            raise VerifierTransportError(f"verifier pipe closed: {exc}") from exc
        deadline = time.monotonic() + timeout
        chunks: list[str] = []
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill()
                raise VerifierTimeoutError(
                    f"no response within {timeout:.0f}s"
                )
            try:
                line = self._lines.get(timeout=min(remaining, 0.25))
            except queue.Empty:
                continue
            if line is None:
                self._dead = True
                raise VerifierTransportError("verifier process exited")
            if line.strip() == "":
                if chunks:
                    break
                continue
            chunks.append(line)
        text = "\n".join(chunks)
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            self._dead = True
            raise VerifierTransportError(
                f"malformed verifier response: {text[:200]!r}"
            ) from exc

    def _kill(self) -> None:
        """Kill the process, reap it, and close both pipes."""
        self._dead = True
        with contextlib.suppress(OSError):
            self._proc.kill()
        self._proc.wait()
        with contextlib.suppress(OSError):
            self._proc.stdin.close()
        # The process's end of stdout is gone, so the reader stops, unless
        # a child of the process still holds it: closing the pipe under a
        # blocked reader would block too, so it is then left open.
        self._reader.join(timeout=1.0)
        if not self._reader.is_alive():
            self._proc.stdout.close()

    def close(self) -> None:
        self._kill()


def _parse_messages(response: dict) -> list[Diagnostic]:
    diags = []
    for msg in response.get("messages") or []:
        severity = str(msg.get("severity", "info")).lower()
        if severity.startswith("info"):
            severity = "info"
        elif severity not in ("error", "warning"):
            severity = "info"
        pos = msg.get("pos") or {}
        diags.append(
            Diagnostic(
                severity=severity,
                line=int(pos.get("line", 1)),
                column=int(pos.get("column", 0)),
                message=str(msg.get("data", "")),
            )
        )
    return diags


def _rebase(diags: list[Diagnostic], offset_lines: int) -> tuple[Diagnostic, ...]:
    """Shift positions so line 1 is the first line of the checked snippet.

    Context-region errors are kept (clamped to 1:0) because they still
    block acceptance; context-region warnings and infos are dropped.
    """
    rebased: list[Diagnostic] = []
    for diag in diags:
        if diag.line > offset_lines:
            rebased.append(
                Diagnostic(diag.severity, diag.line - offset_lines, diag.column, diag.message)
            )
        elif diag.severity == "error":
            rebased.append(Diagnostic("error", 1, 0, diag.message))
    return tuple(rebased)


# A context block, and every checked declaration, starts with `theorem`.
# A reserved word cannot continue the text before it, so Lean ends the
# previous command there, whatever text went before.
_DECLARATION = re.compile(r"theorem\s")


class LeanVerifier:
    """Session over a live Lean REPL with a fixed base environment.

    A check elaborates its context's tail (the context without the seed,
    which the base environment holds) and then, after a blank line, the
    checked declaration. The pipeline passes `Library.rendered[0]`, the
    whole library without the seed (plus, in a conjecture phase, the
    accepted stubs), so a session's first check elaborates all of it. The
    environment of a clean check (VALID or VERIFIED) holds that text, so
    a later check whose text extends it up to a block start sends only
    the rest, on that environment: still one request per check.

    Remembered, for the last context checked (`_context`, the caller's
    string, kept without a copy; its tail is `[_start:_end]`):

    * `_prefixes`: (end, environment id, sorry-free) for environments
      holding `_context[_start:end]`, in ascending order of `end`;
    * `_checks`: declaration -> (environment id, sorry-free) for clean
      checks against this context;
    * `_newlines`: start -> the newlines in `_context[start:_end]`, the
      line offset of a declaration sent after the tail from `start`.

    A new context keeps what it extends and drops the rest. Proof checks
    use sorry-free environments only, so the `sorries` a reply reports
    cover everything the proof rests on. Any client error, and any error
    reply (a top-level `message` and no `env`, as for an unknown
    environment), forgets all and raises `VerifierTransportError`.
    """

    def __init__(
        self,
        seed_source: str,
        command: list[str],
        cwd: str | None = None,
        command_timeout: float = DEFAULT_COMMAND_TIMEOUT,
        novelty_timeout: float = DEFAULT_NOVELTY_TIMEOUT,
        startup_timeout: float = DEFAULT_STARTUP_TIMEOUT,
        client: LeanReplClient | None = None,
    ):
        self.seed_source = seed_source
        self.command_timeout = command_timeout
        self.novelty_timeout = novelty_timeout
        self._client = client if client is not None else LeanReplClient(command, cwd)
        base_cmd = seed_source
        if "import Mathlib" not in seed_source:
            base_cmd = "import Mathlib\n\n" + seed_source
        try:
            response = self._client.run({"cmd": base_cmd}, timeout=startup_timeout)
        except VerifierTimeoutError as exc:
            raise VerifierStartupError(f"seed elaboration timed out: {exc}") from exc
        diags = _parse_messages(response)
        errors = tuple(d for d in diags if d.severity == "error")
        if errors:
            raise VerifierStartupError("seed failed to elaborate", errors)
        if response.get("env") is None:
            # Without it every check would start from an empty environment.
            raise VerifierStartupError("seed elaboration returned no environment id")
        self.base_environment = response["env"]
        self._forget()

    def _forget(self) -> None:
        self._context, self._start, self._end = "", 0, 0
        self._prefixes: list[tuple[int, object, bool]] = []
        self._checks: dict[str, tuple[object, bool]] = {}
        self._newlines: dict[int, int] = {}

    def _tail_bounds(self, context: str) -> tuple[int, int]:
        """Where the context's tail lies: after the seed, without the
        blank lines around it (no copy of the tail is made)."""
        start = len(self.seed_source) if context.startswith(self.seed_source) else 0
        end = len(context)
        while start < end and context[start] == "\n":
            start += 1
        while end > start and context[end - 1] == "\n":
            end -= 1
        return start, end

    def _advance(self, context: str, start: int, end: int) -> None:
        """Make `context` the current one. Keep each environment whose text
        the new tail starts with, when a block starts (or the tail ends)
        right after it."""
        old, old_start, old_end = self._context, self._start, self._end
        if context is old:
            return
        if context != old:

            def block_starts(at: int) -> bool:
                return at == end or (
                    context.startswith("\n\n", at)
                    and _DECLARATION.match(context, at + 2, end) is not None
                )

            # Positions carry over when both tails start at the same place.
            aligned = start == old_start
            kept = []
            shared = 0  # `context` and `old` agree on `[:shared]`
            for held, env, sorry_free in reversed(self._prefixes if aligned else []):
                if held <= shared or (
                    held <= end and context.startswith(old[:held])
                ):
                    shared = max(shared, held)
                    if block_starts(held):
                        kept.append((held, env, sorry_free))
            kept.reverse()
            # A check against `old` holds its tail, a blank line and the
            # declaration (just the declaration when the tail is empty).
            if old_end == old_start:
                at = start
            elif (
                aligned
                and context.startswith(old[:old_end])
                and context.startswith("\n\n", old_end)
            ):
                at = old_end + 2
            else:
                at = None
            if at is not None:
                for decl, (env, sorry_free) in self._checks.items():
                    held = at + len(decl)
                    if held <= end and context.startswith(decl, at) and block_starts(held):
                        kept.append((held, env, sorry_free))
                kept.sort(key=lambda item: item[0])
            self._prefixes, self._checks, self._newlines = kept, {}, {}
        self._context, self._start, self._end = context, start, end

    def _submit(
        self, context: str, decl_text: str, timeout: float, proof: bool = False
    ) -> tuple:
        """Elaborate `decl_text` after `context`; returns (rebased
        diagnostics, sorry count, elapsed seconds, environment id)."""
        start, end = self._tail_bounds(context)
        self._advance(context, start, end)
        rest, env = start, self.base_environment
        for held, candidate, sorry_free in reversed(self._prefixes):
            if (sorry_free or not proof) and (
                held < end or _DECLARATION.match(decl_text)
            ):
                rest, env = held + 2, candidate
                break
        if rest < end:
            snippet = "".join((context[rest:end], "\n\n", decl_text))
            lines = self._newlines.get(rest)
            if lines is None:
                lines = self._newlines[rest] = context.count("\n", rest, end)
            offset = lines + 2
        else:
            snippet = decl_text
            offset = 0
        started = time.monotonic()
        try:
            response = self._client.run({"cmd": snippet, "env": env}, timeout=timeout)
        except VerifierError:
            self._forget()
            raise
        elapsed = time.monotonic() - started
        if "message" in response and response.get("env") is None:
            # The REPL refused the request: it checked nothing.
            self._forget()
            raise VerifierTransportError(
                f"verifier error reply: {response['message']}"
            )
        diags = _rebase(_parse_messages(response), offset)
        sorries = response.get("sorries") or []
        return diags, len(sorries), elapsed, response.get("env")

    def _remember(self, decl_text: str, env, sorry_free: bool = False) -> None:
        """Keep the environment of a clean check against the current context."""
        if env is not None:
            self._checks[decl_text] = (env, sorry_free)

    def check_validity(self, context: str, stmt: TheoremStatement) -> CheckResult:
        try:
            diags, _, elapsed, env = self._submit(
                context, stmt.source_text, self.command_timeout
            )
        except VerifierTimeoutError:
            # Conservative: what we cannot check is not accepted.
            return CheckResult(
                verdict=INVALID,
                diagnostics=(_timeout_diag("validity check", self.command_timeout),),
            )
        if any(d.severity == "error" for d in diags):
            return CheckResult(verdict=INVALID, diagnostics=diags, elapsed=elapsed)
        self._remember(stmt.source_text, env)
        return CheckResult(verdict=VALID, diagnostics=diags, elapsed=elapsed)

    def check_novelty(self, context: str, stmt: TheoremStatement) -> CheckResult:
        try:
            diags, _, elapsed, _ = self._submit(
                context, stmt.render_for_exact_check(), self.novelty_timeout
            )
        except VerifierTimeoutError:
            # A timeout must not discard a potentially new conjecture.
            return CheckResult(
                verdict=NOVEL,
                diagnostics=(
                    _timeout_diag(
                        "novelty check", self.novelty_timeout, severity="warning"
                    ),
                ),
            )
        for diag in diags:
            if "Try this:" in diag.message:
                term = diag.message.split("Try this:", 1)[1].strip()
                if term.startswith("exact "):
                    term = term[len("exact ") :]
                return CheckResult(
                    verdict=KNOWN,
                    diagnostics=diags,
                    closing_term=term,
                    elapsed=elapsed,
                )
        return CheckResult(verdict=NOVEL, diagnostics=diags, elapsed=elapsed)

    def verify_proof(
        self, context: str, stmt: TheoremStatement, proof: ProofScript
    ) -> CheckResult:
        decl = stmt.render_with_proof(proof)
        try:
            diags, sorry_count, elapsed, env = self._submit(
                context, decl, self.command_timeout, proof=True
            )
        except VerifierTimeoutError:
            return CheckResult(
                verdict=FAILED,
                diagnostics=(_timeout_diag("proof check", self.command_timeout),),
            )
        has_error = any(d.severity == "error" for d in diags)
        uses_sorry = sorry_count > 0 or any(
            SORRY_WARNING_TEXT in d.message for d in diags
        )
        if not has_error and not uses_sorry:
            self._remember(decl, env, sorry_free=True)
            return CheckResult(verdict=VERIFIED, diagnostics=diags, elapsed=elapsed)
        extra: tuple[Diagnostic, ...] = ()
        if not has_error:
            extra = (Diagnostic("error", 1, 0, "proof leaves unproven goals"),)
        return CheckResult(verdict=FAILED, diagnostics=diags + extra, elapsed=elapsed)

    def close(self) -> None:
        self._client.close()


def open_session(
    seed_source: str,
    backend: str = "scripted",
    fixtures: str | Path | None = None,
    command: list[str] | None = None,
    cwd: str | None = None,
    command_timeout: float = DEFAULT_COMMAND_TIMEOUT,
    novelty_timeout: float = DEFAULT_NOVELTY_TIMEOUT,
):
    """Open a verifier session over the seed file.

    `backend` is either "scripted" (fixture map, offline) or "lean"
    (real REPL child process, needs a toolchain with Mathlib). The
    timeouts are the lean backend's.
    """
    if backend == "scripted":
        if fixtures is not None:
            return ScriptedVerifier.from_file(fixtures, seed_source)
        return ScriptedVerifier(seed_source)
    if backend == "lean":
        if not command:
            raise VerifierStartupError("no verifier command configured")
        return LeanVerifier(
            seed_source,
            command=command,
            cwd=cwd,
            command_timeout=command_timeout,
            novelty_timeout=novelty_timeout,
        )
    raise VerifierStartupError(f"unknown verifier backend {backend!r}")
