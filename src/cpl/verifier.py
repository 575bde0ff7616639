"""Lean 4 verification sessions: validity, `exact?` novelty, proof checking.

Two interchangeable session implementations:

* `LeanVerifier` drives a real Lean REPL child process speaking JSON
  over stdin/stdout through `LeanReplClient` (POSIX only), which reads
  each reply on the calling thread and kills the REPL's whole process
  group on a timeout. A session has one expensive base environment
  (Mathlib plus the seed file). Each check is one command: the context
  after the seed (the library's own rendering, never a prompt), then the
  checked declaration. The session keeps the environment of each clean
  check (VALID, VERIFIED) in a `_Remembered` record of its context, for
  at most two contexts, and a later check whose text extends that
  check's text at a block start sends only the rest, on that environment.
* `ScriptedVerifier` replays canned verdicts from a fixture map, making
  the whole pipeline deterministic and runnable offline.

Both expose the same three checks; `open_session` picks one from
configuration.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
from pathlib import Path

from .core import (
    FrozenRecord,
    ProofScript,
    Record,
    TheoremStatement,
    _common_prefix,
    log_warning,
    normalize_statement,
)

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


class Diagnostic(FrozenRecord):
    """One Lean message, at a line and column of the checked declaration;
    its `severity` is "error", "warning" or "info"."""

    def __init__(self, severity: str, line: int, column: int, message: str):
        self.__dict__.update(severity=severity, line=line, column=column, message=message)

    def format(self) -> str:
        return f"{self.line}:{self.column} {self.severity} {self.message}"


class CheckResult(FrozenRecord):
    """The verdict of one verifier check and the diagnostics behind it.

    `fault` is the gateway or verifier error that failed this trial, where
    Lean gave no verdict; only `prover` sets it.
    """

    def __init__(
        self,
        verdict: str,
        diagnostics: tuple[Diagnostic, ...] = (),
        closing_term: str | None = None,
        elapsed: float = 0.0,
        fault: Exception | None = None,
    ):
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if (verdict == KNOWN) != (closing_term is not None):
            raise ValueError("closing_term must be present exactly for 'known'")
        if fault is not None and verdict != FAILED:
            raise ValueError("only a failed trial has a fault")
        if verdict in (INVALID, FAILED) and not any(
            d.severity == "error" for d in diagnostics
        ):
            raise ValueError(f"verdict {verdict!r} requires an error diagnostic")
        self.__dict__.update(
            verdict=verdict,
            diagnostics=diagnostics,
            closing_term=closing_term,
            elapsed=elapsed,
            fault=fault,
        )

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


def _timeout_diag(op: str, timeout: float, severity: str = "error") -> Diagnostic:
    return Diagnostic(
        severity=severity,
        line=1,
        column=0,
        message=f"{op} timed out after {timeout:g}s",
    )


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

    Fixture keys are (operation, normalized statement body, proof text);
    unknown keys fall back to a per-operation default verdict and are
    logged as fixture misses.
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
        return (op, norm, proof_text)

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
        log_warning(__name__, "scripted verifier fixture miss: %s", key)
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
    """Minimal client for the Lean REPL wire protocol (POSIX only).

    One request at a time: a JSON object (``{"cmd": ..., "env": ...}``)
    followed by a blank line; the reply is a JSON object (possibly
    pretty-printed over several lines) ended by a blank line. Unknown
    reply fields are ignored. `run` writes the request and reads the reply
    on the calling thread, both under the request's deadline, and keeps
    the bytes after the reply for the next call. The REPL runs in a
    process group of its own, so a timeout, a transport error or `close`
    kills it and anything it started (`lake env` runs `repl` as its
    child), reaps it and closes both pipes; later calls are refused.
    """

    def __init__(self, command: list[str], cwd: str | None = None):
        # Imported here: only a real-Lean session starts a process.
        import select
        import subprocess

        try:
            self._proc = subprocess.Popen(
                command,
                cwd=cwd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                start_new_session=True,
            )
        except OSError as exc:
            raise VerifierTransportError(f"cannot start verifier: {exc}") from exc
        # A REPL that stops reading must not block a write past its deadline.
        os.set_blocking(self._proc.stdin.fileno(), False)
        # poll, not select(), which refuses fds past 1023.
        self._writable = select.poll()
        self._writable.register(self._proc.stdin, select.POLLOUT)
        self._ready = select.poll()
        self._ready.register(self._proc.stdout, select.POLLIN)
        self._pending = b""  # read past the last reply, leading whitespace dropped

    def run(self, payload: dict, timeout: float) -> dict:
        if self._proc.returncode is not None:
            raise VerifierTransportError("verifier process is no longer usable")
        deadline = time.monotonic() + timeout
        text = json.dumps(payload, ensure_ascii=False) + "\n\n"
        request, written = memoryview(text.encode("utf-8")), 0
        while written < len(request):
            self._wait(self._writable, deadline, timeout)
            try:
                written += os.write(self._proc.stdin.fileno(), request[written:])
            except OSError as exc:
                self.close()
                raise VerifierTransportError(f"verifier pipe closed: {exc}") from exc
        searched = 0  # the reply's end, a blank line, starts here or later
        while (end := _BLANK_LINE.search(self._pending, searched)) is None:
            self._wait(self._ready, deadline, timeout)
            chunk = os.read(self._proc.stdout.fileno(), 1 << 16)
            if not chunk:
                self.close()
                raise VerifierTransportError("verifier process exited")
            last = self._pending.rfind(b"\n", searched)
            searched = last if last >= 0 else len(self._pending)
            self._pending += chunk if self._pending else chunk.lstrip()
        reply = self._pending[: end.start()]
        self._pending = self._pending[end.end() :].lstrip()
        try:
            return json.loads(reply.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            self.close()
            raise VerifierTransportError(
                f"malformed verifier response: {reply[:200]!r}"
            ) from exc

    def _wait(self, poller, deadline: float, timeout: float) -> None:
        """Wait until the pipe `poller` watches is ready; past the deadline,
        kill the REPL and raise."""
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not poller.poll(remaining * 1000):
            self.close()
            raise VerifierTimeoutError(f"no response within {timeout:g}s")

    def close(self) -> None:
        """Kill the REPL's process group, reap the REPL, close both pipes."""
        import signal

        if self._proc.returncode is None:
            # Until it is reaped, the REPL holds its group id from reuse.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self._proc.pid, signal.SIGKILL)
            self._proc.wait()
        with contextlib.suppress(OSError):  # flushing into a closed pipe
            self._proc.stdin.close()
        self._proc.stdout.close()


# A reply ends at its first blank line; it starts with a non-blank one.
_BLANK_LINE = re.compile(rb"\n[ \t\r]*\n")


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


class _Remembered(Record):
    """What a `LeanVerifier` session remembers of one context.

    * `tail`: the context after the seed, without the blank lines around
      it. It is the caller's string itself, kept without a copy, when that
      is its own tail, as every pipeline context is;
    * `prefixes`: (end, environment id, sorry-free) for environments
      holding `tail[:end]`, in ascending order of `end`;
    * `checks`: declaration -> (environment id, sorry-free) for clean
      checks against this context;
    * `newlines`: start -> the newlines in `tail[start:]`, the line offset
      of a declaration sent after the tail from `start`.
    """

    # `_advance` takes a record out of `_contexts` by identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        tail: str,
        prefixes: list[tuple[int, object, bool]] | None = None,
        checks: dict[str, tuple[object, bool]] | None = None,
        newlines: dict[int, int] | None = None,
    ):
        self.tail = tail
        self.prefixes = [] if prefixes is None else prefixes
        self.checks = {} if checks is None else checks
        self.newlines = {} if newlines is None else newlines


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

    The session remembers at most two contexts in `_contexts`, one
    `_Remembered` record each, the last one checked first. So two callers
    that take turns do not make each other resend: a conjecture phase
    checks against the library plus its accepted stubs while the
    campaigns that run during it check against the library alone. A new
    context's record takes the place of the one it builds on when it
    extends it, as a phase's context grows by each accepted stub (see
    `_advance`). Proof checks use sorry-free environments only, so the
    `sorries` a reply reports cover everything the proof rests on. Any
    client error, and any error reply (a top-level `message` and no
    `env`, as for an unknown environment), forgets all and raises
    `VerifierTransportError`.
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
            diags = _parse_messages(response)
            errors = tuple(d for d in diags if d.severity == "error")
            if errors:
                raise VerifierStartupError("seed failed to elaborate", errors)
            if response.get("env") is None:
                # Without it every check would start from an empty environment.
                raise VerifierStartupError(
                    "seed elaboration returned no environment id"
                )
        except VerifierTimeoutError as exc:
            self._client.close()
            raise VerifierStartupError(f"seed elaboration timed out: {exc}") from exc
        except BaseException:
            self._client.close()
            raise
        self.base_environment = response["env"]
        self._forget()

    def _forget(self) -> None:
        self._contexts: list[_Remembered] = []

    def _advance(self, context: str) -> _Remembered:
        """Return the record of `context`'s tail, first in `_contexts`.

        A new tail derives its record from the longest remembered tail it
        starts with, else from the last one checked: it keeps each
        environment whose text the new tail starts with, when a block
        starts (or the tail ends) right after it. The new record takes the
        place of the one it derives from when it extends it; otherwise it
        pushes the older record out.
        """
        # The tail: after the seed, without the blank lines around it.
        start = len(self.seed_source) if context.startswith(self.seed_source) else 0
        end = len(context)
        while start < end and context[start] == "\n":
            start += 1
        while end > start and context[end - 1] == "\n":
            end -= 1
        tail = context[start:end]  # `context` itself when it is its own tail
        for record in self._contexts:
            if record.tail is tail:
                self._contexts.remove(record)
                self._contexts.insert(0, record)
                return record
        current = _Remembered(tail)
        extended = [r for r in self._contexts if tail.startswith(r.tail)]
        base = max(extended, key=lambda r: len(r.tail), default=None)
        if base is not None:
            self._contexts.remove(base)
        elif self._contexts:
            base = self._contexts[0]
            del self._contexts[1:]
        self._contexts.insert(0, current)
        if base is None:
            return current
        old = base.tail
        if tail == old:
            current.prefixes, current.checks = base.prefixes, base.checks
            current.newlines = base.newlines
            return current

        def block_starts(at: int) -> bool:
            return at == len(tail) or (
                tail.startswith("\n\n", at) and _DECLARATION.match(tail, at + 2) is not None
            )

        shared = _common_prefix(old, tail)  # the tails agree on `[:shared]`
        kept = current.prefixes
        kept += [item for item in base.prefixes if item[0] <= shared and block_starts(item[0])]
        # A check against `old` holds its tail, a blank line and the
        # declaration (just the declaration when the tail is empty).
        if not old:
            at = 0
        elif shared == len(old) and tail.startswith("\n\n", shared):
            at = shared + 2
        else:
            at = None
        if at is not None:
            for decl, (env, sorry_free) in base.checks.items():
                held = at + len(decl)
                if tail.startswith(decl, at) and block_starts(held):
                    kept.append((held, env, sorry_free))
            kept.sort(key=lambda item: item[0])
        return current

    def _submit(
        self, context: str, decl_text: str, timeout: float, proof: bool = False
    ) -> tuple:
        """Elaborate `decl_text` after `context`; returns (rebased
        diagnostics, sorry count, elapsed seconds, environment id)."""
        current = self._advance(context)
        tail = current.tail
        rest, env = 0, self.base_environment
        for held, candidate, sorry_free in reversed(current.prefixes):
            if (sorry_free or not proof) and (
                held < len(tail) or _DECLARATION.match(decl_text)
            ):
                rest, env = held + 2, candidate
                break
        if rest < len(tail):
            snippet = "".join((tail[rest:], "\n\n", decl_text))
            lines = current.newlines.get(rest)
            if lines is None:
                lines = current.newlines[rest] = tail.count("\n", rest)
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
            self._contexts[0].checks[decl_text] = (env, sorry_free)

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
