"""Cost-model fakes for the two services cpl waits on: a chat model and a
Lean REPL.

Both are *modelled*: each answer costs a formula's worth of
``time.sleep`` (scaled by ``time_scale`` from ``model.json``), never a
measurement of a real endpoint or toolchain. Both answer from the
generator's plan, so every verdict and response is known in advance.

The fake REPL is a cost model, not a contract fake: it does not reject
a redeclared theorem. It only counts snippets that declare the checked
theorem twice (``redeclared``), so that fault stays visible.

The fake REPL's own work (finding the checked declaration in a long
``cmd``) is not cpl's time. It is slept off inside the modelled cost,
and whatever the modelled cost does not cover is added to
``Excluded.s``, which the worker takes out of the times it reports.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from spans import NULL_TRACER

MODEL_PATH = Path(__file__).resolve().parent / "model.json"


def load_model() -> dict:
    return json.loads(MODEL_PATH.read_text(encoding="utf-8"))


def _sleep(seconds: float) -> None:
    if seconds > 0:
        time.sleep(seconds)


class Excluded:
    """Running total of benchmark-side seconds inside timed windows."""

    def __init__(self) -> None:
        self.s = 0.0


class FakeProvider:
    """Per-role response queues with a fixed plus per-prompt-char cost.

    ``failures`` holds (role, call index) pairs whose first attempt
    raises the gateway's retryable ``TransportError``; the retry gets
    the response. ``start`` is the per-role count of calls a resumed
    run has already made, so ``fast_forward`` can position the cursor.
    """

    name = "fake"

    def __init__(
        self,
        responses: dict[str, list[str]],
        transport_error,
        failures=(),
        start: dict[str, int] | None = None,
        call_s: float = 0.0,
        prompt_char_s: float = 0.0,
        tracer=NULL_TRACER,
    ):
        self._responses = responses
        self._transport_error = transport_error
        self._failures = {tuple(pair) for pair in failures}
        self._failed: set[tuple[str, int]] = set()
        self._start = dict(start or {})
        self._cursor = {role: 0 for role in responses}
        self.call_s = call_s
        self.prompt_char_s = prompt_char_s
        self.tracer = tracer
        self.first_request: float | None = None  # time.monotonic()
        self.wait_s = 0.0
        self.attempts = 0
        self.retries = 0
        self.prompt_chars = 0
        self.calls: dict[str, int] = {}

    def fast_forward(self, role_id: str, count: int) -> None:
        self._cursor[role_id] = count - self._start.get(role_id, 0)

    def complete(self, request) -> str:
        if self.first_request is None:
            self.first_request = time.monotonic()
        started = time.perf_counter()
        role = request.role_id
        index = self._cursor.get(role, 0)
        chars = len(request.system_prompt) + len(request.user_content)
        self.attempts += 1
        self.prompt_chars += chars
        try:
            _sleep(self.call_s + self.prompt_char_s * chars)
            key = (role, index + self._start.get(role, 0))
            if key in self._failures and key not in self._failed:
                self._failed.add(key)
                self.retries += 1
                raise self._transport_error(f"modelled transport failure at {key}")
            queue = self._responses.get(role, [])
            if index >= len(queue):
                raise RuntimeError(f"plan has no response {index} for role {role!r}")
            self._cursor[role] = index + 1
            self.calls[role] = self.calls.get(role, 0) + 1
            return queue[index]
        finally:
            ended = time.perf_counter()
            self.wait_s += ended - started
            self.tracer.record("provider.wait", started, ended)


def _message(severity: str, line: int, column: int, data: str) -> dict:
    return {"severity": severity, "pos": {"line": line, "column": column}, "data": data}


class FakeReplClient:
    """Stand-in for ``LeanReplClient``: answers from the verdict table.

    A request costs ``request_s + cmd_char_s * len(cmd)``; the first
    request (no ``env``) is the base environment and costs
    ``base_env_s``. The time the fake takes to find its answer counts
    towards that cost; any excess goes to ``excluded`` and not to
    ``wait_s``. Diagnostics sit on the checked declaration's lines,
    which is where ``LeanVerifier`` keeps them after rebasing.
    ``redeclared`` is counted only when ``count_redeclared`` is set,
    since it scans the whole ``cmd`` once more.
    """

    def __init__(
        self,
        table: dict,
        request_s: float = 0.0,
        cmd_char_s: float = 0.0,
        base_env_s: float = 0.0,
        tracer=NULL_TRACER,
        excluded: Excluded | None = None,
        count_redeclared: bool = False,
    ):
        self.validity = table["validity"]
        self.novelty = table["novelty"]
        self.proofs = table["proofs"]
        self.request_s = request_s
        self.cmd_char_s = cmd_char_s
        self.base_env_s = base_env_s
        self.tracer = tracer
        self.excluded = Excluded() if excluded is None else excluded
        self.count_redeclared = count_redeclared
        self.wait_s = 0.0
        self.ops = {
            op: {"calls": 0, "chars": 0, "excluded_s": 0.0}
            for op in ("validity", "novelty", "proof")
        }
        self.redeclared = 0
        self.misses: list[str] = []

    def run(self, payload: dict, timeout: float) -> dict:
        started = time.perf_counter()
        cmd = payload["cmd"]
        if "env" not in payload:
            _sleep(self.base_env_s)
            self.tracer.record("repl.wait", started, time.perf_counter())
            return {"env": 0, "messages": []}
        op, response = self._answer(cmd)
        modelled = self.request_s + self.cmd_char_s * len(cmd)
        _sleep(modelled - (time.perf_counter() - started))
        ended = time.perf_counter()
        excess = max(0.0, ended - started - modelled)
        self.excluded.s += excess
        self.wait_s += ended - started - excess
        stats = self.ops[op]
        stats["calls"] += 1
        stats["chars"] += len(cmd)
        stats["excluded_s"] += excess
        self.tracer.record("repl.wait", started, ended)
        return response

    def _answer(self, cmd: str) -> tuple[str, dict]:
        decl_start = cmd.rfind("\ntheorem ") + 1
        decl = cmd[decl_start:]
        line = cmd.count("\n", 0, decl_start) + 1
        head, _, proof = decl.partition(" := ")
        name = head.split()[1]
        if proof == "sorry":
            valid = self.validity.get(name)
            if valid is None:
                return "validity", self._miss(f"validity {name}", line)
            if valid:
                msg = _message("warning", line, 8, "declaration uses 'sorry'")
            else:
                msg = _message("error", line, len(head) - 1, "unknown identifier 'hC'")
            return "validity", {"env": 1, "messages": [msg]}
        if proof == "by exact?":
            if name not in self.novelty:
                return "novelty", self._miss(f"novelty {name}", line)
            term = self.novelty[name]
            if term is None:
                msg = _message(
                    "error",
                    line,
                    len(head) + 4,
                    "`exact?` could not close the goal. "
                    "Try `apply?` to see partial suggestions.",
                )
            else:
                msg = _message("info", line, len(head) + 4, f"Try this: exact {term}")
            return "novelty", {"env": 1, "messages": [msg]}
        if self.count_redeclared and cmd.count(f"theorem {name} ") > 1:
            self.redeclared += 1
        verified = self.proofs.get((name, proof))
        if verified is None:
            return "proof", self._miss(f"proof {name}", line)
        if verified:
            return "proof", {"env": 1, "messages": []}
        last = line + proof.count("\n")
        msg = _message("error", last, 2, "unsolved goals\nx : X\n⊢ x ∈ closure A")
        return "proof", {"env": 1, "messages": [msg]}

    def _miss(self, what: str, line: int) -> dict:
        self.misses.append(what)
        return {"env": 1, "messages": [_message("error", line, 0, f"no verdict for {what}")]}

    def close(self) -> None:
        pass
