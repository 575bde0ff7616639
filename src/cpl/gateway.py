"""Uniform chat-completion gateway with retry, pacing, and transcripts.

Providers are duck-typed: anything with ``complete(request) -> str``.
The shipped ones are an HTTP client for chat-completions endpoints and
a deterministic replay provider (per-role reply queues, read from a run
directory's transcript or given in memory for tests and dry runs).

The transcript is the one record of a run's model exchanges: one line
per call, in call order, with its role, its request fields and its
reply, or no reply and the error of a call that exhausted its retries.
It is a `JsonLinesLog`, so a gateway continues the numbering of a
transcript that is already there, after cutting a torn last line.
`ReplayProvider.from_dir` replays it. Each distinct user context is
written once, to `prompts/<sha256>.txt` beside it (`PromptStore`); its
lines hold the context's hash plus the text that follows it, or a short
context inline. `read_transcript` puts the full `user_content` back.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .core import JsonLinesLog, read_json_lines, write_atomically

logger = logging.getLogger(__name__)

ROLE_IDS = ("conjecturer", "prover", "simple_loop", "nl_prover")

DEFAULT_TEMPERATURE = 1.0
DEFAULT_MAX_OUTPUT = 16384
DEFAULT_RETRY_CAP = 3
DEFAULT_API_KEY_ENV = "CPL_API_KEY"


class TransportError(Exception):
    """Retryable provider failure; a trial using it counts as failed."""


class FatalGatewayError(Exception):
    """Unrecoverable misconfiguration; the run must halt."""


class FixtureExhaustedError(FatalGatewayError):
    """The replay fixtures ran out before the pipeline finished."""


@dataclass(frozen=True)
class ChatRequest:
    role_id: str
    system_prompt: str
    user_content: str
    temperature: float = DEFAULT_TEMPERATURE
    max_output: int = DEFAULT_MAX_OUTPUT

    def __post_init__(self) -> None:
        if self.role_id not in ROLE_IDS:
            raise ValueError(f"unknown role {self.role_id!r}")


@dataclass(frozen=True)
class ChatResponse:
    text: str
    provider: str
    latency: float
    attempt: int


class HttpChatProvider:
    """Client for the common chat-completions JSON schema.

    The credential is read from the environment at call time and never
    logged or persisted anywhere.
    """

    name = "http"

    def __init__(
        self,
        endpoint: str,
        models: dict[str, str],
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 300.0,
    ):
        self.endpoint = endpoint
        self.models = dict(models)
        self.api_key_env = api_key_env
        self.timeout = timeout

    def complete(self, request: ChatRequest) -> str:
        # Imported here: the HTTP stack is most of cpl's import time, and
        # only a live run needs it.
        import urllib.error
        import urllib.request

        api_key = os.environ.get(self.api_key_env, "")
        if not api_key:
            raise FatalGatewayError(
                f"missing credential: set {self.api_key_env} in the environment"
            )
        model = self.models.get(request.role_id)
        if not model:
            raise FatalGatewayError(f"no model configured for role {request.role_id!r}")
        payload = {
            "model": model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_content},
            ],
            "temperature": request.temperature,
        }
        if request.max_output:
            payload["max_tokens"] = request.max_output
        data = json.dumps(payload).encode("utf-8")
        req = urllib.request.Request(
            self.endpoint,
            data=data,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {api_key}",
            },
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            if exc.code in (401, 403):
                raise FatalGatewayError(
                    f"endpoint rejected the credential (HTTP {exc.code}); "
                    f"check {self.api_key_env}"
                ) from exc
            raise TransportError(f"HTTP {exc.code} from provider") from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise TransportError(f"provider unreachable: {exc}") from exc
        try:
            return body["choices"][0]["message"]["content"] or ""
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed provider response: {exc}") from exc


class ReplayProvider:
    """Deterministic per-role reply queues: a run's transcript, or replies
    given in memory (tests, dry runs).

    Replay is keyed on (role_id, per-role call index) only, never on
    prompt content, so cosmetic context changes cannot break a replay.
    A queued `TransportError` is raised instead of returned.
    """

    name = "replay"

    def __init__(self, responses: dict[str, list] | None = None):
        self._responses = {
            role: list(items) for role, items in (responses or {}).items()
        }
        self._cursor = {role: 0 for role in self._responses}

    @classmethod
    def from_dir(cls, run_dir: str | Path) -> "ReplayProvider":
        """Each role's replies in `run_dir/transcript.jsonl`, in file order.

        A line without a reply is a call that exhausted its retries: it
        replays as a `TransportError` carrying the recorded error.
        """
        path = Path(run_dir) / "transcript.jsonl"
        if not path.exists():
            raise FixtureExhaustedError(f"no transcript to replay: {path} is missing")
        responses: dict[str, list] = {}
        for entry in read_json_lines(path):
            reply = entry["response"]
            responses.setdefault(entry["role_id"], []).append(
                TransportError(entry["error"]) if reply is None else reply["text"]
            )
        return cls(responses)

    def fast_forward(self, role_id: str, count: int) -> None:
        self._cursor[role_id] = count

    def complete(self, request: ChatRequest) -> str:
        items = self._responses.get(request.role_id, [])
        cursor = self._cursor.setdefault(request.role_id, 0)
        if cursor >= len(items):
            raise FixtureExhaustedError(
                f"replay fixtures exhausted for role {request.role_id!r} "
                f"at call index {cursor}"
            )
        self._cursor[request.role_id] = cursor + 1
        reply = items[cursor]
        if isinstance(reply, TransportError):
            raise reply
        return reply


# A shorter context stays inline as `user_content`: creating a blob file
# costs more than writing a few KB into each line that needs it.
INLINE_CONTEXT_CHARS = 4096


class PromptStore:
    """Each distinct user context, written once as `prompts/<sha256>.txt`
    beside the transcript that refers to it.

    `request_fields` stores a context of `INLINE_CONTEXT_CHARS` or more as
    `user_content_ref`, the sha256 of a stored context, plus
    `user_content_suffix`, the text after it. The last context stored is
    reused as that prefix while it is one: a prover retry is its
    campaign's context plus a feedback block, and a conjecture context
    grows by accepted stubs. Only a context that does not start with it
    is hashed. Roles take turns in phases, so one context is kept, not
    one per role.
    """

    def __init__(self, beside: str | Path):
        self.directory = Path(beside) / "prompts"
        self._base = ""  # the last context stored
        self._base_ref: str | None = None  # and its sha256

    def path(self, ref: str) -> Path:
        return self.directory / f"{ref}.txt"

    def request_fields(self, request: ChatRequest) -> dict:
        fields = {"system_prompt": request.system_prompt}
        if len(request.user_content) < INLINE_CONTEXT_CHARS:
            fields["user_content"] = request.user_content
        else:
            ref, suffix = self._split(request.user_content)
            fields.update(user_content_ref=ref, user_content_suffix=suffix)
        fields.update(temperature=request.temperature, max_output=request.max_output)
        return fields

    def _split(self, content: str) -> tuple[str, str]:
        base = self._base
        # The rest may be no longer than the stored context: a context
        # that keeps growing (the simple loop's, from one iteration to
        # the next) is stored again each time it doubles, instead of
        # repeating all its growth on every line.
        if (
            self._base_ref is not None
            and len(content) <= 2 * len(base)
            and content.startswith(base)
        ):
            return self._base_ref, content[len(base) :]
        data = content.encode("utf-8")
        ref = hashlib.sha256(data).hexdigest()
        path = self.path(ref)
        if not path.exists():
            self.directory.mkdir(parents=True, exist_ok=True)
            write_atomically(path, [data], fsync=False)
        self._base, self._base_ref = content, ref
        return ref, ""


class TokenBucket:
    """Simple token bucket; rate is requests per second."""

    def __init__(self, rate: float, monotonic=time.monotonic, sleep=time.sleep):
        self.interval = 1.0 / rate
        self._monotonic = monotonic
        self._sleep = sleep
        self._next_free = 0.0

    def acquire(self) -> None:
        now = self._monotonic()
        wait = self._next_free - now
        if wait > 0:
            self._sleep(wait)
            now = self._next_free
        self._next_free = max(now, self._next_free) + self.interval


class Gateway:
    """Shared completion front-end: retries, pacing, transcript logging."""

    def __init__(
        self,
        provider,
        retry_cap: int = DEFAULT_RETRY_CAP,
        backoff_base: float = 1.0,
        rate_limit_rps: float | None = None,
        transcript_path: str | Path | None = None,
        clock=None,
        sleep=time.sleep,
    ):
        self.provider = provider
        self.retry_cap = retry_cap
        self.backoff_base = backoff_base
        self._sleep = sleep
        self._bucket = TokenBucket(rate_limit_rps) if rate_limit_rps else None
        self._transcript_path = Path(transcript_path) if transcript_path else None
        # Opened by the first record or by `fast_forward`: a gateway may be
        # built before a resume cuts the transcript.
        self._transcript: JsonLinesLog | None = None
        self._prompts = (
            PromptStore(self._transcript_path.parent) if self._transcript_path else None
        )
        self._clock = clock
        self._lock = threading.Lock()
        self.calls_by_role: dict[str, int] = {role: 0 for role in ROLE_IDS}

    def fast_forward(self, calls_by_role: dict[str, int]) -> None:
        """Restore per-role call counters on resume, pass each count to
        the provider (a replay's cursors), and cut the transcript back to
        one line per counted call.

        Transcript numbering continues after the last line kept, so
        sequence numbers stay unique across resumes.
        """
        for role, count in calls_by_role.items():
            self.calls_by_role[role] = count
            if hasattr(self.provider, "fast_forward"):
                self.provider.fast_forward(role, count)
        if self._transcript_path is not None:
            self._transcript = JsonLinesLog.open(
                self._transcript_path, keep=sum(self.calls_by_role.values())
            )

    def complete(self, request: ChatRequest) -> ChatResponse:
        if self._bucket is not None:
            self._bucket.acquire()
        last_error: TransportError | None = None
        for attempt in range(1, self.retry_cap + 1):
            started = time.monotonic()
            try:
                text = self.provider.complete(request)
            except TransportError as exc:
                last_error = exc
                logger.warning(
                    "provider attempt %d/%d failed for %s: %s",
                    attempt,
                    self.retry_cap,
                    request.role_id,
                    exc,
                )
                if attempt < self.retry_cap:
                    self._sleep(self.backoff_base * (2 ** (attempt - 1)))
                continue
            latency = time.monotonic() - started
            # Trailing-newline normalization only; a whitespace-only
            # response is the empty (surrender) signal.
            text = text.rstrip("\n")
            if not text.strip():
                text = ""
            response = ChatResponse(
                text=text,
                provider=getattr(self.provider, "name", "unknown"),
                latency=latency,
                attempt=attempt,
            )
            self._record(request, response)
            return response
        self._record(request, None, error=str(last_error))
        raise TransportError(
            f"retries exhausted ({self.retry_cap}) for role {request.role_id!r}: "
            f"{last_error}"
        )

    def _record(
        self,
        request: ChatRequest,
        response: ChatResponse | None,
        error: str | None = None,
    ) -> None:
        with self._lock:
            self.calls_by_role[request.role_id] = (
                self.calls_by_role.get(request.role_id, 0) + 1
            )
            if self._transcript_path is None:
                return
            if self._transcript is None:
                # Numbering continues after the lines already there.
                self._transcript = JsonLinesLog.open(self._transcript_path)
            entry = {
                "sequence": self._transcript.next_sequence,
                "timestamp": self._clock.now() if self._clock else None,
                "role_id": request.role_id,
                "request": self._prompts.request_fields(request),
                "response": None
                if response is None
                else {
                    "text": response.text,
                    "provider": response.provider,
                    "latency": response.latency,
                    "attempt": response.attempt,
                },
                "error": error,
            }
            self._transcript.append(entry)


def read_transcript(path: str | Path) -> list[dict]:
    """The entries of a transcript, read by `read_json_lines`, with each
    request's full `user_content` put back from the prompt store.

    Lines written before prompts were stored hold `user_content` inline
    and are returned as they are.
    """
    path = Path(path)
    store = PromptStore(path.parent)
    stored: dict[str, str] = {}
    entries = []
    for entry in read_json_lines(path):
        request = entry["request"]
        ref = request.pop("user_content_ref", None)
        if ref is not None:
            if ref not in stored:
                # bytes, not text mode, which would rewrite "\r\n"
                stored[ref] = store.path(ref).read_bytes().decode("utf-8")
            suffix = request.pop("user_content_suffix")
            request["user_content"] = stored[ref] + suffix
        entries.append(entry)
    return entries
