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
`ReplayProvider.from_dir` replays it. Each line holds what differs from
the lines before (`PromptStore`), as HTTP/2 header compression sends
what changed since the previous request and refers back to earlier
entries of the same stream (RFC 7541). `sequence`, `role_id`, the reply's
`text` and `latency` and `reused` are on every line. The `timestamp`, the
`error`, the reply's `provider` and `attempt`, the system prompt, the
temperature and the output cap are written only where they differ from
the line before's (the last reply's, for `provider` and `attempt`). A user
context is copied by one rule, from one of two sources: the head it
shares with the source, at most one kept stretch of it, then new text
shorter than both 4096 chars and what it copies. A long context (4096
chars or more) first reuses the copy of the long one before it that it
extends (a prover retry), then tries the base line, the last line that
holds a long context whole, by its `sequence`; any context then tries
the line before, whose context is followed by its reply: a prover retry
quotes the attempt that reply holds. One that neither serves is written
whole, and a long one's line becomes the base. So the transcript grows
with what each prompt adds, not with the library.
The first line a gateway writes after opening or cutting the transcript
writes every field, and its context is whole. The transcript is the one
file: `read_transcript`'s decoder fills each line's gaps from the lines
before it alone, and a replay reads its replies through the same
`_fill_left_out`.

A resume cuts the transcript back to the committed calls
(`Gateway.fast_forward`), but the loop it redoes sends the same requests
again as long as nothing differs. So the gateway keeps the complete
lines it cut and, at its first call, reads them back through
`read_transcript`'s decoder into one queue per role. A call whose
request equals the head of its role's queue gets that recorded reply,
with no provider call, and its line is written again with `"reused":
true`. At the first request that differs, or once the queue is spent,
the role's queue is dropped and the provider is moved to the role's next
call. The transcript does not record the model name, so a resume with
other models configured is served the old replies.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from pathlib import Path

from .core import (
    FrozenRecord,
    JsonLinesLog,
    _common_prefix,
    log_warning,
    parse_json_lines,
    read_json_lines,
)

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


class ChatRequest(FrozenRecord):
    """One chat call of a role: its system prompt, user content and
    sampling settings."""

    def __init__(
        self,
        role_id: str,
        system_prompt: str,
        user_content: str,
        temperature: float = DEFAULT_TEMPERATURE,
        max_output: int = DEFAULT_MAX_OUTPUT,
    ):
        if role_id not in ROLE_IDS:
            raise ValueError(f"unknown role {role_id!r}")
        self.__dict__.update(
            role_id=role_id,
            system_prompt=system_prompt,
            user_content=user_content,
            temperature=temperature,
            max_output=max_output,
        )


class ChatResponse(FrozenRecord):
    """The reply to one call, with the provider that gave it, its latency
    and the attempt that succeeded. A `reused` reply was read from the
    transcript on a resume, not asked again."""

    def __init__(
        self, text: str, provider: str, latency: float, attempt: int, reused: bool = False
    ):
        self.__dict__.update(
            text=text, provider=provider, latency=latency, attempt=attempt, reused=reused
        )


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
            # o-series models refuse `max_tokens`; every chat model takes this.
            payload["max_completion_tokens"] = request.max_output
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
                body = resp.read()
        except urllib.error.HTTPError as exc:
            if exc.code in (401, 403):
                raise FatalGatewayError(
                    f"endpoint rejected the credential (HTTP {exc.code}); "
                    f"check {self.api_key_env}"
                ) from exc
            raise TransportError(f"HTTP {exc.code} from provider") from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise TransportError(f"provider unreachable: {exc}") from exc
        # A reply that is not JSON (a proxy's error page) or has no text is
        # retried like a failed connection; a null content is an empty reply.
        try:
            content = json.loads(body.decode("utf-8"))["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed provider response: {exc}") from exc
        if content is not None and not isinstance(content, str):
            raise TransportError(
                f"malformed provider response: content is {type(content).__name__}"
            )
        return content or ""


class ReplayProvider:
    """Deterministic per-role reply queues: a run's transcript, or replies
    given in memory (tests, dry runs). A resumed gateway keeps the
    exchanges it reads back from its own transcript in one too.

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
        replays as a `TransportError` carrying the recorded error, the
        line before's where it leaves it out (`_fill_left_out`). Requests
        are not decoded, so a transcript in a form `read_transcript`
        refuses still replays.
        """
        path = Path(run_dir) / "transcript.jsonl"
        if not path.exists():
            raise FixtureExhaustedError(f"no transcript to replay: {path} is missing")
        responses: dict[str, list] = {}
        written: dict = {}
        for entry in read_json_lines(path):
            _fill_left_out(entry, written)
            reply = entry["response"]
            responses.setdefault(entry["role_id"], []).append(
                TransportError(entry["error"]) if reply is None else reply["text"]
            )
        return cls(responses)

    def fast_forward(self, role_id: str, count: int) -> None:
        self._cursor[role_id] = count

    def head(self, role_id: str):
        """The item `complete` gives `role_id` next, or None once its queue
        is spent."""
        items = self._responses.get(role_id, ())
        cursor = self._cursor.get(role_id, 0)
        return items[cursor] if cursor < len(items) else None

    def drop(self, role_id: str) -> int | None:
        """Remove `role_id`'s queue; the number of items it gave, or None
        if there was no queue."""
        if self._responses.pop(role_id, None) is None:
            return None
        return self._cursor.pop(role_id, 0)

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


# A shorter context never becomes the base: a short prompt sent between a
# long context's retries would otherwise replace it.
INLINE_CONTEXT_CHARS = 4096
# A shorter stretch of a reply is left in the new text: its span would
# take about as many bytes as its chars.
MIN_REPLY_STRETCH = 32
_UNSET = object()


class PromptStore:
    """The fields of each transcript line: what differs from the lines
    before it.

    `timestamp`, `error`, `system_prompt`, `temperature` and `max_output`
    are written only where they differ from the line before's, and a
    reply's `provider` and `attempt` only where they differ from the last
    reply's (all of them on the first line after the transcript is opened
    or cut, which `forget` marks). A user context is inline, as
    `user_content`, or a copy (`_copy_of`): ranges of a source line's
    context, `user_content_spans`, then its new text,
    `user_content_suffix`. A context takes the first of these that serves:

    1. a long context (`INLINE_CONTEXT_CHARS` chars or more) that extends
       the last long one, to at most twice its length, when that one is or
       copies the base, is that copy plus the rest: a prover retry is its
       campaign's context plus a feedback block;
    2. a long context copies the base line, the last that holds a long
       context inline, which `user_content_base` names: a conjecture
       context grows by stubs, and past the budget drops the oldest
       entries, a different number for each prompt;
    3. any context copies the line before, whose context is followed by
       its reply text, so spans past the context are ranges of the reply:
       a re-proof campaign's context is the one before's with one more
       entry and another target, and a prover retry quotes the attempt
       of the reply before it;
    4. it is inline, and a long one's line becomes the base.

    One base is kept, not one per role: roles take turns in phases in the
    file, as the campaigns that run during a conjecture phase have their
    lines staged and written after it.
    """

    def __init__(self):
        self.forget()

    def forget(self) -> None:
        """The next line is written in full, and its first long context
        copies no base: the transcript was opened or cut, so the line
        before and the base line may not be the ones seen here."""
        self._previous: ChatRequest | None = None  # the line before's request
        self._reply = ""  # the line before's reply text
        self._written: dict = {}  # the last value written of each left-out field
        self._base, self._base_sequence = "", None  # the base's context and sequence
        self._last, self._last_fields = "", {}  # the last long context, and its fields as a base copy

    def line(self, sequence: int, timestamp, exchange: Exchange) -> dict:
        """The transcript line numbered `sequence` for `exchange`."""
        request, response = exchange.request, exchange.response
        entry = {"sequence": sequence, "role_id": request.role_id}
        entry["request"] = self._request_fields(request, sequence)
        entry["response"] = None
        if response is not None:
            entry["response"] = {"text": response.text, "latency": response.latency}
            entry["response"].update(self._changed(provider=response.provider, attempt=response.attempt))
            if response.reused:
                entry["response"]["reused"] = True
        entry.update(self._changed(timestamp=timestamp, error=exchange.error))
        self._reply = "" if response is None else response.text
        return entry

    def _changed(self, **values) -> dict:
        """The `values` that differ from the last written, in value or in
        type (JSON writes 1 and 1.0 apart); each becomes the last written."""
        fields = {}
        for key, value in values.items():
            before = self._written.get(key, _UNSET)
            if type(value) is not type(before) or value != before:
                fields[key] = self._written[key] = value
        return fields

    def _request_fields(self, request: ChatRequest, sequence: int) -> dict:
        """The fields of `request` for the line numbered `sequence`."""
        previous, self._previous = self._previous, request
        fields = self._changed(
            system_prompt=request.system_prompt,
            temperature=request.temperature,
            max_output=request.max_output,
        )
        fields.update(self._content_fields(request.user_content, sequence, previous))
        return fields

    def _content_fields(self, content: str, sequence: int, previous: ChatRequest | None) -> dict:
        """The fields of `content`, the steps of the class docstring in order."""
        long = len(content) >= INLINE_CONTEXT_CHARS
        if long:
            last, fields = self._last, self._last_fields
            if fields and len(content) <= 2 * len(last) and content.startswith(last):
                fields = dict(fields)
                fields["user_content_suffix"] += content[len(last) :]
                return fields
            self._last, self._last_fields = content, {}
            copy = None if self._base_sequence is None else _copy_of(self._base, content)
            if copy is not None:
                self._last_fields = {"user_content_base": self._base_sequence, **copy}
                return self._last_fields
        copy = None if previous is None else _copy_of(previous.user_content, content, self._reply)
        if copy is not None:
            return copy
        if long:  # the new base, which step 1 extends as a copy of itself
            self._base, self._base_sequence = content, sequence
            self._last_fields = {"user_content_base": sequence, **_copy_of(content, content)}
        return {"user_content": content}


def _copy_of(source: str, content: str, reply: str = "") -> dict | None:
    """`content` as ranges of `source` followed by `reply` and its new
    text: the head they share, then the longest kept stretch (`_kept`).
    None if the new text is not shorter than both `INLINE_CONTEXT_CHARS`
    and what it copies. `source` and `reply` are never joined: a context
    may be 400k chars."""
    head = _common_prefix(source, content)
    if head == len(source) and reply:
        head += _common_prefix(reply, content, 0, head)
    spans, copied = [[0, head]], head
    if head < len(content):
        start, kept = _kept(source, content, head, reply)
        if kept:
            spans.append([start, start + kept])
            copied += kept
    suffix = content[copied:]
    if len(suffix) >= min(INLINE_CONTEXT_CHARS, copied):
        return None
    return {"user_content_spans": spans, "user_content_suffix": suffix}


def _kept(source: str, content: str, head: int, reply: str) -> tuple[int, int]:
    """The start, in `source` followed by `reply`, and the length of the
    stretch that `content` continues with after its first `head` chars;
    (0, 0) for none. Where the rest of `content`'s line at `head` starts
    again after `head`: first in `source` (in a context, the first entry
    kept after the dropped ones), then in `reply` (a retry's quoted
    attempt), which serves only with a longer stretch of at least
    `MIN_REPLY_STRETCH` chars."""
    line_end = content.find("\n", head + 1)
    probe = content[head : line_end + 1 if line_end >= 0 else len(content)]
    start = source.find(probe, head + 1)
    kept = 0 if start < 0 else _common_prefix(source, content, start, head)
    least = max(kept + 1, MIN_REPLY_STRETCH)
    found = reply.find(probe, max(0, head + 1 - len(source)))
    if 0 <= found <= len(reply) - least:
        longer = _common_prefix(reply, content, found, head)
        if longer >= least:
            return len(source) + found, longer
    return (start, kept) if kept else (0, 0)


class TokenBucket:
    """Simple token bucket; rate is requests per second.

    Callers on several threads share it: each reserves the next free slot
    under a lock, then sleeps until that slot outside it, so no two grants
    come closer together than the interval.
    """

    def __init__(self, rate: float, monotonic=time.monotonic, sleep=time.sleep):
        self.interval = 1.0 / rate
        self._monotonic = monotonic
        self._sleep = sleep
        self._next_free = 0.0
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            now = self._monotonic()
            slot = max(now, self._next_free)
            self._next_free = slot + self.interval
        if slot > now:
            self._sleep(slot - now)


class Exchange(FrozenRecord):
    """One call's outcome, before its transcript line is written: the
    request, then the response, or no response and the error of its last
    attempt once all `attempts` failed."""

    def __init__(
        self,
        request: ChatRequest,
        response: ChatResponse | None,
        error: str | None = None,
        attempts: int = 0,
    ):
        self.__dict__.update(request=request, response=response, error=error, attempts=attempts)

    def reply(self) -> ChatResponse:
        """The response, or `TransportError` for a call whose retries ran out."""
        if self.response is None:
            raise TransportError(
                f"retries exhausted ({self.attempts}) for role "
                f"{self.request.role_id!r}: {self.error}"
            )
        return self.response


class Gateway:
    """Shared completion front-end: retries, pacing, transcript logging.

    A call is two steps. `exchange` paces it, tries the provider and backs
    off between attempts, and writes nothing. `record` counts it and writes
    its transcript line. `complete` is the one after the other. A caller
    that overlaps calls may run exchanges on several threads at once (the
    token bucket is shared under its lock), but records them from one
    thread, in the order their lines belong in the transcript.

    After a resume (`fast_forward`), `exchange` first serves each role the
    exchanges the cut transcript lines recorded, in their order, for as
    long as each request equals the recorded one (`_recorded`).
    """

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
        self._prompts = PromptStore()
        self._clock = clock
        self._lock = threading.Lock()
        self.calls_by_role: dict[str, int] = {role: 0 for role in ROLE_IDS}
        # What `fast_forward` restored, and the complete lines its cut
        # removed: their bytes until the first exchange after it, then their
        # exchanges by role; None when there are none.
        self._committed: dict[str, int] = {}
        self._recorded: bytes | ReplayProvider | None = None

    def fast_forward(self, calls_by_role: dict[str, int]) -> int | None:
        """Restore per-role call counters on resume, pass each count to
        the provider (a replay's cursors), and cut the transcript back to
        one line per counted call, fsynced. Returns the number of lines
        kept, fewer than the calls if the transcript lost some, or None
        without a transcript.

        Transcript numbering continues after the last line kept, so
        sequence numbers stay unique across resumes. The complete lines
        cut are kept as bytes, and the first exchange after this reads
        them back as recorded exchanges to serve instead of the provider
        (`_recorded`). A fresh run removes its transcript first, so it has
        no lines to cut.
        """
        for role, count in calls_by_role.items():
            self.calls_by_role[role] = count
            if hasattr(self.provider, "fast_forward"):
                self.provider.fast_forward(role, count)
        self._committed = dict(self.calls_by_role)
        self._recorded = None
        if self._transcript_path is None:
            return None
        self._open_transcript(keep=sum(self.calls_by_role.values()))
        self._recorded = self._transcript.cut_lines or None
        self._transcript.cut_lines = b""
        return self._transcript.kept

    def _open_transcript(self, keep: int | None = None) -> None:
        self._transcript = JsonLinesLog.open(self._transcript_path, keep=keep, fsync=True)
        self._prompts.forget()

    def sync(self) -> None:
        """Fsync the transcript: the lines written so far outlast a power loss."""
        with self._lock:
            if self._transcript is not None:
                self._transcript.sync()

    def complete(self, request: ChatRequest) -> ChatResponse:
        """One call: its exchange, then its record. Returns the response,
        or raises `TransportError` once the call's retries are exhausted."""
        exchange = self.exchange(request)
        self.record(exchange)
        return exchange.reply()

    def exchange(self, request: ChatRequest) -> Exchange:
        """The recorded exchange for the call, if a resume kept one
        (`_recorded`). Otherwise pace the call, then try the provider up to
        `retry_cap` times, backing off between attempts. Writes nothing; a
        fatal error propagates."""
        response = self._recorded_response(request)
        if response is not None:
            return Exchange(request, response)
        if self._bucket is not None:
            self._bucket.acquire()
        last_error: TransportError | None = None
        for attempt in range(1, self.retry_cap + 1):
            started = time.monotonic()
            try:
                text = self.provider.complete(request)
            except TransportError as exc:
                last_error = exc
                log_warning(
                    __name__,
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
            return Exchange(request, response)
        return Exchange(request, None, str(last_error), self.retry_cap)

    def _recorded_response(self, request: ChatRequest) -> ChatResponse | None:
        """The recorded reply at the head of the role's queue, taken from
        it, if that exchange's request equals `request`.

        At the first request that does not, or once the queue is spent,
        the rest of the role's queue is dropped and the provider moved to
        the role's next call, so this call and the role's later ones go to
        it. The queues are built at the first call after `fast_forward`,
        not during the resume, under the lock, as calls may come from two
        threads. A gateway with no cut lines to serve (a fresh run, or a
        resume whose transcript ends at the committed calls) takes no lock:
        `_recorded` is None, and only `fast_forward` changes that.
        """
        if self._recorded is None:
            return None
        with self._lock:
            recorded = self._recorded
            if isinstance(recorded, bytes):
                try:
                    recorded = self._read_cut_lines(recorded)
                except (ValueError, TypeError, KeyError, OSError) as exc:
                    # Reuse only saves calls: a transcript that does not
                    # read back is asked again, as before it was kept.
                    log_warning(__name__, "recorded exchanges not reused: %s", exc)
                    recorded = None
                self._recorded = recorded
            if recorded is None:
                return None
            role = request.role_id
            head = recorded.head(role)
            if head is not None and head.request == request:
                return recorded.complete(request).response
            given = recorded.drop(role)
            if given is not None and hasattr(self.provider, "fast_forward"):
                self.provider.fast_forward(role, self._committed.get(role, 0) + given)
            return None

    def _read_cut_lines(self, cut_lines: bytes) -> ReplayProvider:
        """The exchanges of `cut_lines`, one queue per role in line order,
        their requests made whole by reading the kept lines before them
        again. A role's queue ends before its first line without a reply:
        that call exhausted its retries and is asked again."""
        lines = chain(read_json_lines(self._transcript_path), parse_json_lines(cut_lines))
        entries = _whole_requests(lines)
        queues: dict[str, list[Exchange]] = {}
        ended: set[str] = set()
        for entry in islice(entries, sum(self._committed.values()), None):
            role, request, reply = entry["role_id"], entry["request"], entry["response"]
            if reply is None or role in ended:
                ended.add(role)
                continue
            response = ChatResponse(**{**reply, "reused": True})
            queues.setdefault(role, []).append(Exchange(ChatRequest(role, **request), response))
        return ReplayProvider(queues)

    def record(self, exchange: Exchange) -> None:
        """Count the call and write its transcript line."""
        request = exchange.request
        with self._lock:
            self.calls_by_role[request.role_id] = (
                self.calls_by_role.get(request.role_id, 0) + 1
            )
            if self._transcript_path is None:
                return
            if self._transcript is None:
                # Numbering continues after the lines already there.
                self._open_transcript()
            timestamp = self._clock.now() if self._clock else None
            entry = self._prompts.line(self._transcript.next_sequence, timestamp, exchange)
            self._transcript.append(entry)


def read_transcript(path: str | Path) -> list[dict]:
    """The entries of a transcript, read by `read_json_lines`, each whole
    again: every field a line leaves out and its request (`PromptStore`
    says what lines leave out and how they copy). A base line is one whose
    inline `user_content` is `INLINE_CONTEXT_CHARS` or longer. A line with
    `user_content_spans` and no `user_content_base` copies the previous
    line's context followed by its reply text, short or long. Lines in the
    older forms, every field inline, long contexts copied only from base
    lines, or copies of the line before's context alone, read as they did.

    A line that copies from a previous request with no line before it,
    that names a base other than the last base line read, or whose spans
    are not ordered ranges inside what they copy raises `ValueError`. So
    does a line in the form that named a context file in `prompts/`
    (`user_content_ref`); `--replay` reads only replies, so such a
    transcript still replays.
    """
    return list(_whole_requests(read_json_lines(path)))


def _fill_left_out(entry: dict, written: dict) -> None:
    """Set the `timestamp` and `error` that `entry` leaves out to the line
    before's, and the `provider` and `attempt` its reply leaves out to the
    last reply's; `written` holds those values, and takes `entry`'s. A
    field no line before has stays out, as in a replay fixture that holds
    only the replies."""
    parts = [(entry, ("timestamp", "error"))]
    if entry["response"] is not None:
        parts.append((entry["response"], ("provider", "attempt")))
    for fields, keys in parts:
        for key in keys:
            if key in fields:
                written[key] = fields[key]
            elif key in written:
                fields[key] = written[key]


def _whole_requests(entries: Iterable[dict]) -> Iterator[dict]:
    """`read_transcript`'s decoder: each of the transcript `entries`, in
    order, with its request made whole from the lines before it, then the
    fields it leaves out set (`_fill_left_out`). Only the last request and
    reply, the last base context and the last left-out values read are
    kept."""
    base_sequence, base = None, ""
    previous: dict | None = None
    reply, written = "", {}
    for entry in entries:
        request = entry["request"]
        sequence = entry.get("sequence")
        if "user_content_ref" in request:
            raise ValueError(
                f"transcript line {sequence}: user_content_ref names a context "
                f"stored in prompts/, a form this reader no longer reads"
            )
        named = request.pop("user_content_base", None)
        spans = request.pop("user_content_spans", None)
        carried = [
            key for key in ("system_prompt", "temperature", "max_output") if key not in request
        ]
        copied = carried + (["user_content"] if spans is not None and named is None else [])
        if copied and previous is None:
            raise ValueError(
                f"transcript line {sequence}: it copies {', '.join(copied)} from "
                f"a previous request, and no line comes before it"
            )
        for key in carried:
            request[key] = previous[key]
        if spans is not None:
            if named is not None and named != base_sequence:
                raise ValueError(
                    f"transcript line {sequence}: it copies base line {named}, and "
                    f"the last base line before it is {base_sequence}"
                )
            text, after = (previous["user_content"], reply) if named is None else (base, "")
            spans = _checked(spans, len(text) + len(after), sequence)
            text = "".join(_ranges(text, after, spans))
            request["user_content"] = text + request.pop("user_content_suffix")
        elif len(request["user_content"]) >= INLINE_CONTEXT_CHARS:
            base_sequence, base = sequence, request["user_content"]
        _fill_left_out(entry, written)
        previous = request
        reply = "" if entry["response"] is None else entry["response"]["text"]
        yield entry


def _ranges(text: str, after: str, spans: list) -> Iterator[str]:
    """The `spans` of `text` followed by `after`, never joined whole."""
    size = len(text)
    for start, end in spans:
        if start < size:
            yield text[start : min(end, size)]
        if end > size:
            yield after[max(start - size, 0) : end - size]


def _checked(spans, size: int, sequence) -> list:
    """`spans` if they are ordered [start, end] ranges within `size` chars."""
    pairs = isinstance(spans, list) and all(isinstance(s, list) and len(s) == 2 for s in spans)
    bounds = [0, *(bound for span in spans for bound in span), size] if pairs else []
    if not pairs or any(type(bound) is not int for bound in bounds) or bounds != sorted(bounds):
        raise ValueError(
            f"transcript line {sequence}: user_content_spans {spans!r} are not "
            f"ordered ranges of the {size}-char context it copies"
        )
    return spans
