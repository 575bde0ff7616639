from __future__ import annotations

import hashlib
import io
import json
import logging
import random
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from cpl.core import read_json_lines, replace, strip_code_fences
from cpl.gateway import (
    INLINE_CONTEXT_CHARS,
    ROLE_IDS,
    ChatRequest,
    ChatResponse,
    Exchange,
    FatalGatewayError,
    FixtureExhaustedError,
    Gateway,
    HttpChatProvider,
    ReplayProvider,
    TokenBucket,
    TransportError,
    read_transcript,
)
from cpl.prompts import CONJECTURER_PROMPT, PROVER_PROMPT
from cpl.prover import format_feedback
from cpl.verifier import Diagnostic
from providers import CallableProvider


def request(role="prover", user="prove it", system=PROVER_PROMPT) -> ChatRequest:
    return ChatRequest(role_id=role, system_prompt=system, user_content=user)


class FlakyProvider:
    name = "flaky"

    def __init__(self, failures: int, text: str = "ok"):
        self.failures = failures
        self.text = text
        self.calls = 0

    def complete(self, req: ChatRequest) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("flaky")
        return self.text


def test_replay_queue_semantics():
    provider = ReplayProvider({"prover": ["r0", "r1"]})
    gateway = Gateway(provider, sleep=lambda s: None)
    assert gateway.complete(request()).text == "r0"
    assert gateway.complete(request()).text == "r1"
    with pytest.raises(FixtureExhaustedError):
        gateway.complete(request())


def test_retry_then_success_records_attempt_number():
    gateway = Gateway(FlakyProvider(failures=1), retry_cap=2, sleep=lambda s: None)
    response = gateway.complete(request())
    assert response.text == "ok"
    assert response.attempt == 2


def test_a_failed_attempt_logs_a_warning_on_the_gateway_logger(caplog):
    gateway = Gateway(FlakyProvider(failures=1), retry_cap=2, sleep=lambda s: None)
    with caplog.at_level(logging.WARNING, logger="cpl.gateway"):
        gateway.complete(request())
    (record,) = caplog.records
    assert (record.name, record.levelname) == ("cpl.gateway", "WARNING")
    assert record.getMessage() == "provider attempt 1/2 failed for prover: flaky"
    # The record names the gateway's code, not the helper that logged it.
    assert (record.funcName, Path(record.pathname).name) == ("exchange", "gateway.py")


def test_retries_exhausted_raises_transport_error():
    gateway = Gateway(FlakyProvider(failures=5), retry_cap=3, sleep=lambda s: None)
    with pytest.raises(TransportError):
        gateway.complete(request())


def test_empty_completion_passes_through():
    gateway = Gateway(ReplayProvider({"prover": [""]}), sleep=lambda s: None)
    assert gateway.complete(request()).text == ""


def test_whitespace_only_response_becomes_empty():
    gateway = Gateway(ReplayProvider({"prover": [" \n\n "]}), sleep=lambda s: None)
    assert gateway.complete(request()).text == ""


def test_trailing_newlines_normalized_but_content_untouched():
    gateway = Gateway(
        ReplayProvider({"prover": ["  by rfl  \n\n"]}), sleep=lambda s: None
    )
    assert gateway.complete(request()).text == "  by rfl  "


def test_record_then_replay_roundtrip(tmp_path):
    inner = ReplayProvider(
        {"conjecturer": ["c0", "c1"], "prover": ["p0"]}
    )
    gateway = Gateway(
        inner, transcript_path=tmp_path / "transcript.jsonl", sleep=lambda s: None
    )
    gateway.complete(request(role="conjecturer", system=CONJECTURER_PROMPT))
    gateway.complete(request(role="prover"))
    gateway.complete(request(role="conjecturer", system=CONJECTURER_PROMPT))

    replay = ReplayProvider.from_dir(tmp_path)
    replay_gateway = Gateway(replay, sleep=lambda s: None)
    # Per-role ordering is preserved independently of interleaving.
    assert replay_gateway.complete(request(role="prover")).text == "p0"
    assert (
        replay_gateway.complete(
            request(role="conjecturer", system=CONJECTURER_PROMPT)
        ).text
        == "c0"
    )
    assert (
        replay_gateway.complete(
            request(role="conjecturer", system=CONJECTURER_PROMPT)
        ).text
        == "c1"
    )


def test_replay_missing_fixture_dir_errors(tmp_path):
    with pytest.raises(FixtureExhaustedError):
        ReplayProvider.from_dir(tmp_path / "nothing_here")


def test_replay_of_a_directory_without_a_transcript_errors(tmp_path):
    # per-role record files are not a transcript
    line = {"index": 0, "role_id": "prover", "response": "by rfl"}
    (tmp_path / "prover.jsonl").write_text(json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(FixtureExhaustedError, match="transcript"):
        ReplayProvider.from_dir(tmp_path)


def test_replay_fast_forward_skips_consumed_responses():
    provider = ReplayProvider({"prover": ["r0", "r1", "r2"]})
    provider.fast_forward("prover", 2)
    gateway = Gateway(provider, sleep=lambda s: None)
    assert gateway.complete(request()).text == "r2"


def test_a_transcript_with_a_torn_last_line_replays(tmp_path):
    path = tmp_path / "transcript.jsonl"
    gateway = Gateway(
        ReplayProvider({"prover": ["p0", "p1"]}), transcript_path=path, sleep=lambda s: None
    )
    gateway.complete(request())
    gateway.complete(request())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"sequence": 2, "role_id": "pro')  # a write torn by a kill
    assert [e["response"]["text"] for e in read_transcript(path)] == ["p0", "p1"]
    replay = ReplayProvider.from_dir(tmp_path)
    assert [replay.complete(request()) for _ in range(2)] == ["p0", "p1"]
    with pytest.raises(FixtureExhaustedError):
        replay.complete(request())

    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + b'{"sequence": 1, "ro\n' + lines[1])
    for read in (read_transcript, lambda p: ReplayProvider.from_dir(p.parent)):
        with pytest.raises(ValueError):  # a torn line that is not the last
            read(path)


def test_a_call_that_exhausted_its_retries_replays_as_a_transport_error(tmp_path):
    path = tmp_path / "transcript.jsonl"
    live = Gateway(
        FlakyProvider(failures=3), retry_cap=3, transcript_path=path, sleep=lambda s: None
    )
    with pytest.raises(TransportError, match=r"retries exhausted \(3\).*flaky"):
        live.complete(request())
    assert live.complete(request()).text == "ok"

    replay = Gateway(ReplayProvider.from_dir(tmp_path), retry_cap=1, sleep=lambda s: None)
    with pytest.raises(TransportError, match=r"retries exhausted \(1\).*flaky"):
        replay.complete(request())
    assert replay.complete(request()).text == "ok"
    assert replay.calls_by_role["prover"] == live.calls_by_role["prover"] == 2


@pytest.mark.parametrize(
    "lines, tail, expected",
    [
        (['{"sequence": 0}', '{"sequence": 1, "x": "' + "y" * 200_000 + '"}'], "", 2),
        (['{"sequence": 0}', '{"sequence": 4}'], '{"sequence": 9, "x": "to', 5),
        (['{"sequence": 3}', "", " \t"], "", 4),
        ([""], '{"sequence": 7}', 0),
        ([], "", 0),
    ],
)
def test_fast_forward_continues_after_last_complete_transcript_line(
    tmp_path, lines, tail, expected
):
    """A gateway numbers its first line after the last complete line of
    the transcript already there, and cuts a torn tail before it."""
    path = tmp_path / "transcript.jsonl"
    complete = "".join(line + "\n" for line in lines)
    path.write_text(complete + tail, encoding="utf-8")
    gateway = Gateway(
        ReplayProvider({"prover": ["r0"]}), transcript_path=path, sleep=lambda s: None
    )
    gateway.complete(request())
    text = path.read_text(encoding="utf-8")
    assert text.startswith(complete)
    assert json.loads(text[len(complete) :])["sequence"] == expected


def test_a_resumed_gateway_serves_each_roles_cut_lines_in_order_while_the_requests_match(
    tmp_path,
):
    path = tmp_path / "transcript.jsonl"
    conjecture = request(role="conjecturer", user="c", system=CONJECTURER_PROMPT)
    first = Gateway(
        ReplayProvider({"conjecturer": ["r0", "r1", "r2"], "prover": ["x0", "x1"]}),
        transcript_path=path,
        sleep=lambda s: None,
    )
    for sent in (conjecture, conjecture, conjecture, request(user="p"), request(user="q")):
        first.complete(sent)
    latencies = [line["response"]["latency"] for line in read_json_lines(path)]

    live = ReplayProvider({"conjecturer": ["L0", "L1", "L2", "L3"], "prover": ["P0", "P1"]})
    gateway = Gateway(live, retry_cap=1, transcript_path=path, sleep=lambda s: None)
    gateway.fast_forward({"conjecturer": 1})  # the first line is committed
    # Two identical requests get their two replies, in order.
    assert gateway.complete(conjecture).text == "r1"
    assert gateway.complete(conjecture).text == "r2"
    # The first prover request that differs goes to the provider, at the
    # role's next call, and so does every later one, matching or not.
    assert gateway.complete(request(user="p, reworded")).text == "P0"
    assert gateway.complete(request(user="q")).text == "P1"
    # A spent queue: the provider is moved past the calls it served.
    assert gateway.complete(conjecture).text == "L3"
    assert gateway.calls_by_role["conjecturer"] == 4

    lines = list(read_json_lines(path))
    assert [line["response"].get("reused", False) for line in lines] == [
        False, True, True, False, False, False,
    ]
    assert [line["response"]["latency"] for line in lines[1:3]] == latencies[1:3]
    assert ReplayProvider.from_dir(tmp_path).complete(conjecture) == "r0"


def test_a_line_without_a_reply_is_never_served_and_ends_its_roles_queue(tmp_path):
    path = tmp_path / "transcript.jsonl"
    attempts = iter(["x0", "down", "down", "down", "x1"])

    def answer(req):
        text = next(attempts)
        if text == "down":
            raise TransportError("endpoint down")
        return text

    first = Gateway(CallableProvider(answer), transcript_path=path, sleep=lambda s: None)
    first.complete(request())
    with pytest.raises(TransportError):
        first.complete(request())
    first.complete(request())  # the same request again, answered this time

    gateway = Gateway(
        ReplayProvider({"prover": ["P0", "P1", "P2"]}), retry_cap=1, transcript_path=path
    )
    gateway.fast_forward({"prover": 0})
    # Only the call before the exhausted one is served; that one and the
    # one after it, whose request is the same, are asked.
    assert [gateway.complete(request()).text for _ in range(3)] == ["x0", "P1", "P2"]
    assert [line["response"].get("reused", False) for line in read_json_lines(path)] == [
        True, False, False,
    ]


def test_threads_sharing_a_resumed_gateway_are_served_each_recorded_reply_once(tmp_path):
    path = tmp_path / "transcript.jsonl"
    replies = [f"r{i}" for i in range(40)]
    first = Gateway(ReplayProvider({"prover": replies}), transcript_path=path)
    for _ in replies:
        first.complete(request())
    gateway = Gateway(ReplayProvider({"prover": ["live"]}), retry_cap=1, transcript_path=path)
    gateway.fast_forward({"prover": 0})
    served: list[str] = []
    start = threading.Barrier(8, timeout=10)

    def call() -> None:
        start.wait()  # all eight make the first call, which reads the cut lines, at once
        for _ in range(5):
            served.append(gateway.exchange(request()).reply().text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(served, key=lambda text: int(text[1:])) == replies


def test_cut_lines_are_read_back_at_the_first_call_and_asked_again_if_they_do_not_read(
    tmp_path, caplog
):
    path = tmp_path / "transcript.jsonl"
    long = "y" * INLINE_CONTEXT_CHARS
    first = Gateway(
        ReplayProvider({"prover": ["x0", "x1"]}), transcript_path=path, sleep=lambda s: None
    )
    first.complete(request(user=long))
    first.complete(request(user=long + " more"))

    gateway = Gateway(
        ReplayProvider({"prover": ["P0", "P1"]}), retry_cap=1, transcript_path=path
    )
    gateway.fast_forward({"prover": 1})
    # The kept line turns into the older stored-context form after the
    # resume and before the first call, so serving x1 would show a read
    # made during the resume.
    kept = json.loads(path.read_bytes())
    kept["request"] = {"user_content_ref": "0" * 64, "user_content_suffix": ""}
    path.write_text(json.dumps(kept) + "\n", encoding="utf-8")
    assert gateway.complete(request(user=long + " more")).text == "P1"
    assert "recorded exchanges not reused: transcript line 0: user_content_ref" in caplog.text


def test_a_resumes_cut_of_the_transcript_is_fsynced(tmp_path, writes):
    path = tmp_path / "transcript.jsonl"
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    for text in ("first", "second"):
        gateway.complete(request(user=text))
    writes.clear()
    assert gateway.fast_forward({"prover": 1}) == 1
    assert writes.steps() == [("transcript.jsonl", "cut"), ("transcript.jsonl", "fsync")]
    assert [write.path for write in writes] == [path]
    assert [line["sequence"] for line in read_json_lines(path)] == [0]


@pytest.mark.parametrize(
    "lines, tail",
    [(['{"sequence": 3}', "not json", ""], ""), (["not json"], '{"sequence": 7}')],
)
def test_a_transcript_whose_last_complete_line_is_not_json_is_left_as_it_was(
    tmp_path, lines, tail
):
    path = tmp_path / "transcript.jsonl"
    before = ("".join(line + "\n" for line in lines) + tail).encode()
    path.write_bytes(before)
    gateway = Gateway(
        ReplayProvider({"prover": ["r0"]}), transcript_path=path, sleep=lambda s: None
    )
    with pytest.raises(json.JSONDecodeError) as raised:
        gateway.complete(request())
    with pytest.raises(json.JSONDecodeError) as read:
        list(read_json_lines(path))  # as a resume or a replay reads it
    assert str(raised.value) == str(read.value)
    assert path.read_bytes() == before


def test_transcript_logs_full_exchange(tmp_path):
    path = tmp_path / "transcript.jsonl"
    gateway = Gateway(
        ReplayProvider({"prover": ["a proof"]}),
        transcript_path=path,
        sleep=lambda s: None,
    )
    gateway.complete(request(user="context here"))
    entries = read_transcript(path)
    assert len(entries) == 1
    entry = entries[0]
    assert entry["role_id"] == "prover"
    assert entry["request"]["system_prompt"] == PROVER_PROMPT
    assert entry["request"]["user_content"] == "context here"
    assert entry["response"]["text"] == "a proof"
    assert entry["response"]["attempt"] == 1


def test_system_prompt_sent_byte_for_byte():
    seen = {}

    class Capture:
        name = "capture"

        def complete(self, req: ChatRequest) -> str:
            seen["system"] = req.system_prompt
            seen["user"] = req.user_content
            return ""

    gateway = Gateway(Capture(), sleep=lambda s: None)
    gateway.complete(request(user="U", system=PROVER_PROMPT))
    assert seen["system"] == PROVER_PROMPT
    assert seen["user"] == "U"


def test_calls_counted_per_role():
    gateway = Gateway(
        ReplayProvider({"prover": ["x"], "conjecturer": ["y"]}), sleep=lambda s: None
    )
    gateway.complete(request(role="prover"))
    gateway.complete(request(role="conjecturer", system=CONJECTURER_PROMPT))
    assert gateway.calls_by_role["prover"] == 1
    assert gateway.calls_by_role["conjecturer"] == 1
    assert gateway.calls_by_role["simple_loop"] == 0


def test_token_bucket_paces_requests():
    clock = {"now": 0.0}
    sleeps: list[float] = []

    def fake_monotonic():
        return clock["now"]

    def fake_sleep(seconds):
        sleeps.append(seconds)
        clock["now"] += seconds

    bucket = TokenBucket(rate=2.0, monotonic=fake_monotonic, sleep=fake_sleep)
    bucket.acquire()
    bucket.acquire()
    bucket.acquire()
    assert sleeps == [0.5, 0.5]


def test_token_bucket_spaces_the_grants_of_two_threads():
    # Time stands still at 0, so a grant's slot is the length of the sleep
    # the bucket asks for, or 0 for the one grant that does not sleep. The
    # clock and the sleep each really sleep a little, so the other threads
    # run meanwhile: a bucket that chose a slot and reserved the next one
    # in separate steps, outside one hold of its lock, would hand two
    # threads the same slot. Nothing here depends on when a thread wakes.
    waits: list[float] = []

    def monotonic() -> float:
        time.sleep(0.0002)
        return 0.0

    def sleep(seconds: float) -> None:
        waits.append(seconds)
        time.sleep(0.001)

    bucket = TokenBucket(rate=50.0, monotonic=monotonic, sleep=sleep)

    def take() -> None:
        for _ in range(3):
            bucket.acquire()

    threads = [threading.Thread(target=take) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(waits) == pytest.approx([bucket.interval * k for k in range(1, 12)])


def test_unknown_role_rejected():
    with pytest.raises(ValueError):
        ChatRequest(role_id="oracle", system_prompt="s", user_content="u")


# ---------------------------------------------------------------------------
# HTTP provider (urllib monkeypatched; no network)
# ---------------------------------------------------------------------------


class FakeHttpResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_http_provider_payload_and_parse(monkeypatch):
    captured = {}

    def fake_urlopen(req, timeout=None):
        captured["url"] = req.full_url
        captured["payload"] = json.loads(req.data.decode("utf-8"))
        captured["auth"] = req.headers.get("Authorization")
        body = {"choices": [{"message": {"content": "by rfl"}}]}
        return FakeHttpResponse(json.dumps(body).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("CPL_API_KEY", "secret-key")
    provider = HttpChatProvider(
        endpoint="https://example.test/v1/chat/completions",
        models={"prover": "o3"},
    )
    text = provider.complete(request(user="ctx"))
    assert text == "by rfl"
    assert captured["payload"]["model"] == "o3"
    assert captured["payload"]["messages"][0] == {
        "role": "system",
        "content": PROVER_PROMPT,
    }
    assert captured["payload"]["messages"][1] == {"role": "user", "content": "ctx"}
    assert captured["payload"]["temperature"] == 1.0
    assert captured["payload"]["max_completion_tokens"] == request().max_output
    assert "max_tokens" not in captured["payload"]
    assert captured["auth"] == "Bearer secret-key"
    provider.complete(replace(request(user="ctx"), max_output=0))
    assert "max_completion_tokens" not in captured["payload"]
    assert "max_tokens" not in captured["payload"]


def test_http_provider_missing_credential_is_fatal(monkeypatch):
    monkeypatch.delenv("CPL_API_KEY", raising=False)
    provider = HttpChatProvider(endpoint="https://example.test", models={"prover": "o3"})
    with pytest.raises(FatalGatewayError):
        provider.complete(request())


def test_http_provider_auth_rejection_is_fatal(monkeypatch):
    def fake_urlopen(req, timeout=None):
        raise urllib.error.HTTPError(req.full_url, 401, "unauthorized", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("CPL_API_KEY", "bad-key")
    provider = HttpChatProvider(endpoint="https://example.test", models={"prover": "o3"})
    with pytest.raises(FatalGatewayError):
        provider.complete(request())


def test_http_provider_server_error_is_retryable(monkeypatch):
    def fake_urlopen(req, timeout=None):
        raise urllib.error.HTTPError(req.full_url, 500, "boom", {}, None)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("CPL_API_KEY", "key")
    provider = HttpChatProvider(endpoint="https://example.test", models={"prover": "o3"})
    with pytest.raises(TransportError):
        provider.complete(request())


@pytest.mark.parametrize(
    "body",
    [
        b"<html>bad gateway</html>",
        b'{"choices": [{"message": {"content": "by \xff"}}]}',
        json.dumps({"choices": [{"message": {"content": ["by rfl"]}}]}).encode(),
        json.dumps({"choices": []}).encode(),
    ],
    ids=["not-json", "not-utf8", "content-not-a-string", "no-choice"],
)
def test_a_malformed_reply_is_a_transport_error_the_gateway_retries_and_records(
    tmp_path, monkeypatch, body
):
    monkeypatch.setattr(urllib.request, "urlopen", lambda req, timeout=None: FakeHttpResponse(body))
    monkeypatch.setenv("CPL_API_KEY", "key")
    provider = HttpChatProvider(endpoint="https://example.test", models={"prover": "o3"})
    with pytest.raises(TransportError, match="malformed provider response: "):
        provider.complete(request())
    path = tmp_path / "transcript.jsonl"
    gateway = Gateway(provider, retry_cap=2, transcript_path=path, sleep=lambda s: None)
    with pytest.raises(TransportError, match="retries exhausted"):
        gateway.complete(request())
    (line,) = read_json_lines(path)
    assert line["response"] is None
    assert line["error"].startswith("malformed provider response: ")


def test_a_null_content_is_an_empty_reply(monkeypatch):
    body = json.dumps({"choices": [{"message": {"content": None}}]}).encode()
    monkeypatch.setattr(urllib.request, "urlopen", lambda req, timeout=None: FakeHttpResponse(body))
    monkeypatch.setenv("CPL_API_KEY", "key")
    provider = HttpChatProvider(endpoint="https://example.test", models={"prover": "o3"})
    assert provider.complete(request()) == ""


def test_credential_never_written_to_transcript(tmp_path, monkeypatch):
    def fake_urlopen(req, timeout=None):
        body = {"choices": [{"message": {"content": "out"}}]}
        return FakeHttpResponse(json.dumps(body).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setenv("CPL_API_KEY", "super-secret-credential")
    provider = HttpChatProvider(endpoint="https://example.test", models={"prover": "o3"})
    path = tmp_path / "transcript.jsonl"
    gateway = Gateway(provider, transcript_path=path, sleep=lambda s: None)
    gateway.complete(request())
    assert "super-secret-credential" not in path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Prompt store
# ---------------------------------------------------------------------------

CONTEXT = "import Mathlib\n\n" + "\n\n".join(
    f"theorem t{i} : ∀ n : ℕ, n + {i} = {i} + n := by omega" for i in range(300)
)
TRUNCATED = CONTEXT[CONTEXT.index("theorem t5 ") :]
NON_ASCII = "∀ ε > 0, ∃ δ > 0,\r\n  |x - y| < δ → |f x - f y| < ε  -- 𝔽 \u2028 \"q\""


def store_cases() -> list[tuple[str, str]]:
    """(role, user_content) in call order, covering every store path."""
    retries = [
        CONTEXT + f"\n\nprevious attempt:\nby simp_{i}\n\nerror: unsolved goals ⊢ ℕ"
        for i in range(16)
    ]
    stubs = ["\n\ntheorem s1 : 1 = 1 := sorry", "\n\ntheorem s2 : 2 = 2 := sorry"]
    return [
        ("prover", CONTEXT),  # first trial: stored
        *(("prover", text) for text in retries),  # retries: context + feedback
        ("conjecturer", CONTEXT + stubs[0]),  # a context grown by stubs
        ("conjecturer", CONTEXT + stubs[0] + stubs[1]),
        ("prover", CONTEXT),  # an identical repeat
        ("prover", TRUNCATED),  # truncated at the front: not a prefix
        ("simple_loop", TRUNCATED * 2 + "!"),  # grown past twice its base
        ("nl_prover", NON_ASCII * 100),
        ("nl_prover", NON_ASCII),  # short contexts stay inline
        ("prover", ""),
    ]


def record_cases(gateway) -> list[str]:
    sent = []
    for role, text in store_cases():
        gateway.complete(request(role=role, user=text))
        sent.append(text)
    return sent


def echo_provider(seen: list[str]):
    def reply(req: ChatRequest) -> str:
        seen.append(req.user_content)
        return f"reply {len(seen)}"

    return CallableProvider(reply)


def test_read_transcript_returns_the_exact_user_content(tmp_path):
    path = tmp_path / "transcript.jsonl"
    old_line = {  # written before prompts were stored: inline user_content
        "sequence": 0,
        "timestamp": None,
        "role_id": "prover",
        "request": {
            "system_prompt": "s",
            "user_content": "old ∀ context\r\n",
            "temperature": 1.0,
            "max_output": 16384,
        },
        "response": {"text": "r", "provider": "x", "latency": 0.0, "attempt": 1},
        "error": None,
    }
    path.write_text(json.dumps(old_line, ensure_ascii=False) + "\n", encoding="utf-8")
    seen: list[str] = []
    gateway = Gateway(echo_provider(seen), transcript_path=path, sleep=lambda s: None)
    sent = record_cases(gateway)
    assert seen == sent
    entries = read_transcript(path)
    contents = [e["request"]["user_content"] for e in entries]
    assert contents == ["old ∀ context\r\n"] + sent
    assert entries[0] == old_line
    whole = {"system_prompt", "user_content", "temperature", "max_output"}
    assert all(e["request"].keys() == whole for e in entries)
    assert [e["response"]["text"] for e in entries[1:]] == [
        f"reply {i}" for i in range(1, len(sent) + 1)
    ]


def test_retries_and_grown_contexts_store_only_the_rest(tmp_path):
    path = tmp_path / "transcript.jsonl"
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    sent = record_cases(gateway)
    raw = path.read_text(encoding="utf-8").split("\n")[:-1]
    lines = [json.loads(line) for line in raw]
    # CONTEXT, TRUNCATED * 2 + "!" and NON_ASCII * 100 are written whole
    assert base_lines(lines) == [0, 21, 22]
    assert lines[0]["request"]["user_content"] == CONTEXT
    assert all(len(line) < len(CONTEXT) for number, line in enumerate(raw) if number not in (0, 21))
    for line, text in zip(lines[1:20], sent[1:20]):
        assert line["request"]["user_content_base"] == 0
        assert line["request"]["user_content_spans"] == [[0, len(CONTEXT)]]
        assert line["request"]["user_content_suffix"] == text[len(CONTEXT) :]
    short, empty = (line["request"] for line in lines[-2:])
    # NON_ASCII copies the start of the NON_ASCII * 100 before it
    assert short["user_content_spans"] == [[0, len(sent[-2])]]
    assert short["user_content_suffix"] == ""
    assert empty["user_content"] == sent[-1]
    for line in lines[-2:]:
        assert "user_content_base" not in line["request"]


def base_lines(lines: list[dict]) -> list[int]:
    """The sequences of the `lines` that hold a long context whole."""
    return [
        line["sequence"]
        for line in lines
        if len(line["request"].get("user_content", "")) >= INLINE_CONTEXT_CHARS
    ]


def test_each_base_is_written_whole_once_per_open_and_nothing_beside_the_transcript(
    tmp_path,
):
    path = tmp_path / "transcript.jsonl"
    sent = []
    for _ in range(2):  # a second gateway, as after a restart, knows no base
        gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
        sent += record_cases(gateway)
    assert [p.name for p in tmp_path.iterdir()] == ["transcript.jsonl"]
    lines = list(read_json_lines(path))
    # TRUNCATED is spans of CONTEXT
    expected = [CONTEXT, TRUNCATED * 2 + "!", NON_ASCII * 100]
    assert [lines[n]["request"]["user_content"] for n in base_lines(lines)] == expected * 2
    assert base_lines(lines) == [0, 21, 22, 25, 46, 47]
    assert [e["request"]["user_content"] for e in read_transcript(path)] == sent


def test_recording_through_the_store_replays(tmp_path):
    path = tmp_path / "transcript.jsonl"
    record_cases(Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None))
    replay = Gateway(ReplayProvider.from_dir(tmp_path), sleep=lambda s: None)
    for number, (role, text) in enumerate(store_cases(), start=1):
        assert replay.complete(request(role=role, user=text)).text == f"reply {number}"
    assert [p.name for p in tmp_path.iterdir()] == ["transcript.jsonl"]


# A library past the budget: the seed, then blocks of which a prompt keeps
# the newest, as `render_context` renders it.
LEAN_SEED = "import Mathlib\r\n\nopen 𝔽\u2028 -- seed\n"
BLOCKS = [
    f"theorem b{i} : ∀ x : 𝔽, x + {i} = {i} + x := by\r\n  intro x\u2028  ring"
    for i in range(400)
]
STUBS = [f"theorem e{i} : ∀ n : ℕ, n ≤ n + {i} := sorry" for i in range(40)]


def rendered(front: int, extras=(), end: int = len(BLOCKS)) -> str:
    text = LEAN_SEED + "\n" + "\n\n".join(BLOCKS[front:end])
    return text + "".join("\n\n" + stub for stub in extras)


def recorded_lines(path, contents, role="conjecturer") -> list[dict]:
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    for text in contents:
        gateway.complete(request(role=role, user=text))
    read_back = [e["request"]["user_content"] for e in read_transcript(path)]
    assert read_back[-len(contents) :] == contents
    return list(read_json_lines(path))[-len(contents) :]


def test_a_front_truncated_context_is_spliced_from_the_stored_one(tmp_path):
    stored, truncated = rendered(0), rendered(7, STUBS[:3])
    assert len(truncated) >= INLINE_CONTEXT_CHARS
    first, second = recorded_lines(tmp_path / "transcript.jsonl", [stored, truncated])
    assert first["request"]["user_content"] == stored
    request = second["request"]
    assert request["user_content_base"] == first["sequence"]
    assert request["user_content_suffix"] == "".join("\n\n" + stub for stub in STUBS[:3])
    (head, head_end), (resume, end) = request["user_content_spans"]
    assert head == 0 and end == len(stored)
    assert stored[:head_end] + stored[resume:] == rendered(7)
    assert "user_content_spans" not in first["request"]


def test_a_context_of_inline_context_chars_is_a_base_and_one_char_less_is_not(tmp_path):
    below, at = "𝔽" * (INLINE_CONTEXT_CHARS - 1), "∀" * INLINE_CONTEXT_CHARS
    lines = recorded_lines(tmp_path / "transcript.jsonl", [below, at, at + "\r\n retry"])
    assert [line["request"].get("user_content") for line in lines[:2]] == [below, at]
    assert base_lines(lines) == [1]
    assert lines[2]["request"]["user_content_base"] == 1


def test_each_retry_of_a_spliced_context_carries_only_its_own_feedback(tmp_path):
    campaign = rendered(9, STUBS[5:6])
    retries = [
        format_feedback(
            campaign, f"by simp_{i}", (Diagnostic("error", 2, i, f"goal ⊢ 𝔽 {i}\r\n"),)
        )
        for i in range(15)
    ]
    lines = recorded_lines(
        tmp_path / "transcript.jsonl", [rendered(0), campaign, *retries], role="prover"
    )
    spliced = lines[1]["request"]
    assert base_lines(lines) == [0]
    assert all("user_content" not in line["request"] for line in lines[1:])
    for line, retry in zip(lines[2:], retries):
        assert line["request"]["user_content_spans"] == spliced["user_content_spans"]
        assert line["request"]["user_content_suffix"] == (
            spliced["user_content_suffix"] + retry[len(campaign) :]
        )


def test_long_new_text_is_written_whole_as_a_new_base_and_a_dropped_tail_copies_the_base(
    tmp_path,
):
    stored = rendered(0)
    kept = rendered(6)
    # New text one char short of INLINE_CONTEXT_CHARS is spliced; at that
    # length it is written whole, and the retry after it copies it. The
    # base with its tail dropped is its head, and its retry extends that
    # copy.
    longest = kept + "\n\n" + "∀" * (INLINE_CONTEXT_CHARS - 3)
    assert len(longest) - len(kept) == INLINE_CONTEXT_CHARS - 1
    for number, (text, spliced) in enumerate([(longest, True), (longest + "∀", False)]):
        run_dir = tmp_path / str(number)
        run_dir.mkdir()
        lines = recorded_lines(run_dir / "transcript.jsonl", [stored, text, text + "\r\nretry"])
        assert ("user_content_spans" in lines[1]["request"]) == spliced
        assert base_lines(lines) == ([0] if spliced else [0, 1])
        assert lines[2]["request"]["user_content_base"] == (0 if spliced else 1)
        assert [p.name for p in run_dir.iterdir()] == ["transcript.jsonl"]
    dropped = rendered(0, end=len(BLOCKS) - 2)
    lines = recorded_lines(tmp_path / "transcript.jsonl", [stored, dropped, dropped + "\r\nretry"])
    assert base_lines(lines) == [0]
    head = {"user_content_base": 0, "user_content_spans": [[0, len(dropped)]]}
    assert [line["request"] for line in lines[1:]] == [
        {**head, "user_content_suffix": ""},
        {**head, "user_content_suffix": "\r\nretry"},
    ]


def random_contexts(rng: random.Random, count: int) -> list[str]:
    """Prompts as a long run sends them: contexts cut at a random front
    from a growing block list, with random extras and feedback."""
    contents = []
    front, end = 0, 200
    for _ in range(count):
        end = min(len(BLOCKS), end + rng.choice([0, 0, 0, 1, 2, 30]))
        if rng.random() < 0.2:
            front = rng.randrange(0, end - 60)
        else:  # mostly, the budget drops a few more of the oldest blocks
            front = min(end - 60, front + rng.choice([0, 1, 2, 5]))
        extras = rng.sample(STUBS, rng.choice([0, 1, 3, 12, 40]))
        text = rendered(front, extras, end=end)
        if rng.random() < 0.2:
            text = text[: rng.randrange(INLINE_CONTEXT_CHARS, len(text))]
        contents.append(text)
        for trial in range(rng.choice([0, 0, 1, 3])):
            diagnostics = (Diagnostic("error", 1, trial, "∀ 𝔽 failed"),)
            contents.append(format_feedback(text, f"by\r\n  simp [b{trial}]\u2028", diagnostics))
    return contents


def test_a_seeded_random_run_of_contexts_reads_back_exactly(tmp_path):
    rng = random.Random(1729)
    path = tmp_path / "transcript.jsonl"
    sent = []
    for _ in range(2):  # a second gateway, as after a restart
        contents = random_contexts(rng, 120)
        assert len(contents) >= 100
        recorded_lines(path, contents, role="prover")
        sent.extend(contents)
    assert [e["request"]["user_content"] for e in read_transcript(path)] == sent
    lines = list(read_json_lines(path))
    spliced = sum("user_content_spans" in line["request"] for line in lines)
    assert spliced > len(lines) / 4 and len(base_lines(lines)) < len(set(sent)) / 2


def test_spans_outside_their_stored_context_are_refused(tmp_path):
    path = tmp_path / "transcript.jsonl"
    recorded_lines(path, [rendered(0), rendered(3), rendered(4)])
    good = [line + "\n" for line in path.read_text(encoding="utf-8").split("\n")[:-1]]
    size = len(rendered(0))
    for spans in (
        [[0, 40], [30, size]],  # overlapping
        [[0, 40], [50, size + 1]],  # past the blob's end
        [[40, 0]],
        [[-1, 4]],
        [[0, 1.5]],
        [[0]],
        7,
    ):
        line = json.loads(good[2])
        line["request"]["user_content_spans"] = spans
        edited = json.dumps(line, ensure_ascii=False) + "\n"
        path.write_text("".join(good[:2]) + edited, encoding="utf-8")
        with pytest.raises(ValueError, match="transcript line 2: user_content_spans"):
            read_transcript(path)


# ---------------------------------------------------------------------------
# Lines as copies of the line before
# ---------------------------------------------------------------------------

SYSTEMS = [PROVER_PROMPT, CONJECTURER_PROMPT, "system ∀ 𝔽\r\n\u2028 prompt"]
# The request fields a line leaves out when they equal the line before's.
CARRIED_FIELDS = ("system_prompt", "temperature", "max_output")


def mixed_requests(rng: random.Random, count: int) -> list[ChatRequest]:
    """Short and long contexts, as the roles send them, with the system
    prompt, the temperature and the output cap changing now and then."""
    requests: list[ChatRequest] = []
    system, temperature, max_output = PROVER_PROMPT, 1.0, 16384
    while len(requests) < count:
        if rng.random() < 0.15:
            system = rng.choice(SYSTEMS)
        if rng.random() < 0.1:
            temperature = rng.choice([1.0, 0.7, 1, 0.0])  # 1 and 1.0 are written apart
        if rng.random() < 0.05:
            max_output = rng.choice([16384, 512, 0])
        kind = rng.random()
        if kind < 0.2:  # a long context, maybe with retries
            texts = random_contexts(rng, 1)
        elif kind < 0.3:  # long contexts re-targeted, as re-proof campaigns send them
            front = rng.randrange(0, 150)
            end = front + rng.randrange(80, 120)
            texts = []
            for _ in range(rng.randrange(2, 5)):
                texts.append(rendered(front, rng.sample(STUBS, rng.choice([1, 2])), end=end))
                end += rng.choice([1, 2])  # the head it shares, then a new tail
                front += rng.choice([0, 0, 1, 3])  # or its front moved on as well
        elif kind < 0.75:  # a short one, with retries that extend it
            front = rng.randrange(0, 300)
            extras = rng.sample(STUBS, rng.choice([0, 1, 3]))
            text = rendered(front, extras, end=front + rng.randrange(40))
            diagnostics = (Diagnostic("error", 1, 0, "⊢ 𝔽\r\n\u2028"),)
            texts = [text] + [
                format_feedback(text, f"by simp_{trial}", diagnostics)
                for trial in range(rng.choice([0, 1, 3]))
            ]
        elif kind < 0.9 and requests:  # a short cut of the one before
            before = requests[-1].user_content
            texts = [before[: rng.randrange(min(len(before), INLINE_CONTEXT_CHARS - 1) + 1)]]
        else:  # short and unrelated, or empty
            texts = [NON_ASCII[rng.randrange(len(NON_ASCII)) :] * rng.randrange(3)]
        role = rng.choice(ROLE_IDS)
        requests.extend(ChatRequest(role, system, text, temperature, max_output) for text in texts)
    return requests


def as_read(request: ChatRequest) -> tuple:
    # repr tells 1 from 1.0
    return (request.role_id, request.system_prompt, request.user_content,
            repr(request.temperature), repr(request.max_output))


def read_requests(path) -> list[tuple]:
    return [
        as_read(ChatRequest(role_id=entry["role_id"], **entry["request"]))
        for entry in read_transcript(path)
    ]


def role_counts(requests) -> dict[str, int]:
    return {role: sum(r.role_id == role for r in requests) for role in ROLE_IDS}


def test_a_seeded_run_of_short_and_long_requests_reads_back_exactly_across_a_cut(tmp_path):
    rng = random.Random(2718)
    path = tmp_path / "transcript.jsonl"
    first, after_cut, second = (mixed_requests(rng, count) for count in (120, 60, 80))
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    for item in first:
        gateway.complete(item)
    kept, redone = first[:70], first[70:100]
    cut = list(read_json_lines(path))[70:100]
    gateway.fast_forward(role_counts(kept))  # as a resume cuts the lines of a rolled-back loop
    # The redone calls are served from the cut lines; the first that differs is asked.
    asked: list[str] = []
    gateway.provider = echo_provider(asked)
    for item in redone + after_cut:
        gateway.complete(item)
    assert len(asked) == len(after_cut)
    restarted = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    for item in second:
        restarted.complete(item)
    expected = [as_read(item) for item in kept + redone + after_cut + second]
    assert len(expected) >= 200
    assert read_requests(path) == expected
    entries = list(read_json_lines(path))
    assert [bool(e["response"].get("reused")) for e in entries[70:101]] == [True] * 30 + [False]
    # The cut lines copy a base line the cut keeps.
    assert any(line["request"].get("user_content_base", 70) < 70 for line in cut)
    lines = [line["request"] for line in entries]
    for key in CARRIED_FIELDS:
        assert sum(key in line for line in lines) < len(lines) / 3
    copies = [line for line in lines if "user_content_spans" in line and "user_content_base" not in line]
    assert len(copies) > len(lines) / 4
    # each copies more of the context before it than it adds
    assert all(copied(line) > len(line["user_content_suffix"]) for line in copies)
    # long contexts copied from the base: the head alone, or with a kept stretch
    base_copies = [line for line in lines if "user_content_base" in line]
    assert {len(line["user_content_spans"]) for line in base_copies} == {1, 2}
    assert len(base_lines(entries)) < len(base_copies) / 4
    assert any("user_content" in line for line in lines)


def copied(fields: dict) -> int:
    """The chars a line's `user_content_spans` copy."""
    return sum(end - start for start, end in fields["user_content_spans"])


def is_long_copy(fields: dict) -> bool:
    """Whether a line's request copies a long context from the line before."""
    return (
        "user_content_spans" in fields
        and "user_content_base" not in fields
        and copied(fields) >= INLINE_CONTEXT_CHARS
    )


# A transcript in the older form, whose long contexts copy only from base
# lines: `older_form_requests()` recorded by a gateway that wrote no copy of
# a long context from the line before.
BASE_COPIES_TRANSCRIPT = Path(__file__).parent / "fixtures" / "base_copies_transcript.jsonl"


def older_form_requests() -> list[ChatRequest]:
    diagnostics = (Diagnostic("error", 1, 0, "⊢ 𝔽\r\n\u2028"),)
    campaign, retarget = rendered(0, STUBS[:1], end=90), rendered(7, STUBS[5:6], end=91)
    conjecture = ChatRequest("conjecturer", CONJECTURER_PROMPT, rendered(0, end=91))
    return [
        request(user=campaign),
        request(user=format_feedback(campaign, "by simp", diagnostics)),  # a copy of the base
        conjecture,  # the campaign's target dropped, an entry added: a new base
        replace(conjecture, user_content=rendered(5, STUBS[2:5], end=91)),  # a splice
        replace(conjecture, user_content="∀ 𝔽 short\r\n"),
        request(user=retarget),  # a splice
        request(user=format_feedback(retarget, "by ring", diagnostics)),
    ]


def test_a_transcript_of_base_copies_only_reads_back_and_serves_a_resume(tmp_path):
    path = tmp_path / "transcript.jsonl"
    path.write_bytes(BASE_COPIES_TRANSCRIPT.read_bytes())
    requests = older_form_requests()
    older = [line["request"] for line in read_json_lines(path)]
    assert not any(is_long_copy(line) for line in older)
    assert [n for n, line in enumerate(older) if "user_content_base" in line] == [1, 3, 5, 6]
    assert read_requests(path) == [as_read(item) for item in requests]
    # A resume cuts all but the first two lines, then is served the rest.
    asked: list[str] = []
    gateway = Gateway(echo_provider(asked), transcript_path=path, sleep=lambda s: None)
    assert gateway.fast_forward(role_counts(requests[:2])) == 2
    # The base's front and tail dropped and a new target: a copy of the base.
    retarget = request(user=rendered(9, STUBS[7:8], end=89))
    for item in requests[2:] + [retarget]:
        gateway.complete(item)
    assert asked == [retarget.user_content]
    entries = list(read_json_lines(path))
    assert [bool(e["response"].get("reused")) for e in entries] == [False] * 2 + [True] * 5 + [False]
    assert entries[-1]["request"]["user_content_base"] == 2
    assert len(entries[-1]["request"]["user_content_spans"]) == 2
    assert read_requests(path) == [as_read(item) for item in requests + [retarget]]


def test_a_long_context_after_a_short_one_copies_the_base(tmp_path):
    """`older_form_requests()` written afresh: the sixth request follows the
    short one, and the line before cannot serve it, so it copies the base."""
    path = tmp_path / "transcript.jsonl"
    requests = older_form_requests()
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    for item in requests:
        gateway.complete(item)
    assert read_requests(path) == [as_read(item) for item in requests]
    lines = [line["request"] for line in read_json_lines(path)]
    assert [n for n, line in enumerate(lines) if "user_content" in line] == [0, 4]
    assert len(requests[5].user_content) == 5441
    assert lines[5]["user_content_base"] == 0
    # With the sixth request written whole, the requests took 15,443 bytes.
    assert sum(len(json.dumps(line, ensure_ascii=False).encode()) for line in lines) < 10_000


def test_a_prover_context_after_a_front_truncated_conjecture_context_copies_the_base(tmp_path):
    """The conjecture context drops the oldest entries for its stubs; the
    prover context after it, with fewer dropped, holds most of them again.
    The line before lacks them, the base does not."""
    stored = rendered(0, end=300)
    conjecture = rendered(60, STUBS[1:12], end=300)
    prover = rendered(5, STUBS[12:13], end=300)
    lines = recorded_lines(tmp_path / "transcript.jsonl", [stored, conjecture, prover])
    assert base_lines(lines) == [0]
    assert [line["request"].get("user_content_base") for line in lines] == [None, 0, 0]
    assert "user_content" not in lines[2]["request"]


def test_a_gateway_whose_transcript_was_cut_writes_its_next_line_in_full(tmp_path):
    path = tmp_path / "transcript.jsonl"
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    contexts = ["∀ 𝔽 context\r\n"] + [f"∀ 𝔽 context\r\n\u2028 retry {i}" for i in (1, 2)]
    for text in contexts:
        gateway.complete(request(user=text))
    assert list(read_json_lines(path))[2]["request"] == {
        "user_content_spans": [[0, len(contexts[1]) - 1]],
        "user_content_suffix": "2",
    }
    gateway.fast_forward({"prover": 1})
    gateway.complete(request(user=contexts[2] + " again"))
    lines = list(read_json_lines(path))
    assert [line["sequence"] for line in lines] == [0, 1]
    assert lines[1]["request"] == {
        "system_prompt": PROVER_PROMPT,
        "user_content": contexts[2] + " again",
        "temperature": 1.0,
        "max_output": 16384,
    }
    assert [e["request"]["user_content"] for e in read_transcript(path)] == [
        contexts[0],
        contexts[2] + " again",
    ]


def test_a_copy_with_nothing_before_it_or_past_what_it_copies_is_refused(tmp_path):
    path = tmp_path / "transcript.jsonl"
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    for text in ("∀ 𝔽 context\r\n", "∀ 𝔽 context\r\n and more"):
        gateway.complete(request(user=text))
    full, copy = read_json_lines(path)
    assert copy["request"]["user_content_spans"] == [[0, len("∀ 𝔽 context\r\n")]]
    full_copying = json.loads(json.dumps(full))
    full_copying["request"]["user_content_spans"] = [[0, 3]]
    full_copying["request"]["user_content_suffix"] = full_copying["request"].pop("user_content")
    # A copy of the line before takes ranges of its context followed by its reply.
    spans_past = json.loads(json.dumps(copy))
    spans_past["request"]["user_content_spans"] = [[0, len("∀ 𝔽 context\r\n" + "reply 1") + 1]]
    for lines, message in (
        ([copy], "transcript line 1: it copies system_prompt, temperature, max_output, user_content"),
        ([full_copying], "transcript line 0: it copies user_content from a previous request"),
        ([full, spans_past], "transcript line 1: user_content_spans"),
    ):
        path.write_text(
            "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines), encoding="utf-8"
        )
        with pytest.raises(ValueError, match=message):
            read_transcript(path)


def test_inline_lines_in_the_older_form_read_back_and_stored_lines_are_refused(tmp_path):
    """Lines in the oldest form hold every field inline and read as they
    did, before new lines. A line that names a context stored in
    `prompts/` is refused by its sequence, and its replies still replay."""
    path = tmp_path / "transcript.jsonl"
    stored = rendered(0)
    older = [
        ("prover", {"user_content": "old ∀ context\r\n"}),
        ("conjecturer", {"user_content": stored}),
        ("prover", {"user_content_ref": "ab" * 32, "user_content_suffix": "\n\n𝔽\u2028"}),
    ]
    lines = []
    for sequence, (role, content) in enumerate(older):
        fields = {
            "system_prompt": SYSTEMS[sequence % 2], **content, "temperature": 1.0, "max_output": 16384
        }
        line = {"sequence": sequence, "timestamp": None, "role_id": role, "request": fields,
                "response": {"text": f"r{sequence}", "provider": "x", "latency": 0.0, "attempt": 1},
                "error": None}
        lines.append(json.dumps(line, ensure_ascii=False) + "\n")
    path.write_text("".join(lines[:2]), encoding="utf-8")
    newer = [
        request(user=stored[:100]),  # a short cut of the last older line
        request(user=stored[:100] + "\r\n retry"),
        request(user=rendered(7, STUBS[:2])),
        request(user=rendered(7, STUBS[:3])),
    ]
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    for item in newer:
        gateway.complete(item)
    olders = [
        as_read(ChatRequest(role, SYSTEMS[sequence % 2], content["user_content"]))
        for sequence, (role, content) in enumerate(older[:2])
    ]
    assert read_requests(path) == olders + [as_read(item) for item in newer]
    written = [line["request"] for line in read_json_lines(path)][2:]
    assert set(CARRIED_FIELDS) <= written[0].keys() and "user_content" in written[0]
    assert all(not set(CARRIED_FIELDS) & line.keys() for line in written[1:])
    # The gateway knows no base in the lines it found, so it writes its own.
    assert written[2]["user_content"] == rendered(7, STUBS[:2])
    assert written[3]["user_content_base"] == 4

    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="transcript line 2: user_content_ref names a context"):
        read_transcript(path)
    replay = ReplayProvider.from_dir(tmp_path)
    assert [replay.complete(request(role=role)) for role, _ in older] == ["r0", "r1", "r2"]


def write_lines(path, lines: list[dict]) -> None:
    path.write_text(
        "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines), encoding="utf-8"
    )


def test_a_copy_of_any_base_but_the_last_one_read_is_refused(tmp_path):
    path = tmp_path / "transcript.jsonl"
    # A base, a splice of it, a second base (the first one's tail dropped
    # for more new text than a copy may add), and a splice of that.
    new_text = "\n\n" + "∀" * INLINE_CONTEXT_CHARS
    contexts = [rendered(0), rendered(3), rendered(0, end=len(BLOCKS) - 2) + new_text]
    lines = recorded_lines(path, [*contexts, rendered(3, end=len(BLOCKS) - 2) + new_text])
    assert base_lines(lines) == [0, 2]
    assert [line["request"].get("user_content_base") for line in lines] == [None, 0, None, 2]
    for number, named, last in ((1, 2, 0), (3, 0, 2), (3, 1, 2), (1, 7, 0), (3, "2", 2)):
        edited = json.loads(json.dumps(lines))
        edited[number]["request"]["user_content_base"] = named
        write_lines(path, edited)
        with pytest.raises(
            ValueError,
            match=f"transcript line {number}: it copies base line {named}, and the last base line before it is {last}",
        ):
            read_transcript(path)
    lines[0]["request"]["user_content"] = "short"  # no base line before line 1
    write_lines(path, lines)
    with pytest.raises(ValueError, match="transcript line 1: it copies base line 0, and the last base line before it is None"):
        read_transcript(path)


def test_a_resume_that_cuts_the_base_line_writes_the_next_long_context_whole_again(tmp_path):
    path = tmp_path / "transcript.jsonl"
    campaign = rendered(0)
    retries = [campaign + f"\r\n\nretry {i} ∀" for i in range(3)]
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    gateway.complete(request(role="conjecturer", user="short ∀ prompt"))
    for text in [campaign, *retries[:2]]:
        gateway.complete(request(user=text))
    lines = list(read_json_lines(path))
    assert [line["request"].get("user_content_base") for line in lines] == [None, None, 1, 1]
    # The resume cuts the base line with the loop it belonged to; the
    # redone loop's first call is served from the cut line.
    assert gateway.fast_forward({"conjecturer": 1, "prover": 0}) == 1
    for text in [campaign, retries[2]]:
        gateway.complete(request(user=text))
    lines = list(read_json_lines(path))
    assert base_lines(lines) == [1]
    assert lines[1]["request"]["user_content"] == campaign
    assert lines[1]["response"]["reused"]
    assert lines[2]["request"]["user_content_base"] == 1
    assert [e["request"]["user_content"] for e in read_transcript(path)] == [
        "short ∀ prompt", campaign, retries[2]
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["transcript.jsonl"]


# ---------------------------------------------------------------------------
# Left-out reply fields, and retries that copy the attempt they quote
# ---------------------------------------------------------------------------

DEMO_TRANSCRIPT = Path(__file__).parent / "fixtures" / "cpl_demo" / "responses" / "transcript.jsonl"
# The sha256 of each entry the decoder returns for the committed older-form
# transcripts (`json.dumps(entry, sort_keys=True, ensure_ascii=False)`):
# role, whole request, and the reply with its provider, attempt, latency,
# error and timestamp, as the reader of that form returned them.
OLDER_FORM_DIGESTS = {
    DEMO_TRANSCRIPT: [
        "8743d731b2b1dd5b91b6ad12779dcf4c3e1598e06f89cd69bcea2b7446106b6f",
        "7ec16b09e10b6364148d492e6bffac8c04ee8cb98e2bf280d2c16b51df7ecfc9",
        "790a59709bce07da8ed6792422d16eb122cc5857e753ddc8ab9b4f07c278cbd9",
        "afed6b033e87a878f869a816042036cd86e38c0551d40ddbdc16925b3aa3793b",
        "d5172c1a3c1959fc51424213cb0274d2011e63e2779158bf03e68185f4bdf49b",
        "a49ed1c8a42fe22f1968b97b6e8b695803375bb225e759742898ebb5bd906a22",
        "3cdad663c76e080963cb418c8a8e27fe56f6e29a4d147510b01a2c8560680f24",
        "802431b75caf2fcdd2728de669a1a1c7053c75aed22c190258319742c6f44276",
        "177d4188e6d95300e9389c80664cd77a247e24d07e18d137092b92060b0f7f37",
        "caca3e739db76a9a7a887a93fa4140eb6a3380f0f5760f332dc080358413fedd",
        "0aa3e54ad03e29431ec3021b37d8a80f34a392cdafd0288aee112e67a9322aae",
        "605d64e8860e0c6a58b0ed7e3c752d4e54792cb6e672e9fb496b04a7c18e00ab",
        "3eb934f1a7375595ab13a0436b4764be5283b985ff1dd68af548c0da5997eb14",
    ],
    BASE_COPIES_TRANSCRIPT: [
        "843ad392e20cb81d899b6e822607296f444e20f5751c00d6ca5982605fb40c66",
        "b9750209d5040f20eb8cd19c19eae8183fa9b48f2663b93250a2e321613273d8",
        "978fe0ce1e9a12ea6e07c4b39280c07cb63b45cc8b6b2531d3f5a097ad5b2afe",
        "b1a984d6ba82229967142bce3db5e3034511c480c4751c8c72b7d05f7bb0b785",
        "89d19282a0f975095295fd660f6418c3681a3fea84686fb8b63edab04565a7f2",
        "17c0e05f1a3b38a8400c2f271afa75e50581645227339a70c3673a8214e5ec04",
        "edd69113a0d08102e3514e8e5a06c814c4a6790004d45b33bbbf38794c2e5afe",
    ],
}
OLDER_FORM_IDS = ["demo", "base-copies"]


def digest(entry: dict) -> str:
    return hashlib.sha256(json.dumps(entry, sort_keys=True, ensure_ascii=False).encode()).hexdigest()


class RecordedClock:
    """Gives the timestamps of recorded lines, in order."""

    def __init__(self, stamps):
        self._stamps = iter(stamps)

    def now(self):
        return next(self._stamps)


@pytest.mark.parametrize("path", list(OLDER_FORM_DIGESTS), ids=OLDER_FORM_IDS)
def test_the_committed_older_transcripts_decode_and_replay_as_they_did(tmp_path, path):
    entries = read_transcript(path)
    assert [digest(entry) for entry in entries] == OLDER_FORM_DIGESTS[path]
    for entry in entries:
        assert {"timestamp", "error"} <= entry.keys()
        assert {"text", "provider", "latency", "attempt"} <= entry["response"].keys()
    (tmp_path / "transcript.jsonl").write_bytes(path.read_bytes())
    replay = ReplayProvider.from_dir(tmp_path)
    for entry in entries:
        assert replay.complete(request(role=entry["role_id"])) == entry["response"]["text"]


@pytest.mark.parametrize("path", list(OLDER_FORM_DIGESTS), ids=OLDER_FORM_IDS)
def test_older_transcripts_recorded_again_read_back_to_the_same_entries(tmp_path, path):
    entries = read_transcript(path)
    again = tmp_path / "transcript.jsonl"
    gateway = Gateway(None, transcript_path=again, clock=RecordedClock(e["timestamp"] for e in entries))
    for entry in entries:
        reply = entry["response"]
        response = ChatResponse(reply["text"], reply["provider"], reply["latency"], reply["attempt"])
        gateway.record(Exchange(ChatRequest(entry["role_id"], **entry["request"]), response, entry["error"]))
    assert read_transcript(again) == entries
    lines = list(read_json_lines(again))
    assert {"timestamp", "error"} <= lines[0].keys() and "provider" in lines[0]["response"]
    # every reply here has the same provider, attempt, error and timestamp
    assert not any({"timestamp", "error"} & line.keys() for line in lines[1:])
    assert not any({"provider", "attempt"} & line["response"].keys() for line in lines[1:])
    assert again.stat().st_size < path.stat().st_size


def test_a_line_leaves_out_the_timestamp_error_provider_and_attempt_it_shares(tmp_path):
    path = tmp_path / "transcript.jsonl"
    outcomes = iter(["a", "b", "down", "c", "down", "down", "down", "down", "e"])

    def answer(req):
        text = next(outcomes)
        if text == "down":
            raise TransportError("endpoint down")
        return text

    stamps = ["t0", "t0", "t1", "t1", "t1", "t2"]
    gateway = Gateway(CallableProvider(answer), retry_cap=2, transcript_path=path,
                      clock=RecordedClock(stamps), sleep=lambda s: None)
    for _ in stamps:
        try:
            gateway.complete(request())
        except TransportError:
            pass
    lines = list(read_json_lines(path))
    assert [sorted(line.keys() - {"sequence", "role_id", "request", "response"}) for line in lines] == [
        ["error", "timestamp"], [], ["timestamp"], ["error"], [], ["error", "timestamp"],
    ]
    assert [line["response"] and sorted(line["response"].keys() - {"text", "latency"}) for line in lines] == [
        ["attempt", "provider"], [], ["attempt"], None, None, ["attempt"],
    ]
    entries = read_transcript(path)
    assert [e["timestamp"] for e in entries] == stamps
    assert [e["error"] for e in entries] == [None, None, None, "endpoint down", "endpoint down", None]
    assert [e["response"] and (e["response"]["provider"], e["response"]["attempt"]) for e in entries] == [
        ("callable", 1), ("callable", 1), ("callable", 2), None, None, ("callable", 1),
    ]
    replay = ReplayProvider.from_dir(tmp_path)
    for expected in ["a", "b", "c", "endpoint down", "endpoint down", "e"]:
        try:
            assert replay.complete(request()) == expected
        except TransportError as exc:
            assert str(exc) == expected


PROOF_REPLIES = [
    f"```lean\nby\n  intro x\n  have h{i} : x ∈ closure 𝔽 := subset_closure x\n"
    f"  simp only [b{i}, Set.mem_def] at h{i} ⊢\n  exact h{i}\n```"
    for i in range(6)
]


def retries_of(context: str, replies: list[str]) -> list[str]:
    """A campaign's prompts: `context`, then each retry quoting the attempt
    the reply before it holds, as `prover.run_trials` sends them."""
    prompts = [context]
    for trial, reply in enumerate(replies[:-1]):
        diagnostics = (Diagnostic("error", 2, trial, f"unsolved goals ⊢ 𝔽 {trial}\r\n"),)
        prompts.append(format_feedback(context, strip_code_fences(reply).strip(), diagnostics))
    return prompts


def test_a_retry_copies_the_attempt_it_quotes_from_the_reply_before_it(tmp_path):
    path = tmp_path / "transcript.jsonl"
    context = rendered(0, end=20)
    assert len(context) < INLINE_CONTEXT_CHARS
    prompts = retries_of(context, PROOF_REPLIES)
    replies = iter(PROOF_REPLIES)
    gateway = Gateway(CallableProvider(lambda req: next(replies)), transcript_path=path)
    for prompt in prompts:
        gateway.complete(request(user=prompt))
    assert [e["request"]["user_content"] for e in read_transcript(path)] == prompts
    lines = [line["request"] for line in read_json_lines(path)]
    # The second trial quotes the first reply after new text: a copy of the context.
    assert lines[1]["user_content_spans"] == [[0, len(context)]]
    for before, line, prompt in zip(prompts[1:], lines[2:], prompts[2:]):
        (_, head), (start, end) = line["user_content_spans"]
        assert len(before) <= start  # a stretch of the reply, not of the context
        assert end - start > 40 and line["user_content_suffix"].endswith("\r\n")
        assert "exact h" not in line["user_content_suffix"]


def test_a_line_after_a_resume_cut_writes_every_field_and_copies_no_reply_from_before_it(
    tmp_path,
):
    path = tmp_path / "transcript.jsonl"
    context = rendered(0, end=20)
    prompts = retries_of(context, PROOF_REPLIES)
    replies = iter(PROOF_REPLIES[:3])
    first = Gateway(CallableProvider(lambda req: next(replies)), transcript_path=path)
    for prompt in prompts[:3]:
        first.complete(request(user=prompt))
    assert list(read_json_lines(path))[2]["request"]["user_content_spans"][1][0] >= len(prompts[1])
    # The resume cuts the third trial's line; the redone trial is served from it.
    replies = iter(PROOF_REPLIES[3:])
    gateway = Gateway(CallableProvider(lambda req: next(replies)), transcript_path=path)
    assert gateway.fast_forward({"prover": 2}) == 2
    for prompt in prompts[2:]:
        gateway.complete(request(user=prompt))
    lines = list(read_json_lines(path))
    served = lines[2]
    assert served["response"]["reused"]
    assert {"timestamp", "error"} <= served.keys()
    assert {"provider", "attempt"} <= served["response"].keys()
    # It quotes the reply of the line before the cut, and copies none of it.
    assert served["request"] == {
        "system_prompt": PROVER_PROMPT, "user_content": prompts[2], "temperature": 1.0, "max_output": 16384,
    }
    # The line after it copies the reply written after the cut.
    assert lines[3]["request"]["user_content_spans"][1][0] >= len(prompts[2])
    assert [e["request"]["user_content"] for e in read_transcript(path)] == prompts


def test_a_seeded_run_of_campaigns_quoting_their_replies_reads_back_exactly(tmp_path):
    """Short and long campaigns whose retries quote the reply before them,
    some replies lost to exhausted retries, with timestamps that sometimes
    repeat, across a restart: every entry reads back whole and replays."""
    rng = random.Random(1618)
    path = tmp_path / "transcript.jsonl"
    sent = []

    def answer(req):
        if rng.random() < 0.1:
            raise TransportError(rng.choice(["down", "HTTP 503 from provider"]))
        return rng.choice(PROOF_REPLIES + ["", "by simp", "```lean\nby\n  exact ⟨𝔽, rfl⟩\n```"])

    for _ in range(2):  # a second gateway, as after a restart
        gateway = Gateway(CallableProvider(answer), retry_cap=1, transcript_path=path,
                          clock=RecordedClock(iter(lambda: rng.choice(["t0", "t1", None]), 0)))
        for _ in range(12):
            context = rendered(rng.randrange(300), rng.sample(STUBS, 1), end=rng.choice([305, 400]))
            text = context
            for _ in range(rng.randrange(1, 6)):
                try:
                    reply = gateway.complete(request(user=text)).text
                except TransportError:
                    reply = ""
                sent.append(text)
                diagnostics = (Diagnostic("error", 1, 0, f"⊢ 𝔽 {len(sent)}"),)
                text = format_feedback(context, strip_code_fences(reply).strip(), diagnostics)
    entries = read_transcript(path)
    assert [e["request"]["user_content"] for e in entries] == sent
    lines = list(read_json_lines(path))
    assert any(
        end > len(before["request"]["user_content"])
        for before, line in zip(entries, lines[1:])
        if "user_content_base" not in line["request"]
        for _, end in line["request"].get("user_content_spans", [])
    )
    assert sum("timestamp" in line for line in lines) < len(lines)
    replay = ReplayProvider.from_dir(tmp_path)
    for entry in entries:
        try:
            assert replay.complete(request()) == entry["response"]["text"]
        except TransportError as exc:
            assert entry["response"] is None and str(exc) == entry["error"]
