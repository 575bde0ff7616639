from __future__ import annotations

import hashlib
import io
import json
import random
import urllib.request

import pytest

from cpl.core import read_json_lines
from cpl.gateway import (
    INLINE_CONTEXT_CHARS,
    ChatRequest,
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

    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + '{"sequence": 1, "ro\n' + lines[1], encoding="utf-8")
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
    assert captured["auth"] == "Bearer secret-key"


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
    assert all("user_content_ref" not in e["request"] for e in entries)
    assert [e["response"]["text"] for e in entries[1:]] == [
        f"reply {i}" for i in range(1, len(sent) + 1)
    ]


def test_retries_and_grown_contexts_store_only_the_rest(tmp_path):
    path = tmp_path / "transcript.jsonl"
    gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
    sent = record_cases(gateway)
    raw = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert all(len(line) < len(CONTEXT) for line in raw)  # no line holds it
    lines = [json.loads(line) for line in raw]
    first = lines[0]["request"]
    assert first["user_content_suffix"] == ""
    assert "user_content" not in first
    for line, text in zip(lines[1:20], sent[1:20]):
        assert line["request"]["user_content_ref"] == first["user_content_ref"]
        assert line["request"]["user_content_suffix"] == text[len(CONTEXT) :]
    for line, text in zip(lines[-2:], sent[-2:]):
        assert line["request"]["user_content"] == text
        assert "user_content_ref" not in line["request"]


def test_each_distinct_context_is_written_once_under_its_sha256(
    tmp_path, monkeypatch
):
    import cpl.gateway

    written = []

    def spy(path, chunks, fsync=True):
        written.append(path)
        real_write(path, chunks, fsync)

    real_write = cpl.gateway.write_atomically
    monkeypatch.setattr(cpl.gateway, "write_atomically", spy)
    path = tmp_path / "transcript.jsonl"
    for _ in range(2):  # a second gateway, as after a restart, finds the blobs
        gateway = Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None)
        record_cases(gateway)
    blobs = {p.name: p.read_bytes() for p in (tmp_path / "prompts").iterdir()}
    assert sorted(written) == sorted(tmp_path / "prompts" / name for name in blobs)
    for name, data in blobs.items():
        assert name == hashlib.sha256(data).hexdigest() + ".txt"
    expected = [CONTEXT, TRUNCATED * 2 + "!", NON_ASCII * 100]  # TRUNCATED: spans of CONTEXT
    assert sorted(blobs.values()) == sorted(text.encode("utf-8") for text in expected)
    assert len(read_transcript(path)) == 2 * len(store_cases())


def test_recording_through_the_store_replays(tmp_path):
    path = tmp_path / "transcript.jsonl"
    record_cases(Gateway(echo_provider([]), transcript_path=path, sleep=lambda s: None))
    replay = Gateway(ReplayProvider.from_dir(tmp_path), sleep=lambda s: None)
    for number, (role, text) in enumerate(store_cases(), start=1):
        assert replay.complete(request(role=role, user=text)).text == f"reply {number}"
    blob = hashlib.sha256(CONTEXT.encode("utf-8")).hexdigest() + ".txt"
    assert (tmp_path / "prompts" / blob).exists()


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
    assert [p.read_bytes() for p in (tmp_path / "prompts").iterdir()] == [stored.encode("utf-8")]
    request = second["request"]
    assert request["user_content_ref"] == first["request"]["user_content_ref"]
    assert request["user_content_suffix"] == "".join("\n\n" + stub for stub in STUBS[:3])
    (head, head_end), (resume, end) = request["user_content_spans"]
    assert head == 0 and end == len(stored)
    assert stored[:head_end] + stored[resume:] == rendered(7)
    assert "user_content_spans" not in first["request"]


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
    assert len(list((tmp_path / "prompts").iterdir())) == 1
    for line, retry in zip(lines[2:], retries):
        assert line["request"]["user_content_spans"] == spliced["user_content_spans"]
        assert line["request"]["user_content_suffix"] == (
            spliced["user_content_suffix"] + retry[len(campaign) :]
        )


def test_a_dropped_tail_or_long_new_text_is_stored_as_a_new_blob(tmp_path):
    stored = rendered(0)
    kept = rendered(6)
    # New text one char short of INLINE_CONTEXT_CHARS is spliced; at that
    # length, or with the stored context's tail dropped, it is stored.
    longest = kept + "\n\n" + "∀" * (INLINE_CONTEXT_CHARS - 3)
    assert len(longest) - len(kept) == INLINE_CONTEXT_CHARS - 1
    for number, (text, spliced) in enumerate(
        [(longest, True), (longest + "∀", False), (rendered(0, end=len(BLOCKS) - 2), False)]
    ):
        run_dir = tmp_path / str(number)
        run_dir.mkdir()
        _, line = recorded_lines(run_dir / "transcript.jsonl", [stored, text])
        assert ("user_content_spans" in line["request"]) == spliced
        blobs = {p.read_bytes() for p in (run_dir / "prompts").iterdir()}
        assert blobs == {t.encode("utf-8") for t in ([stored] if spliced else [stored, text])}


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
    blobs = len(list((tmp_path / "prompts").iterdir()))
    assert spliced > len(lines) / 4 and blobs < len(set(sent)) / 2


def test_spans_outside_their_stored_context_are_refused(tmp_path):
    path = tmp_path / "transcript.jsonl"
    recorded_lines(path, [rendered(0), rendered(3), rendered(4)])
    good = path.read_text(encoding="utf-8").splitlines(keepends=True)
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
