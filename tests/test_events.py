from __future__ import annotations

import json

import pytest

from cpl.core import (
    JsonLinesLog,
    Library,
    ProofScript,
    TheoremStatement,
    keep_lines,
    read_json_lines,
)
from cpl.events import (
    EventLog,
    FixedClock,
    SystemClock,
    make_clock,
    read_events,
    replay_library,
    truncate_events,
)


def test_sequences_strictly_increasing(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path, clock=FixedClock()) as log:
        for i in range(5):
            log.emit("warning", message=f"w{i}")
    events = read_events(path)
    assert [e.sequence for e in events] == [0, 1, 2, 3, 4]


def test_unknown_kind_rejected(tmp_path):
    with EventLog(tmp_path / "e.jsonl", clock=FixedClock()) as log:
        with pytest.raises(ValueError):
            log.emit("mystery_event")


def test_listener_called_after_write(tmp_path):
    path = tmp_path / "e.jsonl"
    seen = []

    def listener(event):
        # the event is already on disk when the listener runs
        on_disk = list(read_json_lines(path))
        seen.append((event.sequence, len(on_disk)))

    with EventLog(path, clock=FixedClock(), listener=listener) as log:
        log.emit("warning", message="one")
        log.emit("warning", message="two")
    assert seen == [(0, 1), (1, 2)]


def test_truncate_keeps_prefix_atomically(tmp_path):
    path = tmp_path / "e.jsonl"
    with EventLog(path, clock=FixedClock()) as log:
        for i in range(6):
            log.emit("warning", message=f"w{i}")
    truncate_events(path, keep=3)
    events = read_events(path)
    assert [e.sequence for e in events] == [0, 1, 2]
    truncate_events(path, keep=0)
    assert read_events(path) == []


def test_truncate_copies_kept_lines_verbatim_and_drops_blank_lines(tmp_path):
    path = tmp_path / "e.jsonl"
    with EventLog(path, clock=FixedClock()) as log:
        for i in range(4):
            log.emit("warning", message=f"ℕ ≤ {i} \"quoted\"")
    lines = path.read_bytes().splitlines(keepends=True)
    # spacing that a parse-and-dump round trip would not reproduce
    lines[1] = b'{"sequence":1,  "timestamp": null, "kind": "warning", "payload": {}}\n'
    path.write_bytes(b"\n".join([lines[0], lines[1], b"  ", lines[2], lines[3]]))
    truncate_events(path, keep=3)
    assert path.read_bytes() == lines[0] + lines[1] + lines[2]


def test_truncate_keeps_lines_by_count_without_parsing_them(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_bytes(b"not json 0\n\nnot json 1\nnot json 2\n")
    truncate_events(path, keep=2)
    assert path.read_bytes() == b"not json 0\nnot json 1\n"


def test_keep_lines_drops_a_torn_tail_and_rewrites_only_when_cutting(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"a": 0}\n{"a": 1}\n{"a": 2, "b": "tor')
    keep_lines(path, 5, fsync=False)  # fewer lines than asked for: only the tail goes
    assert path.read_bytes() == b'{"a": 0}\n{"a": 1}\n'
    before = path.stat()
    keep_lines(path, 2, fsync=False)
    keep_lines(path, 3, fsync=False)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    keep_lines(path, 1, fsync=False)
    assert path.read_bytes() == b'{"a": 0}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]  # no temp file left


def test_opening_a_log_cuts_it_in_place_to_its_first_records(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"a": 0}\n\n  \n{"a": 1}\n \t\n{"a": 2}\n{"a": 3, "b": "tor')
    path.chmod(0o640)
    before = path.stat()
    JsonLinesLog.open(path, keep=5)  # fewer records than asked for: only the tail goes
    assert path.read_bytes() == b'{"a": 0}\n\n  \n{"a": 1}\n \t\n{"a": 2}\n'
    JsonLinesLog.open(path, keep=2)  # blank lines are not records
    assert path.read_bytes() == b'{"a": 0}\n\n  \n{"a": 1}\n'
    after = path.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    JsonLinesLog.open(path)
    JsonLinesLog.open(path, keep=2)
    assert path.stat().st_mtime_ns == after.st_mtime_ns  # nothing to cut, no write
    JsonLinesLog.open(path, keep=0)
    assert path.read_bytes() == b""
    assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]  # no temp file


def test_opening_a_log_keeps_the_complete_lines_it_cut(tmp_path):
    path = tmp_path / "t.jsonl"
    torn = b'{"a": 0}\n{"a": 1}\n\n{"a": 2}\n{"a": 3, "b": "tor'
    path.write_bytes(torn)
    assert JsonLinesLog.open(path, keep=5).cut_lines == b""  # a torn line is never kept
    path.write_bytes(torn)
    assert JsonLinesLog.open(path, keep=1).cut_lines == b'{"a": 1}\n\n{"a": 2}\n'
    assert path.read_bytes() == b'{"a": 0}\n'
    assert JsonLinesLog.open(path).cut_lines == b""


def test_opening_a_log_parses_only_its_last_kept_record(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'not json\n{"sequence": 7}\n\nnot json either\n{"sequence": 9, "x": "to')
    with pytest.raises(json.JSONDecodeError):
        JsonLinesLog.open(path)
    with pytest.raises(json.JSONDecodeError):
        JsonLinesLog.open(path, keep=3)
    assert path.read_bytes().endswith(b'"to')  # left as it was
    assert JsonLinesLog.open(path, keep=2).next_sequence == 8
    assert path.read_bytes() == b'not json\n{"sequence": 7}\n'
    path.write_bytes(b'{"id": "a"}\n\n{"id": "b"}\n')
    assert JsonLinesLog.open(path).next_sequence == 2  # unnumbered: the record count
    missing = JsonLinesLog.open(tmp_path / "missing.jsonl")
    assert missing.next_sequence == 0
    assert not missing.path.exists()


def test_a_log_appends_whole_lines_and_counts_on(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"sequence": 4}\n{"sequence": 5, "x": "to')
    log = JsonLinesLog.open(path)
    log.append({"sequence": log.next_sequence, "text": "ℕ ≤ \"q\""})
    log.append({"sequence": log.next_sequence})
    assert path.read_bytes() == (
        b'{"sequence": 4}\n'
        + '{"sequence": 5, "text": "ℕ ≤ \\"q\\""}\n'.encode()
        + b'{"sequence": 6}\n'
    )
    assert log.next_sequence == 7


# Every char JSON escapes, and the chars it writes raw that a line
# splitter might break a line at, with an astral char.
SPECIAL = "".join(map(chr, range(0x20))) + '"\\\x7f\x85\u2028\u2029\U0001d4d0'


@pytest.mark.parametrize("size", [4095, 4096, 400_000])
def test_an_append_writes_the_bytes_of_json_dumps(tmp_path, size):
    text = (SPECIAL * (size // len(SPECIAL) + 1))[:size]
    records = [
        {"text": text},
        {
            "sequence": 3,
            "request": {"user_content": text, "user_content_spans": [[0, 5]], "short": SPECIAL},
            "nested": [text, {"deeper": [text, 1.5, None, True]}, []],
        },
        {SPECIAL: [[text]], "after": SPECIAL + text},
    ]
    path = tmp_path / "t.jsonl"
    log = JsonLinesLog(path)
    expected = b""
    for record in records:
        log.append(record)
        expected += (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        assert path.read_bytes() == expected
    assert log.next_sequence == len(records)


@pytest.mark.parametrize("size", [10, 4096])
def test_an_append_that_cannot_be_written_raises_and_writes_nothing(tmp_path, size):
    path = tmp_path / "t.jsonl"
    log = JsonLinesLog(path)
    long = "x" * size
    for record in ({"text": long + "\ud800"}, {"text": long, "lone": "\udc00"}):
        with pytest.raises(UnicodeEncodeError):
            log.append(record)
    cyclic = {"text": long, "list": []}
    cyclic["list"].append(cyclic)
    with pytest.raises(ValueError, match="Circular reference"):
        log.append(cyclic)
    assert not path.exists()
    assert log.next_sequence == 0


def test_read_events_skips_only_a_torn_last_line(tmp_path):
    path = tmp_path / "e.jsonl"
    with EventLog(path, clock=FixedClock()) as log:
        log.emit("warning", message="kept ℕ")
    whole = path.read_bytes()
    for torn in (
        b'{"sequence": 99999, "timestamp": "1970',
        '{"sequence": 1, "x": "ℕ'.encode()[:-1],  # cut inside a character
        whole.rstrip(b"\n"),  # complete but unterminated: a resume cuts it too
    ):
        path.write_bytes(whole + torn)
        assert [e.payload["message"] for e in read_events(path)] == ["kept ℕ"]
    # Any other unparsable line still raises.
    path.write_bytes(whole + b'{"sequence": 1, "times\n' + whole)
    with pytest.raises(json.JSONDecodeError):
        read_events(path)


def line_by_line(path) -> list:
    """Each complete non-blank line through `json.loads`, one at a time:
    the reading `read_json_lines` must agree with."""
    values = []
    with open(path, "rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                break
            if line.strip():
                values.append(json.loads(line.decode("utf-8")))
    return values


def outcome(read, path):
    try:
        return read(path)
    except json.JSONDecodeError as exc:
        return ("raises", str(exc), exc.doc, exc.pos)


@pytest.mark.parametrize(
    "lines",
    [
        # each would parse if the lines were joined into one array
        [b"1, 2", b"[3", b"4]"],
        [b"1],[2", b"[[3", b"]]"],
        # a value that runs on into the next line
        [b"[", b"]"],
        [b'{"a": [1,', b"2]}"],
        # two values, or one and some junk, on one line
        [b'{"a": 1} {"a": 2}'],
        [b"1 x", b"2"],
        [b"nul", b"null"],
        [b'"a', b'b"'],
        [b'\xef\xbb\xbf{"bom": 1}'],
        [b"1 \x0c"],
    ],
)
def test_read_json_lines_raises_what_json_loads_raises_on_a_bad_line(tmp_path, lines):
    path = tmp_path / "l.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    expected = outcome(line_by_line, path)
    assert expected[0] == "raises"
    assert outcome(lambda p: list(read_json_lines(p)), path) == expected
    with pytest.raises(json.JSONDecodeError):
        read_events(path)


def test_read_json_lines_reads_spaced_and_blank_lines_as_json_loads_does(tmp_path):
    path = tmp_path / "l.jsonl"
    lines = [
        b'  {"a": "\xe2\x84\x95"}',  # leading whitespace, a non-ASCII value
        b"",
        b" \t\r",
        b'{"b": [1,\t2]}  \r',
        b"\x0b\x0c",  # blank to `bytes.strip`, not to JSON
        b"\t null",
        b'"\xe2\x89\xa4"',
        b'{"torn": "\xe2\x84',  # a last line without its newline
    ]
    path.write_bytes(b"\n".join(lines))
    assert list(read_json_lines(path)) == line_by_line(path)
    assert list(read_json_lines(path)) == [{"a": "ℕ"}, {"b": [1, 2]}, None, "≤"]
    data = path.read_bytes()
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    assert [end for _, end in read_json_lines(path, with_ends=True)] == [
        ends[0], ends[3], ends[5], ends[6]
    ]


def test_replay_library_rebuilds_entries(tmp_path):
    seed = "import Mathlib\n"
    lib = Library(seed_source=seed)
    stmts = [
        TheoremStatement.from_source(f"theorem r{i} : {i} = {i} := sorry")
        for i in range(3)
    ]
    path = tmp_path / "e.jsonl"
    with EventLog(path, clock=FixedClock()) as log:
        for i, stmt in enumerate(stmts):
            lib = lib.append(stmt, ProofScript(f"by t{i}"), "cpl", "1970")
            entry = lib.entries[-1]
            log.emit(
                "theorem_added",
                sequence_index=entry.sequence_index,
                name=entry.statement.name,
                body=entry.statement.body,
                statement=entry.statement.source_text,
                proof=entry.proof.text,
                provenance=entry.provenance,
                created_at=entry.created_at,
            )
    rebuilt = replay_library(read_events(path), seed)
    assert rebuilt == lib


def emit_added(log: EventLog, lib: Library) -> None:
    entry = lib.entries[-1]
    log.emit(
        "theorem_added",
        sequence_index=entry.sequence_index,
        name=entry.statement.name,
        body=entry.statement.body,
        statement=entry.statement.source_text,
        proof=entry.proof.text,
        provenance=entry.provenance,
        created_at=entry.created_at,
    )


def test_replay_library_renames_colliding_names_like_append(tmp_path):
    seed = "import Mathlib\n"
    path = tmp_path / "e.jsonl"
    names = ["a", "b", "a", "a_2", "b"]
    stmts = [
        TheoremStatement.from_source(f"theorem {name} : {i} = {i} := sorry")
        for i, name in enumerate(names)
    ]
    with EventLog(path, clock=FixedClock()) as log:
        for i, stmt in enumerate(stmts):
            # each event carries the name as proposed, not as appended
            added = Library(seed_source=seed).append(stmt, ProofScript("rfl"), "cpl", "t")
            emit_added(log, added)
            log.emit("warning", message=f"between {i}")
    fold = Library(seed_source=seed)
    for stmt in stmts:
        fold = fold.append(stmt, ProofScript("rfl"), "cpl", "t")
    rebuilt = replay_library(read_events(path), seed)
    assert rebuilt == fold
    assert [e.statement.name for e in rebuilt.entries] == ["a", "b", "a_2", "a_2_3", "b_4"]


def test_replay_library_builds_the_library_once(tmp_path, monkeypatch):
    seed = "import Mathlib\n"
    path = tmp_path / "e.jsonl"
    lib = Library(seed_source=seed)
    with EventLog(path, clock=FixedClock()) as log:
        for i in range(30):
            stmt = TheoremStatement.from_source(f"theorem r{i} : {i} = {i} := sorry")
            lib = lib.append(stmt, ProofScript("rfl"), "cpl", "t")
            emit_added(log, lib)
    events = read_events(path)
    built: list[int] = []
    init = Library.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(len(self.entries))

    monkeypatch.setattr(Library, "__init__", counted)
    assert replay_library(events, seed) == lib
    # the empty starting value, then the replayed library: not one per entry
    assert built == [0, 30]


def test_clock_formats():
    assert make_clock("fixed").now() == "1970-01-01T00:00:00+00:00"
    stamp = make_clock("system").now()
    assert "T" in stamp and stamp.endswith("+00:00")
    with pytest.raises(ValueError):
        make_clock("lunar")


def test_event_lines_are_plain_json(tmp_path):
    path = tmp_path / "e.jsonl"
    with EventLog(path, clock=SystemClock()) as log:
        log.emit("phase_start", loop=1, phase="conjecture")
    line, rest = path.read_text(encoding="utf-8").split("\n")
    assert rest == ""
    data = json.loads(line)
    assert data["kind"] == "phase_start"
    assert data["payload"]["loop"] == 1
