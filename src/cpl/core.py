"""Domain types and pure text operations shared by the whole pipeline.

Everything here is immutable and side-effect free: theorem statements,
proof scripts, the verified-theorem library, plus the Lean-aware text
utilities (declaration parsing, normalization, context rendering, the
proof-length metric, and the on-disk library format).
"""

from __future__ import annotations

import json
import os
import re
import secrets
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

PROVENANCES = ("cpl", "simple_loop", "fixture")

LENGTH_METRICS = ("lines", "chars")

ENTRY_MARKER = re.compile(
    r"^-- \[cpl:entry (\d+) ([a-z_]+) (\S+)\]$", re.MULTILINE
)

_FENCE_LINE = re.compile(r"^[ \t]*(`{3,})([^`\n]*)$")
_THEOREM_START = re.compile(r"^[ \t]*(theorem)\b", re.MULTILINE)
_NAME_AFTER_KEYWORD = re.compile(r"theorem\s+([^\s(\[{⦃:]+)")
_SORRY_TERMINATOR = re.compile(r":=\s*sorry(?![A-Za-z0-9_'!?])")
_SORRY_TOKEN = re.compile(r"(?<![A-Za-z0-9_'!?])sorry(?![A-Za-z0-9_'!?])")

_OPEN_BRACKETS = "([{⟨⦃"
_CLOSE_BRACKETS = ")]}⟩⦄"


@dataclass(frozen=True)
class ParseWarning:
    """A non-fatal problem found while extracting declarations."""

    kind: str  # "skipped_declaration" | "unterminated_fence"
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def mask_comments(text: str, mask_strings: bool = False) -> str:
    """Blank out Lean comments (and optionally string contents) with spaces.

    Line structure is preserved so the result can be inspected line by
    line. Handles `--` line comments, nested `/- ... -/` block comments
    (doc comments included), and double-quoted strings with escapes.
    """
    out = list(text)
    i = 0
    n = len(text)
    block_depth = 0
    in_line = False
    in_string = False
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if in_line:
            if c == "\n":
                in_line = False
            else:
                out[i] = " "
            i += 1
        elif block_depth > 0:
            if c == "/" and nxt == "-":
                block_depth += 1
                out[i] = out[i + 1] = " "
                i += 2
            elif c == "-" and nxt == "/":
                block_depth -= 1
                out[i] = out[i + 1] = " "
                i += 2
            else:
                if c != "\n":
                    out[i] = " "
                i += 1
        elif in_string:
            if c == "\\" and nxt:
                if mask_strings:
                    out[i] = " "
                    if nxt != "\n":
                        out[i + 1] = " "
                i += 2
            elif c == '"':
                in_string = False
                i += 1
            else:
                if mask_strings and c != "\n":
                    out[i] = " "
                i += 1
        else:
            if c == "-" and nxt == "-":
                in_line = True
                out[i] = out[i + 1] = " "
                i += 2
            elif c == "/" and nxt == "-":
                block_depth = 1
                out[i] = out[i + 1] = " "
                i += 2
            elif c == '"':
                in_string = True
                i += 1
            else:
                i += 1
    return "".join(out)


def contains_sorry(text: str) -> bool:
    """True if the `sorry` token appears outside comments and strings."""
    # Masking only turns characters into spaces, so a token missing from
    # the raw text is missing from the masked text too.
    if _SORRY_TOKEN.search(text) is None:
        return False
    return bool(_SORRY_TOKEN.search(mask_comments(text, mask_strings=True)))


@dataclass(frozen=True)
class TheoremStatement:
    """A parsed `theorem` declaration with its proof elided as `sorry`.

    `body` is the text between the theorem name and `:=` (binders
    included; the lone head colon is dropped when there are no binders),
    `source_text` is the full declaration ending in `:= sorry`.
    """

    name: str
    body: str
    source_text: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("theorem name must be nonempty")
        if not self.body.strip():
            raise ValueError(f"theorem {self.name!r} has an empty body")
        src = self.source_text.strip()
        if not src.startswith("theorem"):
            raise ValueError(f"source of {self.name!r} must start with 'theorem'")
        if not src.endswith(":= sorry"):
            raise ValueError(f"source of {self.name!r} must end with ':= sorry'")

    @classmethod
    def from_source(cls, source: str) -> "TheoremStatement":
        """Parse a single well-formed declaration; raises if none is found."""
        parsed = parse_theorem_declarations(source)
        if len(parsed) != 1:
            raise ValueError(
                f"expected exactly one declaration, found {len(parsed)}"
            )
        return parsed[0]

    def with_name(self, new_name: str) -> "TheoremStatement":
        """Return a copy renamed to `new_name` (source text rewritten)."""
        pattern = re.compile(r"^(theorem\s+)" + re.escape(self.name))
        new_source, count = pattern.subn(
            lambda m: m.group(1) + new_name, self.source_text.strip(), count=1
        )
        if count != 1:
            raise ValueError(f"could not rewrite name in {self.name!r}")
        return TheoremStatement(name=new_name, body=self.body, source_text=new_source)

    def render_with_proof(self, proof: "ProofScript") -> str:
        """The declaration with `sorry` replaced by the proof script."""
        src = self.source_text.strip()
        return src[: -len("sorry")] + proof.text

    def render_for_exact_check(self) -> str:
        """The declaration with `sorry` replaced by `by exact?`."""
        src = self.source_text.strip()
        return src[: -len("sorry")] + "by exact?"


@dataclass(frozen=True)
class ProofScript:
    """The code that directly follows `:=` (a `by` block or a term)."""

    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("proof script must be nonempty")
        if contains_sorry(self.text):
            raise ValueError("proof script contains the 'sorry' token")


@dataclass(frozen=True)
class LibraryEntry:
    statement: TheoremStatement
    proof: ProofScript
    sequence_index: int
    provenance: str
    created_at: str

    def __post_init__(self) -> None:
        if self.sequence_index < 0:
            raise ValueError("sequence_index must be nonnegative")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def render_source(self) -> str:
        return self.statement.render_with_proof(self.proof)


@dataclass(frozen=True)
class Library:
    """Append-only collection of verified (statement, proof) pairs.

    `rendered` holds the entries' declarations, rendered once per
    library value when first asked for. A library made by `extend` or
    `prefix` from one whose rendering exists starts from that rendering.
    """

    seed_source: str
    entries: tuple[LibraryEntry, ...] = ()

    def __post_init__(self) -> None:
        for i, entry in enumerate(self.entries):
            if entry.sequence_index != i:
                raise ValueError(
                    f"entry {entry.statement.name!r} has sequence_index "
                    f"{entry.sequence_index}, expected {i}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def rendered(self) -> tuple[str, list[int]]:
        """The entries' declarations joined by blank lines, and the
        offset where each declaration starts in that text."""
        text, starts, shared = self.__dict__.pop("_rendered_from", ("", [], 0))
        if shared < len(starts):
            # Keep the first `shared` blocks, without the blank line after them.
            text = text[: starts[shared] - 2] if shared else ""
        starts = starts[:shared]
        blocks = [entry.render_source() for entry in self.entries[shared:]]
        position = len(text) + 2 if shared else 0
        for block in blocks:
            starts.append(position)
            position += len(block) + 2
        return "\n\n".join(([text] if shared else []) + blocks), starts

    def _derive(self, entries: tuple[LibraryEntry, ...]) -> "Library":
        """A library with `entries`, which start with this library's
        entries or are a prefix of them. It starts from this library's
        rendering, or from the one this library would start from."""
        derived = replace(self, entries=entries)
        if "rendered" in self.__dict__:
            text, starts = self.rendered
            base = (text, starts, len(starts))
        else:
            base = self.__dict__.get("_rendered_from")
        if base is not None:
            text, starts, shared = base
            shared = min(shared, len(entries))
            derived.__dict__["_rendered_from"] = (text, starts, shared)
        return derived

    def entry_names(self) -> set[str]:
        return {e.statement.name for e in self.entries}

    def append(
        self,
        statement: TheoremStatement,
        proof: ProofScript,
        provenance: str,
        created_at: str,
    ) -> "Library":
        """Return a new Library with one more entry (see `extend`)."""
        return self.extend([(statement, proof, provenance, created_at)])

    def extend(
        self,
        additions: Iterable[tuple[TheoremStatement, ProofScript, str, str]],
    ) -> "Library":
        """Return a new Library with one entry per (statement, proof,
        provenance, created_at) addition, in order.

        A statement whose name collides with an earlier entry is renamed
        `<name>_<sequence_index>` so every entry stays usable as a lemma
        in later contexts. The result is built in one pass.
        """
        entries = list(self.entries)
        names = self.entry_names()
        for statement, proof, provenance, created_at in additions:
            index = len(entries)
            if statement.name in names:
                statement = statement.with_name(f"{statement.name}_{index}")
            names.add(statement.name)
            entries.append(
                LibraryEntry(
                    statement=statement,
                    proof=proof,
                    sequence_index=index,
                    provenance=provenance,
                    created_at=created_at,
                )
            )
        return self._derive(tuple(entries))

    def prefix(self, count: int) -> "Library":
        """The library restricted to its first `count` entries."""
        return self._derive(self.entries[:count])


class ConjectureList:
    """Ordered accumulator of accepted conjectures, unique modulo whitespace."""

    def __init__(self, items: list[TheoremStatement] | None = None):
        self.items: list[TheoremStatement] = []
        self._keys: set[str] = set()
        for item in items or []:
            self.add(item)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def contains(self, stmt: TheoremStatement) -> bool:
        return normalize_statement(stmt) in self._keys

    def add(self, stmt: TheoremStatement) -> None:
        key = normalize_statement(stmt)
        if key in self._keys:
            raise ValueError(f"duplicate conjecture body: {key!r}")
        self._keys.add(key)
        self.items.append(stmt)


def normalize_statement(stmt: TheoremStatement) -> str:
    """Canonical dedup key: the body with whitespace runs collapsed.

    Purely textual; alpha-equivalent statements with different variable
    names stay distinct (the `exact?` novelty check covers those).
    """
    return " ".join(stmt.body.split())


def strip_code_fences(
    text: str, warnings: list[ParseWarning] | None = None
) -> str:
    """Remove Markdown code-fence delimiter lines, keeping everything else.

    An unterminated opening fence is removed anyway and reported via
    `warnings`.
    """
    lines = text.split("\n")
    kept: list[str] = []
    open_fence: str | None = None
    for line in lines:
        m = _FENCE_LINE.match(line)
        if m:
            if open_fence is None:
                open_fence = m.group(1)
            else:
                open_fence = None
            continue
        kept.append(line)
    if open_fence is not None and warnings is not None:
        warnings.append(
            ParseWarning("unterminated_fence", "opening code fence never closed")
        )
    return "\n".join(kept)


def parse_theorem_declarations(
    text: str, warnings: list[ParseWarning] | None = None
) -> list[TheoremStatement]:
    """Extract every `theorem ... := sorry` declaration from model output.

    Leniency rules: code fences are stripped first, prose outside
    declarations is ignored, and a declaration that does not end in
    `:= sorry` (or has no name/body) is skipped with a warning instead
    of failing the whole response. Returns an empty list when nothing
    parses.
    """
    if warnings is None:
        warnings = []
    cleaned = strip_code_fences(text, warnings)
    starts = [m.start(1) for m in _THEOREM_START.finditer(cleaned)]
    found: list[TheoremStatement] = []
    for idx, start in enumerate(starts):
        end = starts[idx + 1] if idx + 1 < len(starts) else len(cleaned)
        region = cleaned[start:end]
        terminator = _SORRY_TERMINATOR.search(region)
        if terminator is None:
            warnings.append(
                ParseWarning(
                    "skipped_declaration",
                    f"no ':= sorry' terminator: {_snippet(region)}",
                )
            )
            continue
        try:
            statement = _statement_from_head(region[: terminator.start()])
            problem = "unnamed declaration"
        except ValueError:
            statement, problem = None, "empty body"
        if statement is None:
            warnings.append(
                ParseWarning("skipped_declaration", f"{problem}: {_snippet(region)}")
            )
        else:
            found.append(statement)
    return found


def _statement_from_head(head: str) -> TheoremStatement | None:
    """The statement a declaration head `theorem <name> <body>` stands for.

    Returns None when the head has no name; raises ValueError when the
    body is empty. The terminator is spelled canonically, so the source
    text always ends in `:= sorry`.
    """
    head = head.strip()
    name_match = _NAME_AFTER_KEYWORD.match(head)
    if name_match is None:
        return None
    body = head[name_match.end() :].strip()
    if body.startswith(":"):
        body = body[1:].strip()
    return TheoremStatement(
        name=name_match.group(1), body=body, source_text=head + " := sorry"
    )


def _snippet(text: str, limit: int = 60) -> str:
    flat = " ".join(text.split())
    return flat[:limit] + ("..." if len(flat) > limit else "")


def proof_length(proof: ProofScript, metric: str = "lines") -> int:
    """Size of a proof script.

    The default `lines` metric counts lines that are neither blank nor
    comment-only; the `chars` alternative is the raw character count.
    Output labels must always say which metric was used.
    """
    if metric not in LENGTH_METRICS:
        raise ValueError(f"unknown proof-length metric {metric!r}")
    if metric == "chars":
        return len(proof.text)
    masked = mask_comments(proof.text)
    return sum(1 for line in masked.split("\n") if line.strip())


def render_context(
    library: Library,
    extras: list[TheoremStatement],
    budget: int,
    warnings: list[str] | None = None,
) -> str:
    """Render the prompt/verifier context: seed, then entries, then extras.

    Entries carry their full proofs; extras keep their `sorry` bodies.
    When the total exceeds `budget`, the oldest entries are dropped
    first (the seed and the extras are never dropped). A budget too
    small for even seed + extras is an error.
    """
    if budget <= 0:
        raise ValueError("context budget must be positive")
    seed = library.seed_source
    text, starts = library.rendered
    sep = "\n" if seed.endswith("\n") else "\n\n"
    extra_text = "\n\n".join(stmt.source_text.strip() for stmt in extras)

    # Keeping the entries from block `d` on, the rendering is the seed,
    # `sep`, `text[starts[d]:]`, then a blank line and the extras (if
    # any); bisection finds the smallest `d` that fits the budget.
    after = 2 + len(extra_text) if extras else 0
    room = budget - len(seed) - len(sep) - after
    dropped = bisect_left(starts, len(text) - room)
    if dropped < len(starts):
        rendered = "".join(
            (seed, sep, text[starts[dropped] :], "\n\n" if extras else "", extra_text)
        )
    else:
        rendered = seed + sep + extra_text if extras else seed
        if len(rendered) > budget:
            raise ValueError(
                f"context budget {budget} cannot fit seed plus "
                f"{len(extras)} extra statement(s) "
                f"({len(rendered)} chars)"
            )
    if dropped and warnings is not None:
        warnings.append(
            f"context truncated: dropped {dropped} oldest entr"
            f"{'y' if dropped == 1 else 'ies'} to fit budget {budget}"
        )
    return rendered


def split_declaration(decl_text: str) -> tuple[str, str]:
    """Split `theorem <head> := <proof>` at the first top-level `:=`.

    Bracket-, comment- and string-aware so `:=` inside binder defaults
    or nested terms does not confuse the split. Returns (head, proof).
    """
    masked = mask_comments(decl_text, mask_strings=True)
    depth = 0
    i = 0
    n = len(masked)
    while i < n - 1:
        c = masked[i]
        if c in _OPEN_BRACKETS:
            depth += 1
        elif c in _CLOSE_BRACKETS:
            depth = max(0, depth - 1)
        elif depth == 0 and c == ":" and masked[i + 1] == "=":
            head = decl_text[:i]
            proof = decl_text[i + 2 :]
            if not head.strip() or not proof.strip():
                raise ValueError("declaration has an empty head or proof")
            return head, proof
        i += 1
    raise ValueError("no top-level ':=' found in declaration")


def parse_theorem_with_proof(
    text: str,
) -> tuple[TheoremStatement, ProofScript]:
    """Parse one full `theorem ... := <proof>` declaration (fences allowed)."""
    cleaned = strip_code_fences(text).strip()
    start = _THEOREM_START.search(cleaned)
    if start is None:
        raise ValueError("no theorem declaration found")
    decl = cleaned[start.start(1) :].strip()
    head, proof_text = split_declaration(decl)
    statement = _statement_from_head(head)
    if statement is None:
        raise ValueError("declaration has no name")
    return statement, ProofScript(text=proof_text.strip())


# ---------------------------------------------------------------------------
# On-disk library format: a single Lean file that elaborates unchanged.
# ---------------------------------------------------------------------------


def dump_library(library: Library) -> str:
    """Serialize to the Lean library file format.

    Seed first, then each entry as a marker comment plus the full
    declaration, blocks separated by one blank line.
    """
    blocks = [library.seed_source.rstrip("\n")]
    blocks.extend(_file_block(entry) for entry in library.entries)
    return "\n\n".join(blocks) + "\n"


def _file_block(entry: LibraryEntry) -> str:
    marker = (
        f"-- [cpl:entry {entry.sequence_index} {entry.provenance} "
        f"{entry.created_at}]"
    )
    return f"{marker}\n{entry.render_source()}"


def dump_tail(library: Library, on_disk: int) -> str:
    """What follows the dump of the library's first `on_disk` entries in
    the dump of the whole library."""
    # The dump ends in "\n"; each block adds a blank line, then itself.
    return "".join(f"\n{_file_block(e)}\n" for e in library.entries[on_disk:])


def save_library(
    library: Library, path: str | Path, on_disk: int | None = None
) -> None:
    """Write the library file.

    By default the whole file is written atomically (temp file + rename).
    With `on_disk`, the file already holds the library's first `on_disk`
    entries: the later entries are appended and the file is fsynced, so
    a crash can leave at most a partial last block, which a resume cuts.
    """
    if on_disk is None:
        write_atomically(path, [dump_library(library).encode("utf-8")])
        return
    with open(path, "ab") as handle:
        handle.write(dump_tail(library, on_disk).encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())


def write_atomically(
    path: str | Path, chunks: Iterable[bytes], fsync: bool = True
) -> None:
    """Write `chunks` to a temp file beside `path`, then move it into
    place, so a crash never leaves a partial file under `path`.

    The file gets the mode a plain `open` gives a new file: 0666 less
    the umask.
    """
    path = Path(path)
    tmp_name = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp_name, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_json(path: str | Path, data) -> None:
    """Write `data` as indented JSON plus a newline, atomically."""
    text = json.dumps(data, indent=2, ensure_ascii=False) + "\n"
    write_atomically(path, [text.encode("utf-8")], fsync=False)


_LINE_SPACE = re.compile(r"[ \t\r]*")  # what `json.loads` skips, short of a newline
_raw_decode = json.JSONDecoder().raw_decode


def read_json_lines(path: str | Path, with_ends: bool = False) -> Iterator:
    """The values of a JSON-lines file, in order, from one read of it.

    A last line without its newline is a write torn by a crash: it is
    skipped, as `JsonLinesLog.open` cuts it. Blank lines are skipped too.
    Every other line must hold exactly one JSON value, as `json.loads` of
    the line would read it; a line that does not raises the error
    `json.loads` raises for it. With `with_ends`, each value comes with
    the byte offset just past its line.
    """
    data = Path(path).read_bytes()
    text = data[: data.rfind(b"\n") + 1].decode("utf-8")
    start = byte_end = 0
    while start < len(text):
        end = text.index("\n", start)
        if with_ends:
            # A newline byte is never part of a multi-byte character.
            byte_end = data.index(b"\n", byte_end) + 1
        begin = _LINE_SPACE.match(text, start).end()
        if begin < end:
            exact = False
            try:
                # Parsed in place, so the value must stop on its own line.
                value, stop = _raw_decode(text, begin)
                exact = stop == end or _LINE_SPACE.match(text, stop).end() == end
            except json.JSONDecodeError:
                pass
            if not exact:
                line = text[start : end + 1]
                if not line.strip(" \t\n\r\x0b\x0c"):  # blank, as `bytes.strip` sees it
                    start = end + 1
                    continue
                value = json.loads(line)
            yield (value, byte_end) if with_ends else value
        start = end + 1


def keep_lines(path: str | Path, count: int, fsync: bool = True) -> None:
    """Cut a JSON-lines file back to its first `count` non-blank lines,
    copied verbatim.

    Blank lines go, and so does a last line without its newline: a write
    torn by a crash. The file is rewritten only when something is cut.
    """
    with open(path, "rb") as source:
        lines = source.readlines()
    kept = [line for line in lines if line.strip() and line.endswith(b"\n")][:count]
    if len(kept) < len(lines):
        write_atomically(path, kept, fsync)


def cut_file(path: str | Path, size: int, tail: bytes = b"", fsync: bool = True) -> None:
    """Cut a file in place to its first `size` bytes, append `tail`, and
    fsync it when asked. The file keeps its inode and its mode."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        handle.seek(size)
        handle.write(tail)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


_BLANK_LINE = re.compile(rb"[ \t\r\x0b\x0c]*\n")  # blank, as `bytes.strip` sees it


class JsonLinesLog:
    """An append-only JSON-lines file: one record per line, each line
    written whole by one `append`.

    Every run file of records goes through it: the event log, the
    transcript, the NL index and the grades. `open` continues a file a
    crash may have torn; a log built directly trusts what it is told
    (a resume that has already cut the file). An append opens the file,
    writes its line and closes it, so a log holds no open file between
    appends and needs no closing.
    """

    def __init__(self, path: str | Path, next_sequence: int = 0):
        self.path = Path(path)
        self.next_sequence = next_sequence

    @classmethod
    def open(
        cls, path: str | Path, keep: int | None = None, fsync: bool = False
    ) -> "JsonLinesLog":
        """The log of `path` after cutting the file in place: to its first
        `keep` records, or else to its newline-terminated lines, which
        drops a last line torn by a crash. A missing file is an empty log.

        A record is a non-blank, newline-terminated line. The file is read
        once, and only its last kept record is parsed: `next_sequence` is
        one past that record's `sequence`, or, for records that carry none,
        the number of records. If that record does not parse, the error
        `json.loads` raises for it propagates and the file is left as it
        was. The cut is fsynced only with `fsync`.
        """
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return cls(path)
        complete = data.rfind(b"\n") + 1
        count = start = last = 0
        while start < complete and count != keep:
            if not _BLANK_LINE.match(data, start):
                count, last = count + 1, start
            start = data.index(b"\n", start) + 1
        size = start if count == keep else complete
        next_sequence = count
        if count:
            record = json.loads(data[last : data.index(b"\n", last) + 1])
            if isinstance(record, dict) and isinstance(record.get("sequence"), int):
                next_sequence = record["sequence"] + 1
        if size < len(data):
            cut_file(path, size, fsync=fsync)
        return cls(path, next_sequence)

    def append(self, record: dict) -> None:
        """Write `record` as one line, `json.dumps(record, ensure_ascii=False)`."""
        line = json.dumps(record, ensure_ascii=False) + "\n"
        with open(self.path, "ab") as handle:
            handle.write(line.encode("utf-8"))
        self.next_sequence += 1


def library_blocks(text: str) -> list[tuple[re.Match, str]]:
    """Split a library file at its entry markers.

    One (marker match, declaration text) pair per entry, in file order.
    """
    markers = list(ENTRY_MARKER.finditer(text))
    ends = [m.start() for m in markers[1:]] + [len(text)]
    return [(m, text[m.end() : end].strip()) for m, end in zip(markers, ends)]


def load_library(text_or_path: str | Path, from_path: bool = True) -> Library:
    """Parse a library file back into a Library value."""
    if from_path:
        text = Path(text_or_path).read_text(encoding="utf-8")
    else:
        text = str(text_or_path)
    blocks = library_blocks(text)
    if not blocks:
        return Library(seed_source=text)
    seed = text[: blocks[0][0].start()].rstrip("\n") + "\n"
    entries: list[LibraryEntry] = []
    for marker, decl_text in blocks:
        head, proof_text = split_declaration(decl_text)
        statement = _statement_from_head(head)
        if statement is None:
            raise ValueError(
                f"library entry {marker.group(1)} has no parsable name"
            )
        entries.append(
            LibraryEntry(
                statement=statement,
                proof=ProofScript(text=proof_text.strip()),
                sequence_index=int(marker.group(1)),
                provenance=marker.group(2),
                created_at=marker.group(3),
            )
        )
    return Library(seed_source=seed, entries=tuple(entries))
