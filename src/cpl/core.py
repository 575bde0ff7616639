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
from bisect import bisect_left
from functools import cached_property
from json.encoder import c_make_encoder, encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

PROVENANCES = ("cpl", "simple_loop", "fixture")

LENGTH_METRICS = ("lines", "chars")

# How many chars of context a prompt carries unless a run sets its own.
DEFAULT_CONTEXT_BUDGET = 400_000

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


class Record:
    """A value with named fields, `_fields`: the parameters of the class's
    own `__init__`, in order, which sets them and runs the record's checks.
    A subclass without its own `__init__` keeps its parent's fields. A
    record equals another record of its class with equal fields, and its
    repr names the class and its fields. It has no hash, since its fields
    may change; a `FrozenRecord` has one.

    These methods are written out here, not generated when a class is
    defined, so importing cpl compiles no code.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
            # `_values(record)`: the fields' values, read in one C call; a
            # lone field's value stands alone, not in a tuple.
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def as_dict(self) -> dict:
        """A new dict of the fields, in `_fields` order."""
        return {name: getattr(self, name) for name in self._fields}


class FrozenRecord(Record):
    """A record whose fields never change once `__init__` has put them in
    `self.__dict__`: setting or deleting one raises `AttributeError`, and
    the record hashes by its fields."""

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, **changes) -> Record:
    """A record of `record`'s class with its fields, except those named in
    `changes`, which take the values given. It is built through the class's
    `__init__`, so every check runs again."""
    return type(record)(**{**record.as_dict(), **changes})


class ParseWarning(FrozenRecord):
    """A non-fatal problem found while extracting declarations: its
    `kind`, "skipped_declaration" or "unterminated_fence", and `detail`."""

    def __init__(self, kind: str, detail: str):
        self.__dict__.update(kind=kind, detail=detail)

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
    # the raw text is missing from the masked text too. The substring test
    # is the cheap form of that check for the common text with no `sorry`.
    if "sorry" not in text or _SORRY_TOKEN.search(text) is None:
        return False
    return bool(_SORRY_TOKEN.search(mask_comments(text, mask_strings=True)))


# The first chunk `_common_prefix` compares; each next one is twice as long.
_FIRST_CHUNK = 256


def _common_prefix(text: str, other: str, start: int = 0, other_start: int = 0) -> int:
    """The length of the common prefix of `text[start:]` and
    `other[other_start:]`.

    When the ranges end with the same char, one `startswith` tries the
    full match first; it copies neither range when either is a whole
    string, and one of them otherwise. Else chunks of doubling size are
    compared from the start and the first that differs is bisected, so the
    search copies about twice the shared head, not the range."""
    length = min(len(text) - start, len(other) - other_start)
    if length <= 0:
        return 0
    end = length - 1
    if text[start + end] == other[other_start + end]:
        if length == len(other):
            full = text.startswith(other, start)
        else:
            full = other.startswith(text[start : start + length], other_start)
        if full:
            return length
    low, high, size = 0, length, _FIRST_CHUNK
    # Chunks of doubling size while one is under half of what is left, then
    # bisection of the range still open.
    while size < (length - low) // 2:
        if not other.startswith(text[start + low : start + low + size], other_start + low):
            high = low + size - 1
            break
        low, size = low + size, size * 2
    while low < high:
        middle = (low + high + 1) // 2
        if other.startswith(text[start + low : start + middle], other_start + low):
            low = middle
        else:
            high = middle - 1
    return low


class TheoremStatement(FrozenRecord):
    """A parsed `theorem` declaration with its proof elided as `sorry`.

    `body` is the text between the theorem name and `:=` (binders
    included; the lone head colon is dropped when there are no binders),
    `source_text` is the full declaration ending in `:= sorry`.
    """

    def __init__(self, name: str, body: str, source_text: str):
        if not name:
            raise ValueError("theorem name must be nonempty")
        if not body.strip():
            raise ValueError(f"theorem {name!r} has an empty body")
        src = source_text.strip()
        if not src.startswith("theorem"):
            raise ValueError(f"source of {name!r} must start with 'theorem'")
        if not src.endswith(":= sorry"):
            raise ValueError(f"source of {name!r} must end with ':= sorry'")
        self.__dict__.update(name=name, body=body, source_text=source_text)

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


class ProofScript(FrozenRecord):
    """The code that directly follows `:=` (a `by` block or a term)."""

    def __init__(self, text: str):
        if not text.strip():
            raise ValueError("proof script must be nonempty")
        if contains_sorry(text):
            raise ValueError("proof script contains the 'sorry' token")
        self.__dict__["text"] = text


class LibraryEntry(FrozenRecord):
    """One verified theorem of a library: its statement, proof, position,
    provenance and creation time."""

    def __init__(
        self,
        statement: TheoremStatement,
        proof: ProofScript,
        sequence_index: int,
        provenance: str,
        created_at: str,
    ):
        if sequence_index < 0:
            raise ValueError("sequence_index must be nonnegative")
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        self.__dict__.update(
            statement=statement,
            proof=proof,
            sequence_index=sequence_index,
            provenance=provenance,
            created_at=created_at,
        )

    def render_source(self) -> str:
        return self.statement.render_with_proof(self.proof)


class Library(FrozenRecord):
    """Append-only collection of verified (statement, proof) pairs.

    `rendered` holds the entries' declarations, rendered once per
    library value when first asked for. A library made by `extend` or
    `prefix` from one whose rendering exists starts from that rendering.
    """

    def __init__(self, seed_source: str, entries: tuple[LibraryEntry, ...] = ()):
        for i, entry in enumerate(entries):
            if entry.sequence_index != i:
                raise ValueError(
                    f"entry {entry.statement.name!r} has sequence_index "
                    f"{entry.sequence_index}, expected {i}"
                )
        self.__dict__.update(seed_source=seed_source, entries=entries)

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def rendered(self) -> tuple[str, list[int]]:
        """The entries' declarations joined by blank lines, and the
        offset where each declaration starts in that text. Prompts get it
        cut to a budget; verifier checks get all of it (no seed)."""
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

    def __init__(self):
        self.items: list[TheoremStatement] = []
        self._keys: set[str] = set()

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
    """Render a model prompt: seed, then entries, then extras.

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
        write_atomically(path, dump_library(library).encode("utf-8"))
    else:
        write_file(path, dump_tail(library, on_disk).encode("utf-8"), fsync=True)


def write_file(
    path: str | Path, data: bytes, at: int | None = None, fsync: bool = False
) -> None:
    """Write `data` into the file `path` after its first `at` bytes, which
    it keeps, cutting off the rest; with `at` None, after all of its bytes.
    Then fsync it when asked. The file keeps its inode and its mode; with
    `at` None a missing file is created with mode 0666 less the umask, as a
    plain `open` creates one, and a cut of a missing file raises
    `FileNotFoundError`.

    Every write cpl makes to a run file goes through here: appends, cuts,
    fsyncs and the temp files of `write_atomically`. Each call opens the
    file, writes every byte (a short write is continued) and closes it,
    through bare `os` calls: no `io` buffer is built for one write.
    """
    if at is None:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    else:
        fd = os.open(path, os.O_WRONLY)
    try:
        if at is not None:
            os.ftruncate(fd, at)
            os.lseek(fd, at, os.SEEK_SET)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def write_atomically(path: str | Path, data: bytes, fsync: bool = True) -> None:
    """Write `data` to a temp file beside `path`, then move it into place,
    so a crash never leaves a partial file under `path`.

    The file gets the mode a plain `open` gives a new file: 0666 less
    the umask.
    """
    path = Path(path)
    # What `secrets.token_hex(8)` gives, without importing `hashlib` with it.
    # A kill before the rename leaves the file (see `temp_files`).
    tmp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    os.close(os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        write_file(tmp_name, data, fsync=fsync)
        os.replace(tmp_name, path)
    except BaseException:
        tmp_name.unlink(missing_ok=True)
        raise


_TEMP_NAME = re.compile(r".+\.[0-9a-f]{16}\.tmp")


def temp_files(directory: str | Path) -> list[Path]:
    """The temp files of `write_atomically` in `directory`, by name:
    `<name>.<16 lowercase hex digits>.tmp`. A process killed between
    creating one and renaming it leaves it there for good. A missing
    directory holds none."""
    try:
        # Not `Path.glob`: its first call in a process compiles a pattern.
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    return [Path(directory, name) for name in sorted(names) if _TEMP_NAME.fullmatch(name)]


def remove_temp_files(*directories: str | Path) -> None:
    """Remove the `temp_files` of each of `directories`."""
    for directory in directories:
        for path in temp_files(directory):
            path.unlink(missing_ok=True)


def log_warning(logger_name: str, message: str, *args) -> None:
    """Log a warning on the logger `logger_name`, attributed to the caller.

    `logging` loads here, at a run's first warning, not with cpl: most
    runs log none.
    """
    import logging

    logging.getLogger(logger_name).warning(message, *args, stacklevel=2)


def write_json(path: str | Path, data) -> None:
    """Write `data` as indented JSON plus a newline, atomically."""
    text = json.dumps(data, indent=2, ensure_ascii=False) + "\n"
    write_atomically(path, text.encode("utf-8"), fsync=False)


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
    yield from parse_json_lines(Path(path).read_bytes(), with_ends)


def parse_json_lines(data: bytes, with_ends: bool = False) -> Iterator:
    """The values of the JSON-lines bytes `data`, as `read_json_lines`
    reads a file that holds them."""
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
        write_atomically(path, b"".join(kept), fsync)


_BLANK_LINE = re.compile(rb"[ \t\r\x0b\x0c]*\n")  # blank, as `bytes.strip` sees it

_ENCODER = json.JSONEncoder(ensure_ascii=False)
# A string this long is escaped as UTF-8 bytes (`_json_string_bytes`), not
# by the JSON encoder: base transcript lines hold whole contexts.
_LONG_STRING_CHARS = 4096
_CONTROL_BYTES = bytes(range(0x20))
_OTHER_BYTES = bytes(range(0x20, 0x100))
_CONTROL_ESCAPES = [json.dumps(chr(byte)).encode("ascii")[1:-1] for byte in _CONTROL_BYTES]
# How deep `_holds_long_string` looks. A deeper long string, or one in a
# cycle (which the encoder refuses), is escaped by the encoder.
_LONG_STRING_DEPTH = 8


def json_line(record) -> bytes:
    """`(json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")`,
    with each string of `_LONG_STRING_CHARS` or more escaped at byte level.

    The encoder writes every other part of the line. Its output never holds
    a raw control char, so it writes a raw NUL where a long string goes, and
    the escaped bytes of each long string are spliced in there."""
    if c_make_encoder is None:  # no C encoder to hook: no byte-level escape
        return (_ENCODER.encode(record) + "\n").encode("utf-8")
    if not _holds_long_string((record,), _LONG_STRING_DEPTH):
        return (_encode(record, encode_basestring) + "\n").encode("utf-8")
    long_strings: list[str] = []

    def encode_string(text: str) -> str:
        if len(text) < _LONG_STRING_CHARS:
            return encode_basestring(text)
        long_strings.append(text)
        return "\0"

    parts = _encode(record, encode_string).split("\0")
    pieces = [parts[0].encode("utf-8")]
    for text, part in zip(long_strings, parts[1:]):
        pieces += _json_string_bytes(text), part.encode("utf-8")
    pieces.append(b"\n")
    return b"".join(pieces)


def _encode(record, encode_string) -> str:
    """`_ENCODER.encode(record)`, with `encode_string` writing each string:
    the C encoder `JSONEncoder.iterencode` builds, with a fresh cycle check,
    but not the closures it builds on each call."""
    encode = c_make_encoder(
        {}, _ENCODER.default, encode_string, None, _ENCODER.key_separator,
        _ENCODER.item_separator, False, False, True,
    )
    return "".join(encode(record, 0))


def _holds_long_string(value, depth: int) -> bool:
    """Whether the dict, list or tuple `value` holds a string of
    `_LONG_STRING_CHARS` or more, within `depth` more levels of them."""
    for item in value.values() if type(value) is dict else value:
        kind = type(item)
        if kind is str:
            if len(item) >= _LONG_STRING_CHARS:
                return True
        elif (kind is dict or kind is list or kind is tuple) and depth:
            if _holds_long_string(item, depth - 1):
                return True
    return False


def _json_string_bytes(text: str) -> bytes:
    """`json.dumps(text, ensure_ascii=False).encode("utf-8")`, escaped in
    the UTF-8 bytes: no byte of a multi-byte character is below 0x80, so
    the only escapes are of backslashes, quotes and control bytes, and each
    control byte is replaced only if the text holds it."""
    data = text.encode("utf-8").replace(b"\\", b"\\\\").replace(b'"', b'\\"')
    for byte in set(data.translate(None, _OTHER_BYTES)):
        data = data.replace(_CONTROL_BYTES[byte : byte + 1], _CONTROL_ESCAPES[byte])
    return b'"' + data + b'"'


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
        self.kept = 0  # the records `open` kept
        self.cut_lines = b""  # the complete lines `open` cut past `keep`

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

        The log's `cut_lines` holds the bytes of the complete lines a
        `keep` cut removed, unparsed, for a caller that reads them back (a
        resumed gateway); a torn last line is never among them.
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
            write_file(path, b"", at=size, fsync=fsync)
        log = cls(path, next_sequence)
        log.kept = count
        log.cut_lines = data[size:complete]
        return log

    def append(self, record: dict) -> None:
        """Write `record` as one line: the UTF-8 bytes of
        `json.dumps(record, ensure_ascii=False)` and a newline (`json_line`).
        A record that cannot be written so raises as `json.dumps` or the
        encoding raises, and writes nothing."""
        write_file(self.path, json_line(record))
        self.next_sequence += 1

    def sync(self) -> None:
        """Fsync the file, so every line appended so far outlasts a power loss."""
        if self.path.exists():
            write_file(self.path, b"", fsync=True)


def library_blocks(text: str) -> list[tuple[re.Match, str]]:
    """Split a library file at its entry markers.

    One (marker match, declaration text) pair per entry, in file order.
    """
    markers = list(ENTRY_MARKER.finditer(text))
    ends = [m.start() for m in markers[1:]] + [len(text)]
    return [(m, text[m.end() : end].strip()) for m, end in zip(markers, ends)]


def library_seed(text: str) -> str:
    """The seed of a library file's text: what precedes its first entry
    marker, ending in one newline, or the whole text when it has none."""
    marker = ENTRY_MARKER.search(text)
    return text if marker is None else text[: marker.start()].rstrip("\n") + "\n"


def load_library(path: str | Path) -> Library:
    """Parse a library file back into a Library value."""
    text = Path(path).read_text(encoding="utf-8")
    entries: list[LibraryEntry] = []
    for marker, decl_text in library_blocks(text):
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
    return Library(seed_source=library_seed(text), entries=tuple(entries))
