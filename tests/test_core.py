from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cpl
from cpl import core
from cpl.core import (
    _SORRY_TOKEN,
    ConjectureList,
    Library,
    LibraryEntry,
    ParseWarning,
    ProofScript,
    TheoremStatement,
    contains_sorry,
    dump_library,
    load_library,
    mask_comments,
    normalize_statement,
    parse_theorem_declarations,
    parse_theorem_with_proof,
    proof_length,
    render_context,
    save_library,
    split_declaration,
    strip_code_fences,
)


def stmt(source: str) -> TheoremStatement:
    return TheoremStatement.from_source(source)


# ---------------------------------------------------------------------------
# parse_theorem_declarations
# ---------------------------------------------------------------------------


def test_parse_minimal_declaration():
    (parsed,) = parse_theorem_declarations("theorem foo : 1 = 1 := sorry")
    assert parsed.name == "foo"
    assert parsed.body == "1 = 1"
    assert parsed.source_text == "theorem foo : 1 = 1 := sorry"


def test_parse_preserves_order_of_two_declarations():
    text = "theorem a : 1 = 1 := sorry\n\ntheorem b : 2 = 2 := sorry"
    parsed = parse_theorem_declarations(text)
    assert [s.name for s in parsed] == ["a", "b"]


def test_parse_fixture_with_prose_and_fence(fixtures_dir):
    # Expected values frozen from a manual read of the fixture file.
    text = (fixtures_dir / "conjecturer_response.txt").read_text(encoding="utf-8")
    parsed = parse_theorem_declarations(text)
    assert len(parsed) == 1
    assert parsed[0].name == "preOpen_closure_subset"
    assert (
        normalize_statement(parsed[0])
        == "{A : Set X} (hA : PreOpen A) : A ⊆ interior (closure A)"
    )


def test_parse_skips_declaration_without_sorry_and_warns():
    text = (
        "theorem proved : True := by trivial\n\n"
        "theorem open_q : 1 = 1 := sorry\n"
    )
    warnings: list[ParseWarning] = []
    parsed = parse_theorem_declarations(text, warnings)
    assert [s.name for s in parsed] == ["open_q"]
    assert [w.kind for w in warnings] == ["skipped_declaration"]


def test_parse_no_declarations_returns_empty_list():
    assert parse_theorem_declarations("no lean here at all") == []


def test_parse_multiline_binders():
    text = (
        "theorem inter_open {A B : Set X}\n"
        "    (hA : IsOpen A) (hB : IsOpen B) :\n"
        "    IsOpen (A ∩ B) := sorry"
    )
    (parsed,) = parse_theorem_declarations(text)
    assert parsed.name == "inter_open"
    assert parsed.body.startswith("{A B : Set X}")
    assert parsed.source_text.endswith(":= sorry")


def test_parse_normalizes_spaced_terminator():
    (parsed,) = parse_theorem_declarations("theorem t : 1 = 1 :=   sorry")
    assert parsed.source_text.endswith(":= sorry")


def test_parse_roundtrip_is_identity():
    sources = [
        "theorem a : 1 = 1 := sorry",
        "theorem b {A : Set X} (h : IsOpen A) : IsOpen A := sorry",
        "theorem c :\n    ∀ x : ℕ, x = x := sorry",
    ]
    parsed = parse_theorem_declarations("\n\n".join(sources))
    rendered = "\n\n".join(s.source_text for s in parsed)
    reparsed = parse_theorem_declarations(rendered)
    assert [(s.name, s.body, s.source_text) for s in reparsed] == [
        (s.name, s.body, s.source_text) for s in parsed
    ]


# ---------------------------------------------------------------------------
# strip_code_fences
# ---------------------------------------------------------------------------


def test_fence_removed_content_intact():
    text = "before\n```lean\ntheorem x : True := sorry\n```\nafter"
    stripped = strip_code_fences(text)
    assert "```" not in stripped
    assert "theorem x : True := sorry" in stripped
    assert stripped.startswith("before")
    assert stripped.endswith("after")


def test_no_fences_is_identity():
    text = "plain text\nwith lines"
    assert strip_code_fences(text) == text


def test_unterminated_fence_recovers_with_warning():
    warnings: list[ParseWarning] = []
    stripped = strip_code_fences("```lean\ntheorem t : True := sorry", warnings)
    assert stripped == "theorem t : True := sorry"
    assert [w.kind for w in warnings] == ["unterminated_fence"]


# ---------------------------------------------------------------------------
# normalize_statement
# ---------------------------------------------------------------------------


def test_normalize_collapses_whitespace():
    a = stmt("theorem a : 1 = 1 := sorry")
    b = stmt("theorem b : 1  =\n 1 := sorry")
    assert normalize_statement(a) == normalize_statement(b)


def test_normalize_excludes_name():
    a = stmt("theorem foo : 1 = 1 := sorry")
    b = stmt("theorem bar : 1 = 1 := sorry")
    assert normalize_statement(a) == normalize_statement(b)


def test_normalize_is_textual_not_alpha_equivalence():
    a = stmt("theorem a : ∀ x : ℕ, x = x := sorry")
    b = stmt("theorem b : ∀ y : ℕ, y = y := sorry")
    assert normalize_statement(a) != normalize_statement(b)


def test_normalize_idempotent_under_whitespace_rewrites():
    rng = random.Random(7)
    base = stmt(
        "theorem t {A : Set X} (hA : IsOpen A) : A ⊆ closure A := sorry"
    )
    key = normalize_statement(base)
    for _ in range(50):
        words = base.body.split()
        body = words[0]
        for word in words[1:]:
            body += rng.choice([" ", "  ", "\n", "\n    ", "\t"]) + word
        rewritten = TheoremStatement(
            name="t2", body=body, source_text=f"theorem t2 {body} := sorry"
        )
        assert normalize_statement(rewritten) == key


# ---------------------------------------------------------------------------
# proof_length
# ---------------------------------------------------------------------------


def test_proof_length_counts_plain_lines():
    assert proof_length(ProofScript("by\n  intro x\n  exact h")) == 3


def test_proof_length_skips_comments_and_blanks():
    assert proof_length(ProofScript("by\n  -- comment\n\n  trivial")) == 2


def test_proof_length_block_comments():
    text = "by\n  /- a\n     multi line\n     comment -/\n  trivial"
    assert proof_length(ProofScript(text)) == 2


def test_proof_length_of_bundled_intersection_proof(intersection_proof_declaration):
    # 64 is a by-hand count of the non-blank, non-comment lines of the
    # proof script in the fixture (the `by` line included).
    _, _, proof_text = intersection_proof_declaration.partition(":= ")
    assert proof_length(ProofScript(proof_text.rstrip("\n"))) == 64


def test_proof_length_invariant_under_blank_and_comment_suffix():
    rng = random.Random(21)
    proof = ProofScript("by\n  intro x\n  exact x.elim")
    base = proof_length(proof)
    for _ in range(25):
        suffix = "".join(
            rng.choice(["\n", "\n  -- note", "\n   ", "\n  /- block -/"])
            for _ in range(rng.randint(1, 5))
        )
        assert proof_length(ProofScript(proof.text + suffix)) == base


def test_proof_length_chars_metric():
    proof = ProofScript("by trivial")
    assert proof_length(proof, metric="chars") == len("by trivial")
    with pytest.raises(ValueError):
        proof_length(proof, metric="tokens")


# ---------------------------------------------------------------------------
# ProofScript / sorry detection
# ---------------------------------------------------------------------------


def test_proof_script_rejects_sorry():
    with pytest.raises(ValueError):
        ProofScript("by\n  sorry")


def test_proof_script_allows_sorry_in_comment_and_string():
    ProofScript('by\n  -- no sorry here\n  exact "sorry".length.zero_le')


def test_contains_sorry_token_boundaries():
    assert contains_sorry("by exact sorry")
    assert not contains_sorry("by exact sorrynot")
    assert not contains_sorry("-- sorry\nexact h")
    assert not contains_sorry("/- sorry -/ exact h")


SORRY_FRAGMENTS = [
    "sorry", "sorry ", " sorry", "xsorry", "sorryx", "sorry'", "_sorry",
    "/-", "-/", "/-x-/", "/- /- sorry -/ -/", "--", "-- sorry", "\n",
    '"', '"a"', '"\\"', '\\"', "\\", '"\\\n"', "x", " ", "(", ")", ":=",
]


SORRY_EDGE_CASES = [
    "/-x-/sorry",
    '"a"sorry',
    "sorry--",
    "/- /- -/ sorry -/",
    "/- /- -/ -/ sorry",
    "-- sorry\nsorry",
    "-- x\n sorry",
    '"sorry"',
    '"\\"sorry\\"" ',
    '"\\" sorry',
    "sorry/-",
    'sorry"x"',
    "by exact sorrynot",
]


def test_contains_sorry_equals_search_of_masked_text():
    rng = random.Random(11)
    random_texts = [
        "".join(rng.choice(SORRY_FRAGMENTS) for _ in range(rng.randint(1, 8)))
        for _ in range(3000)
    ]
    for text in SORRY_EDGE_CASES + random_texts:
        expected = bool(_SORRY_TOKEN.search(mask_comments(text, mask_strings=True)))
        assert contains_sorry(text) == expected, text


def test_proof_script_must_be_nonempty():
    with pytest.raises(ValueError):
        ProofScript("   \n ")


# ---------------------------------------------------------------------------
# render_context
# ---------------------------------------------------------------------------


def small_library() -> Library:
    # seed is 15 chars; each rendered entry is 25 chars ("theorem tN : N = N := rfl").
    lib = Library(seed_source="import Mathlib\n")
    lib = lib.append(
        stmt("theorem t0 : 1 = 1 := sorry"), ProofScript("rfl"), "fixture", "t"
    )
    lib = lib.append(
        stmt("theorem t1 : 2 = 2 := sorry"), ProofScript("rfl"), "fixture", "t"
    )
    return lib


def test_render_empty_library_is_exactly_seed(seed_source):
    lib = Library(seed_source=seed_source)
    assert render_context(lib, [], 10_000) == seed_source


def test_render_orders_seed_then_entries_then_extras():
    lib = small_library()
    extra = stmt("theorem x : 3 = 3 := sorry")
    out = render_context(lib, [extra], 10_000)
    assert out.startswith(lib.seed_source)
    i0 = out.index("theorem t0")
    i1 = out.index("theorem t1")
    ix = out.index("theorem x")
    assert i0 < i1 < ix
    assert out.endswith("theorem x : 3 = 3 := sorry")


def test_render_budget_drops_oldest_first():
    # Hand-computed: seed(15) + "\n" + t0(25) + "\n\n" + t1(25) = 68 chars.
    lib = small_library()
    full = render_context(lib, [], 68)
    assert len(full) == 68
    assert "theorem t0" in full and "theorem t1" in full

    warnings: list[str] = []
    truncated = render_context(lib, [], 67, warnings=warnings)
    assert "theorem t0" not in truncated
    assert "theorem t1" in truncated
    assert len(truncated) == 41  # seed(15) + "\n" + t1(25)
    assert len(warnings) == 1 and "dropped 1" in warnings[0]


def test_render_never_drops_seed_or_extras():
    lib = small_library()
    extra = stmt("theorem keep_me : 0 = 0 := sorry")
    out = render_context(lib, [extra], 80)
    assert out.startswith(lib.seed_source)
    assert "keep_me" in out


def test_render_errors_when_seed_and_extras_cannot_fit():
    lib = small_library()
    extra = stmt("theorem keep_me : 0 = 0 := sorry")
    with pytest.raises(ValueError):
        render_context(lib, [extra], 30)


def test_render_entries_in_sequence_order_randomized():
    rng = random.Random(3)
    lib = Library(seed_source="import Mathlib\n")
    for i in range(rng.randint(4, 9)):
        lib = lib.append(
            stmt(f"theorem gen{i} : {i} = {i} := sorry"),
            ProofScript("rfl"),
            "fixture",
            "t",
        )
    out = render_context(lib, [], 100_000)
    positions = [out.index(f"theorem gen{i} ") for i in range(len(lib.entries))]
    assert positions == sorted(positions)


def reference_render_context(library, extras, budget, warnings=None):
    """The drop-one-entry-at-a-time loop that `render_context` replaced."""
    if budget <= 0:
        raise ValueError("context budget must be positive")
    seed = library.seed_source
    extra_blocks = [stmt.source_text.strip() for stmt in extras]
    entry_blocks = [entry.render_source() for entry in library.entries]

    def assemble(blocks):
        if not blocks:
            return seed
        sep = "\n" if seed.endswith("\n") else "\n\n"
        return seed + sep + "\n\n".join(blocks)

    dropped = 0
    while True:
        rendered = assemble(entry_blocks[dropped:] + extra_blocks)
        if len(rendered) <= budget:
            break
        if dropped == len(entry_blocks):
            raise ValueError(
                f"context budget {budget} cannot fit seed plus "
                f"{len(extra_blocks)} extra statement(s) "
                f"({len(rendered)} chars)"
            )
        dropped += 1
    if dropped and warnings is not None:
        warnings.append(
            f"context truncated: dropped {dropped} oldest entr"
            f"{'y' if dropped == 1 else 'ies'} to fit budget {budget}"
        )
    return rendered


def render_outcome(render, library, extras, budget):
    warnings: list[str] = []
    try:
        return render(library, extras, budget, warnings=warnings), warnings
    except ValueError as exc:
        return ("ValueError", str(exc)), warnings


def oracle_library(seed: str, sizes: list[int]) -> Library:
    lib = Library(seed_source=seed)
    for i, size in enumerate(sizes):
        lib = lib.append(
            stmt(f"theorem e{i} : {i} = {i} := sorry"),
            ProofScript("by\n" + "  rfl\n" * size + "  done"),
            "fixture",
            "t",
        )
    return lib


@pytest.mark.parametrize("seed", ["import Mathlib\n", "import Mathlib", ""])
@pytest.mark.parametrize("sizes", [[], [0], [3, 0, 1, 5]])
@pytest.mark.parametrize("extra_count", [0, 1, 2])
def test_render_matches_reference_at_every_budget(seed, sizes, extra_count):
    lib = oracle_library(seed, sizes)
    extras = [stmt(f"theorem x{i} : {i} ≠ {i + 1} := sorry") for i in range(extra_count)]
    full = len(render_context(lib, extras, 10**9))
    for budget in range(-1, full + 2):
        assert render_outcome(render_context, lib, extras, budget) == render_outcome(
            reference_render_context, lib, extras, budget
        ), budget


def test_truncated_render_renders_each_entry_once(monkeypatch):
    lib = oracle_library("import Mathlib\n", [2] * 40)
    calls = {"n": 0}
    render_source = LibraryEntry.render_source

    def counted(entry):
        calls["n"] += 1
        return render_source(entry)

    monkeypatch.setattr(LibraryEntry, "render_source", counted)
    warnings: list[str] = []
    render_context(lib, [], 200, warnings=warnings)
    assert warnings and "dropped" in warnings[0]
    assert calls["n"] == len(lib.entries)


def assert_renders_like_reference(lib, extras):
    full = len(reference_render_context(lib, extras, 10**9))
    for budget in range(-1, full + 2):
        assert render_outcome(render_context, lib, extras, budget) == render_outcome(
            reference_render_context, lib, extras, budget
        ), (len(lib), budget)


def extras_for(count: int) -> list[TheoremStatement]:
    return [stmt(f"theorem x{i} : {i} ≠ {i + 1} := sorry") for i in range(count)]


def additions(start: int, sizes: list[int]) -> list:
    return [
        (
            stmt(f"theorem e{start + i} : {i} = {i} := sorry"),
            ProofScript("by\n" + "  rfl\n" * size + "  done"),
            "fixture",
            "t",
        )
        for i, size in enumerate(sizes)
    ]


@pytest.mark.parametrize("seed", ["import Mathlib\n", "import Mathlib", ""])
@pytest.mark.parametrize("extra_count", [0, 2])
def test_extend_chain_renders_like_reference(seed, extra_count):
    # Every other link is rendered before it is extended, so some links
    # start from a rendering and some from a link that never had one.
    lib = Library(seed_source=seed)
    rng = random.Random(11)
    links = []
    for step in range(6):
        sizes = [rng.randint(0, 3) for _ in range(step % 3)]
        lib = lib.extend(additions(len(lib), sizes))
        if step % 2 == 0:
            render_context(lib, [], 10**9)
        links.append(lib)
    for lib in links:
        assert_renders_like_reference(lib, extras_for(extra_count))


@pytest.mark.parametrize("extra_count", [0, 1, 2])
def test_prefix_of_a_rendered_library_renders_like_reference(extra_count):
    lib = oracle_library("import Mathlib\n", [3, 0, 1, 5, 2])
    render_context(lib, [], 10**9)  # the full library's rendering exists
    for count in range(len(lib) + 1):
        shorter = lib.prefix(count)
        assert_renders_like_reference(shorter, extras_for(extra_count))
        # a library derived from an unrendered prefix starts from `lib` too
        grown = lib.prefix(count).extend(additions(count, [1, 4]))
        assert_renders_like_reference(grown, extras_for(extra_count))


def test_rendering_a_library_many_times_renders_each_entry_once(monkeypatch):
    lib = oracle_library("import Mathlib\n", [2] * 40)
    calls = {"n": 0}
    render_source = LibraryEntry.render_source

    def counted(entry):
        calls["n"] += 1
        return render_source(entry)

    monkeypatch.setattr(LibraryEntry, "render_source", counted)
    extras = extras_for(2)
    for budget in range(200, 4000, 100):
        render_context(lib, extras, budget)
    assert calls["n"] == len(lib)
    # An extended library renders only its new entries; a prefix none.
    grown = lib.extend(additions(len(lib), [1, 2, 3]))
    render_context(grown, [], 10**9)
    render_context(grown.prefix(10), [], 10**9)
    assert calls["n"] == len(lib) + 3


# ---------------------------------------------------------------------------
# Library behavior and on-disk format
# ---------------------------------------------------------------------------


def test_append_assigns_contiguous_indices():
    lib = small_library()
    assert [e.sequence_index for e in lib.entries] == [0, 1]


def test_append_renames_colliding_theorem_names():
    lib = Library(seed_source="import Mathlib\n")
    lib = lib.append(
        stmt("theorem t : 1 = 1 := sorry"), ProofScript("rfl"), "cpl", "t"
    )
    lib = lib.append(
        stmt("theorem t : 2 = 2 := sorry"), ProofScript("rfl"), "cpl", "t"
    )
    assert lib.entries[0].statement.name == "t"
    assert lib.entries[1].statement.name == "t_1"
    assert lib.entries[1].statement.source_text.startswith("theorem t_1 ")


def test_library_rejects_non_contiguous_entries():
    entry = LibraryEntry(
        statement=stmt("theorem a : 1 = 1 := sorry"),
        proof=ProofScript("rfl"),
        sequence_index=3,
        provenance="cpl",
        created_at="t",
    )
    with pytest.raises(ValueError):
        Library(seed_source="s", entries=(entry,))


def test_dump_load_roundtrip(tmp_path, seed_source):
    lib = Library(seed_source=seed_source)
    lib = lib.append(
        stmt("theorem alphaOpen_empty : AlphaOpen (∅ : Set X) := sorry"),
        ProofScript("Set.empty_subset _"),
        "cpl",
        "1970-01-01T00:00:00+00:00",
    )
    lib = lib.append(
        stmt("theorem two : (2 : ℕ) = 2 := sorry"),
        ProofScript("by\n  rfl"),
        "simple_loop",
        "1970-01-01T00:00:01+00:00",
    )
    path = tmp_path / "library.lean"
    save_library(lib, path)
    loaded = load_library(path)
    assert loaded.seed_source.rstrip("\n") == seed_source.rstrip("\n")
    assert len(loaded.entries) == 2
    assert loaded.entries[0].statement.name == "alphaOpen_empty"
    assert loaded.entries[0].proof.text == "Set.empty_subset _"
    assert loaded.entries[1].provenance == "simple_loop"
    assert loaded.entries[1].proof.text == "by\n  rfl"
    # Serialization is stable across a round trip.
    assert dump_library(loaded) == dump_library(lib)


def test_dump_contains_marker_lines():
    lib = small_library()
    text = dump_library(lib)
    assert "-- [cpl:entry 0 fixture t]" in text
    assert "-- [cpl:entry 1 fixture t]" in text


# ---------------------------------------------------------------------------
# split_declaration / parse_theorem_with_proof
# ---------------------------------------------------------------------------


def test_split_declaration_simple():
    head, proof = split_declaration("theorem t : 1 = 1 := rfl")
    assert head.strip() == "theorem t : 1 = 1"
    assert proof.strip() == "rfl"


def test_split_declaration_ignores_assign_inside_brackets():
    decl = "theorem t (n : ℕ := 3) : n = n := by\n  rfl"
    head, proof = split_declaration(decl)
    assert "(n : ℕ := 3)" in head
    assert proof.strip() == "by\n  rfl"


def test_split_declaration_ignores_assign_in_comment():
    decl = "theorem t : 1 = 1 -- note: x := y\n := rfl"
    head, proof = split_declaration(decl)
    assert proof.strip() == "rfl"


def test_parse_theorem_with_proof_from_fenced_response():
    text = "```lean\ntheorem t : (1 : ℕ) = 1 := by\n  rfl\n```"
    statement, proof = parse_theorem_with_proof(text)
    assert statement.name == "t"
    assert statement.source_text == "theorem t : (1 : ℕ) = 1 := sorry"
    assert proof.text == "by\n  rfl"


def test_parse_theorem_with_proof_rejects_sorry():
    with pytest.raises(ValueError):
        parse_theorem_with_proof("theorem t : True := by sorry")


# ---------------------------------------------------------------------------
# ConjectureList
# ---------------------------------------------------------------------------


def test_conjecture_list_rejects_duplicate_bodies():
    items = ConjectureList()
    items.add(stmt("theorem a : 1 = 1 := sorry"))
    assert items.contains(stmt("theorem b : 1  =  1 := sorry"))
    with pytest.raises(ValueError):
        items.add(stmt("theorem c : 1 = 1 := sorry"))
    assert len(items) == 1


def test_importing_cpl_loads_no_hashing_module():
    # `hashlib` loads OpenSSL's bindings, and only scripted fixture keys
    # hash anything.
    code = (
        "import sys, cpl, cpl.cli; "
        "print([m for m in ('hashlib', '_hashlib', 'secrets', 'hmac') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cpl.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "[]\n"


def test_importing_cpl_loads_no_module_only_a_real_session_or_report_needs():
    # `-S`: a site package may import any of these itself.
    src = str(Path(cpl.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import cpl, cpl.orchestrator, cpl.evalharness, cpl.cli; "
        "print([m for m in ('subprocess', 'select', 'selectors', 'signal', 'logging', "
        "'datetime', 'fractions', 'decimal', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_the_demo_run_loads_no_hashing_module(tmp_path, fixtures_dir):
    # Scripted fixtures are keyed by the proof text itself, so nothing in a
    # run hashes.
    config = fixtures_dir / "cpl_demo" / "config.json"
    code = (
        "import sys, cpl.cli; "
        f"assert cpl.cli.main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0; "
        "print([m for m in ('hashlib', '_hashlib', 'secrets', 'hmac') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cpl.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.endswith("[]\n")
    assert (tmp_path / "library.lean").exists()


# ---------------------------------------------------------------------------
# Common prefixes and file writes
# ---------------------------------------------------------------------------


def char_by_char_prefix(text: str, other: str, start: int, other_start: int) -> int:
    """What `_common_prefix` computes, read one char at a time."""
    length = 0
    while (
        start + length < len(text)
        and other_start + length < len(other)
        and text[start + length] == other[other_start + length]
    ):
        length += 1
    return length


def test_common_prefix_agrees_with_a_char_by_char_reading():
    rnd = random.Random(33)
    alphabet = "ab\nℝ⊢\U0001d4d0"  # ASCII, other BMP and astral chars
    cases = [("", "", 0, 0), ("", "ab", 0, 0), ("ab", "", 0, 0), ("ab", "ab", 2, 0), ("ab", "ab", 1, 2)]
    # Heads from empty to many times the first chunk `_common_prefix` compares.
    for size in (0, 1, 7, 255, 256, 257, 511, 553, 1500, 4097, 9000):
        head = "".join(rnd.choices(alphabet, k=size))
        for lead in ("", "x", "ℝ\U0001d4d0"):  # what precedes the head in `text`
            for tail, other_tail in (("", ""), ("", "b"), ("a", ""), ("a", "b"), ("ℝ", "⊢"), ("ab", "ab")):
                text, other = lead + head + tail, head + other_tail
                start = len(lead)
                cases += [(text, other, start, 0), (other, text, 0, start)]
                # An offset into both strings.
                cases.append((text, "yy" + other, start, 2))
                # A range that ends inside its string.
                cases.append((text[: start + size // 2], other, start, 0))
        # Ranges past the head, and empty ranges at the end.
        text = head + "".join(rnd.choices(alphabet, k=20))
        cases += [(text, text, 0, size // 3), (text, head, len(text), 0), (head, text, len(head), 0)]
    for text, other, start, other_start in cases:
        expected = char_by_char_prefix(text, other, start, other_start)
        assert core._common_prefix(text, other, start, other_start) == expected, (
            len(text), len(other), start, other_start
        )


def test_write_file_puts_down_every_byte_of_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    sizes = []

    def write_three_bytes(fd, data):
        sizes.append(len(data))
        return real_write(fd, bytes(data[:3]))

    monkeypatch.setattr(os, "write", write_three_bytes)
    path = tmp_path / "f.jsonl"
    data = "ℕ ≤ \"q\"\n".encode() * 40
    core.write_file(path, data)
    core.write_file(path, data, fsync=True)
    assert path.read_bytes() == data * 2
    core.write_file(path, data, at=7)
    assert path.read_bytes() == data[:7] + data
    # Each of the three writes took one call per 3 bytes.
    assert len(sizes) == 3 * -(-len(data) // 3)


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_file_write_file_creates_gets_the_mode_a_plain_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        core.write_file(tmp_path / "new", b"x\n")
        with open(tmp_path / "opened", "ab"):
            pass
    finally:
        os.umask(previous)
    mode = (tmp_path / "new").stat().st_mode & 0o777
    assert mode == 0o666 & ~umask == (tmp_path / "opened").stat().st_mode & 0o777


def test_a_cut_of_a_missing_file_raises_and_creates_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        core.write_file(tmp_path / "missing", b"x", at=0)
    assert not (tmp_path / "missing").exists()
