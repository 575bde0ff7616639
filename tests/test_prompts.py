"""Pin the default role prompts byte for byte.

These strings are part of the pipeline's tuned behavior (quirks and
all); any change must be deliberate and show up here.
"""

from __future__ import annotations

from cpl.prompts import (
    CONJECTURER_PROMPT,
    DEFAULT_NL_STATEMENT,
    NL_PROVER_PROMPT,
    PROVER_FALSE_PROMPT,
    PROVER_PROMPT,
    PROVER_PROMPT_VARIANTS,
    SIMPLE_LOOP_PROMPT,
)


def test_conjecturer_prompt_frozen():
    assert CONJECTURER_PROMPT == (
        "Your are a writer of mathlib4 library. Please generate conjectures "
        "of new theorems in Lean 4 format, which do not need to be "
        "definitely true, following a given library. Do not generate "
        "statements that are already on the list. Do not include proofs, "
        "annotations, or imports. The new theorems begin with 'theorem', "
        "not any annotions. They should end with ':= sorry'. Additionally, "
        "please use standard mathematical symbols (e.g., ∀, ∃, "
        "√) instead of Unicode escape sequences (e.g., \\u2200)."
    )


def test_prover_prompt_frozen():
    assert PROVER_PROMPT == (
        "You are a prover of mathlib4 library. Please prove the last "
        "theorem in the given content in Lean 4 format. You should write "
        'the Lean4 code which directly follows ":=" in the last theorem. '
        "It should begin with 'by' or represent a term directly. You can "
        "use the theorems in the given content as lemmas. Do not use sorry "
        "in the proof. If you judge that the theorem is not provable, "
        "please return empty string instead of the proof. Do not include "
        "any other text."
    )


def test_false_variant_changes_only_the_surrender_condition():
    assert PROVER_FALSE_PROMPT == PROVER_PROMPT.replace(
        "is not provable", "is false"
    )
    assert PROVER_PROMPT_VARIANTS == {
        "not_provable": PROVER_PROMPT,
        "false": PROVER_FALSE_PROMPT,
    }


def test_simple_loop_prompt_frozen():
    assert SIMPLE_LOOP_PROMPT == (
        "Your are a writer of mathlib4 library. Please generate a new "
        "theorem with a proof in Lean 4 format, following a given library. "
        "Do not return anything else than the Lean 4 code. The generated "
        "code should follow the given library. The generated code should "
        "contain only the theorem and the proof. Do not generate a theorem "
        "that are already on the library. The new theorem should begin "
        "with 'theorem', not any annotions. You can use the theorems in "
        "the given library as lemmas in the proof. Do not use sorry in the "
        "proof. Additionally, please use standard mathematical symbols "
        "(e.g., ∀, ∃, √) instead of Unicode escape "
        "sequences (e.g., \\u2200)."
    )


def test_nl_prompt_and_statement_frozen():
    assert NL_PROVER_PROMPT == (
        "Please prove the following theorem. If you judge that the theorem "
        'is false, please return "False" instead of the proof.'
    )
    assert DEFAULT_NL_STATEMENT == (
        "In a topological space, a set is alpha-open if it is a subset of "
        "the interior of the closure of its interior. The intersection of "
        "any two alpha-open sets is alpha-open."
    )


def test_escape_sequence_mention_is_literal_backslash():
    # The prompt must show the model a backslash-u sequence, not the
    # already-decoded character.
    assert "\\u2200" in CONJECTURER_PROMPT
    assert "\\u2200" in SIMPLE_LOOP_PROMPT
    assert not CONJECTURER_PROMPT.endswith("∀).")
