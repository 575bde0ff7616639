#!/usr/bin/env python3
"""Show the prover retry loop mechanics in isolation.

A scripted verifier rejects the first two proof attempts with made-up
diagnostics; the loop embeds each failure into the next prompt, and the
third attempt succeeds. The prompts below are exactly what a live model
would receive.

Usage: python demos/prover_feedback_loop.py
"""

from __future__ import annotations

import tempfile

from cpl.core import Library, TheoremStatement
from cpl.gateway import Gateway, ReplayProvider, read_transcript
from cpl.prover import prove
from cpl.verifier import CheckResult, Diagnostic, ScriptedVerifier

SEED = """import Mathlib
namespace Demo

def Involutive (f : ℕ → ℕ) : Prop := ∀ n, f (f n) = n
"""

CONJECTURE = TheoremStatement.from_source(
    "theorem id_involutive : Involutive (fun n => n) := sorry"
)

ATTEMPTS = [
    ("by involutivity", "unknown tactic 'involutivity'"),
    ("by exact fun n => rfl'", "unknown identifier 'rfl''"),
    ("fun n => rfl", None),  # the good one
]


def main() -> None:
    session = ScriptedVerifier(SEED)
    for text, error in ATTEMPTS:
        if error is None:
            session.script("verify_proof", CONJECTURE, CheckResult("verified"), text)
        else:
            session.script(
                "verify_proof",
                CONJECTURE,
                CheckResult(
                    "failed", diagnostics=(Diagnostic("error", 1, 3, error),)
                ),
                text,
            )

    transcript_path = tempfile.mktemp(suffix=".jsonl")
    gateway = Gateway(
        ReplayProvider({"prover": [text for text, _ in ATTEMPTS]}),
        transcript_path=transcript_path,
        sleep=lambda s: None,
    )
    outcome = prove(
        CONJECTURE, Library(seed_source=SEED), session, gateway, max_trials=16
    )

    print(f"outcome: {outcome.status} after {len(outcome.attempts)} trials\n")
    for trial, entry in enumerate(read_transcript(transcript_path), start=1):
        user = entry["request"]["user_content"]
        print(f"--- prompt for trial {trial} " + "-" * 40)
        if "previous attempt:" in user:
            print("  (context elided)")
            print("  " + user[user.index("previous attempt:") :].replace("\n", "\n  "))
        else:
            print("  (context only: seed + the sorry statement, no feedback yet)")
        print(f"  model replied: {entry['response']['text']!r}\n")

    print(f"final proof: {outcome.final_proof.text!r}")


if __name__ == "__main__":
    main()
