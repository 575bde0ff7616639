#!/usr/bin/env python3
"""Regenerate the bundled deterministic demo run fixtures (cpl_demo/).

The demo drives three pipeline loops from recorded model responses and
a scripted verifier map. Every library entry it produces is real Lean
that elaborates over the seed file, so the resulting library.lean can
also be checked end-to-end when a toolchain is available.

The recorded responses are the transcript of the demo run itself,
`cpl_demo/responses/transcript.jsonl`: this script runs the demo once
from in-memory replies and keeps its transcript, with latencies set to
0 so that the file is the same on every run.

Run from the repository root:  python tests/fixtures/generate_cpl_demo.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from cpl.core import parse_theorem_declarations
from cpl.events import FixedClock
from cpl.gateway import Gateway, ReplayProvider
from cpl.orchestrator import RunConfig, run

HERE = Path(__file__).parent
DEMO = HERE / "cpl_demo"

S_EMPTY = "theorem alphaOpen_empty : AlphaOpen (∅ : Set X) := sorry"
S_UNIV = "theorem alphaOpen_univ : AlphaOpen (Set.univ : Set X) := sorry"
S_SEMI = (
    "theorem semiOpen_of_isOpen {A : Set X} (hA : IsOpen A) : SemiOpen A := sorry"
)
S_TRIVIAL = "theorem trivial_eq : (1 : ℕ) = 1 := sorry"
S_BROKEN = "theorem broken_decl : (1 : ℕ) = := sorry"
S_PREOPEN = (
    "theorem preOpen_of_isOpen {A : Set X} (hA : IsOpen A) : PreOpen A := sorry"
)

P_EMPTY = "Set.empty_subset _"
P_UNIV_BAD = "by\n  simp [AlphaOpen, interior_univ, closure_empty]"
P_UNIV_GOOD = "by\n  simp [AlphaOpen]"
P_PREOPEN = "hA.subset_interior_iff.mpr subset_closure"
P_INTER_BAD = "by\n  intro x hx\n  exact hx"


def body_of(source: str) -> str:
    (stmt,) = parse_theorem_declarations(source)
    return " ".join(stmt.body.split())


def main(demo: Path = DEMO) -> None:
    """Write the fixtures into `demo`, which reads the seed from
    `../seed.lean` beside it."""
    focused_decl = (HERE / "alpha_open_intersection.lean").read_text(
        encoding="utf-8"
    )
    head, _, proof = focused_decl.partition(":= ")
    assert proof.startswith("by"), "focused fixture must be a 'by' proof"
    s_inter = head.rstrip() + " := sorry"
    p_inter_good = proof.rstrip("\n")

    conjecturer = [
        # loop 1, iteration 1: prose around a fenced block with two statements
        "Here are two basic conjectures about the defined notions.\n\n"
        "```lean\n" + S_EMPTY + "\n\n" + S_UNIV + "\n```\n",
        # loop 1, iteration 2: a duplicate, a non-sorry declaration, a
        # syntactically broken one, an already-derivable one, a keeper
        S_EMPTY
        + "\n\ntheorem already_proved : True := by trivial\n\n"
        + S_BROKEN
        + "\n\n"
        + S_TRIVIAL
        + "\n\n"
        + S_SEMI
        + "\n",
        # loop 2
        "```lean\n" + S_PREOPEN + "\n```\n",
        "I have no further conjectures beyond the current list.",
        # loop 3
        s_inter + "\n",
        "Nothing new to add this round.",
    ]

    prover = [
        P_EMPTY,
        P_UNIV_BAD,
        "```lean\n" + P_UNIV_GOOD + "\n```",
        "",  # surrender on the semi-open statement
        P_PREOPEN,
        P_INTER_BAD,
        p_inter_good,
    ]

    checks = []

    def validity(source: str, verdict: str = "valid", diagnostics=None) -> None:
        checks.append(
            {
                "op": "check_validity",
                "statement": body_of(source),
                "verdict": verdict,
                "diagnostics": diagnostics or [],
            }
        )

    def novelty(source: str, verdict: str = "novel", closing_term=None) -> None:
        checks.append(
            {
                "op": "check_novelty",
                "statement": body_of(source),
                "verdict": verdict,
                "closing_term": closing_term,
            }
        )

    def proof_check(source: str, proof_text: str, verdict: str, diagnostics=None):
        checks.append(
            {
                "op": "verify_proof",
                "statement": body_of(source),
                "proof": proof_text,
                "verdict": verdict,
                "diagnostics": diagnostics or [],
            }
        )

    for source in (S_EMPTY, S_UNIV, S_SEMI, S_TRIVIAL, S_PREOPEN, s_inter):
        validity(source)
    validity(
        S_BROKEN,
        "invalid",
        [
            {
                "severity": "error",
                "line": 1,
                "column": 42,
                "message": "unexpected token ':='; expected term",
            }
        ],
    )
    for source in (S_EMPTY, S_UNIV, S_SEMI, S_PREOPEN, s_inter):
        novelty(source)
    novelty(S_TRIVIAL, "known", closing_term="rfl")

    proof_check(S_EMPTY, P_EMPTY, "verified")
    proof_check(
        S_UNIV,
        P_UNIV_BAD,
        "failed",
        [
            {
                "severity": "error",
                "line": 2,
                "column": 2,
                "message": "simp made no progress",
            }
        ],
    )
    proof_check(S_UNIV, P_UNIV_GOOD, "verified")
    proof_check(S_PREOPEN, P_PREOPEN, "verified")
    proof_check(
        s_inter,
        P_INTER_BAD,
        "failed",
        [
            {
                "severity": "error",
                "line": 3,
                "column": 8,
                "message": (
                    "type mismatch: hx has type x ∈ A ∩ B but is expected "
                    "to have type x ∈ interior (closure (interior (A ∩ B)))"
                ),
            }
        ],
    )
    proof_check(s_inter, p_inter_good, "verified")

    demo.mkdir(exist_ok=True)
    (demo / "verifier.json").write_text(
        json.dumps({"checks": checks}, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )

    config = {
        "mode": "cpl",
        "seed_path": "../seed.lean",
        "loops": 3,
        "conjecture_iterations": 2,
        "max_trials": 16,
        "context_budget": 400000,
        "replay_dir": "responses",
        "verifier_backend": "scripted",
        "verifier_fixtures": "verifier.json",
        "clock": "fixed",
    }
    (demo / "config.json").write_text(
        json.dumps(config, indent=2) + "\n", encoding="utf-8"
    )
    write_transcript({"conjecturer": conjecturer, "prover": prover}, demo)
    print(f"wrote fixtures under {demo}")


def write_transcript(replies: dict[str, list[str]], demo: Path) -> None:
    """Run the demo on `replies` and keep its transcript as the fixture."""
    responses = demo / "responses"
    shutil.rmtree(responses, ignore_errors=True)
    responses.mkdir()
    with tempfile.TemporaryDirectory() as tmp:
        config = RunConfig.from_file(demo / "config.json")
        config.output_dir = tmp
        transcript = Path(tmp) / "transcript.jsonl"
        gateway = Gateway(
            ReplayProvider(replies), transcript_path=transcript, clock=FixedClock()
        )
        run(config, gateway=gateway)
        with open(transcript, encoding="utf-8") as source, open(
            responses / "transcript.jsonl", "w", encoding="utf-8"
        ) as target:
            for line in source:
                entry = json.loads(line)
                entry["response"]["latency"] = 0.0
                target.write(json.dumps(entry, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
