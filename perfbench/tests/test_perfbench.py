"""Tests of the benchmark itself (not of cpl).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run as bench  # noqa: E402
from fakes import FakeReplClient  # noqa: E402

SEED_SOURCE = (ROOT / "tests" / "fixtures" / "seed.lean").read_text(encoding="utf-8")
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = gen.generate(workload, 7, SEED_SOURCE, size="tiny", failure_share=0.05)
    again = gen.generate(workload, 7, SEED_SOURCE, size="tiny", failure_share=0.05)
    other = gen.generate(workload, 8, SEED_SOURCE, size="tiny", failure_share=0.05)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)


def test_fake_repl_diagnostics_survive_rebasing():
    from cpl.core import Library, ProofScript, TheoremStatement, render_context
    from cpl.verifier import FAILED, INVALID, KNOWN, NOVEL, VALID, VERIFIED, LeanVerifier

    body = "{A B : Set X} (hA : SemiOpen A) (hB : IsOpen B) : A ∩ B ⊆ closure A"
    lemma = TheoremStatement.from_source(f"theorem lemma_1 {body} := sorry")
    library = Library(seed_source=SEED_SOURCE).append(
        lemma, ProofScript("by\n  intro x hx\n  exact subset_closure hx.1"), "cpl", gen.FIXED_INSTANT
    )

    def stmt(name):
        return TheoremStatement.from_source(f"theorem {name} {body.replace('A ∩ B', 'B ∩ A')} := sorry")

    good, bad, known = stmt("good"), stmt("bad"), stmt("known")
    proof_ok = "by\n  intro x hx\n  exact subset_closure hx.2"
    proof_bad = "by\n  intro x hx\n  simp"
    table = {
        "validity": {"good": True, "bad": False, "known": True},
        "novelty": {"good": None, "known": "fun x hx => hx"},
        "proofs": {("good", proof_ok): True, ("good", proof_bad): False},
    }
    session = LeanVerifier(SEED_SOURCE, command=[], client=FakeReplClient(table))
    context = render_context(library, [], 400_000)

    valid = session.check_validity(context, good)
    assert valid.verdict == VALID
    assert [d.message for d in valid.diagnostics] == ["declaration uses 'sorry'"]
    assert valid.diagnostics[0].line == 1  # kept: it sits on the checked declaration
    invalid = session.check_validity(context, bad)
    assert invalid.verdict == INVALID
    assert invalid.diagnostics[0].message == "unknown identifier 'hC'"
    assert invalid.diagnostics[0].column > 0  # not clamped to 1:0 as a context error
    assert session.check_novelty(context, good).verdict == NOVEL
    found = session.check_novelty(context, known)
    assert (found.verdict, found.closing_term) == (KNOWN, "fun x hx => hx")
    assert session.verify_proof(context, good, ProofScript(proof_ok)).verdict == VERIFIED
    failed = session.verify_proof(context, good, ProofScript(proof_bad))
    assert failed.verdict == FAILED
    assert (failed.diagnostics[0].line, failed.diagnostics[0].column) == (3, 2)


@pytest.fixture(scope="module")
def tiny_runs():
    return {
        workload: bench.run(workload, 3, 0, trace=True, size="tiny")
        for workload in gen.WORKLOADS
    }


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_passes_its_checks(tiny_runs, workload):
    results = tiny_runs[workload]
    assert results and all(not r["failures"] for r in results)
    assert sum(r["failed"] for r in results) == 0
    values, _samples = bench.end_to_end([r for r in results if not r["traced"]])
    assert all(value > 0 for value in values.values())


def test_printed_metrics_are_declared(tiny_runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for results in tiny_runs.values():
        untraced = [r for r in results if not r["traced"]]
        values, _samples = bench.end_to_end(untraced)
        layers = bench.per_layer(untraced, [r for r in results if r["traced"]])
        layers["failed_share"] = 0.0
        for part, printed in (("end_to_end", values), ("per_layer", layers)):
            assert set(printed) == {m["name"] for m in declared[part]}
            assert all(METRIC_NAME.fullmatch(name) for name in printed)


def test_fails_without_cpl_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cpl-latency", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
