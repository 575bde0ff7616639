#!/usr/bin/env python3
"""Template for a live run: real chat API, real Lean toolchain.

Running the pipeline for real needs two external pieces:

  1. a chat-completions endpoint and credential (CPL_API_KEY), and
  2. a Lean REPL inside a project that depends on Mathlib
     (CPL_LEAN_REPL_CMD, e.g. "lake env repl", plus CPL_LEAN_REPL_CWD).

This script assembles the full default-constant configuration (30
loops, 16 conjecturer iterations per phase, 16 prover trials) and
starts the run only when both pieces are configured; otherwise it
prints the config and stops. The run's transcript.jsonl records every
model exchange, so `cpl run --replay <output_dir> --out <new dir>`
replays the run later without the endpoint.

Usage: python demos/live_run_template.py <seed.lean> <output_dir>
"""

from __future__ import annotations

import json
import os
import shlex
import sys

from cpl.orchestrator import RunConfig, run


def main() -> None:
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    seed_path, out_dir = sys.argv[1], sys.argv[2]

    config = RunConfig(
        mode="cpl",
        seed_path=seed_path,
        output_dir=out_dir,
        # defaults: loops=30, conjecture_iterations=16, max_trials=16
        endpoint="https://api.openai.com/v1/chat/completions",
        models={
            "conjecturer": "gpt-4o",
            "prover": "o3",
            "simple_loop": "o3",
            "nl_prover": "o3",
        },
        verifier_backend="lean",
        lean_command=shlex.split(os.environ.get("CPL_LEAN_REPL_CMD", "")),
        lean_cwd=os.environ.get("CPL_LEAN_REPL_CWD"),
    )
    print("run configuration:")
    print(json.dumps(config.public_dict(), indent=2, default=str))

    missing = []
    if not os.environ.get("CPL_API_KEY"):
        missing.append("CPL_API_KEY")
    if not config.lean_command:
        missing.append("CPL_LEAN_REPL_CMD")
    if missing:
        print(f"\nnot starting: set {', '.join(missing)} first.")
        print("every exchange would be recorded in "
              f"{os.path.join(out_dir, 'transcript.jsonl')} for deterministic "
              "replay later.")
        return

    print("\nstarting live run (the first verifier session imports "
          "Mathlib; expect minutes before loop 1)...")
    library = run(config)
    print(f"done: {len(library.entries)} theorems in {out_dir}/library.lean")


if __name__ == "__main__":
    main()
