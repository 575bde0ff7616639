"""Run one benchmark workload against the checkout's cpl and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's inputs (see gen.py). Fresh worker
processes then run the workload one after another, each one repetition
in its own interpreter, until S seconds have passed (and at least
MIN_REPS times). Every repetition checks its outputs. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
repetitions alternate untraced and traced, and the metrics are the
per-layer ones from the traced repetitions.

Exit status: 0 when every check passed, 1 when a check or a repetition
failed, 2 when the checkout has no cpl sources to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from fakes import load_model  # noqa: E402
from gen import WORKLOADS, generate  # noqa: E402

WORK = ROOT / ".perfbench_work"
SPANS_OUT = ROOT / ".perfbench_out"
SEED_FIXTURE = ROOT / "tests" / "fixtures" / "seed.lean"
MIN_REPS = 3
REP_TIMEOUT_S = 120
STOP_STARTING_S = 150  # no repetition starts after this, so a run ends within 180 s


def declared_units() -> dict[str, str]:
    """Name → unit of every metric BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for part in ("end_to_end", "per_layer") for m in declared[part]}


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(results: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    loops = [x for r in results for x in r["loops"]]
    campaigns = [x for r in results for x in r["campaigns"]]
    resumes = [x for r in results for x in r["resume_s"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "s_per_theorem": statistics.median(r["wall_s"] / r["theorems"] for r in results),
        "loop_s_p50": statistics.median(loops),
        "campaign_s_p50": statistics.median(campaigns),
        "campaign_s_p95": _percentile(campaigns, 0.95),
        "resume_s": statistics.median(resumes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "run_dir_mb": statistics.median(r["run_dir_bytes"] / 1e6 for r in results),
    }
    samples = {
        "setup_s": len(results),
        "wall_s": len(results),
        "s_per_theorem": len(results),
        "loop_s_p50": len(loops),
        "campaign_s_p50": len(campaigns),
        "campaign_s_p95": len(campaigns),
        "resume_s": len(resumes),
        "peak_rss_mb": len(results),
        "run_dir_mb": len(results),
    }
    return values, samples


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    values["trace.overhead_share"] = traced_wall / untraced_wall - 1
    values["samples.reps"] = len(untraced) + len(traced)
    values["samples.loops"] = sum(len(r["loops"]) for r in untraced)
    values["samples.campaigns"] = sum(len(r["campaigns"]) for r in untraced)
    return values


def _write_inputs(workload: str, seed: int, work: Path, size: str) -> None:
    seed_source = SEED_FIXTURE.read_text(encoding="utf-8")
    share = load_model()["provider"]["transport_failure_share"]
    plan, files = generate(workload, seed, seed_source, size=size, failure_share=share)
    for relative, text in files.items():
        path = work / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")


def _run_rep(work: Path, index: int, traced: bool) -> dict:
    rep = work / f"rep-{index}"
    rep.mkdir()
    if (work / "run").is_dir():
        shutil.copytree(work / "run", rep / "run")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), str(rep), repr(spawned), str(int(traced))],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"repetition {index} exited with {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    result = json.loads((rep / "result.json").read_text(encoding="utf-8"))
    result["traced"] = traced
    result["rep_dir"] = rep
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> list[dict]:
    """Repetitions of one workload until `seconds` have passed; their results."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        _write_inputs(workload, seed, work, size)
        results: list[dict] = []
        started = time.monotonic()
        longest = 0.0
        while True:
            untraced_count = sum(not r["traced"] for r in results)
            elapsed = time.monotonic() - started
            enough = untraced_count >= MIN_REPS and (not trace or len(results) >= 2 * MIN_REPS)
            if enough and elapsed >= seconds:
                break
            if results and elapsed + longest > STOP_STARTING_S:
                break
            rep_started = time.monotonic()
            traced = trace and len(results) % 2 == 1
            result = _run_rep(work, len(results), traced)
            longest = max(longest, time.monotonic() - rep_started)
            if traced:
                SPANS_OUT.mkdir(exist_ok=True)
                shutil.copy(result["rep_dir"] / "spans.jsonl",
                            SPANS_OUT / f"spans-{workload}-seed{seed}.jsonl")
            shutil.rmtree(result.pop("rep_dir"))
            results.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cpl" / "__init__.py").is_file() or not SEED_FIXTURE.is_file():
        print(f"no cpl checkout at {ROOT}: src/cpl or tests/fixtures/seed.lean is missing",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    try:
        results = run(args.workload, args.seed, args.seconds, bool(args.trace))
        error = None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        results, error = [], str(exc)
    if error is not None or not results:
        print(error or "no repetition ran", file=sys.stderr)
        return 1

    failures = sorted({f for r in results for f in r["failures"]})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    untraced = [r for r in results if not r["traced"]]
    units = declared_units()
    print(f"workload {args.workload} seed {args.seed}: {len(results)} repetitions "
          "(modelled latencies, see perfbench/model.json)")
    if args.trace:
        metrics = per_layer(untraced, [r for r in results if r["traced"]])
        metrics["failed_share"] = failed / attempted
        for name, value in metrics.items():
            if name != "failed_share":
                print(f"  {name} = {value:.6g} {units[name]}")
    else:
        metrics, samples = end_to_end(untraced)
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]} (n={samples[name]})")
    print(f"  failed_share = {failed / attempted:.6g} ({failed}/{attempted})")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
