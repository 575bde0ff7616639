"""Command-line front end.

Subcommands: `run` (pipeline or baseline), `reprove-all`,
`reprove-focused`, `nl run|grade|report`, `analyze histogram|report`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import evalharness
from .core import TheoremStatement, Library, load_library, write_json
from .events import EventLog, make_clock
from .gateway import FatalGatewayError
from .orchestrator import (
    ResumeConsistencyError,
    RunConfig,
    build_gateway,
    build_verifier,
    run,
)
from .prompts import DEFAULT_NL_STATEMENT
from .verifier import VerifierStartupError


def _config_from_args(args) -> RunConfig:
    if getattr(args, "config", None):
        config = RunConfig.from_file(args.config)
    else:
        config = RunConfig()
    overrides = {
        "seed": "seed_path",
        "loops": "loops",
        "iterations": "conjecture_iterations",
        "max_trials": "max_trials",
        "out": "output_dir",
        "replay": "replay_dir",
        "budget": "context_budget",
        "verifier": "verifier_backend",
        "verifier_fixtures": "verifier_fixtures",
        "variant": "prompt_variant",
    }
    for arg_name, field_name in overrides.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            setattr(config, field_name, value)
    if getattr(args, "resume", False):
        config.resume = True
    return config


def _build_eval_context(args, config: RunConfig, seed_source: str):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    clock = make_clock(config.resolved_clock())
    # `out` may be a run directory: the gateway's transcript and the event
    # log continue its files.
    gateway = build_gateway(config, out, clock)
    session = build_verifier(config, seed_source)
    events = EventLog(out / "events.jsonl", clock=clock)
    return out, gateway, session, events


def _cmd_run(args) -> int:
    mode = args.mode.replace("-", "_")
    config = _config_from_args(args)
    config.mode = mode
    library = run(config)
    print(
        f"{mode} run complete: {len(library.entries)} theorem(s) in "
        f"{Path(config.output_dir) / 'library.lean'}"
    )
    return 0


def _cmd_reprove_all(args) -> int:
    config = _config_from_args(args)
    library = load_library(args.library)
    out, gateway, session, events = _build_eval_context(
        args, config, library.seed_source
    )
    report = evalharness.reprove_all(
        library,
        mode=args.reprove_mode,
        session=session,
        gateway=gateway,
        max_trials=config.max_trials,
        prompt_variant=config.prompt_variant,
        context_budget=config.context_budget,
        temperature=config.temperature,
        max_output=config.max_output,
        events=events,
    )
    path = out / f"reprove_{args.reprove_mode}.json"
    write_json(path, report.to_dict())
    print(
        f"reprove {args.reprove_mode}: {report.success_count}/{report.total} "
        f"({report.percent}) -> {path}"
    )
    return 0


def _cmd_reprove_focused(args) -> int:
    config = _config_from_args(args)
    config.prompt_variant = args.variant or "false"
    statement = TheoremStatement.from_source(
        Path(args.statement).read_text(encoding="utf-8")
    )
    if args.library:
        library = load_library(args.library)
        if args.prefix is not None:
            library = library.prefix(args.prefix)
        if args.reprove_mode == "definitions_only":
            library = Library(seed_source=library.seed_source)
    else:
        if not config.seed_path:
            print("error: provide --library or a config with seed_path", file=sys.stderr)
            return 2
        library = Library(
            seed_source=Path(config.seed_path).read_text(encoding="utf-8")
        )
    out, gateway, session, events = _build_eval_context(
        args, config, library.seed_source
    )
    report = evalharness.reprove_focused(
        statement,
        library,
        session=session,
        gateway=gateway,
        n=args.n,
        max_trials=config.max_trials,
        prompt_variant=config.prompt_variant,
        context_budget=config.context_budget,
        temperature=config.temperature,
        max_output=config.max_output,
        events=events,
    )
    path = out / "reprove_focused.json"
    write_json(path, report.to_dict())
    print(
        f"focused campaign ({report.total} repetitions): "
        f"{json.dumps(report.breakdown)} -> {path}"
    )
    return 0


def _cmd_nl(args) -> int:
    if args.nl_command == "run":
        config = _config_from_args(args)
        statement_text = DEFAULT_NL_STATEMENT
        if args.statement_file:
            statement_text = Path(args.statement_file).read_text(encoding="utf-8")
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        gateway = build_gateway(config, out, make_clock(config.resolved_clock()))
        ids = evalharness.nl_session(
            gateway,
            statement_text=statement_text,
            n=args.n,
            out_dir=out,
            temperature=config.temperature,
            max_output=config.max_output,
        )
        print(f"stored {len(ids)} response(s) under {out / 'nl_responses'}")
        return 0
    if args.nl_command == "grade":
        grade = evalharness.grade_response(
            args.run_dir, args.id, args.category, args.grader, args.note
        )
        print(f"graded {grade.response_id} as {grade.category}")
        return 0
    if args.nl_command == "report":
        try:
            report = evalharness.nl_report(args.run_dir)
        except evalharness.PendingGradesError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report, indent=2))
        return 0
    raise AssertionError(args.nl_command)


def _cmd_analyze(args) -> int:
    if args.analyze_command == "histogram":
        library = load_library(args.library)
        histogram = evalharness.proof_length_histogram(
            library, bin_width=args.bin, metric=args.metric
        )
        for line in evalharness._format_histogram_table(
            histogram, args.bin, args.metric
        ):
            print(line)
        if args.csv:
            evalharness.write_histogram_csv(args.csv, histogram, args.bin, args.metric)
            print(f"wrote {args.csv}")
        return 0
    if args.analyze_command == "report":
        written = evalharness.emit_reports(
            args.run_dir, bin_width=args.bin, metric=args.metric
        )
        for name, path in written.items():
            print(f"wrote {path}")
        return 0
    raise AssertionError(args.analyze_command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpl",
        description="Conjecture, prove, and evaluate Lean 4 theorems with LLM agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups that several subcommands share.
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", help="JSON config file mirroring RunConfig")
    io.add_argument(
        "--replay", help="replay the model exchanges in this run directory's transcript"
    )
    io.add_argument("--out", help="run output directory")
    checking = argparse.ArgumentParser(add_help=False)
    checking.add_argument("--max-trials", dest="max_trials", type=int)
    checking.add_argument("--verifier", choices=["scripted", "lean"])
    checking.add_argument("--verifier-fixtures", dest="verifier_fixtures")
    reprove = argparse.ArgumentParser(add_help=False)
    reprove.add_argument(
        "--mode",
        dest="reprove_mode",
        choices=list(evalharness.REPROVE_MODES),
        default="with_context",
    )
    reprove.add_argument("--variant", choices=["not_provable", "false"])
    histogram = argparse.ArgumentParser(add_help=False)
    histogram.add_argument("--bin", type=int, default=10)
    histogram.add_argument("--metric", choices=["lines", "chars"], default="lines")

    run_p = sub.add_parser(
        "run", parents=[io, checking], help="run the pipeline or the baseline loop"
    )
    run_p.add_argument("--mode", choices=["cpl", "simple-loop"], default="cpl")
    run_p.add_argument("--seed", help="seed Lean file initializing the library")
    run_p.add_argument("--loops", type=int)
    run_p.add_argument("--iterations", type=int, help="conjecturer calls per phase")
    run_p.add_argument("--resume", action="store_true")
    run_p.add_argument("--budget", type=int, help="prompt context budget in characters")
    run_p.set_defaults(func=_cmd_run)

    ra = sub.add_parser(
        "reprove-all", parents=[io, checking, reprove], help="re-prove every library entry"
    )
    ra.add_argument("--library", required=True, help="library.lean file")
    ra.set_defaults(func=_cmd_reprove_all)

    rf = sub.add_parser(
        "reprove-focused",
        parents=[io, checking, reprove],
        help="repeat one statement's campaign",
    )
    rf.add_argument("--statement", required=True, help="Lean file with one ':= sorry' declaration")
    rf.add_argument("--n", type=int, default=evalharness.DEFAULT_FOCUSED_REPETITIONS)
    rf.add_argument("--library", help="library.lean providing context")
    rf.add_argument("--prefix", type=int, help="use only the first N entries")
    rf.set_defaults(func=_cmd_reprove_focused)

    nl = sub.add_parser("nl", help="natural-language comparison session")
    nl_sub = nl.add_subparsers(dest="nl_command", required=True)
    nl_run = nl_sub.add_parser(
        "run", parents=[io], help="collect responses for manual grading"
    )
    nl_run.add_argument("--n", type=int, default=evalharness.DEFAULT_NL_REPETITIONS)
    nl_run.add_argument("--statement-file", dest="statement_file")
    nl_grade = nl_sub.add_parser("grade", help="record a manual grade")
    nl_grade.add_argument("--run-dir", dest="run_dir", required=True)
    nl_grade.add_argument("--id", required=True)
    nl_grade.add_argument(
        "--category", required=True, choices=list(evalharness.NL_CATEGORIES)
    )
    nl_grade.add_argument("--grader", required=True)
    nl_grade.add_argument("--note", default="")
    nl_rep = nl_sub.add_parser("report", help="three-way breakdown (refuses if pending)")
    nl_rep.add_argument("--run-dir", dest="run_dir", required=True)
    nl.set_defaults(func=_cmd_nl)

    an = sub.add_parser("analyze", help="post-hoc analysis of a run")
    an_sub = an.add_subparsers(dest="analyze_command", required=True)
    an_hist = an_sub.add_parser(
        "histogram", parents=[histogram], help="proof-length histogram"
    )
    an_hist.add_argument("--library", required=True)
    an_hist.add_argument("--csv", help="also write CSV here")
    an_rep = an_sub.add_parser(
        "report", parents=[histogram], help="emit report.json and tables"
    )
    an_rep.add_argument("--run-dir", dest="run_dir", required=True)
    an.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FatalGatewayError as exc:
        print(f"fatal gateway error: {exc}", file=sys.stderr)
        return 1
    except VerifierStartupError as exc:
        print(f"verifier startup error: {exc}", file=sys.stderr)
        for diag in getattr(exc, "diagnostics", ()):
            print(f"  {diag.format()}", file=sys.stderr)
        return 1
    except ResumeConsistencyError as exc:
        print(f"resume error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
