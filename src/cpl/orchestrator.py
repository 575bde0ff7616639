"""Top-level run drivers: the conjecture/prove pipeline, the single-call
baseline loop, configuration, persistence, and resumption.

A run directory holds `library.lean` (written atomically at the start,
then each new entry appended and fsynced before its `theorem_added`
event), `events.jsonl` (append-only, flushed per event),
`transcript.jsonl` (every model exchange, read through
`gateway.read_transcript`), `prompts/` (each distinct long user context
of the transcript, stored once), and `report.json` (summary written at the
end). A resume cuts the event log, the transcript and any recordings
back to the last committed loop, and rewrites `library.lean` to the
committed entries, which drops any partial block a crash left at its end.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .conjecture import PhaseAborted, run_conjecture_phase
from .core import (
    ENTRY_MARKER,
    Library,
    dump_library,
    keep_lines,
    library_blocks,
    parse_theorem_with_proof,
    render_context,
    save_library,
)
from .events import (
    EventLog,
    make_clock,
    read_events,
    replay_library,
    truncate_events,
)
from .gateway import (
    ROLE_IDS,
    ChatRequest,
    FatalGatewayError,
    Gateway,
    HttpChatProvider,
    RecordingProvider,
    ReplayProvider,
)
from .prompts import SIMPLE_LOOP_PROMPT
from .prover import STATUS_VERIFIED, Unusable, prove, run_trials
from .verifier import open_session

MODES = ("cpl", "simple_loop")

MODE_DEFAULT_LOOPS = {"cpl": 30, "simple_loop": 400}

DEFAULT_MODELS = {
    "conjecturer": "gpt-4o",
    "prover": "o3",
    "simple_loop": "o3",
    "nl_prover": "o3",
}

_PATH_FIELDS = (
    "seed_path",
    "output_dir",
    "record_dir",
    "replay_dir",
    "verifier_fixtures",
    "lean_cwd",
)


class ResumeConsistencyError(RuntimeError):
    pass


@dataclass
class RunConfig:
    mode: str = "cpl"
    seed_path: str | None = None
    loops: int | None = None  # None → mode default (cpl 30, simple_loop 400)
    conjecture_iterations: int = 16
    max_trials: int = 16
    context_budget: int = 400_000
    output_dir: str = "run_output"
    resume: bool = False
    prompt_variant: str = "not_provable"
    # provider settings
    provider: str = "http"  # http | replay
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    api_key_env: str = "CPL_API_KEY"
    models: dict = field(default_factory=lambda: dict(DEFAULT_MODELS))
    temperature: float = 1.0
    max_output: int = 16384
    retry_cap: int = 3
    rate_limit_rps: float | None = 1.0
    record_dir: str | None = None
    replay_dir: str | None = None
    # verifier settings
    verifier_backend: str = "scripted"  # scripted | lean
    verifier_fixtures: str | None = None
    lean_command: list = field(default_factory=list)
    lean_cwd: str | None = None
    command_timeout: float = 120.0
    novelty_timeout: float = 300.0
    # determinism
    clock: str | None = None  # None → "fixed" when replaying, else "system"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def resolved_loops(self) -> int:
        if self.loops is not None:
            return self.loops
        return MODE_DEFAULT_LOOPS[self.mode]

    def resolved_clock(self) -> str:
        if self.clock is not None:
            return self.clock
        return "fixed" if self.replay_dir else "system"

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**data)
        # Paths in a config file are relative to the file itself.
        for name in _PATH_FIELDS:
            value = getattr(config, name)
            if value is not None and not Path(value).is_absolute():
                setattr(config, name, str((path.parent / value).resolve()))
        return config

    def public_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["loops"] = self.resolved_loops()
        data["clock"] = self.resolved_clock()
        return data


def build_gateway(config: RunConfig, output_dir: Path, clock) -> Gateway:
    if config.provider == "replay":
        if not config.replay_dir:
            raise FatalGatewayError("replay provider selected but no replay_dir set")
        provider = ReplayProvider.from_dir(config.replay_dir)
        rate = None
    elif config.provider == "http":
        provider = HttpChatProvider(
            endpoint=config.endpoint,
            models=config.models,
            api_key_env=config.api_key_env,
        )
        rate = config.rate_limit_rps
    else:
        raise FatalGatewayError(f"unknown provider {config.provider!r}")
    if config.record_dir:
        provider = RecordingProvider(provider, config.record_dir)
        if not config.resume:
            # A fresh run starts each role's records empty, as a resume
            # with no committed calls does.
            for role in ROLE_IDS:
                provider.fast_forward(role, 0)
    return Gateway(
        provider,
        retry_cap=config.retry_cap,
        rate_limit_rps=rate,
        transcript_path=output_dir / "transcript.jsonl",
        clock=clock,
    )


def build_verifier(config: RunConfig, seed_source: str):
    return open_session(
        seed_source,
        backend=config.verifier_backend,
        fixtures=config.verifier_fixtures,
        command=list(config.lean_command) or None,
        cwd=config.lean_cwd,
        command_timeout=config.command_timeout,
        novelty_timeout=config.novelty_timeout,
    )


def _read_seed(config: RunConfig) -> str:
    if not config.seed_path:
        raise ValueError("seed_path is required for this mode")
    return Path(config.seed_path).read_text(encoding="utf-8")


def _write_json(path: Path, data: dict) -> None:
    path.write_text(
        json.dumps(data, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


@dataclass
class _ResumePoint:
    library: Library
    completed_loops: int
    next_sequence: int
    gateway_calls: dict
    finished: bool


def _load_resume_point(
    config: RunConfig, seed: str, events_path: Path, library_path: Path
) -> _ResumePoint:
    if not events_path.exists():
        raise ResumeConsistencyError(f"cannot resume: {events_path} does not exist")
    if not library_path.exists():
        raise ResumeConsistencyError(f"cannot resume: {library_path} does not exist")
    events = read_events(events_path)
    replayed = replay_library(events, seed)
    expected = dump_library(replayed)
    # A crash mid-append can cut the last block inside a character.
    actual = library_path.read_bytes().decode("utf-8", errors="replace")
    if actual != expected and not actual.startswith(expected.rstrip("\n")):
        # Find the first divergent entry for the error message.
        expected_blocks = library_blocks(expected)
        actual_blocks = library_blocks(actual)
        pairs = zip(expected_blocks, actual_blocks)
        for i, ((exp_marker, exp), (act_marker, act)) in enumerate(pairs):
            if exp_marker.group(0) != act_marker.group(0) or exp != act:
                name = replayed.entries[i].statement.name
                raise ResumeConsistencyError(
                    f"library file diverges from event log at entry {i} ({name})"
                )
        raise ResumeConsistencyError(
            "library file diverges from event log "
            f"(file has {len(actual_blocks)} entries, log has "
            f"{len(expected_blocks)})"
        )

    if any(e.kind == "run_complete" for e in events):
        return _ResumePoint(
            library=replayed,
            completed_loops=0,
            next_sequence=events[-1].sequence + 1,
            gateway_calls={},
            finished=True,
        )

    # Roles with no committed calls are rewound too, to 0.
    no_calls = dict.fromkeys(ROLE_IDS, 0)
    ends = [i for i, event in enumerate(events) if event.kind == "loop_complete"]
    if not ends:
        truncate_events(events_path, 0)
        return _ResumePoint(
            library=Library(seed_source=seed),
            completed_loops=0,
            next_sequence=0,
            gateway_calls=no_calls,
            finished=False,
        )
    boundary = events[ends[-1]]
    truncate_events(events_path, ends[-1] + 1)
    committed = boundary.payload["library_size"]
    library = Library(seed_source=seed, entries=replayed.entries[:committed])
    return _ResumePoint(
        library=library,
        completed_loops=boundary.payload["loop"],
        next_sequence=boundary.sequence + 1,
        gateway_calls=no_calls | boundary.payload.get("gateway_calls", {}),
        finished=False,
    )


def _prepare_run(config: RunConfig, gateway, session, listener):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = _read_seed(config)
    clock = make_clock(config.resolved_clock())
    events_path = out / "events.jsonl"
    library_path = out / "library.lean"
    transcript_path = out / "transcript.jsonl"

    if config.resume:
        point = _load_resume_point(config, seed, events_path, library_path)
    else:
        events_path.unlink(missing_ok=True)
        transcript_path.unlink(missing_ok=True)
        point = _ResumePoint(
            library=Library(seed_source=seed),
            completed_loops=0,
            next_sequence=0,
            gateway_calls={},
            finished=False,
        )
        # the library file exists from the start, even for runs that
        # never manage an append
        save_library(point.library, library_path)

    if gateway is None:
        gateway = build_gateway(config, out, clock)
    if session is None:
        session = build_verifier(config, seed)

    events = EventLog(
        events_path, clock=clock, start_sequence=point.next_sequence, listener=listener
    )
    if config.resume and not point.finished:
        rolled_back = 0
        if library_path.exists():
            on_disk = library_path.read_bytes().decode("utf-8", errors="replace")
            rolled_back = len(ENTRY_MARKER.findall(on_disk))
            rolled_back -= len(point.library.entries)
        save_library(point.library, library_path)
        if transcript_path.exists():
            # One line per gateway call: keep the committed loops' calls.
            keep_lines(
                transcript_path, sum(point.gateway_calls.values()), fsync=False
            )
        gateway.fast_forward(point.gateway_calls)
        events.emit(
            "warning",
            message=(
                f"resumed at loop {point.completed_loops + 1}; rolled back "
                f"{max(0, rolled_back)} uncommitted entr"
                f"{'y' if rolled_back == 1 else 'ies'}"
            ),
        )
    # Not the point itself: a run loop holding it would keep the first
    # library, and that library's rendering, alive for the whole run.
    return (
        out, clock, gateway, session, events, library_path,
        point.library, point.completed_loops, point.finished,
    )


def _finish_run(
    config: RunConfig, out: Path, events: EventLog, gateway, library: Library
) -> None:
    events.emit(
        "run_complete",
        loops=config.resolved_loops(),
        library_size=len(library),
        gateway_calls=dict(gateway.calls_by_role),
    )
    _write_json(
        out / "report.json",
        {
            "mode": config.mode,
            "loops": config.resolved_loops(),
            "library_entries": len(library),
            "gateway_calls": dict(gateway.calls_by_role),
            "config": config.public_dict(),
        },
    )


def _append_verified(
    library: Library,
    library_path: Path,
    events: EventLog,
    clock,
    statement,
    proof,
    provenance: str,
    loop: int,
) -> Library:
    library = library.append(statement, proof, provenance, clock.now())
    save_library(library, library_path, on_disk=len(library) - 1)
    entry = library.entries[-1]
    events.emit(
        "theorem_added",
        loop=loop,
        sequence_index=entry.sequence_index,
        name=entry.statement.name,
        body=entry.statement.body,
        statement=entry.statement.source_text,
        proof=entry.proof.text,
        provenance=entry.provenance,
        created_at=entry.created_at,
    )
    return library


def run_cpl(
    config: RunConfig, gateway=None, session=None, listener=None
) -> Library:
    """Run the full pipeline: conjecture phase, then prove, then append."""
    (
        out, clock, gateway, session, events, library_path, library, completed, finished
    ) = _prepare_run(config, gateway, session, listener)
    if finished:
        events.close()
        return library
    loops = config.resolved_loops()
    try:
        for loop in range(completed + 1, loops + 1):
            events.emit(
                "phase_start",
                loop=loop,
                phase="conjecture",
                library_size=len(library),
                gateway_calls=dict(gateway.calls_by_role),
            )
            try:
                report = run_conjecture_phase(
                    library,
                    session,
                    gateway,
                    iterations=config.conjecture_iterations,
                    context_budget=config.context_budget,
                    temperature=config.temperature,
                    max_output=config.max_output,
                    events=events,
                    loop=loop,
                )
            except PhaseAborted as exc:
                raise exc.cause from exc
            events.emit(
                "phase_start",
                loop=loop,
                phase="prove",
                report=report.to_payload(),
            )
            # The context the provers see is the library as it stood when
            # the loop began; successes land in the library (and on disk)
            # immediately but only enter contexts next loop.
            snapshot = library
            for stmt in report.accepted:
                outcome = prove(
                    stmt,
                    snapshot,
                    session,
                    gateway,
                    max_trials=config.max_trials,
                    prompt_variant=config.prompt_variant,
                    context_budget=config.context_budget,
                    temperature=config.temperature,
                    max_output=config.max_output,
                    events=events,
                    event_extra={"loop": loop},
                )
                if outcome.status == STATUS_VERIFIED:
                    library = _append_verified(
                        library,
                        library_path,
                        events,
                        clock,
                        stmt,
                        outcome.final_proof,
                        "cpl",
                        loop,
                    )
            events.emit(
                "loop_complete",
                loop=loop,
                library_size=len(library),
                gateway_calls=dict(gateway.calls_by_role),
            )
        _finish_run(config, out, events, gateway, library)
    finally:
        events.close()
    return library


def _read_declaration(reply: str):
    """The simple loop's trial step: the reply is a whole declaration.

    An empty reply is a failed trial here, not a surrender.
    """
    try:
        if not reply.strip():
            raise ValueError("empty response")
        return (reply, *parse_theorem_with_proof(reply))
    except ValueError as exc:
        raise Unusable(reply, f"unusable declaration: {exc}") from exc


def run_simple_loop(
    config: RunConfig, gateway=None, session=None, listener=None
) -> Library:
    """Baseline: one model call emits statement and proof together."""
    (
        out, clock, gateway, session, events, library_path, library, completed, finished
    ) = _prepare_run(config, gateway, session, listener)
    if finished:
        events.close()
        return library
    loops = config.resolved_loops()

    def emit(trial, text, statement, proof, result) -> None:
        payload = {"loop": iteration, "trial": trial}
        if statement is not None:
            payload.update(
                conjecture=statement.name, proof=statement.render_with_proof(proof)
            )
        else:
            payload["proof"] = text or ""
        events.emit(
            "proof_attempt",
            **payload,
            verdict=result.verdict,
            diagnostics=[d.format() for d in result.diagnostics],
            empty_response=text is not None and not text.strip(),
        )

    try:
        for iteration in range(completed + 1, loops + 1):
            events.emit(
                "phase_start",
                loop=iteration,
                phase="simple",
                library_size=len(library),
                gateway_calls=dict(gateway.calls_by_role),
            )
            truncations: list[str] = []
            context = render_context(
                library, [], config.context_budget, warnings=truncations
            )
            for note in truncations:
                events.emit("warning", message=note, where="simple_loop_context")
            request = ChatRequest(
                role_id="simple_loop",
                system_prompt=SIMPLE_LOOP_PROMPT,
                user_content=context,
                temperature=config.temperature,
                max_output=config.max_output,
            )
            outcome = run_trials(
                session,
                gateway,
                request,
                context,
                _read_declaration,
                config.max_trials,
                emit,
            )
            if outcome.status == STATUS_VERIFIED:
                library = _append_verified(
                    library,
                    library_path,
                    events,
                    clock,
                    outcome.final_statement,
                    outcome.final_proof,
                    "simple_loop",
                    iteration,
                )
            events.emit(
                "loop_complete",
                loop=iteration,
                library_size=len(library),
                gateway_calls=dict(gateway.calls_by_role),
            )
        _finish_run(config, out, events, gateway, library)
    finally:
        events.close()
    return library


def run(config: RunConfig, gateway=None, session=None, listener=None) -> Library:
    if config.mode == "cpl":
        return run_cpl(config, gateway, session, listener)
    if config.mode == "simple_loop":
        return run_simple_loop(config, gateway, session, listener)
    raise ValueError(f"run() only handles pipeline modes, not {config.mode!r}")
