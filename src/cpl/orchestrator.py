"""Top-level run drivers: the conjecture/prove pipeline, the single-call
baseline loop, configuration, persistence, and resumption.

Both drivers share one scaffold, `_run_loops`: open or resume the run,
then for each remaining loop emit `phase_start`, run the mode's loop
step and emit `loop_complete`, then write `report.json` and emit
`run_complete`.

A run directory holds `library.lean` (written atomically at the start,
then each new entry appended and fsynced before its `theorem_added`
event), `events.jsonl` (append-only, flushed per event),
`transcript.jsonl` (every model exchange, read through
`gateway.read_transcript`), `prompts/` (the long user contexts of the
transcript, each stored once; a prompt past the context budget is most
often copied from one of them as ranges, `user_content_spans`, plus its
new text), and `report.json` (the summary, written
before the `run_complete` event that commits it). A fresh run removes
the event log, the transcript and the report of an earlier run. A resume
reads the event log, `library.lean` and the transcript once each, and
cuts all three in place back to the last committed loop: the log at the
end of that loop's `loop_complete` line, the library to the dump of the
committed entries, which drops any partial block a crash left at its
end, and the transcript to that loop's calls. Resuming a run whose
`run_complete` is logged changes nothing.

With `replay_dir` set, the model is replaced by that run directory's
transcript (`ReplayProvider.from_dir`), which is never the output
directory's own: a fresh run removes that one, and any run appends to
it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .conjecture import run_conjecture_phase
from .core import (
    ENTRY_MARKER,
    JsonLinesLog,
    Library,
    cut_file,
    dump_library,
    dump_tail,
    library_blocks,
    parse_theorem_with_proof,
    read_json_lines,
    render_context,
    save_library,
    write_json,
)
from .events import EventLog, library_from_additions, make_clock
from .gateway import (
    ROLE_IDS,
    ChatRequest,
    FatalGatewayError,
    Gateway,
    HttpChatProvider,
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
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    api_key_env: str = "CPL_API_KEY"
    models: dict = field(default_factory=lambda: dict(DEFAULT_MODELS))
    temperature: float = 1.0
    max_output: int = 16384
    retry_cap: int = 3
    rate_limit_rps: float | None = 1.0
    # a run directory whose transcript replaces the model
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
    """A gateway that writes `output_dir`'s transcript. It replays the
    transcript in `config.replay_dir` when that is set, else it calls the
    configured endpoint."""
    _refuse_replay_into_itself(config, output_dir)
    if config.replay_dir:
        provider = ReplayProvider.from_dir(config.replay_dir)
        # One attempt per call: a transcript records each call's outcome,
        # not its attempts, so a replayed failure must not be retried.
        retry_cap, rate = 1, None
    else:
        provider = HttpChatProvider(
            endpoint=config.endpoint,
            models=config.models,
            api_key_env=config.api_key_env,
        )
        retry_cap, rate = config.retry_cap, config.rate_limit_rps
    return Gateway(
        provider,
        retry_cap=retry_cap,
        rate_limit_rps=rate,
        transcript_path=output_dir / "transcript.jsonl",
        clock=clock,
    )


def _refuse_replay_into_itself(config: RunConfig, output_dir: Path) -> None:
    if config.replay_dir and Path(config.replay_dir).resolve() == output_dir.resolve():
        raise FatalGatewayError(
            f"cannot replay {config.replay_dir} into itself: its transcript "
            "is the one a run writes; give the run another output directory"
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


def _load_resume_point(seed: str, events_path: Path, library_path: Path):
    """Cut the event log and `library.lean` back to the last committed loop.

    The log is read once, keeping only what a resume needs: the
    `theorem_added` payloads, the last `loop_complete` and the offset
    where its line ends, and whether `run_complete` is logged. Both files
    are cut in place.

    Returns (committed library, loops completed, next event sequence,
    per-role calls, entries rolled back). The calls are None when the run
    is finished, and both files are then left as they are.
    """
    if not events_path.exists():
        raise ResumeConsistencyError(f"cannot resume: {events_path} does not exist")
    if not library_path.exists():
        raise ResumeConsistencyError(f"cannot resume: {library_path} does not exist")
    additions: list[dict] = []
    boundary, cut, finished = None, 0, False
    for event, end in read_json_lines(events_path, with_ends=True):
        kind = event["kind"]
        if kind == "theorem_added":
            additions.append(event["payload"])
        elif kind == "loop_complete":
            boundary, cut = event, end
        elif kind == "run_complete":
            finished = True
    if boundary is None:
        boundary = {"sequence": -1, "payload": {"loop": 0, "library_size": 0}}
    at = boundary["payload"]
    replayed = library_from_additions(additions, seed)
    committed = at["library_size"]
    library = replayed.prefix(committed)
    dump = dump_library(library)
    expected = (dump + dump_tail(replayed, committed)).encode("utf-8")
    data = library_path.read_bytes()
    # The file holds the logged entries, maybe less their last newline,
    # then any partial block a crash left, cut anywhere, even inside a
    # character.
    head = expected.rstrip(b"\n")
    actual = data.decode("utf-8", errors="replace")
    if not data.startswith(head):
        # Find the first divergent entry for the error message.
        expected_blocks = library_blocks(expected.decode("utf-8"))
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
    if finished:
        return replayed, 0, 0, None, 0

    cut_file(events_path, cut)
    # The committed dump and `head` both start `expected`, so the file
    # starts with the shorter of them; the cut keeps that and appends
    # what the dump has beyond it, at most its last newline.
    want = dump.encode("utf-8")
    keep = min(len(want), len(head))
    cut_file(library_path, keep, want[keep:])
    # Markers after the committed dump: the logged entries past the
    # boundary and the block a crash cut short.
    rolled_back = len(ENTRY_MARKER.findall(actual, len(dump)))
    # Roles with no committed calls are rewound too, to 0.
    calls = dict.fromkeys(ROLE_IDS, 0) | at.get("gateway_calls", {})
    return library, at["loop"], boundary["sequence"] + 1, calls, rolled_back


@dataclass
class _OpenRun:
    """What a loop step writes through. It holds no library: the driver
    passes each loop the current one, so the first library, and its
    rendering, is not kept alive for the whole run."""

    config: RunConfig
    clock: object
    gateway: Gateway
    session: object
    events: EventLog
    library_path: Path
    provenance: str

    def add(self, library: Library, statement, proof, loop: int) -> Library:
        """Append a verified theorem to the library and its file, then
        log it."""
        library = library.append(statement, proof, self.provenance, self.clock.now())
        save_library(library, self.library_path, on_disk=len(library) - 1)
        entry = library.entries[-1]
        self.events.emit(
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


def _run_loops(
    config: RunConfig, gateway, session, listener, phase: str, provenance: str, step
) -> Library:
    """Open or resume the run, then run `step(run, loop, library)` for each
    remaining loop; it returns the library after the loop's appends."""
    out = Path(config.output_dir)
    _refuse_replay_into_itself(config, out)
    out.mkdir(parents=True, exist_ok=True)
    seed = _read_seed(config)
    clock = make_clock(config.resolved_clock())
    events_path = out / "events.jsonl"
    library_path = out / "library.lean"

    if config.resume:
        library, completed, sequence, calls, rolled_back = _load_resume_point(
            seed, events_path, library_path
        )
        if calls is None:
            return library
    else:
        for path in (events_path, out / "transcript.jsonl", out / "report.json"):
            path.unlink(missing_ok=True)
        library, completed, sequence = Library(seed_source=seed), 0, 0
        calls = dict.fromkeys(ROLE_IDS, 0)
        # Written even if no append ever happens.
        save_library(library, library_path)

    if gateway is None:
        gateway = build_gateway(config, out, clock)
    if session is None:
        session = build_verifier(config, seed)
    # A fresh run has removed the log and a resume has cut it: it is not
    # read again.
    log = JsonLinesLog(events_path, sequence)
    events = EventLog(log, clock=clock, listener=listener)
    # Also cuts the transcript to the committed loops' calls, so a gateway
    # that made calls before a fresh run starts its counts over.
    gateway.fast_forward(calls)
    if config.resume:
        events.emit(
            "warning",
            message=(
                f"resumed at loop {completed + 1}; rolled back "
                f"{rolled_back} uncommitted entr"
                f"{'y' if rolled_back == 1 else 'ies'}"
            ),
        )
    run = _OpenRun(config, clock, gateway, session, events, library_path, provenance)
    loops = config.resolved_loops()
    for loop in range(completed + 1, loops + 1):
        events.emit(
            "phase_start",
            loop=loop,
            phase=phase,
            library_size=len(library),
            gateway_calls=dict(gateway.calls_by_role),
        )
        library = step(run, loop, library)
        events.emit(
            "loop_complete",
            loop=loop,
            library_size=len(library),
            gateway_calls=dict(gateway.calls_by_role),
        )
    # Before `run_complete`, which commits it: a resume after that
    # event does nothing.
    write_json(
        out / "report.json",
        {
            "mode": config.mode,
            "loops": loops,
            "library_entries": len(library),
            "gateway_calls": dict(gateway.calls_by_role),
            "config": config.public_dict(),
        },
    )
    events.emit(
        "run_complete",
        loops=loops,
        library_size=len(library),
        gateway_calls=dict(gateway.calls_by_role),
    )
    return library


def _cpl_loop(run: _OpenRun, loop: int, library: Library) -> Library:
    """One loop of the pipeline: the conjecture phase, then one prover
    campaign per accepted conjecture."""
    config = run.config
    report = run_conjecture_phase(
        library,
        run.session,
        run.gateway,
        iterations=config.conjecture_iterations,
        context_budget=config.context_budget,
        temperature=config.temperature,
        max_output=config.max_output,
        events=run.events,
        loop=loop,
    )
    run.events.emit("phase_start", loop=loop, phase="prove", report=report.to_payload())
    # The context the provers see is the library as it stood when the
    # loop began; successes land in the library (and on disk) immediately
    # but only enter contexts next loop.
    snapshot = library
    for stmt in report.accepted:
        outcome = prove(
            stmt,
            snapshot,
            run.session,
            run.gateway,
            max_trials=config.max_trials,
            prompt_variant=config.prompt_variant,
            context_budget=config.context_budget,
            temperature=config.temperature,
            max_output=config.max_output,
            events=run.events,
            event_extra={"loop": loop},
        )
        if outcome.status == STATUS_VERIFIED:
            library = run.add(library, stmt, outcome.final_proof, loop)
    return library


def run_cpl(
    config: RunConfig, gateway=None, session=None, listener=None
) -> Library:
    """Run the full pipeline: conjecture phase, then prove, then append."""
    return _run_loops(config, gateway, session, listener, "conjecture", "cpl", _cpl_loop)


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


def _simple_loop(run: _OpenRun, loop: int, library: Library) -> Library:
    """One loop of the baseline: one campaign whose replies are whole
    declarations, on the rendered library."""
    config, events = run.config, run.events

    def emit(trial, text, statement, proof, result) -> None:
        payload = {"loop": loop, "trial": trial}
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

    truncations: list[str] = []
    prompt = render_context(library, [], config.context_budget, warnings=truncations)
    for note in truncations:
        events.emit("warning", message=note, where="simple_loop_context")
    request = ChatRequest(
        role_id="simple_loop",
        system_prompt=SIMPLE_LOOP_PROMPT,
        user_content=prompt,
        temperature=config.temperature,
        max_output=config.max_output,
    )
    outcome = run_trials(
        run.session,
        run.gateway,
        request,
        library,
        _read_declaration,
        config.max_trials,
        emit,
    )
    if outcome.status == STATUS_VERIFIED:
        library = run.add(library, outcome.final_statement, outcome.final_proof, loop)
    return library


def run_simple_loop(
    config: RunConfig, gateway=None, session=None, listener=None
) -> Library:
    """Baseline: one model call emits statement and proof together."""
    return _run_loops(
        config, gateway, session, listener, "simple", "simple_loop", _simple_loop
    )


def run(config: RunConfig, gateway=None, session=None, listener=None) -> Library:
    if config.mode == "cpl":
        return run_cpl(config, gateway, session, listener)
    if config.mode == "simple_loop":
        return run_simple_loop(config, gateway, session, listener)
    raise ValueError(f"run() only handles pipeline modes, not {config.mode!r}")
