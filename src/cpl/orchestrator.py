"""Top-level run drivers: the conjecture/prove pipeline, the single-call
baseline loop, configuration, persistence, and resumption.

Both drivers share one scaffold, `_run_loops`: open or resume the run,
then for each remaining loop emit `phase_start`, run the mode's loop
step and emit `loop_complete`, then write `report.json` and emit
`run_complete`.

A `cpl` loop's prover campaigns all prove against the library as the
loop found it, so one helper thread runs them while the conjecture phase
waits on the model, and the main thread runs those still pending when
the phase ends (`_cpl_loop`). One lock, let go only inside a model
exchange (`_Campaigns.waiting`), keeps cpl code on one thread, so the
session, the library and the logs need no lock of their own. The helper
writes nothing: its transcript lines and events are staged, holding at
most `max_trials` prompts per campaign, and the main thread writes them
after the `prove` phase_start, in conjecture order, with their
`theorem_added` appends. So `library.lean`, `events.jsonl` and the
transcript, but for its latencies and timestamps, are those of running
the campaigns one after the other, and `--replay` keeps each role's
order. Staged events and lines carry the time they are written, not the
time they happened, and a live run's transcript shows the helper's
exchanges at the end of the phase they overlapped.

A run directory holds `library.lean` (written atomically at the start,
then each new entry appended and fsynced before its `theorem_added`
event), `events.jsonl` (append-only, flushed per event),
`transcript.jsonl` (every model exchange, in the format the `gateway`
module describes, read through `gateway.read_transcript`), fsynced before
each `loop_complete`, and `report.json` (the summary, written before the
`run_complete` event that commits it). A fresh run removes the event
log, the transcript and the report of an earlier run, and the files that
derive from its library: `reprove_*.json`, `report.txt` and
`histogram.csv` (`nl_responses/` and `grades.jsonl` grade a statement,
not the library, and stay). A fresh run and a resume both first remove
the temp files of atomic writes that a kill stopped before their rename
(`<name>.<16 hex digits>.tmp`), and no other file. A resume reads the
event log, `library.lean` and the transcript once each, and cuts all
three in place back to the last committed loop: the log at the end of
that loop's `loop_complete` line, the library to the dump of the
committed entries, which drops any partial block a crash left at its
end, and the transcript to that loop's calls. Resuming a run whose
`run_complete` is logged changes nothing else. A resume of a run that
the other mode wrote (its first `phase_start` names another phase) is
refused before any file is cut. The warnings a resume logs carry
`where: "resume"`, so `evalharness.same_run` leaves them out.

The redone loop is not asked of the model again where the transcript
already holds it: the gateway serves each role the replies of the lines
it cut, in order, while each request equals the recorded one (see
`gateway`), so the files end as an uninterrupted run's. Lines a kill
never wrote are asked: the tail of the loop, and the staged exchanges of
the helper's campaigns when the kill came during the conjecture phase.

With `replay_dir` set, the model is replaced by that run directory's
transcript (`ReplayProvider.from_dir`), which is never the output
directory's own: a fresh run removes that one, and any run appends to
it.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from pathlib import Path

from . import core
from .conjecture import DEFAULT_ITERATIONS, run_conjecture_phase
from .core import (
    DEFAULT_CONTEXT_BUDGET,
    ENTRY_MARKER,
    JsonLinesLog,
    Library,
    Record,
    dump_library,
    dump_tail,
    library_blocks,
    parse_theorem_with_proof,
    read_json_lines,
    render_context,
    remove_temp_files,
    save_library,
    write_json,
)
from .events import EventLog, library_from_additions, make_clock
from .gateway import (
    DEFAULT_API_KEY_ENV,
    DEFAULT_MAX_OUTPUT,
    DEFAULT_RETRY_CAP,
    DEFAULT_TEMPERATURE,
    ROLE_IDS,
    ChatRequest,
    Exchange,
    FatalGatewayError,
    Gateway,
    HttpChatProvider,
    ReplayProvider,
)
from .prompts import SIMPLE_LOOP_PROMPT
from .prover import (
    DEFAULT_MAX_TRIALS,
    DEFAULT_PROMPT_VARIANT,
    STATUS_VERIFIED,
    Unusable,
    prove,
    run_trials,
)
from .verifier import DEFAULT_COMMAND_TIMEOUT, DEFAULT_NOVELTY_TIMEOUT, open_session

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


class RunConfig(Record):
    """Every setting of a run: its mode and loop sizes, provider, verifier
    and output directory."""

    def __init__(
        self,
        mode: str = "cpl",
        seed_path: str | None = None,
        loops: int | None = None,  # None → mode default (cpl 30, simple_loop 400)
        conjecture_iterations: int = DEFAULT_ITERATIONS,
        max_trials: int = DEFAULT_MAX_TRIALS,
        context_budget: int = DEFAULT_CONTEXT_BUDGET,
        output_dir: str = "run_output",
        resume: bool = False,
        prompt_variant: str = DEFAULT_PROMPT_VARIANT,
        # provider settings
        endpoint: str = "https://api.openai.com/v1/chat/completions",
        api_key_env: str = DEFAULT_API_KEY_ENV,
        models: dict | None = None,  # None → a copy of DEFAULT_MODELS
        temperature: float = DEFAULT_TEMPERATURE,
        max_output: int = DEFAULT_MAX_OUTPUT,
        retry_cap: int = DEFAULT_RETRY_CAP,
        rate_limit_rps: float | None = 1.0,
        # a run directory whose transcript replaces the model
        replay_dir: str | None = None,
        # verifier settings
        verifier_backend: str = "scripted",  # scripted | lean
        verifier_fixtures: str | None = None,
        lean_command: list | None = None,  # None → []
        lean_cwd: str | None = None,
        command_timeout: float = DEFAULT_COMMAND_TIMEOUT,
        novelty_timeout: float = DEFAULT_NOVELTY_TIMEOUT,
        # determinism
        clock: str | None = None,  # None → "fixed" when replaying, else "system"
    ):
        self.mode = mode
        self.seed_path = seed_path
        self.loops = loops
        self.conjecture_iterations = conjecture_iterations
        self.max_trials = max_trials
        self.context_budget = context_budget
        self.output_dir = output_dir
        self.resume = resume
        self.prompt_variant = prompt_variant
        self.endpoint = endpoint
        self.api_key_env = api_key_env
        self.models = dict(DEFAULT_MODELS) if models is None else models
        self.temperature = temperature
        self.max_output = max_output
        self.retry_cap = retry_cap
        self.rate_limit_rps = rate_limit_rps
        self.replay_dir = replay_dir
        self.verifier_backend = verifier_backend
        self.verifier_fixtures = verifier_fixtures
        self.lean_command = [] if lean_command is None else lean_command
        self.lean_cwd = lean_cwd
        self.command_timeout = command_timeout
        self.novelty_timeout = novelty_timeout
        self.clock = clock
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        least = {"max_trials": 1, "retry_cap": 1, "conjecture_iterations": 1, "context_budget": 1}
        if self.loops is not None:
            least["loops"] = 0
        for name, bound in least.items():
            value = getattr(self, name)
            if not isinstance(value, int) or value < bound:
                raise ValueError(f"{name} is {value!r}; it must be an integer of at least {bound}")
        above_zero = ["command_timeout", "novelty_timeout"]
        if self.rate_limit_rps is not None:
            above_zero.append("rate_limit_rps")
        for name in above_zero:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not value > 0:
                raise ValueError(f"{name} is {value!r}; it must be above 0")

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
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**data)
        # Paths in a config file are relative to the file itself.
        for name in _PATH_FIELDS:
            value = getattr(config, name)
            if value is not None and not Path(value).is_absolute():
                setattr(config, name, str((path.parent / value).resolve()))
        return config

    def campaign_options(self) -> dict:
        """The options of a prover campaign, as `prove` takes them."""
        return {
            "max_trials": self.max_trials,
            "prompt_variant": self.prompt_variant,
            "context_budget": self.context_budget,
            "temperature": self.temperature,
            "max_output": self.max_output,
        }

    def public_dict(self) -> dict:
        """Every setting, in field order, with loops and clock resolved;
        the containers are copies."""
        data = self.as_dict()
        data["models"] = dict(self.models)
        data["lean_command"] = list(self.lean_command)
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


def _load_resume_point(seed: str, events_path: Path, library_path: Path, phase: str):
    """Cut the event log and `library.lean` back to the last committed loop.

    The log is read once, keeping only what a resume needs: the
    `theorem_added` payloads, the last `loop_complete` and the offset
    where its line ends, whether `run_complete` is logged, and the phase of
    the first `phase_start`. A log whose first loop started another phase
    than `phase`, the one this mode's loops start with, was written by the
    other mode: the resume refuses it and changes no file. Otherwise both
    files are cut in place.

    Returns (committed library, loops completed, next event sequence,
    per-role calls, entries rolled back). The calls are None when the run
    is finished, and both files are then left as they are.
    """
    if not events_path.exists():
        raise ResumeConsistencyError(f"cannot resume: {events_path} does not exist")
    if not library_path.exists():
        raise ResumeConsistencyError(f"cannot resume: {library_path} does not exist")
    additions: list[dict] = []
    boundary, cut, finished, logged_phase = None, 0, False, None
    for event, end in read_json_lines(events_path, with_ends=True):
        kind = event["kind"]
        if kind == "theorem_added":
            additions.append(event["payload"])
        elif kind == "loop_complete":
            boundary, cut = event, end
        elif kind == "run_complete":
            finished = True
        elif kind == "phase_start" and logged_phase is None:
            logged_phase = event["payload"]["phase"]
    if logged_phase not in (None, phase):
        raise ResumeConsistencyError(
            f"cannot resume: {events_path} logs a run whose loops start with the "
            f"{logged_phase!r} phase, and this mode's start with {phase!r}"
        )
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

    core.write_file(events_path, b"", at=cut, fsync=True)
    # The committed dump and `head` both start `expected`, so the file
    # starts with the shorter of them; the cut keeps that and appends
    # what the dump has beyond it, at most its last newline.
    want = dump.encode("utf-8")
    keep = min(len(want), len(head))
    core.write_file(library_path, want[keep:], at=keep, fsync=True)
    # Markers after the committed dump: the logged entries past the
    # boundary and the block a crash cut short.
    rolled_back = len(ENTRY_MARKER.findall(actual, len(dump)))
    # Roles with no committed calls are rewound too, to 0.
    calls = dict.fromkeys(ROLE_IDS, 0) | at.get("gateway_calls", {})
    return library, at["loop"], boundary["sequence"] + 1, calls, rolled_back


class _OpenRun(Record):
    """What a loop step writes through. It holds no library: the driver
    passes each loop the current one, so the first library, and its
    rendering, is not kept alive for the whole run."""

    def __init__(
        self,
        config: RunConfig,
        clock: object,
        gateway: Gateway,
        session: object,
        events: EventLog,
        library_path: Path,
        provenance: str,
    ):
        self.config = config
        self.clock = clock
        self.gateway = gateway
        self.session = session
        self.events = events
        self.library_path = library_path
        self.provenance = provenance

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
    remove_temp_files(out)

    if config.resume:
        library, completed, sequence, calls, rolled_back = _load_resume_point(
            seed, events_path, library_path, phase
        )
        if calls is None:
            return library
    else:
        # What an earlier run wrote, or what derives from its library.
        stale = ["events.jsonl", "transcript.jsonl", "report.json", "report.txt", "histogram.csv"]
        for path in [*(out / name for name in stale), *out.glob("reprove_*.json")]:
            path.unlink(missing_ok=True)
        library, completed, sequence = Library(seed_source=seed), 0, 0
        calls = dict.fromkeys(ROLE_IDS, 0)
        # Written even if no append ever happens.
        save_library(library, library_path)

    if gateway is None:
        gateway = build_gateway(config, out, clock)
    # A session this run opens, it closes; one passed in stays open.
    owned = session is None
    if owned:
        session = build_verifier(config, seed)
    try:
        # A fresh run has removed the log and a resume has cut it: it is not
        # read again.
        log = JsonLinesLog(events_path, sequence)
        events = EventLog(log, clock=clock, listener=listener)
        # Also cuts the transcript to the committed loops' calls, so a gateway
        # that made calls before a fresh run starts its counts over. On a
        # resume the gateway serves the cut lines' replies while the redone
        # loop's requests match them; a fresh run has none to cut.
        kept = gateway.fast_forward(calls)
        if config.resume:
            events.emit(
                "warning",
                message=(
                    f"resumed at loop {completed + 1}; rolled back "
                    f"{rolled_back} uncommitted entr"
                    f"{'y' if rolled_back == 1 else 'ies'}"
                ),
                where="resume",
            )
            counted = sum(calls.values())
            if kept is not None and kept < counted:
                events.emit(
                    "warning",
                    message=(
                        f"transcript.jsonl holds {kept} lines, fewer than the "
                        f"{counted} model calls the committed loops count; "
                        f"--replay of this directory will not reproduce the run"
                    ),
                    where="resume",
                )
        run = _OpenRun(
            config, clock, gateway, session, events, library_path, provenance
        )
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
            # The lines a `loop_complete` counts outlast a power loss with it.
            gateway.sync()
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
    finally:
        if owned:
            session.close()


class _Stopped(Exception):
    """Unwinds a helper campaign whose loop failed."""


class _Staged:
    """A helper campaign's gateway and event log: it runs each exchange
    with the lock let go and keeps each exchange and event, in order, for
    `commit` to write. It holds at most `max_trials` prompts."""

    def __init__(self, campaigns: "_Campaigns", gateway: Gateway):
        self._campaigns, self._gateway = campaigns, gateway
        self._items: list = []  # `Exchange`s and (kind, payload) pairs
        self.outcome = None
        self.error: Exception | None = None

    def complete(self, request: ChatRequest):
        with self._campaigns.waiting():
            exchange = self._gateway.exchange(request)
        if self._campaigns.stopped:
            raise _Stopped()
        self._items.append(exchange)
        return exchange.reply()

    def emit(self, kind: str, **payload) -> None:
        self._items.append((kind, payload))

    def commit(self, run: _OpenRun):
        """Write the staged lines and events; return the campaign's
        outcome, or raise its error."""
        items, self._items = self._items, []
        for item in items:
            if isinstance(item, Exchange):
                run.gateway.record(item)
            else:
                kind, payload = item
                run.events.emit(kind, **payload)
        if self.error is not None:
            raise self.error
        return self.outcome


class _Campaigns:
    """A loop's prover campaigns, run on one helper thread while the
    conjecture phase waits on the model.

    The main thread takes the lock here; a thread lets it go only inside
    `waiting`, around a model exchange. The helper holds it from taking a
    queued campaign, which it does only while the main thread's exchange
    runs, to its next exchange. `close` lets it go for good, so the helper
    finishes its campaign, or with `stop` unwinds it once its exchange
    returns, and joins it. Campaigns still queued then run on the main
    thread. The helper writes nothing: `ran` holds its campaigns staged,
    in conjecture order.
    """

    def __init__(self, run: _OpenRun, loop: int, snapshot: Library):
        self._run, self._loop, self._snapshot = run, loop, snapshot
        self._lock = threading.Condition(threading.Lock())
        # Set by `_take`, cleared by `_give`: `close` reads it to tell
        # whether the main thread holds the lock.
        self._holder: threading.Thread | None = None
        self._closed = False  # start no campaign
        self._exchanging = False  # the main thread's exchange runs
        self.stopped = False  # unwind the running campaign when its exchange returns
        self._pending: deque = deque()
        self._thread: threading.Thread | None = None
        self.ran: list[_Staged] = []
        self._take()

    def _take(self) -> None:
        self._lock.acquire()
        self._holder = threading.current_thread()

    def _give(self) -> None:
        self._holder = None
        self._lock.release()

    @contextmanager
    def waiting(self):
        """Let the lock go for a model exchange, and take it back after."""
        self._give()
        try:
            yield
        finally:
            self._take()

    def prove(self, stmt, gateway, events):
        """One campaign against the loop-start library."""
        return prove(
            stmt,
            self._snapshot,
            self._run.session,
            gateway,
            events=events,
            event_extra={"loop": self._loop},
            **self._run.config.campaign_options(),
        )

    def accept(self, stmt) -> None:
        self._pending.append(stmt)
        if self._thread is None:
            # A daemon: a helper that was never joined does not keep the
            # process alive.
            thread = threading.Thread(target=self._work, name="cpl-campaigns", daemon=True)
            thread.start()
            self._thread = thread

    def complete(self, request: ChatRequest):
        """The phase's call: its exchange with the lock let go, then its record."""
        gateway = self._run.gateway
        # The helper may start a campaign while the exchange runs, not once
        # it returns: this thread would then wait on that campaign.
        self._exchanging = True
        self._lock.notify()
        with self.waiting():
            exchange = gateway.exchange(request)
            self._exchanging = False
        gateway.record(exchange)
        return exchange.reply()

    def close(self, stop: bool = False) -> None:
        # An interrupt in `waiting` can leave the main thread without the
        # lock, maybe while the helper holds it: take it, never release it.
        if self._holder is not threading.current_thread():
            self._take()
        self._closed, self.stopped = True, stop
        self._lock.notify_all()
        self._give()
        if self._thread is not None:
            self._thread.join()

    def _work(self) -> None:
        with self._lock:
            while True:
                self._lock.wait_for(
                    lambda: self._closed or (self._exchanging and self._pending)
                )
                if self._closed:
                    return
                staged = _Staged(self, self._run.gateway)
                self.ran.append(staged)
                try:
                    staged.outcome = self.prove(self._pending.popleft(), staged, staged)
                except Exception as exc:  # raised by `commit`, unless stopped
                    staged.error = exc
                    return


def _cpl_loop(run: _OpenRun, loop: int, library: Library) -> Library:
    """One loop of the pipeline: the conjecture phase, then one prover
    campaign per accepted conjecture, each against the library as the loop
    began, so they depend neither on each other nor on the rest of the
    phase. A helper thread runs them during the phase's model waits
    (`_Campaigns`); one lock, let go only inside `waiting`, keeps cpl code
    on one thread. After the `prove` phase_start the main thread commits
    the helper's campaigns in conjecture order and runs the rest itself,
    so the files are a serial run's (see the module docstring). Successes
    land in the library (and on disk) at once but only enter contexts next
    loop.
    """
    config = run.config
    campaigns = _Campaigns(run, loop, library)
    try:
        report = run_conjecture_phase(
            library,
            run.session,
            campaigns,
            iterations=config.conjecture_iterations,
            context_budget=config.context_budget,
            temperature=config.temperature,
            max_output=config.max_output,
            events=run.events,
            loop=loop,
            on_accept=campaigns.accept,
        )
    except BaseException:
        campaigns.close(stop=True)
        raise
    campaigns.close()
    accepted = [stmt.name for stmt in report.accepted]
    run.events.emit(
        "phase_start", loop=loop, phase="prove", report={**report.as_dict(), "accepted": accepted}
    )
    for index, stmt in enumerate(report.accepted):
        if index < len(campaigns.ran):
            outcome = campaigns.ran[index].commit(run)
        else:
            outcome = campaigns.prove(stmt, run.gateway, run.events)
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
