"""One repetition of one workload, in a fresh single-threaded interpreter.

    python3 -I perfbench/worker.py REP_DIR SPAWNED TRACE

REP_DIR holds the repetition's run directories; its parent holds
`plan.json` and the generated inputs. SPAWNED is the parent's
`time.monotonic()` just before it started this process. TRACE is 0 or
1. The result is written to REP_DIR/result.json.

cpl is imported from the checkout's `src/` only, and driven through its
public entry points with the fakes injected at `gateway=`, `session=`,
`client=` and `listener=`.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))  # run with -I, which leaves the script's directory out

from fakes import Excluded, FakeProvider, FakeReplClient, load_model  # noqa: E402
from spans import NULL_TRACER, Tracer, layer_self_times, span_totals  # noqa: E402

LOOP_PHASES = ("conjecture", "simple")
# Extra resumes of the killed run, timed after the workload. cpl-host's
# resume reads about 4 MB of log, so it takes fewer.
RESUME_PROBES = {"cpl-latency": 9, "cpl-host": 4, "eval-latency": 9}


class Killed(Exception):
    """Raised by the listener to stop a run as a process kill would."""


class Probe:
    """Listener plus campaign timer: the instruments untraced runs use.

    Loop times come from `phase_start` / `loop_complete` events; resume
    time from `run_*(resume=True)` entry to the "resumed at loop"
    warning; campaign times from a wrapper around `prove`. Each leaves
    out the benchmark-side seconds `excluded` gained meanwhile.
    """

    def __init__(self, tracer, excluded: Excluded, kill=None):
        self.tracer = tracer
        self.excluded = excluded
        self.kill = kill
        self.killed = False
        self.seen_in_kill_loop = 0
        self.loop_started: float | None = None
        self.loop_excluded = 0.0
        self.loops: list[float] = []
        self.campaigns: list[float] = []
        self.outcomes: list[tuple[str, int]] = []
        self.resume_entry: float | None = None
        self.resume_excluded = 0.0
        self.resumes: list[float] = []

    def resuming(self) -> None:
        self.resume_entry = time.perf_counter()
        self.resume_excluded = self.excluded.s

    def __call__(self, event) -> None:
        now = time.perf_counter()
        kind, payload = event.kind, event.payload
        if kind == "phase_start" and payload.get("phase") in LOOP_PHASES:
            self.loop_started = now
            self.loop_excluded = self.excluded.s
            self.tracer.loop = payload["loop"]
        elif kind == "loop_complete" and self.loop_started is not None:
            self.loops.append(now - self.loop_started - (self.excluded.s - self.loop_excluded))
            self.loop_started = None
        elif kind == "warning" and str(payload.get("message", "")).startswith("resumed at loop"):
            self.resumes.append(now - self.resume_entry - (self.excluded.s - self.resume_excluded))
        if self.kill and not self.killed and kind == self.kill["kind"]:
            if payload.get("loop") == self.kill["loop"]:
                self.seen_in_kill_loop += 1
                if self.seen_in_kill_loop == self.kill["count"]:
                    self.killed = True
                    self.loop_started = None
                    raise Killed()

    def timed_prove(self, prove):
        tracer = self.tracer

        def campaign(*args, **kwargs):
            started = time.perf_counter()
            excluded = self.excluded.s
            if tracer.enabled:
                tracer.campaign = len(self.campaigns)
            try:
                outcome = prove(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                tracer.record("prover.campaign", started, ended)
                tracer.campaign = None
            self.campaigns.append(ended - started - (self.excluded.s - excluded))
            self.outcomes.append((outcome.status, len(outcome.attempts)))
            return outcome

        return campaign


class Checks:
    """Output checks: each counts as an attempted operation."""

    def __init__(self):
        self.done = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.done += 1
        if not ok:
            self.failures.append(message)


class Rig:
    """Builds gateways and sessions over the fakes, as one process would."""

    def __init__(self, cpl, plan, model, tracer, excluded: Excluded, costs_on: bool):
        self.cpl = cpl
        self.plan = plan
        self.tracer = tracer
        self.excluded = excluded
        scale = model["time_scale"] if costs_on else 0.0
        self.scale = scale
        self.provider_costs = {
            "call_s": model["provider"]["call_s"] * scale,
            "prompt_char_s": model["provider"]["prompt_char_s"] * scale,
        }
        self.repl_costs = {k: v * scale for k, v in model["repl"].items()}
        self.providers: list = []
        self.repls: list = []
        self.gateways: list = []
        self.backoff_s = 0.0
        table = plan["table"]
        self.table = {
            "validity": table["validity"],
            "novelty": table["novelty"],
            "proofs": {(name, proof): ok for name, proof, ok in table["proofs"]},
        }

    def _backoff(self, seconds: float) -> None:
        started = time.perf_counter()
        if seconds > 0:
            time.sleep(seconds)
        ended = time.perf_counter()
        self.backoff_s += ended - started
        self.tracer.record("backoff.wait", started, ended)

    def gateway(self, transcript: Path):
        from cpl.gateway import TransportError

        provider = FakeProvider(
            self.plan["responses"],
            TransportError,
            failures=self.plan["failures"],
            start=self.plan["start_calls"],
            tracer=self.tracer,
            **self.provider_costs,
        )
        gateway = self.cpl.Gateway(
            provider,
            backoff_base=self.scale,  # the gateway's own 1 s base, in modelled time
            transcript_path=transcript,
            sleep=self._backoff,
        )
        if self.tracer.enabled:
            gateway.complete = self.tracer.wrap(gateway.complete, "gateway.complete")
        self.providers.append(provider)
        self.gateways.append(gateway)
        return gateway

    def session(self):
        from cpl.verifier import LeanVerifier

        started = time.perf_counter()
        client = FakeReplClient(self.table, tracer=self.tracer, excluded=self.excluded,
                                count_redeclared=self.tracer.enabled, **self.repl_costs)
        session = LeanVerifier(self.plan["seed_source"], command=[], client=client)
        self.tracer.record("verifier.open", started, time.perf_counter())
        if self.tracer.enabled:
            for op, method in (
                ("validity", "check_validity"),
                ("novelty", "check_novelty"),
                ("proof", "verify_proof"),
            ):
                setattr(session, method, self.tracer.wrap(getattr(session, method), f"verifier.{op}"))
        self.repls.append(client)
        return session


def _run_config(cpl, plan, inputs: Path, out: Path, resume=False):
    fields = dict(plan["config"])
    fields.setdefault("resume", resume)
    return cpl.RunConfig(seed_path=str(inputs / "seed.lean"), output_dir=str(out), clock="fixed", **fields)


def _drive_pipeline(cpl, rig, probe, plan, inputs, out, run, snapshot: bool):
    """Run a cpl or simple-loop pipeline; after a kill, resume it in a
    fresh gateway and session, as a restarted process would. With
    `snapshot`, keep a copy of the killed run for the resume probes."""
    config = _run_config(cpl, plan, inputs, out)
    tracer = rig.tracer
    gateway, session = rig.gateway(out / "transcript.jsonl"), rig.session()
    for _attempt in range(2):
        if config.resume:
            probe.resuming()
        started = time.perf_counter()
        try:
            return run(config, gateway=gateway, session=session, listener=probe)
        except Killed:
            if snapshot:
                copied = time.perf_counter()
                shutil.copytree(out, _snapshot(out))
                rig.excluded.s += time.perf_counter() - copied
            config.resume = True
            gateway, session = rig.gateway(out / "transcript.jsonl"), rig.session()
        finally:
            tracer.record("orchestrator.run", started, time.perf_counter())
    raise RuntimeError("run was killed twice")


def _snapshot(out: Path) -> Path:
    return out.with_name(out.name + "-killed")


def _resume_probes(cpl, plan, inputs: Path, killed: Path, rep: Path, run) -> list[float]:
    """Time more resumes of the killed run `killed`, each on its own copy.

    Each probe stops at the "resumed at loop" warning, before any model
    request, so its fakes cost nothing.
    """
    from cpl.gateway import TransportError
    from cpl.verifier import LeanVerifier

    table = {"validity": {}, "novelty": {}, "proofs": {}}
    times: list[float] = []
    for index in range(RESUME_PROBES[plan["workload"]]):
        out = rep / f"resume-probe-{index}"
        out.mkdir()
        for name in ("library.lean", "events.jsonl"):  # all a resume reads
            shutil.copy(killed / name, out / name)
        gateway = cpl.Gateway(FakeProvider(plan["responses"], TransportError),
                              transcript_path=out / "transcript.jsonl")
        session = LeanVerifier(plan["seed_source"], command=[], client=FakeReplClient(table))
        gc.collect()  # start each probe from a settled heap, as a fresh process would
        entry = time.perf_counter()

        def stop_at_resume(event):
            if event.kind == "warning" and event.payload["message"].startswith("resumed at loop"):
                times.append(time.perf_counter() - entry)
                raise Killed()

        try:
            run(_run_config(cpl, plan, inputs, out, resume=True),
                gateway=gateway, session=session, listener=stop_at_resume)
        except Killed:
            pass
        shutil.rmtree(out)
    return times


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _transcript_stats(paths) -> tuple[int, int]:
    """(duplicate sequence numbers, calls that exhausted their retries)."""
    dups = exhausted = 0
    for path in paths:
        seen: set[int] = set()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                dups += entry["sequence"] in seen
                seen.add(entry["sequence"])
                exhausted += entry["response"] is None
    return dups, exhausted


def _check_pipeline(cpl, plan, out: Path, gateway, loop_keys, checks: Checks) -> None:
    """Library bytes, event replay, call counts and per-loop verdicts."""
    from cpl.events import read_events, replay_library

    expect = plan["expect"]
    text = (out / "library.lean").read_text(encoding="utf-8")
    checks.expect(text == expect["library"], f"{out.name}: library.lean differs from the generator's bytes")
    events = read_events(out / "events.jsonl")
    replayed = cpl.dump_library(replay_library(events, plan["seed_source"]))
    checks.expect(replayed == text, f"{out.name}: replaying events.jsonl does not reproduce library.lean")
    for role in loop_keys["roles"]:
        got, want = gateway.calls_by_role.get(role), expect["gateway_calls"][role]
        checks.expect(got == want, f"{out.name}: {got} {role} calls, the plan has {want}")
    checks.expect(any(e.kind == "run_complete" for e in events), f"{out.name}: no run_complete event")
    seen: dict[str, dict] = {}
    for event in events:
        p = event.payload
        loop = seen.setdefault(str(p.get("loop")), {"conjecture": [], "attempts": [], "added": []})
        if event.kind == "conjecture_accepted":
            loop["conjecture"].append([event.kind, None, p["name"]])
        elif event.kind == "conjecture_rejected":
            loop["conjecture"].append([event.kind, p["reason"], p.get("name")])
        elif event.kind == "proof_attempt":
            loop["attempts"].append([p.get("conjecture"), p["trial"], p["verdict"], p["empty_response"]])
        elif event.kind == "theorem_added":
            loop["added"].append(p["name"])
    for key, want in expect[loop_keys["loops"]].items():
        got = seen.get(key, {"conjecture": [], "attempts": [], "added": []})
        for part in ("conjecture", "attempts"):
            if part in want:
                checks.expect(got[part] == want[part], f"{out.name}: loop {key} {part} verdicts differ from the table")
        if "added" in want:
            names = [e["name"] for e in want["added"]]
            checks.expect(got["added"] == names, f"{out.name}: loop {key} appended the wrong theorems")


def _eval(cpl, rig, probe, plan, inputs, rep, tracer) -> dict[str, list[str]]:
    """The evaluation protocols; returns the campaign statuses of each."""
    from cpl.events import FixedClock
    from cpl.orchestrator import EventLog  # the traced subclass in traced runs

    out = rep / "eval"
    out.mkdir()
    gateway, session = rig.gateway(out / "transcript.jsonl"), rig.session()
    started = time.perf_counter()
    library = cpl.load_library(inputs / "library.lean")
    tracer.record("core.load_library", started, time.perf_counter())
    statement = cpl.TheoremStatement.from_source(plan["focused_statement"])
    statuses = {}
    with EventLog(out / "events.jsonl", clock=FixedClock()) as events:
        for mode in ("with_context", "definitions_only"):
            started = time.perf_counter()
            report = cpl.reprove_all(library, mode, session, gateway, events=events)
            tracer.record(f"evalharness.reprove_{mode}", started, time.perf_counter())
            statuses[mode] = [status for _, status in report.per_theorem]
        started = time.perf_counter()
        report = cpl.reprove_focused(
            statement, library.prefix(plan["focused_prefix"]), session, gateway,
            n=len(plan["expect"]["campaigns"]["focused"]), events=events,
        )
        tracer.record("evalharness.focused", started, time.perf_counter())
        statuses["focused"] = [status for _, status in report.per_theorem]

    started = time.perf_counter()
    _drive_pipeline(cpl, rig, probe, plan, inputs, rep / "simple", cpl.run_simple_loop,
                    snapshot=not tracer.enabled)
    tracer.record("evalharness.simple_loop", started, time.perf_counter())
    return statuses


def _check_eval(plan, out: Path, statuses, gateway, checks: Checks) -> None:
    """Campaign statuses, proof verdicts and prover calls of the reprove campaigns."""
    from cpl.events import read_events

    expect = plan["expect"]
    checks.expect(statuses == expect["campaigns"], "eval: campaign statuses differ from the table")
    attempts = [
        [e.payload["trial"], e.payload["verdict"], e.payload["empty_response"]]
        for e in read_events(out / "events.jsonl")
        if e.kind == "proof_attempt"
    ]
    checks.expect(attempts == expect["attempts"], "eval: proof verdicts differ from the table")
    checks.expect(
        gateway.calls_by_role["prover"] == expect["gateway_calls"]["prover"],
        "eval: prover call count differs from the plan",
    )


def _layer_metrics(tracer, rig, probe, plan, outs, drive_s, counters) -> tuple[dict, list]:
    nodes = tracer.tree()
    totals = span_totals(nodes)
    selfs = layer_self_times(nodes)
    count = lambda name: totals.get(name, (0, 0.0))[0]  # noqa: E731
    secs = lambda name: totals.get(name, (0, 0.0))[1]  # noqa: E731
    m: dict[str, float] = {}
    calls: dict[str, int] = {}
    for provider in rig.providers:
        for role, n in provider.calls.items():
            calls[role] = calls.get(role, 0) + n
    for role in ("conjecturer", "prover", "simple_loop"):
        m[f"gateway.calls.{role}"] = calls.get(role, 0)
    provider_wait = sum(p.wait_s for p in rig.providers)
    m["gateway.provider_wait_s"] = provider_wait
    m["gateway.self_s"] = selfs.get("gateway", 0.0)
    m["gateway.retries"] = sum(p.retries for p in rig.providers)
    m["gateway.backoff_s"] = rig.backoff_s
    m["gateway.prompt_chars"] = sum(p.prompt_chars for p in rig.providers)
    m["gateway.transcript_bytes"] = counters["transcript_bytes"]
    m["gateway.transcript_dup_sequences"] = counters["dup_sequences"]
    checks = chars = 0
    for op in ("validity", "novelty", "proof"):
        op_calls = sum(r.ops[op]["calls"] for r in rig.repls)
        op_chars = sum(r.ops[op]["chars"] for r in rig.repls)
        m[f"verifier.{op}.calls"] = op_calls
        m[f"verifier.{op}.s"] = secs(f"verifier.{op}") - sum(r.ops[op]["excluded_s"] for r in rig.repls)
        m[f"verifier.{op}.chars"] = op_chars
        checks += op_calls
        chars += op_chars
    repl_wait = sum(r.wait_s for r in rig.repls)
    m["verifier.repl_wait_s"] = repl_wait
    m["verifier.self_s"] = selfs.get("verifier", 0.0)
    m["verifier.chars_per_check"] = chars / checks if checks else 0.0
    m["verifier.redeclared_target"] = sum(r.redeclared for r in rig.repls)
    render = counters["render"]
    m["core.render_context.calls"] = count("core.render_context")
    m["core.render_context.s"] = secs("core.render_context")
    m["core.render_context.chars"] = render["chars"]
    m["core.render_context.truncated_calls"] = render["truncated"]
    m["core.save_library.calls"] = count("core.save_library")
    m["core.save_library.s"] = secs("core.save_library")
    m["core.save_library.bytes"] = counters["save_bytes"]
    m["core.load_library.s"] = secs("core.load_library")
    m["core.parse.s"] = secs("core.parse")
    m["core.self_s"] = selfs.get("core", 0.0)
    phase = {"raw_candidates": 0, "accepted": 0, "rejected_parse": 0, "rejected_duplicate": 0,
             "rejected_invalid": 0, "rejected_known": 0}
    for out, _gateway, _keys in outs:
        for line in (out / "events.jsonl").read_text(encoding="utf-8").splitlines():
            event = json.loads(line)
            report = event["payload"].get("report")
            if event["kind"] == "phase_start" and report and str(event["payload"]["loop"]) in plan["expect"].get("loops", {}):
                for key in phase:
                    value = report[key]
                    phase[key] += len(value) if isinstance(value, list) else value
    m["conjecture.phase_s"] = secs("conjecture.phase")
    m["conjecture.candidates"] = phase["raw_candidates"]
    m["conjecture.accept_ratio"] = (
        phase["accepted"] / phase["raw_candidates"] if phase["raw_candidates"] else 0.0
    )
    for reason in ("parse", "duplicate", "invalid", "known"):
        m[f"conjecture.rejected.{reason}"] = phase[f"rejected_{reason}"]
    m["conjecture.self_s"] = selfs.get("conjecture", 0.0)
    trials = sum(n for _, n in probe.outcomes)
    wins = sum(status == "verified" for status, _ in probe.outcomes)
    m["prover.campaigns"] = len(probe.outcomes)
    m["prover.trials"] = trials
    m["prover.success_ratio"] = wins / len(probe.outcomes) if probe.outcomes else 0.0
    m["prover.trials_per_success"] = trials / wins if wins else 0.0
    m["prover.self_s"] = selfs.get("prover", 0.0)
    m["events.emit.calls"] = count("events.emit")
    m["events.emit.s"] = secs("events.emit")
    m["events.bytes"] = counters["events_bytes"]
    m["events.replay_s"] = secs("events.read") + secs("events.replay")
    m["events.self_s"] = selfs.get("events", 0.0)
    m["orchestrator.self_s"] = selfs.get("orchestrator", 0.0)
    for name in ("reprove_with_context", "reprove_definitions_only", "focused", "simple_loop"):
        m[f"evalharness.{name}.s"] = secs(f"evalharness.{name}")
    m["evalharness.self_s"] = selfs.get("evalharness", 0.0)
    waits = provider_wait + repl_wait + rig.backoff_s
    m["trace.wait_share"] = waits / drive_s
    host = sum(selfs.get(layer, 0.0) for layer in ("core", "events", "gateway"))
    m["trace.host_self_share"] = host / drive_s
    m["trace.spans"] = len(nodes)
    return m, nodes


def _install_tracing(cpl, tracer, counters) -> None:
    """Wrap the module-level names cpl's modules call, for the traced run."""
    import cpl.conjecture
    import cpl.orchestrator
    import cpl.prover

    render = counters["render"]

    def render_context(library, extras, budget, warnings=None):
        notes = [] if warnings is None else warnings
        before = len(notes)
        result = traced_render(library, extras, budget, warnings=notes)
        if len(notes) > before:
            render["truncated"] += 1
        render["chars"] += len(result)
        return result

    traced_render = tracer.wrap(cpl.core.render_context, "core.render_context")
    for module in (cpl.conjecture, cpl.prover, cpl.orchestrator):
        module.render_context = render_context

    def count_save(args, kwargs, result):
        counters["save_bytes"] += _size(Path(args[1]))

    cpl.orchestrator.save_library = tracer.wrap(cpl.core.save_library, "core.save_library", count_save)
    cpl.orchestrator.dump_library = tracer.wrap(cpl.core.dump_library, "core.dump_library")
    cpl.conjecture.parse_theorem_declarations = tracer.wrap(
        cpl.core.parse_theorem_declarations, "core.parse")
    cpl.orchestrator.parse_theorem_with_proof = tracer.wrap(
        cpl.core.parse_theorem_with_proof, "core.parse")
    cpl.prover.strip_code_fences = tracer.wrap(cpl.core.strip_code_fences, "core.parse")
    cpl.orchestrator.read_events = tracer.wrap(cpl.events.read_events, "events.read")
    cpl.orchestrator.replay_library = tracer.wrap(cpl.events.replay_library, "events.replay")
    cpl.orchestrator.truncate_events = tracer.wrap(cpl.events.truncate_events, "events.truncate")
    cpl.orchestrator.run_conjecture_phase = tracer.wrap(
        cpl.conjecture.run_conjecture_phase, "conjecture.phase")

    class TracedEventLog(cpl.events.EventLog):
        loop_open: float | None = None

        def emit(self, kind, **payload):
            started = time.perf_counter()
            if kind == "phase_start" and payload.get("phase") in LOOP_PHASES:
                TracedEventLog.loop_open = started
            try:
                return super().emit(kind, **payload)
            finally:
                ended = time.perf_counter()
                tracer.record("events.emit", started, ended)
                if kind == "loop_complete" and TracedEventLog.loop_open is not None:
                    tracer.record("orchestrator.loop", TracedEventLog.loop_open, ended)
                    TracedEventLog.loop_open = None

    cpl.orchestrator.EventLog = TracedEventLog


def main(argv: list[str]) -> int:
    rep = Path(argv[1])
    spawned = float(argv[2])
    traced = argv[3] == "1"
    reading_started = time.monotonic()
    inputs = rep.parent
    plan = json.loads((inputs / "plan.json").read_text(encoding="utf-8"))
    model = load_model()
    reading_s = time.monotonic() - reading_started

    sys.path.insert(0, str(ROOT / "src"))
    import cpl

    if Path(cpl.__file__).resolve().parent != ROOT / "src" / "cpl":
        raise SystemExit(f"imported cpl from {cpl.__file__}, not from {ROOT / 'src'}")
    import cpl.evalharness
    import cpl.orchestrator

    tracer = Tracer(run_id=int(rep.name.split("-")[-1])) if traced else NULL_TRACER
    counters = {"render": {"chars": 0, "truncated": 0}, "save_bytes": 0}
    if traced:
        _install_tracing(cpl, tracer, counters)
    workload = plan["workload"]
    excluded = Excluded()
    probe = Probe(tracer, excluded, plan.get("kill"))
    cpl.orchestrator.prove = probe.timed_prove(cpl.prover.prove)
    cpl.evalharness.prove = probe.timed_prove(cpl.prover.prove)
    rig = Rig(cpl, plan, model, tracer, excluded, costs_on=workload != "cpl-host")
    checks = Checks()

    before_transcript = 0
    drive_started = time.monotonic()
    excluded_before_drive = excluded.s
    if workload == "eval-latency":
        statuses = _eval(cpl, rig, probe, plan, inputs, rep, tracer)
        outs = [
            (rep / "eval", rig.gateways[0], None),
            (rep / "simple", rig.gateways[-1], {"roles": ["simple_loop"], "loops": "simple_loops"}),
        ]
    else:
        out = rep / "run"
        before_transcript = _size(out / "transcript.jsonl")
        _drive_pipeline(cpl, rig, probe, plan, inputs, out, cpl.run_cpl,
                        snapshot=not traced and workload == "cpl-latency")
        outs = [(out, rig.gateways[-1], {"roles": ["conjecturer", "prover"], "loops": "loops"})]
    ended = time.monotonic()
    excluded_in_drive = excluded.s - excluded_before_drive
    first_request = min(p.first_request for p in rig.providers if p.first_request is not None)
    resume_before_first = sum(probe.resumes) if workload == "cpl-host" else 0.0
    setup_s = first_request - spawned - reading_s - resume_before_first
    wall_s = ended - first_request - excluded_in_drive
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_dir_bytes = sum(_tree_bytes(out) for out, _, _ in outs)
    for out, gateway, keys in outs:
        if keys is None:
            _check_eval(plan, out, statuses, gateway, checks)
        else:
            _check_pipeline(cpl, plan, out, gateway, keys, checks)
    for client in rig.repls:
        checks.expect(not client.misses, f"fake REPL had no verdict for {client.misses[:3]}")
    if not traced:
        run = cpl.run_simple_loop if workload == "eval-latency" else cpl.run_cpl
        killed = inputs / "run" if workload == "cpl-host" else _snapshot(outs[-1][0])
        probe.resumes += _resume_probes(cpl, plan, inputs, killed, rep, run)
    dups, exhausted = _transcript_stats(out / "transcript.jsonl" for out, _, _ in outs)
    transport_errors = sum(
        (out / "events.jsonl").read_text(encoding="utf-8").count("verifier transport error")
        for out, _, _ in outs
    )
    gateway_calls = sum(sum(p.calls.values()) for p in rig.providers)
    repl_calls = sum(sum(op["calls"] for op in r.ops.values()) for r in rig.repls)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "theorems": plan["expect"]["theorems"],
        "loops": probe.loops,
        "campaigns": probe.campaigns,
        "resume_s": probe.resumes,
        "peak_rss_mb": peak_rss_mb,
        "run_dir_bytes": run_dir_bytes,
        "failures": checks.failures,
        "attempted": gateway_calls + exhausted + repl_calls + checks.done,
        "failed": exhausted + transport_errors + len(checks.failures),
    }
    if traced:
        counters["transcript_bytes"] = sum(
            _size(out / "transcript.jsonl") for out, _, _ in outs) - before_transcript
        counters["dup_sequences"] = dups
        counters["events_bytes"] = sum(_size(out / "events.jsonl") for out, _, _ in outs)
        layers, nodes = _layer_metrics(
            tracer, rig, probe, plan, outs, ended - drive_started - excluded_in_drive, counters)
        result["layers"] = layers
        tracer.write(rep / "spans.jsonl", nodes)
    (rep / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
