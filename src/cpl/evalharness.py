"""Evaluation protocols: reprove campaigns, the focused-statement
campaign, the natural-language comparison session with manual grading,
proof-length histograms, and report generation.

Rates are kept as exact fractions end to end; rendering to whole
percent happens only at the output boundary.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .core import (
    FrozenRecord,
    JsonLinesLog,
    Library,
    Record,
    TheoremStatement,
    dump_library,
    library_seed,
    load_library,
    proof_length,
    read_json_lines,
    temp_files,
    write_atomically,
    write_json,
)
from .events import RunEvent, read_events, replay_library
from .gateway import (
    DEFAULT_MAX_OUTPUT,
    DEFAULT_TEMPERATURE,
    ChatRequest,
    Gateway,
    TransportError,
    read_transcript,
)
from .prompts import DEFAULT_NL_STATEMENT, NL_PROVER_PROMPT
from .prover import STATUS_FAILED, STATUS_UNPROVABLE, STATUS_VERIFIED, prove

if TYPE_CHECKING:
    from fractions import Fraction

REPROVE_MODES = ("with_context", "definitions_only")

NL_CATEGORIES = ("correctly_proven", "gap", "rejected_as_false")

DEFAULT_FOCUSED_REPETITIONS = 128
DEFAULT_NL_REPETITIONS = 16


class PendingGradesError(RuntimeError):
    def __init__(self, pending: list[str]):
        super().__init__(
            "cannot finalize: ungraded responses remain: " + ", ".join(pending)
        )
        self.pending = pending


class ReproveReport(Record):
    """The outcome of re-proving a library's theorems in one mode: each
    theorem's status and the success rate."""

    def __init__(
        self,
        mode: str,
        per_theorem: list[tuple[int, str]],
        success_count: int,
        total: int,
        success_rate: Fraction,
        breakdown: dict | None = None,
        transport_flagged: list[int] | None = None,
    ):
        self.mode = mode
        self.per_theorem = per_theorem
        self.success_count = success_count
        self.total = total
        self.success_rate = success_rate
        self.breakdown = {} if breakdown is None else breakdown
        self.transport_flagged = [] if transport_flagged is None else transport_flagged

    @property
    def percent(self) -> str:
        return render_percent(self.success_rate)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "per_theorem": [
                {"index": index, "status": status}
                for index, status in self.per_theorem
            ],
            "success_count": self.success_count,
            "total": self.total,
            "success_rate": {
                "numerator": self.success_rate.numerator,
                "denominator": self.success_rate.denominator,
                "exact": f"{self.success_count}/{self.total}",
                "percent": self.percent,
            },
            "breakdown": self.breakdown,
            "transport_flagged": self.transport_flagged,
        }


class NLGrade(FrozenRecord):
    """A grader's category for one natural-language proof response."""

    def __init__(self, response_id: str, category: str, grader: str, note: str = ""):
        if category not in NL_CATEGORIES:
            raise ValueError(f"unknown grade category {category!r}")
        self.__dict__.update(response_id=response_id, category=category, grader=grader, note=note)


def render_percent(rate: Fraction) -> str:
    return f"{round(rate * 100)}%"


def _run_campaigns(mode: str, campaigns, session, gateway: Gateway, **options) -> ReproveReport:
    """One `prove` campaign for each `(key, statement, context library,
    event_extra)` of `campaigns`, with `options` passed on, reported under
    `mode`: each key's status, the breakdown, and the keys whose campaign
    lost a trial to a gateway or verifier fault (a result with a `fault`,
    never a verdict of Lean's). `prove` is looked up in this module at
    each campaign, so a wrap of `evalharness.prove` sees them all."""
    # Imported here: `fractions` loads `decimal`, and only a reprove
    # campaign's report needs an exact rate.
    from fractions import Fraction

    per_theorem: list[tuple[int, str]] = []
    flagged: list[int] = []
    breakdown = {STATUS_VERIFIED: 0, STATUS_FAILED: 0, STATUS_UNPROVABLE: 0}
    for key, statement, context, event_extra in campaigns:
        outcome = prove(statement, context, session, gateway, event_extra=event_extra, **options)
        per_theorem.append((key, outcome.status))
        breakdown[outcome.status] = breakdown.get(outcome.status, 0) + 1
        if any(a.result is not None and a.result.fault is not None for a in outcome.attempts):
            flagged.append(key)
    total, success = len(per_theorem), breakdown[STATUS_VERIFIED]
    return ReproveReport(
        mode=mode,
        per_theorem=per_theorem,
        success_count=success,
        total=total,
        success_rate=Fraction(success, total) if total else Fraction(0),
        breakdown=breakdown,
        transport_flagged=sorted(flagged),
    )


def reprove_all(
    library: Library,
    mode: str,
    session,
    gateway: Gateway,
    events=None,
    **options,
) -> ReproveReport:
    """Re-prove every library entry under one of the two context modes.

    `with_context` gives the prover the entries generated before the
    target; `definitions_only` gives it only the seed. `options` are
    `prove`'s campaign options (`max_trials`, `prompt_variant`,
    `context_budget`, `temperature`, `max_output`), passed to each
    campaign with `events`; `prove`'s defaults fill the rest.
    """
    if mode not in REPROVE_MODES:
        raise ValueError(f"unknown reprove mode {mode!r}")
    if not library.entries:
        raise ValueError("cannot reprove an empty library")
    if mode == "with_context":
        # Rendered once here, so each prefix below starts from this
        # rendering; a loaded library has none to derive them from.
        library.rendered
    campaigns = (
        (
            entry.sequence_index,
            entry.statement,
            library.prefix(entry.sequence_index)
            if mode == "with_context"
            else Library(seed_source=library.seed_source),
            {"reprove_index": entry.sequence_index, "mode": mode},
        )
        for entry in library.entries
    )
    return _run_campaigns(mode, campaigns, session, gateway, events=events, **options)


def reprove_focused(
    statement: TheoremStatement,
    library_prefix: Library,
    session,
    gateway: Gateway,
    n: int = DEFAULT_FOCUSED_REPETITIONS,
    events=None,
    **options,
) -> ReproveReport:
    """Run `n` independent prover campaigns for one focused statement.

    `options` are `prove`'s campaign options, passed on as `reprove_all`
    passes them, except that `prompt_variant` defaults to `"false"`. The
    report's breakdown is three-way: verified, failed attempts, and
    declared-false (the empty-response surrender under the
    falsity-judgment prompt).
    """
    options.setdefault("prompt_variant", "false")
    campaigns = (
        (repetition, statement, library_prefix, {"focused_repetition": repetition})
        for repetition in range(n)
    )
    mode = f"focused[{len(library_prefix.entries)} entries]"
    return _run_campaigns(mode, campaigns, session, gateway, events=events, **options)


# ---------------------------------------------------------------------------
# Natural-language comparison session
# ---------------------------------------------------------------------------


def _nl_dir(out_dir: str | Path) -> Path:
    return Path(out_dir) / "nl_responses"


def _grades_path(out_dir: str | Path) -> Path:
    return Path(out_dir) / "grades.jsonl"


def nl_session(
    gateway: Gateway,
    statement_text: str = DEFAULT_NL_STATEMENT,
    n: int = DEFAULT_NL_REPETITIONS,
    out_dir: str | Path = ".",
    temperature: float = DEFAULT_TEMPERATURE,
    max_output: int = DEFAULT_MAX_OUTPUT,
) -> list[str]:
    """Collect `n` natural-language proof attempts for manual grading.

    Responses are stored as raw text files; a literal "False" response
    is auto-graded rejected_as_false, everything else stays pending.
    Their ids continue after those already in the directory's index.
    Each response file and the transcript are fsynced before the index
    line that names the response, the index and the grades before this
    returns.
    """
    nl_dir = _nl_dir(out_dir)
    nl_dir.mkdir(parents=True, exist_ok=True)
    # Index records carry no sequence, so this counts them: records, not
    # ids, since an index written by older versions can list an id twice.
    index = JsonLinesLog.open(nl_dir / "index.jsonl")
    first = index.next_sequence
    ids: list[str] = []
    for i in range(first, first + n):
        response_id = f"response_{i:03d}"
        request = ChatRequest(
            role_id="nl_prover",
            system_prompt=NL_PROVER_PROMPT,
            user_content=statement_text,
            temperature=temperature,
            max_output=max_output,
        )
        try:
            response = gateway.complete(request)
            text = response.text
            status = "pending"
        except TransportError as exc:
            text = f"[failed to fetch: {exc}]"
            status = "failed_fetch"
        if status == "pending" and text.strip() == "False":
            status = "rejected_as_false"
        # An index line never names a response file or a transcript line
        # that a power loss can take.
        write_atomically(nl_dir / f"{response_id}.txt", text.encode("utf-8"))
        gateway.sync()
        index.append({"id": response_id, "status": status})
        if status == "rejected_as_false":
            _append_grade(
                out_dir,
                NLGrade(
                    response_id=response_id,
                    category="rejected_as_false",
                    grader="auto",
                    note="literal False response",
                ),
            )
        ids.append(response_id)
    index.sync()
    JsonLinesLog(_grades_path(out_dir)).sync()
    return ids


def _append_grade(out_dir: str | Path, grade: NLGrade) -> JsonLinesLog:
    grades = JsonLinesLog.open(_grades_path(out_dir))
    grades.append(grade.as_dict())
    return grades


def _read_index(out_dir: str | Path) -> dict[str, str]:
    index_path = _nl_dir(out_dir) / "index.jsonl"
    if not index_path.exists():
        raise FileNotFoundError(f"no NL session found: {index_path} is missing")
    return {record["id"]: record["status"] for record in read_json_lines(index_path)}


def _read_grades(out_dir: str | Path) -> dict[str, NLGrade]:
    path = _grades_path(out_dir)
    if not path.exists():
        return {}
    # Append-only audit trail: the latest grade wins.
    return {
        record["response_id"]: NLGrade(
            response_id=record["response_id"],
            category=record["category"],
            grader=record["grader"],
            note=record.get("note", ""),
        )
        for record in read_json_lines(path)
    }


def grade_response(
    out_dir: str | Path,
    response_id: str,
    category: str,
    grader: str,
    note: str = "",
) -> NLGrade:
    """Record a manual grade; re-grading appends to the audit trail."""
    statuses = _read_index(out_dir)
    if response_id not in statuses:
        raise KeyError(f"unknown response id {response_id!r}")
    grade = NLGrade(
        response_id=response_id, category=category, grader=grader, note=note
    )
    _append_grade(out_dir, grade).sync()
    return grade


def nl_report(out_dir: str | Path, require_complete: bool = True) -> dict:
    """Three-way breakdown of the NL session; refuses while grades are pending."""
    statuses = _read_index(out_dir)
    grades = _read_grades(out_dir)
    pending = [
        response_id
        for response_id, status in sorted(statuses.items())
        if status != "failed_fetch" and response_id not in grades
    ]
    if pending and require_complete:
        raise PendingGradesError(pending)
    counts = {category: 0 for category in NL_CATEGORIES}
    for grade in grades.values():
        counts[grade.category] += 1
    return {
        "total": len(statuses),
        "failed_fetch": sum(1 for s in statuses.values() if s == "failed_fetch"),
        "pending": pending,
        "categories": counts,
    }


# ---------------------------------------------------------------------------
# Proof-length analysis and report files
# ---------------------------------------------------------------------------


def proof_length_histogram(
    library: Library, bin_width: int = 10, metric: str = "lines"
) -> list[tuple[int, int]]:
    """Histogram of proof lengths over `[k*w, (k+1)*w)` bins.

    Only nonempty bins are returned; counts always sum to the number
    of entries.
    """
    if bin_width < 1:
        raise ValueError("bin width must be >= 1")
    counts: dict[int, int] = {}
    for entry in library.entries:
        length = proof_length(entry.proof, metric=metric)
        start = (length // bin_width) * bin_width
        counts[start] = counts.get(start, 0) + 1
    return sorted(counts.items())


def histogram_rows(
    histogram: list[tuple[int, int]], bin_width: int
) -> list[tuple[int, int, int]]:
    return [(start, start + bin_width, count) for start, count in histogram]


def write_histogram_csv(
    path: str | Path, histogram: list[tuple[int, int]], bin_width: int, metric: str
) -> None:
    lines = ["bin_start,bin_end,count,metric"]
    for start, end, count in histogram_rows(histogram, bin_width):
        lines.append(f"{start},{end},{count},{metric}")
    write_atomically(path, ("\n".join(lines) + "\n").encode("utf-8"), fsync=False)


def _format_histogram_table(
    histogram: list[tuple[int, int]], bin_width: int, metric: str
) -> list[str]:
    lines = [f"proof length histogram (metric={metric}, bin width={bin_width})"]
    if not histogram:
        lines.append("  (empty library)")
        return lines
    for start, end, count in histogram_rows(histogram, bin_width):
        lines.append(f"  [{start:4d}, {end:4d}): {count}")
    lines.append(f"  total: {sum(c for _, c in histogram)}")
    return lines


def summarize_events(events: str | Path | list[RunEvent]) -> dict:
    """Aggregate one run's event log into counters: `events` is the log's
    path, or the events already read from it."""
    if isinstance(events, (str, Path)):
        events = read_events(events)
    rejected: dict[str, int] = {}
    accepted = 0
    proof_attempts = 0
    theorems = 0
    loops = 0
    warnings = 0
    gateway_calls: dict = {}
    for event in events:
        if event.kind == "conjecture_accepted":
            accepted += 1
        elif event.kind == "conjecture_rejected":
            reason = event.payload.get("reason", "unknown")
            rejected[reason] = rejected.get(reason, 0) + 1
        elif event.kind == "proof_attempt":
            proof_attempts += 1
        elif event.kind == "theorem_added":
            theorems += 1
        elif event.kind == "loop_complete":
            loops = max(loops, event.payload.get("loop", 0))
            gateway_calls = event.payload.get("gateway_calls", gateway_calls)
        elif event.kind == "run_complete":
            gateway_calls = event.payload.get("gateway_calls", gateway_calls)
        elif event.kind == "warning":
            warnings += 1
    return {
        "events": len(events),
        "loops_completed": loops,
        "conjectures_accepted": accepted,
        "conjectures_rejected": rejected,
        "proof_attempts": proof_attempts,
        "theorems_added": theorems,
        "warnings": warnings,
        "gateway_calls": gateway_calls,
    }


def _run_dir(path: str | Path) -> Path:
    path = Path(path)
    if not any((path / name).exists() for name in ("events.jsonl", "transcript.jsonl")):
        raise FileNotFoundError(f"{path} holds neither events.jsonl nor transcript.jsonl")
    return path


def check_run(run_dir: str | Path) -> list[str]:
    """Where one run directory's files disagree, a finding a line:
    `library.lean` against the library the event log builds on its seed
    (the text before its first entry, which is not parsed); an event log
    or transcript whose sequence numbers are not 0, 1, 2, ... in file
    order; a transcript that does not decode, or holds fewer lines of a
    role than the last `loop_complete` or `run_complete` counts (eval
    commands may append more); `report.json`'s `library_entries` and
    `gateway_calls` against the log's; a temp file a killed atomic write
    left, in the directory or under `nl_responses/`."""
    run_dir = _run_dir(run_dir)
    events_path, library = run_dir / "events.jsonl", run_dir / "library.lean"
    findings, entries = [], []
    summary = {"theorems_added": 0, "gateway_calls": {}}
    if events_path.exists():
        events = read_events(events_path)
        summary = summarize_events(events)
        findings += _sequence_findings("events.jsonl", [event.sequence for event in events])
        if library.exists():
            text = library.read_text(encoding="utf-8")
            if dump_library(replay_library(events, library_seed(text))) != text:
                findings.append("library.lean: not the library the event log builds")
    try:
        if (run_dir / "transcript.jsonl").exists():
            entries = read_transcript(run_dir / "transcript.jsonl")
    except (KeyError, ValueError) as exc:
        findings.append(f"transcript.jsonl: does not decode: {exc!r}")
    findings += _sequence_findings("transcript.jsonl", [entry.get("sequence") for entry in entries])
    roles = [entry["role_id"] for entry in entries]
    for role, logged in summary["gateway_calls"].items():
        if roles.count(role) < logged:
            findings.append(f"transcript.jsonl: {roles.count(role)} {role} lines, {logged} logged")
    if (run_dir / "report.json").exists():
        report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
        logged = {"library_entries": summary["theorems_added"], "gateway_calls": summary["gateway_calls"]}
        for key, value in logged.items():
            if key in report and report[key] != value:
                findings.append(f"report.json: {key} is {report[key]}, {value} logged")
    for path in temp_files(run_dir) + temp_files(_nl_dir(run_dir)):
        findings.append(f"{path.relative_to(run_dir)}: a temp file a killed write left")
    return findings


def _sequence_findings(name: str, sequences: list) -> list[str]:
    """A finding for the first record of `name` whose sequence number is
    not its place in the file, counted from 0; none if there is none."""
    for place, sequence in enumerate(sequences):
        if sequence != place:
            return [f"{name}: record {place} has sequence {sequence}"]
    return []


# Where each of two directories of one run was written, and whether it
# was resumed or replayed.
_PLACE_KEYS = ("output_dir", "resume", "replay_dir", "clock")


def _same_run_view(path: Path):
    """What `same_run` compares of one run file."""
    if path.name == "events.jsonl":
        return [(e.kind, e.payload) for e in read_events(path) if e.payload.get("where") != "resume"]
    if path.name == "transcript.jsonl":
        return [(entry["role_id"], entry["request"]) for entry in read_transcript(path)]
    if path.name == "report.json":
        report = json.loads(path.read_text(encoding="utf-8"))
        for key in _PLACE_KEYS:
            report.get("config", {}).pop(key, None)
        return report
    return path.read_bytes()


def same_run(a: str | Path, b: str | Path) -> list[str]:
    """Where run directories `a` and `b` do not hold the same run, a
    finding a line: `library.lean` and each `reprove_*.json` byte for
    byte; events by kind and payload, in order, but for a resume's notes
    (`where: "resume"`); each transcript line's role and whole request;
    `report.json` but for its config's `output_dir`, `resume`,
    `replay_dir` and `clock`. A file in only one of them is a finding."""
    dirs = (_run_dir(a), _run_dir(b))
    patterns = ("library.lean", "events.jsonl", "transcript.jsonl", "report.json", "reprove_*.json")
    findings = []
    for name in sorted({p.name for d in dirs for pattern in patterns for p in d.glob(pattern)}):
        missing = [str(d) for d in dirs if not (d / name).exists()]
        if missing:
            findings.append(f"{name}: not in {missing[0]}")
            continue
        try:
            left, right = (_same_run_view(d / name) for d in dirs)
        except (KeyError, ValueError) as exc:
            findings.append(f"{name}: does not read: {exc!r}")
            continue
        if left != right:
            findings.append(f"{name}: {_difference(left, right)}")
    return findings


def _difference(left, right) -> str:
    if isinstance(left, dict):
        keys = sorted(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
        return "differs in " + ", ".join(keys)
    pairs = enumerate(zip(left, right))
    first = next((i for i, (x, y) in pairs if x != y), min(len(left), len(right)))
    return f"differs from {'byte' if isinstance(left, bytes) else 'record'} {first} on"


def emit_reports(
    run_dir: str | Path, bin_width: int = 10, metric: str = "lines"
) -> dict[str, Path]:
    """Render a run directory into report.json plus plain-text tables.

    An existing report.json (the run's own summary) is updated in
    place, so the run's keys survive.
    """
    run_dir = Path(run_dir)
    events_path = run_dir / "events.jsonl"
    if not events_path.exists():
        raise FileNotFoundError(f"missing event log: {events_path}")
    summary = summarize_events(events_path)

    report_path = run_dir / "report.json"
    report: dict = {}
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    report["run"] = summary
    text_lines: list[str] = ["run summary"]
    for key, value in summary.items():
        text_lines.append(f"  {key}: {value}")

    written: dict[str, Path] = {}
    library_path = run_dir / "library.lean"
    if library_path.exists():
        library = load_library(library_path)
        histogram = proof_length_histogram(library, bin_width, metric)
        report["library"] = {
            "entries": len(library.entries),
            "histogram": {
                "bin_width": bin_width,
                "metric": metric,
                "bins": histogram_rows(histogram, bin_width),
            },
        }
        csv_path = run_dir / "histogram.csv"
        write_histogram_csv(csv_path, histogram, bin_width, metric)
        written["histogram.csv"] = csv_path
        text_lines.append("")
        text_lines.extend(_format_histogram_table(histogram, bin_width, metric))

    reprove_reports = []
    for path in sorted(run_dir.glob("reprove_*.json")):
        reprove_reports.append(json.loads(path.read_text(encoding="utf-8")))
    if reprove_reports:
        report["reprove"] = reprove_reports
        text_lines.append("")
        text_lines.append("reprove campaigns")
        for item in reprove_reports:
            rate = item["success_rate"]
            text_lines.append(
                f"  {item['mode']}: {rate['exact']} ({rate['percent']})"
            )

    if (_nl_dir(run_dir) / "index.jsonl").exists():
        nl = nl_report(run_dir, require_complete=False)
        report["nl"] = nl
        text_lines.append("")
        text_lines.append("natural-language session")
        for category, count in nl["categories"].items():
            text_lines.append(f"  {category}: {count}")
        if nl["pending"]:
            text_lines.append(f"  pending grades: {len(nl['pending'])}")

    write_json(report_path, report)
    written["report.json"] = report_path
    text_path = run_dir / "report.txt"
    write_atomically(text_path, ("\n".join(text_lines) + "\n").encode("utf-8"), fsync=False)
    written["report.txt"] = text_path
    return written
