"""Evaluation protocols: reprove campaigns, the focused-statement
campaign, the natural-language comparison session with manual grading,
proof-length histograms, and report generation.

Rates are kept as exact fractions end to end; rendering to whole
percent happens only at the output boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .core import (
    JsonLinesLog,
    Library,
    TheoremStatement,
    load_library,
    proof_length,
    read_json_lines,
    write_json,
)
from .events import read_events
from .gateway import ChatRequest, Gateway, TransportError
from .prompts import DEFAULT_NL_STATEMENT, NL_PROVER_PROMPT
from .prover import (
    GATEWAY_FAULT,
    STATUS_FAILED,
    STATUS_UNPROVABLE,
    STATUS_VERIFIED,
    VERIFIER_FAULT,
    prove,
)

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


@dataclass
class ReproveReport:
    mode: str
    per_theorem: list[tuple[int, str]]
    success_count: int
    total: int
    success_rate: Fraction
    breakdown: dict = field(default_factory=dict)
    transport_flagged: list[int] = field(default_factory=list)

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


@dataclass(frozen=True)
class NLGrade:
    response_id: str
    category: str
    grader: str
    note: str = ""

    def __post_init__(self) -> None:
        if self.category not in NL_CATEGORIES:
            raise ValueError(f"unknown grade category {self.category!r}")


def render_percent(rate: Fraction) -> str:
    return f"{round(rate * 100)}%"


def _outcome_had_transport_failure(outcome) -> bool:
    """Whether a fault failed a trial: only `prover`'s two fault messages
    count, never what Lean says."""
    return any(
        diag.message.startswith((GATEWAY_FAULT, VERIFIER_FAULT))
        for attempt in outcome.attempts
        if attempt.result is not None
        for diag in attempt.result.diagnostics
    )


def _make_report(mode: str, per_theorem: list[tuple[int, str]], flagged) -> ReproveReport:
    total = len(per_theorem)
    success = sum(1 for _, status in per_theorem if status == STATUS_VERIFIED)
    breakdown = {
        STATUS_VERIFIED: 0,
        STATUS_FAILED: 0,
        STATUS_UNPROVABLE: 0,
    }
    for _, status in per_theorem:
        breakdown[status] = breakdown.get(status, 0) + 1
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
    max_trials: int = 16,
    prompt_variant: str = "not_provable",
    context_budget: int = 400_000,
    temperature: float = 1.0,
    max_output: int = 16384,
    events=None,
) -> ReproveReport:
    """Re-prove every library entry under one of the two context modes.

    `with_context` gives the prover the entries generated before the
    target; `definitions_only` gives it only the seed.
    """
    if mode not in REPROVE_MODES:
        raise ValueError(f"unknown reprove mode {mode!r}")
    if not library.entries:
        raise ValueError("cannot reprove an empty library")
    per_theorem: list[tuple[int, str]] = []
    flagged: list[int] = []
    for entry in library.entries:
        if mode == "with_context":
            context_library = library.prefix(entry.sequence_index)
        else:
            context_library = Library(seed_source=library.seed_source)
        outcome = prove(
            entry.statement,
            context_library,
            session,
            gateway,
            max_trials=max_trials,
            prompt_variant=prompt_variant,
            context_budget=context_budget,
            temperature=temperature,
            max_output=max_output,
            events=events,
            event_extra={"reprove_index": entry.sequence_index, "mode": mode},
        )
        per_theorem.append((entry.sequence_index, outcome.status))
        if _outcome_had_transport_failure(outcome):
            flagged.append(entry.sequence_index)
    return _make_report(mode, per_theorem, flagged)


def reprove_focused(
    statement: TheoremStatement,
    library_prefix: Library,
    session,
    gateway: Gateway,
    n: int = DEFAULT_FOCUSED_REPETITIONS,
    max_trials: int = 16,
    prompt_variant: str = "false",
    context_budget: int = 400_000,
    temperature: float = 1.0,
    max_output: int = 16384,
    events=None,
) -> ReproveReport:
    """Run `n` independent prover campaigns for one focused statement.

    The report's breakdown is three-way: verified, failed attempts,
    and declared-false (the empty-response surrender under the
    falsity-judgment prompt).
    """
    per_theorem: list[tuple[int, str]] = []
    flagged: list[int] = []
    for repetition in range(n):
        outcome = prove(
            statement,
            library_prefix,
            session,
            gateway,
            max_trials=max_trials,
            prompt_variant=prompt_variant,
            context_budget=context_budget,
            temperature=temperature,
            max_output=max_output,
            events=events,
            event_extra={"focused_repetition": repetition},
        )
        per_theorem.append((repetition, outcome.status))
        if _outcome_had_transport_failure(outcome):
            flagged.append(repetition)
    mode = f"focused[{len(library_prefix.entries)} entries]"
    return _make_report(mode, per_theorem, flagged)


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
    temperature: float = 1.0,
    max_output: int = 16384,
    events=None,
) -> list[str]:
    """Collect `n` natural-language proof attempts for manual grading.

    Responses are stored as raw text files; a literal "False" response
    is auto-graded rejected_as_false, everything else stays pending.
    Their ids continue after those already in the directory's index.
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
        (nl_dir / f"{response_id}.txt").write_text(text, encoding="utf-8")
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
        if events is not None:
            events.emit(
                "warning",
                message=f"nl response {response_id} stored ({status})",
                where="nl_session",
            )
        ids.append(response_id)
    return ids


def _append_grade(out_dir: str | Path, grade: NLGrade) -> None:
    JsonLinesLog.open(_grades_path(out_dir)).append(
        {
            "response_id": grade.response_id,
            "category": grade.category,
            "grader": grade.grader,
            "note": grade.note,
        }
    )


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
    _append_grade(out_dir, grade)
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def summarize_events(events_path: str | Path) -> dict:
    """Aggregate one run's event log into counters."""
    events = read_events(events_path)
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
    text_path.write_text("\n".join(text_lines) + "\n", encoding="utf-8")
    written["report.txt"] = text_path
    return written
