"""Append-only run event log: the single source of truth for a run.

Every pipeline action is recorded as one JSON line. Replaying the log
reconstructs the library exactly, which is what resumption and the
report generator build on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable

from .core import (
    JsonLinesLog,
    Library,
    ProofScript,
    TheoremStatement,
    keep_lines,
    read_json_lines,
)

EVENT_KINDS = (
    "phase_start",
    "conjecture_accepted",
    "conjecture_rejected",
    "proof_attempt",
    "theorem_added",
    "loop_complete",
    "run_complete",
    "warning",
)

FIXED_CLOCK_INSTANT = "1970-01-01T00:00:00+00:00"


class SystemClock:
    """Wall-clock timestamps, ISO 8601 with UTC offset."""

    def now(self) -> str:
        return datetime.now(timezone.utc).isoformat(timespec="seconds")


class FixedClock:
    """Constant timestamps for deterministic replay runs."""

    def __init__(self, instant: str = FIXED_CLOCK_INSTANT):
        self.instant = instant

    def now(self) -> str:
        return self.instant


def make_clock(kind: str) -> SystemClock | FixedClock:
    if kind == "system":
        return SystemClock()
    if kind == "fixed":
        return FixedClock()
    raise ValueError(f"unknown clock kind {kind!r}")


@dataclass(frozen=True)
class RunEvent:
    sequence: int
    timestamp: str
    kind: str
    payload: dict

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "kind": self.kind,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunEvent":
        return cls(
            sequence=data["sequence"],
            timestamp=data["timestamp"],
            kind=data["kind"],
            payload=data.get("payload", {}),
        )


class EventLog:
    """The run's event log, one JSON line per event, written through a
    `JsonLinesLog`.

    `log` is either a path, opened with `JsonLinesLog.open`, so a torn
    last line is cut (fsynced) and numbering continues after the last
    event, or a log already opened. An optional `listener` is invoked
    after each event hits the disk; tests use it to inject crashes at
    exact points. Each event opens and closes the file, so a `with`
    block around the log closes nothing.
    """

    def __init__(
        self,
        log: JsonLinesLog | str | Path,
        clock=None,
        listener: Callable[[RunEvent], None] | None = None,
    ):
        if not isinstance(log, JsonLinesLog):
            log = JsonLinesLog.open(log, fsync=True)
        self.log = log
        self.clock = clock or SystemClock()
        self.listener = listener

    def emit(self, kind: str, **payload) -> RunEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = RunEvent(
            sequence=self.log.next_sequence,
            timestamp=self.clock.now(),
            kind=kind,
            payload=payload,
        )
        self.log.append(event.to_dict())
        if self.listener is not None:
            self.listener(event)
        return event

    @property
    def next_sequence(self) -> int:
        return self.log.next_sequence

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        pass


def read_events(path: str | Path) -> list[RunEvent]:
    """The events of a log, in order, read by `read_json_lines`: a torn
    last line is skipped, as `truncate_events` cuts it, and any other
    line that does not parse raises."""
    return [RunEvent.from_dict(data) for data in read_json_lines(path)]


def normalized_event_lines(path: str | Path) -> list[str]:
    """Event lines with timestamps nulled, for run-to-run comparison."""
    lines = []
    for event in read_events(path):
        data = event.to_dict()
        data["timestamp"] = None
        lines.append(json.dumps(data, ensure_ascii=False, sort_keys=True))
    return lines


def truncate_events(path: str | Path, keep: int) -> None:
    """Atomically cut the log back to its first `keep` events.

    Kept lines are copied verbatim, without parsing them again; blank
    lines are dropped.
    """
    keep_lines(path, keep)


def replay_library(events: list[RunEvent], seed_source: str) -> Library:
    """Reconstruct the library from `theorem_added` events alone."""
    return library_from_additions(
        (event.payload for event in events if event.kind == "theorem_added"),
        seed_source,
    )


def library_from_additions(payloads: Iterable[dict], seed_source: str) -> Library:
    """The library that `theorem_added` payloads, in order, build."""
    additions = (
        (
            TheoremStatement(name=p["name"], body=p["body"], source_text=p["statement"]),
            ProofScript(text=p["proof"]),
            p["provenance"],
            p["created_at"],
        )
        for p in payloads
    )
    # Names were already de-collided when the events were written.
    return Library(seed_source=seed_source).extend(additions)
