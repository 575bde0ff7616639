"""In-memory spans for the traced run, and the per-layer table built from them.

A span is (name, start, end, loop, campaign); the loop and campaign are
those current when the span ended. Its layer is the part of the name
before the first dot. Parents are assigned when the run ends,
by interval containment: the run is single-threaded, so calls nest
exactly. A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import json
import time


class NullTracer:
    """Tracer used in untraced runs: records nothing."""

    enabled = False

    def record(self, name: str, start: float, end: float) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    enabled = True

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.loop: int | None = None
        self.campaign: int | None = None
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end, self.loop, self.campaign))

    def wrap(self, fn, name: str, on_call=None):
        """Time every call of `fn` as a span; `on_call(args, kwargs, result)`
        may count what the call did."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.record(name, started, time.perf_counter())
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    def tree(self) -> list[dict]:
        """Spans sorted by start, each with its parent index and self time."""
        order = sorted(self.spans, key=lambda s: (s[1], -s[2]))
        nodes = [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": None,
                "run": self.run_id,
                "loop": loop,
                "campaign": campaign,
                "self_s": end - start,
            }
            for name, start, end, loop, campaign in order
        ]
        stack: list[int] = []
        for index, node in enumerate(nodes):
            while stack and nodes[stack[-1]]["end"] <= node["start"]:
                stack.pop()
            if stack and nodes[stack[-1]]["end"] >= node["end"]:
                parent = stack[-1]
                node["parent"] = parent
                nodes[parent]["self_s"] -= node["end"] - node["start"]
            stack.append(index)
        return nodes

    def write(self, path, nodes: list[dict]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for node in nodes:
                handle.write(json.dumps(node) + "\n")


def layer_self_times(nodes: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for node in nodes:
        layer = node["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + node["self_s"]
    return totals


def span_totals(nodes: list[dict]) -> dict[str, tuple[int, float]]:
    """Per span name: (count, total duration)."""
    totals: dict[str, tuple[int, float]] = {}
    for node in nodes:
        count, total = totals.get(node["name"], (0, 0.0))
        totals[node["name"]] = (count + 1, total + node["end"] - node["start"])
    return totals
