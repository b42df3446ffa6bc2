"""In-memory spans recorded around calls into the library's layers.

A span has an id, a name, start and end times (``time.perf_counter``
seconds), the id of the span that was open when it started, and the
instance label shared by every span of one pass over the workload's
instance.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.instance = "setup"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "instance": self.instance,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span never overlap (one thread, nested ``with``
    blocks), so the covered time is the sum of their durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def self_time_by_name(spans: list[dict], instance: str) -> dict[str, float]:
    """Self time summed per span name over the spans of one instance label."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        if s["instance"] == instance:
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out
