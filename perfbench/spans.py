"""Span recorder for the spmvlab benchmark.

A span is one call the benchmark makes into a layer of spmvlab: its name,
start, end, the span it ran inside, and the run id. Spans are kept in
memory and written out once, when the run ends, as Chrome trace-event JSON
(open the file in chrome://tracing or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import nullcontext


class Tracer:
    """Collects spans for one run; a disabled tracer records nothing.

    ``span(name)`` is a context manager. Disabled, it is a shared no-op
    that yields ``None``; enabled, it yields the span's record, whose
    ``args`` dict the caller may fill in before the span ends.
    """

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._null = nullcontext()

    def span(self, name: str):
        if not self.enabled:
            return self._null
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every finished span called ``name``."""
        return [(s["end"] - s["start"]) * 1e-9 for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def write_chrome(self, path, metadata: dict) -> None:
        """Write the spans as complete ("X") trace events, times in µs."""
        origin = min((s["start"] for s in self.spans), default=0)
        pid, tid = os.getpid(), threading.get_native_id()
        events = []
        for s in self.spans:
            if s["end"] is None:
                continue
            events.append({
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "ts": (s["start"] - origin) / 1e3,
                "dur": (s["end"] - s["start"]) / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"span_id": s["id"], "parent": s["parent"],
                         "run_id": self.run_id, **s["args"]},
            })
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, f)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.record = None

    def __enter__(self):
        t = self.tracer
        self.record = {"id": len(t.spans), "name": self.name,
                       "parent": t._open[-1] if t._open else None,
                       "start": time.perf_counter_ns(), "end": None,
                       "args": {}}
        t.spans.append(self.record)
        t._open.append(self.record["id"])
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter_ns()
        self.tracer._open.pop()
        return False
