"""In-memory spans for the traced pass, recorded from the benchmark's side.

The program has no span recorder of its own yet, so the traced pass
reaches each in-process layer only through objects the benchmark hands
to public constructors:

* :class:`TracedCounterPRF` — a ``CounterPRF`` that times
  ``evaluate_block`` (queries, the user axis) and ``evaluate_grid``
  (Algorithm 1, the key axis) and counts the points each call evaluates;
* :class:`TracedEngine` — a thin wrapper around a ``QueryEngine`` that
  times ``execute``; ``RemoteServer`` accepts it in place of the engine;
* :class:`TracedSketcher` — a ``Sketcher`` that times ``sketch_many``.

A span is ``[name, start_ns, end_ns, parent, request_id, points]``;
``parent`` is the index of the enclosing span on the same thread.  Times
come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, shared by
every process on the host), so spans recorded in the server child line
up with the client's request spans.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from typing import List, Optional

from repro.core import Sketcher
from repro.core.prf import CounterPRF

NAME, START, END, PARENT, RID, POINTS = range(6)


class SpanRecorder:
    """Spans kept in memory; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, rid: Optional[int] = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent][RID]
        record = [name, time.perf_counter_ns(), 0, parent, rid, 0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[END] = time.perf_counter_ns()
            stack.pop()


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span[START]
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][START]):
            start = max(spans[child][START], cursor)
            end = min(spans[child][END], span[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span[END] - span[START] - covered)
    return out


class TracedCounterPRF(CounterPRF):
    """``CounterPRF`` whose bulk entry points record a span each."""

    def __init__(self, p: float, global_key: bytes, recorder: SpanRecorder) -> None:
        super().__init__(p, global_key)
        self.recorder = recorder

    def evaluate_block(self, user_ids, subset, values, keys):
        with self.recorder.span("prf.evaluate_block") as record:
            out = super().evaluate_block(user_ids, subset, values, keys)
            record[POINTS] = int(out.size)
        return out

    def evaluate_grid(self, user_ids, subset, values, key_rows):
        with self.recorder.span("prf.evaluate_grid") as record:
            out = super().evaluate_grid(user_ids, subset, values, key_rows)
            record[POINTS] = int(out.size)
        return out


class TracedEngine:
    """Times ``QueryEngine.execute``; everything else passes through.

    ``RemoteServer`` reads ``estimator`` (perimeter accounting, pool
    sizing) and ``cache`` (the ``status`` report) from its engine.
    """

    def __init__(self, engine, recorder: SpanRecorder) -> None:
        self.engine = engine
        self.estimator = engine.estimator
        self.cache = engine.cache
        self.recorder = recorder
        self._ids = itertools.count()

    def execute(self, request):
        with self.recorder.span("engine.execute", rid=next(self._ids)):
            return self.engine.execute(request)


class TracedSketcher(Sketcher):
    """``Sketcher`` whose chunk path records a span per call."""

    def __init__(self, *args, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recorder = recorder

    def sketch_many(self, *args, **kwargs):
        with self.recorder.span("sketch.sketch_many"):
            return super().sketch_many(*args, **kwargs)
