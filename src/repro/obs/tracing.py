"""Tracing spans over the engine's hot boundaries (stdlib only).

A :class:`Tracer` hands out nestable ``span(name, **attrs)`` context
managers.  Each completed span becomes one :class:`SpanRecord` pushed to a
recorder -- either a bounded in-memory :class:`RingRecorder` or an
append-only :class:`JsonlRecorder` event log (one JSON object per line,
replayable, ``repro trace export`` turns it into a Chrome trace-event
document perfetto can open).

Instrumented modules never hold a tracer themselves: they call the
module-level :func:`span` helper, which is a no-op returning a shared null
context while no tracer is installed (one global read -- the
uninstrumented fast path costs a dict-free attribute check).  The tracer
is process-local by design: spans record wall-clock boundaries, never
anything fed back into a simulation, so instrumentation cannot perturb
results (see :mod:`repro.obs`).  Spans survive a process pool: while the
parent has a tracer, each pool task runs under :func:`capture_spans` on
the parent's timeline and returns its records, and the parent replays
them into its own recorder (:meth:`Tracer.replay`) under the worker's pid.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "SpanRecord",
    "RingRecorder",
    "JsonlRecorder",
    "Tracer",
    "span",
    "install_tracer",
    "uninstall_tracer",
    "current_tracer",
    "capture_spans",
    "chrome_trace_document",
    "load_span_records",
    "trace_report",
]


@dataclass
class SpanRecord:
    """One completed span: a named, timed interval with attributes."""

    name: str
    ts_us: int  # start, microseconds on the perf_counter timeline
    dur_us: int
    pid: int
    tid: int
    depth: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "name": self.name,
            "ts_us": self.ts_us,
            "dur_us": self.dur_us,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
        }
        if self.args:
            document["args"] = self.args
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "SpanRecord":
        return cls(
            name=str(document["name"]),
            ts_us=int(document["ts_us"]),
            dur_us=int(document["dur_us"]),
            pid=int(document.get("pid", 0)),
            tid=int(document.get("tid", 0)),
            depth=int(document.get("depth", 0)),
            args=dict(document.get("args") or {}),
        )


class RingRecorder:
    """Keep the most recent ``capacity`` spans in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self._spans: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def spans(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def close(self) -> None:  # pragma: no cover - symmetry with Jsonl
        pass


class JsonlRecorder:
    """Append spans to a JSONL event log, one JSON object per line.

    The file is append-only and line-buffered through a lock, so several
    threads (the service daemon's request handlers, workers) interleave
    whole lines, never partial ones.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def record(self, record: SpanRecord) -> None:
        line = json.dumps(record.to_dict(), sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def spans(self) -> List[SpanRecord]:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
        return load_span_records(self.path)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class _Span:
    """Context manager measuring one interval; re-entrant never, nested yes."""

    __slots__ = ("_tracer", "name", "args", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start_ns = 0
        self._depth = 0

    def __enter__(self) -> "_Span":
        self._depth = self._tracer._enter()
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_ns = time.perf_counter_ns()
        self._tracer._exit()
        if exc_type is not None:
            self.args = dict(self.args, error=exc_type.__name__)
        self._tracer._record(
            SpanRecord(
                name=self.name,
                ts_us=(self._start_ns - self._tracer.epoch_ns) // 1000,
                dur_us=max(0, (end_ns - self._start_ns) // 1000),
                # Read per span, not per tracer: a worker forked with an
                # installed tracer records under its own pid.
                pid=os.getpid(),
                tid=threading.get_ident() & 0x7FFFFFFF,
                depth=self._depth,
                args=self.args,
            )
        )


class Tracer:
    """Hands out nestable spans and pushes completed ones to a recorder."""

    def __init__(self, recorder: Optional[Any] = None) -> None:
        self.recorder = recorder if recorder is not None else RingRecorder()
        #: The ``perf_counter_ns()`` reading span timestamps count from.
        #: That clock is monotonic and system-wide, so a worker process
        #: given the parent's epoch records on the parent's timeline.
        self.epoch_ns = time.perf_counter_ns()
        self._depths = threading.local()

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, name, attrs)

    def spans(self) -> List[SpanRecord]:
        return self.recorder.spans()

    def close(self) -> None:
        self.recorder.close()

    def replay(self, records: Iterable[SpanRecord]) -> None:
        """Push spans another process recorded on this tracer's timeline.

        They keep the pid and thread id that recorded them.
        """
        for record in records:
            self.recorder.record(record)

    # -- internal -------------------------------------------------------- #
    def _enter(self) -> int:
        depth = getattr(self._depths, "value", 0)
        self._depths.value = depth + 1
        return depth

    def _exit(self) -> None:
        self._depths.value = max(0, getattr(self._depths, "value", 1) - 1)

    def _record(self, record: SpanRecord) -> None:
        self.recorder.record(record)


# ---------------------------------------------------------------------- #
# The process-wide tracer the instrumented modules talk to.
# ---------------------------------------------------------------------- #
_TRACER: Optional[Tracer] = None


@contextlib.contextmanager
def _null_span():
    yield None


def install_tracer(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide tracer; returns it for chaining."""
    global _TRACER
    _TRACER = tracer
    return tracer


def uninstall_tracer() -> None:
    """Remove the process-wide tracer (spans become no-ops again)."""
    global _TRACER
    _TRACER = None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


@contextlib.contextmanager
def capture_spans(epoch_ns: int):
    """Record this process's spans into a fresh ring for the block.

    A pool worker runs each task of a traced parent under it, on the
    parent's ``epoch_ns``, and returns the yielded tracer's records for
    the parent to :meth:`Tracer.replay`.  A tracer the worker inherited
    under ``fork`` is set aside meanwhile, so no span is written twice.
    """
    global _TRACER
    inherited = _TRACER
    tracer = _TRACER = Tracer(RingRecorder())
    tracer.epoch_ns = epoch_ns
    try:
        yield tracer
    finally:
        _TRACER = inherited


def span(name: str, **attrs: Any):
    """A span on the installed tracer, or a shared no-op context manager.

    This is the only call instrumented modules make -- they never need to
    know whether tracing is on.
    """
    tracer = _TRACER
    if tracer is None:
        return _null_span()
    return tracer.span(name, **attrs)


# ---------------------------------------------------------------------- #
# Export + reporting
# ---------------------------------------------------------------------- #
def load_span_records(path: str) -> List[SpanRecord]:
    """Read a JSONL span log back into records (malformed lines rejected)."""
    records: List[SpanRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(SpanRecord.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as error:
                raise ValueError(
                    f"{path}:{number}: not a span record: {error}"
                ) from error
    return records


def chrome_trace_document(
    records: Iterable[SpanRecord],
) -> Dict[str, Any]:
    """Chrome trace-event JSON (the ``traceEvents`` form perfetto opens).

    Every span becomes a complete event (``"ph": "X"``) -- perfetto nests
    them by pid/tid/timestamp containment, which matches how the spans
    were produced.
    """
    events: List[Dict[str, Any]] = []
    for record in records:
        event: Dict[str, Any] = {
            "name": record.name,
            "ph": "X",
            "ts": record.ts_us,
            "dur": record.dur_us,
            "pid": record.pid,
            "tid": record.tid,
        }
        if record.args:
            event["args"] = record.args
        events.append(event)
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _percentile_us(sorted_values: List[int], pct: float) -> int:
    """Nearest-rank percentile (matches the stats module's convention)."""
    if not sorted_values:
        return 0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def trace_report(records: Iterable[SpanRecord]) -> List[Dict[str, Any]]:
    """Per-span-name summary rows: count, total, p50, p95 (microseconds).

    Rows are sorted by total time descending, then by name for ties, so
    the hottest boundary is on top.
    """
    by_name: Dict[str, List[int]] = {}
    for record in records:
        by_name.setdefault(record.name, []).append(record.dur_us)
    rows: List[Dict[str, Any]] = []
    for name, durations in by_name.items():
        durations.sort()
        rows.append({
            "name": name,
            "count": len(durations),
            "total_us": sum(durations),
            "p50_us": _percentile_us(durations, 50),
            "p95_us": _percentile_us(durations, 95),
            "max_us": durations[-1],
        })
    rows.sort(key=lambda row: (-row["total_us"], row["name"]))
    return rows
