"""Per-layer timing of the traced pass, measured from outside the program.

:class:`LayerTracer` installs a :mod:`repro.obs` tracer and wraps the
public entry point of each layer, as bound where its callers look it up,
in a span named after the layer.  Nothing inside ``src/`` changes; the
wrappers are removed again on exit.  A layer's self time is its spans'
duration minus the part covered by nested layer spans on the same
thread, so the layers of a serial run add up to the traced wall time and
whatever the spans miss is reported as ``unaccounted_s``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from e2e_workloads import POLICIES
from repro.api import RingRecorder, SpanRecord, Tracer, install_tracer, uninstall_tracer


def _kernel_args(record, args, kwargs, result) -> None:
    simulator = args[0]
    record.args["policy"] = simulator.network.policy.name
    record.args["router_cycles"] = _router_cycles([result])


def _group_args(record, args, kwargs, result) -> None:
    record.args["policy"] = args[0][0].network.policy.name
    record.args["router_cycles"] = _router_cycles(result)


def _router_cycles(results) -> int:
    return sum(
        r.num_nodes * (r.warmup_cycles + r.measurement_cycles + r.drain_cycles_used)
        for r in results
    )


def _batch_args(record, args, kwargs, result) -> None:
    batch = args[0]
    record.args.update(
        memo_hits=batch.last_memo_hits,
        memo_misses=batch.last_memo_misses,
        replica_groups=batch.last_replica_groups,
        executed=batch.last_executed,
        cached=batch.last_cached,
    )


#: (module, attribute path, layer span, annotate).  Module-level functions
#: are wrapped in every module that imported them by name, because that is
#: the binding their callers use.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.exec.batch", "ExperimentBatch.run", "exec.batch", _batch_args),
    ("repro.exec.cache", "ResultCache.get", "exec.cache.get", None),
    ("repro.exec.cache", "ResultCache.put", "exec.cache.put", None),
    ("repro.service.store", "SqliteResultCache.get", "exec.cache.get", None),
    ("repro.service.store", "SqliteResultCache.put", "exec.cache.put", None),
    ("repro.analysis.runner", "optimize_elevator_subsets", "core.offline", None),
    ("repro.analysis.runner", "build_network", "analysis.build_network", None),
    ("repro.exec.batch", "build_network", "analysis.build_network", None),
    ("repro.analysis.runner", "build_packet_source", "traffic.build_source", None),
    ("repro.exec.batch", "build_packet_source", "traffic.build_source", None),
    ("repro.sim.engine", "Simulator.run", "sim.kernel", _kernel_args),
    ("repro.sim.backends.batched", "run_replica_group", "sim.kernel", _group_args),
    ("repro.service.client", "ServiceClient.submit_receipt", "service.http", None),
    ("repro.service.client", "ServiceClient.status", "service.http", None),
    ("repro.service.client", "ServiceClient.result_documents", "service.http", None),
    ("repro.service.client", "ServiceClient.metrics", "service.http", None),
    ("repro.service.client", "ServiceClient.wait", "service.wait", None),
)

LAYER_SPANS = frozenset(layer for _, _, layer, _ in ENTRY_POINTS)


class MissingEntryPoint(RuntimeError):
    """A wrapped entry point no longer exists where the benchmark looks."""


class LayerTracer:
    """Context manager: tracer installed and every entry point wrapped."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.tracer = Tracer(RingRecorder(capacity=capacity))
        self.capacity = capacity
        self._restore: List[Callable[[], None]] = []

    def __enter__(self) -> "LayerTracer":
        try:
            for module_name, path, layer, annotate in ENTRY_POINTS:
                self._wrap(module_name, path, layer, annotate)
        except BaseException:
            self._unwrap()
            raise
        install_tracer(self.tracer)
        return self

    def __exit__(self, *exc_info) -> None:
        uninstall_tracer()
        self._unwrap()

    def spans(self) -> List[SpanRecord]:
        spans = self.tracer.spans()
        if len(spans) >= self.capacity:
            raise RuntimeError("span ring overflowed; raise its capacity")
        return spans

    def _wrap(self, module_name: str, path: str, layer: str, annotate) -> None:
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            raise MissingEntryPoint(f"{module_name}.{path}") from None
        own = attribute in vars(owner)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(layer) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(record, args, kwargs, result)
                return result

        setattr(owner, attribute, wrapper)
        if own:
            self._restore.append(lambda: setattr(owner, attribute, original))
        else:
            self._restore.append(lambda: delattr(owner, attribute))

    def _unwrap(self) -> None:
        while self._restore:
            self._restore.pop()()


def empty_span_cost_s(samples: int = 20000) -> float:
    """Seconds one empty span costs on a ring recorder (the tracing tax)."""
    tracer = Tracer(RingRecorder(capacity=samples))
    began = time.perf_counter()
    for _ in range(samples):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - began) / samples


def self_times(spans: List[SpanRecord]) -> Tuple[Dict[int, float], List[SpanRecord]]:
    """Self seconds of each layer span (by ``id``) and the top-level spans.

    Spans nest by containment within a thread; a child's whole duration is
    taken out of its direct parent.
    """
    selves: Dict[int, float] = {}
    top: List[SpanRecord] = []
    by_thread: Dict[int, List[SpanRecord]] = {}
    for record in spans:
        by_thread.setdefault(record.tid, []).append(record)
    for records in by_thread.values():
        records.sort(key=lambda r: (r.ts_us, -r.dur_us))
        stack: List[SpanRecord] = []
        for record in records:
            while stack and stack[-1].ts_us + stack[-1].dur_us <= record.ts_us:
                stack.pop()
            selves[id(record)] = record.dur_us / 1e6
            if stack:
                selves[id(stack[-1])] -= record.dur_us / 1e6
            else:
                top.append(record)
            stack.append(record)
    return selves, top


def layer_metrics(spans: List[SpanRecord], wall_s: float, main_tid: int,
                  span_cost_s: float) -> Dict[str, float]:
    """The per-layer numbers of one traced pass."""
    layered = [record for record in spans if record.name in LAYER_SPANS]
    selves, top = self_times(layered)
    calls: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    for record in layered:
        calls[record.name] = calls.get(record.name, 0) + 1
        seconds[record.name] = seconds.get(record.name, 0.0) + selves[id(record)]
    kernels = [r for r in layered if r.name == "sim.kernel"]
    batches = [r for r in layered if r.name == "exec.batch"]
    hits = sum(r.args["memo_hits"] for r in batches)
    misses = sum(r.args["memo_misses"] for r in batches)
    router_cycles = sum(r.args["router_cycles"] for r in kernels)
    kernel_s = seconds.get("sim.kernel", 0.0)
    main_top_s = sum(r.dur_us for r in top if r.tid == main_tid) / 1e6
    metrics = {
        "exec.batch.self_s": seconds.get("exec.batch", 0.0),
        "exec.cache.get_calls": calls.get("exec.cache.get", 0),
        "exec.cache.get_s": seconds.get("exec.cache.get", 0.0),
        "exec.cache.put_calls": calls.get("exec.cache.put", 0),
        "exec.cache.put_s": seconds.get("exec.cache.put", 0.0),
        "exec.memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exec.replica_groups": sum(r.args["replica_groups"] for r in batches),
        "exec.tasks_executed": sum(r.args["executed"] for r in batches),
        "exec.tasks_cached": sum(r.args["cached"] for r in batches),
        "core.offline_calls": calls.get("core.offline", 0),
        "core.offline_s": seconds.get("core.offline", 0.0),
        "analysis.build_network_calls": calls.get("analysis.build_network", 0),
        "analysis.build_network_s": seconds.get("analysis.build_network", 0.0),
        "traffic.build_source_calls": calls.get("traffic.build_source", 0),
        "traffic.build_source_s": seconds.get("traffic.build_source", 0.0),
        "sim.kernel_calls": len(kernels),
        "sim.kernel_s": kernel_s,
        "sim.router_cycles": router_cycles,
        "sim.ns_per_router_cycle": kernel_s / router_cycles * 1e9 if router_cycles else 0.0,
        "service.http_requests": calls.get("service.http", 0),
        "service.http_s": seconds.get("service.http", 0.0),
        "obs.spans": len(spans),
        "obs.trace_overhead_pct": len(spans) * span_cost_s / wall_s * 100.0,
        "obs.traced_wall_s": wall_s,
        "unaccounted_s": wall_s - main_top_s,
    }
    for policy in POLICIES:
        metrics[f"sim.kernel_s.{policy}"] = sum(
            selves[id(r)] for r in kernels if r.args["policy"] == policy
        )
    return metrics


def engine_busy_s(spans: List[SpanRecord]) -> float:
    """Seconds spent inside ``ExperimentBatch.run`` calls, all threads."""
    return sum(r.dur_us for r in spans if r.name == "exec.batch") / 1e6


def current_tid() -> int:
    """The thread id the tracer stamps on spans of the calling thread."""
    return threading.get_ident() & 0x7FFFFFFF
