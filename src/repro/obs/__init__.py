"""First-class observability for the experiment engine (stdlib only).

Three pillars, one hard invariant:

* **Tracing** (:mod:`repro.obs.tracing`) -- a :class:`Tracer` of nestable
  ``span(name, **attrs)`` context managers over the hot boundaries
  (network/route setup, kernel execution, cache get/put, chunk flush,
  queue claim/complete, HTTP requests), recorded to an in-memory ring or
  an append-only JSONL event log, exportable as Chrome trace-event JSON
  (``repro trace export`` -> perfetto) and summarized by
  ``repro trace report``.
* **Metrics** (:mod:`repro.obs.metrics`) -- a typed
  :class:`MetricsRegistry` of counters, gauges and fixed-bucket
  histograms whose merges are associative and order-independent, rendered
  in Prometheus text exposition format (``GET /metrics`` on
  ``repro serve``, ``repro stats`` in the CLI).
* **Kernel probes** (:mod:`repro.obs.probes`) -- an opt-in
  :class:`ProbeSpec` (sample interval + channel selection, passed as a
  *run argument*, never a spec field) sampling per-cycle congestion
  gauges from every backend into a bounded :class:`ProbeSeries`.

The invariant: **observability never perturbs results**.  Nothing in this
package enters :class:`~repro.spec.ExperimentSpec` canonical
serialization, ``config_key``, ``derive_seed`` or any cached summary row;
every instrumented code path is bit-identical to an uninstrumented run
(pinned by ``tests/test_obs_neutrality.py``).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_LATENCY_BUCKETS,
)
from repro.obs.probes import (
    PROBE_CHANNELS,
    ProbeSeries,
    ProbeSpec,
)
from repro.obs.tracing import (
    JsonlRecorder,
    RingRecorder,
    SpanRecord,
    Tracer,
    chrome_trace_document,
    current_tracer,
    install_tracer,
    load_span_records,
    span,
    trace_report,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "PROBE_CHANNELS",
    "ProbeSeries",
    "ProbeSpec",
    "JsonlRecorder",
    "RingRecorder",
    "SpanRecord",
    "Tracer",
    "chrome_trace_document",
    "current_tracer",
    "install_tracer",
    "load_span_records",
    "span",
    "trace_report",
    "uninstall_tracer",
]
