"""Merge determinism of the metrics registry (property-based).

The service merges registries from workers and scrape-time snapshots
in whatever order threads happen to finish, so the fold must be
a pure function of the multiset of recorded events: associative,
order-independent, and identical to recording everything into one
registry directly.  Same approach as ``test_stats_merge_property.py``
pins for the stats fold; events use integer values so float addition is
exact and comparisons can be equality.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)

#: Small fixed bucket set: merges only need bound equality, not realism.
BUCKETS = (1.0, 5.0, 25.0)

#: Every event kind writes to a name of its own kind (a registry rejects
#: kind conflicts by design, tested separately below).
_COUNTERS = ("jobs_total", "tasks_total")
_GAUGES = ("queue_depth", "workers")
_HISTOGRAMS = ("task_seconds",)
_LABELS = (None, {"state": "done"}, {"state": "failed"})


@st.composite
def events(draw):
    kind = draw(st.sampled_from(["counter", "gauge", "histogram"]))
    labels = draw(st.sampled_from(_LABELS))
    value = draw(st.integers(min_value=0, max_value=100))
    if kind == "counter":
        return ("counter", draw(st.sampled_from(_COUNTERS)), labels, value)
    if kind == "gauge":
        return ("gauge", draw(st.sampled_from(_GAUGES)), labels, value)
    return ("histogram", draw(st.sampled_from(_HISTOGRAMS)), labels, value)


event_lists = st.lists(events(), max_size=40)


def _apply(registry: MetricsRegistry, event) -> None:
    kind, name, labels, value = event
    if kind == "counter":
        registry.counter(name, labels).inc(value)
    elif kind == "gauge":
        # Additive gauge use: the merge semantics (sum) model "pool
        # level = sum of member levels".
        registry.gauge(name, labels).inc(value)
    else:
        registry.histogram(name, labels, buckets=BUCKETS).observe(value)


def _registry_of(event_list) -> MetricsRegistry:
    registry = MetricsRegistry()
    for event in event_list:
        _apply(registry, event)
    return registry


def _chunks(event_list, cuts):
    bounds = sorted(set(cuts) | {0, len(event_list)})
    return [
        event_list[start:end]
        for start, end in zip(bounds, bounds[1:])
    ]


@settings(max_examples=60, deadline=None)
@given(event_list=event_lists, data=st.data())
def test_merge_is_order_independent(event_list, data):
    cuts = data.draw(st.lists(
        st.integers(min_value=0, max_value=len(event_list)), max_size=5
    ))
    parts = [_registry_of(chunk) for chunk in _chunks(event_list, cuts)]
    order = data.draw(st.permutations(range(len(parts))))

    merged = MetricsRegistry()
    for index in order:
        merged.merge(parts[index])

    assert merged.render_prometheus() == _registry_of(event_list).render_prometheus()
    assert merged.to_dict() == _registry_of(event_list).to_dict()


@settings(max_examples=60, deadline=None)
@given(event_list=event_lists, data=st.data())
def test_merge_is_associative(event_list, data):
    split = data.draw(st.integers(min_value=0, max_value=len(event_list)))
    a, b = _registry_of(event_list[:split]), _registry_of(event_list[split:])

    left = MetricsRegistry()
    left.merge(a)
    left.merge(b)

    inner = _registry_of(event_list[:split])
    inner.merge(b)
    right = MetricsRegistry()
    right.merge(inner)

    assert left.render_prometheus() == right.render_prometheus()


class TestRegistryContracts:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total").inc()
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("repro_things_total")

    def test_histogram_bound_mismatch_refuses_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        b.histogram("lat", buckets=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge(b)

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("n").inc(-1)

    def test_histogram_buckets_must_increase(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("lat", buckets=(2.0, 1.0))

    def test_prometheus_rendering_is_pinned(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_jobs_total", {"state": "done"}, help="Jobs by state."
        ).inc(3)
        hist = registry.histogram("repro_task_seconds", buckets=(1.0, 5.0))
        for value in (0.5, 0.75, 3.0, 9.0):
            hist.observe(value)
        assert registry.render_prometheus() == (
            "# HELP repro_jobs_total Jobs by state.\n"
            '# TYPE repro_jobs_total counter\n'
            'repro_jobs_total{state="done"} 3\n'
            "# TYPE repro_task_seconds histogram\n"
            'repro_task_seconds_bucket{le="1.0"} 2\n'
            'repro_task_seconds_bucket{le="5.0"} 3\n'
            'repro_task_seconds_bucket{le="+Inf"} 4\n'
            "repro_task_seconds_sum 13.25\n"
            "repro_task_seconds_count 4\n"
        )

    def test_default_latency_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            set(DEFAULT_LATENCY_BUCKETS)
        )
