"""A typed metrics registry with deterministic, order-independent merges.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` -- monotonically increasing total.
* :class:`Gauge` -- a point-in-time level (``set``), *or* an additive
  level (``inc``/``dec``) -- merges **add**, which keeps folding registries
  from workers associative and order-independent (a "current queue depth
  across the pool" is the sum of per-worker depths).
* :class:`Histogram` -- fixed, immutable bucket boundaries chosen at
  construction, so merging two histograms is element-wise addition of
  bucket counts.  No dynamic rebucketing, ever: that is what makes merges
  a pure function of the multiset of observations
  (``tests/test_obs_metrics.py`` pins associativity + order-independence
  the same way ``test_stats_merge_property.py`` pins the stats fold).

Instruments support Prometheus-style labels: ``registry.counter(name,
labels={"state": "done"})`` returns the series for that exact label set.
:meth:`MetricsRegistry.render_prometheus` emits the text exposition
format (``# HELP``/``# TYPE``, ``_bucket{le=...}`` with cumulative
counts, ``_sum``/``_count``); :meth:`MetricsRegistry.to_dict` emits a
JSON-friendly snapshot for ``--json`` documents and ``repro stats``.

Nothing here touches spec serialization or cache keys -- see the
never-perturbs invariant in :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

Number = Union[int, float]

#: Prometheus-ish latency boundaries (seconds): sub-ms to 10s.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelSet = Tuple[Tuple[str, str], ...]


def _label_set(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelSet, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + body + "}"


def _format_value(value: Number) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


class Counter:
    """Monotonic total; ``inc`` only, merge adds."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def merge(self, other: "Counter") -> None:
        with self._lock:
            self.value += other.value

    def snapshot(self) -> Number:
        return self.value


class Gauge:
    """A level: ``set`` for point-in-time, ``inc``/``dec`` for additive use."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: Number = 1) -> None:
        with self._lock:
            self.value -= amount

    def merge(self, other: "Gauge") -> None:
        # Addition (not last-write-wins) keeps registry folds associative
        # and order-independent; a pool-level gauge is the member sum.
        with self._lock:
            self.value += other.value

    def snapshot(self) -> Number:
        return self.value


class Histogram:
    """Fixed-boundary histogram; merges are element-wise bucket addition."""

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        with self._lock:
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        with self._lock:
            for i, n in enumerate(other.counts):
                self.counts[i] += n
            self.sum += other.sum
            self.count += other.count

    def snapshot(self) -> Dict[str, Any]:
        return {
            "buckets": {
                _format_value(bound): count
                for bound, count in zip(self.bounds, self.counts)
            },
            "overflow": self.counts[-1],
            "sum": self.sum,
            "count": self.count,
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All instruments of one process (or one merged pool view).

    Series are keyed ``(name, sorted-label-items)``; the first caller of a
    name fixes its kind (and, for histograms, its bucket bounds) -- a
    later request with a conflicting kind raises rather than silently
    splitting the namespace.
    """

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, LabelSet], Instrument] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._lock = threading.Lock()

    # -- instrument accessors ------------------------------------------- #
    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Counter:
        return self._get(name, _label_set(labels), "counter", help, Counter)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Gauge:
        return self._get(name, _label_set(labels), "gauge", help, Gauge)

    def histogram(
        self, name: str, labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get(
            name, _label_set(labels), "histogram", help,
            lambda: Histogram(buckets),
        )

    def _get(self, name, labels, kind, help, factory) -> Any:
        with self._lock:
            known = self._kinds.get(name)
            if known is None:
                self._kinds[name] = kind
            elif known != kind:
                raise ValueError(
                    f"metric {name!r} is a {known}, requested as {kind}"
                )
            if help and not self._help.get(name):
                self._help[name] = help
            key = (name, labels)
            instrument = self._series.get(key)
            if instrument is None:
                instrument = factory()
                self._series[key] = instrument
            return instrument

    # -- folding --------------------------------------------------------- #
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (associative, order-free)."""
        with other._lock:
            items = list(other._series.items())
            kinds = dict(other._kinds)
            helps = dict(other._help)
        for name, kind in kinds.items():
            known = self._kinds.setdefault(name, kind)
            if known != kind:
                raise ValueError(
                    f"metric {name!r} is a {known} here, a {kind} there"
                )
        for name, text in helps.items():
            self._help.setdefault(name, text)
        for (name, labels), instrument in items:
            if isinstance(instrument, Counter):
                self.counter(name, dict(labels)).merge(instrument)
            elif isinstance(instrument, Gauge):
                self.gauge(name, dict(labels)).merge(instrument)
            else:
                mine = self.histogram(
                    name, dict(labels), buckets=instrument.bounds
                )
                mine.merge(instrument)

    # -- rendering ------------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot: ``{name: {kind, help, series: [...]}}``."""
        with self._lock:
            items = sorted(self._series.items())
            kinds = dict(self._kinds)
            helps = dict(self._help)
        document: Dict[str, Any] = {}
        for (name, labels), instrument in items:
            entry = document.setdefault(name, {
                "kind": kinds[name],
                "help": helps.get(name, ""),
                "series": [],
            })
            entry["series"].append({
                "labels": dict(labels),
                "value": instrument.snapshot(),
            })
        return document

    def render_prometheus(self) -> str:
        """The text exposition format, deterministically ordered."""
        with self._lock:
            items = sorted(self._series.items())
            kinds = dict(self._kinds)
            helps = dict(self._help)
        lines: List[str] = []
        seen_header = set()
        for (name, labels), instrument in items:
            if name not in seen_header:
                seen_header.add(name)
                help_text = helps.get(name, "")
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kinds[name]}")
            if isinstance(instrument, Histogram):
                cumulative = 0
                for bound, count in zip(instrument.bounds, instrument.counts):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(labels, ('le', _format_value(bound)))}"
                        f" {cumulative}"
                    )
                cumulative += instrument.counts[-1]
                lines.append(
                    f"{name}_bucket{_render_labels(labels, ('le', '+Inf'))}"
                    f" {cumulative}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(labels)}"
                    f" {_format_value(instrument.sum)}"
                )
                lines.append(
                    f"{name}_count{_render_labels(labels)} {instrument.count}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(labels)}"
                    f" {_format_value(instrument.snapshot())}"
                )
        return "\n".join(lines) + ("\n" if lines else "")
