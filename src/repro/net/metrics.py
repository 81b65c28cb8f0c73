"""A stdlib-only metrics registry with Prometheus text exposition.

Two consumers, one source of truth:

* :class:`MetricsRegistry` is the generic instrument set — thread-safe
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` families with
  labels, rendered in the Prometheus text exposition format (v0.0.4) by
  :meth:`MetricsRegistry.render` for the gateway's ``GET /metrics``.
* :class:`ServiceMetrics` binds the serving tier's summary counters
  (the :data:`~repro.serve.records.SUMMARY_COUNTERS` vocabulary) onto a
  registry and is the **single ownership point** for their mutation:
  :class:`~repro.serve.records.RunRecorder` bumps counters *through*
  this object and reads its ``summary`` back *from* it, so
  ``/metrics``, ``SolveService.stats()`` and the durable ``run.json``
  all report one set of numbers by construction — they cannot drift.

Everything here is synchronous and lock-guarded; increments happen on
the event loop, in worker callbacks and in gateway handlers alike.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

from repro.util.errors import ConfigurationError

#: Default latency buckets (seconds): sub-millisecond bridge overheads
#: up to multi-minute full-wafer solves.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

LabelValues = tuple[str, ...]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus-style number: integers bare, floats as repr."""
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_suffix(names: tuple[str, ...], values: LabelValues) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared family plumbing: name, help text, label names, sample map."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Iterable[str] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._samples: dict[LabelValues, Any] = {}

    def _key(self, labels: Mapping[str, str]) -> LabelValues:
        if set(labels) != set(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels "
                f"({', '.join(self.label_names) or 'none'}); got "
                f"({', '.join(sorted(labels)) or 'none'})"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def samples(self) -> dict[LabelValues, Any]:
        with self._lock:
            return dict(self._samples)

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for values in sorted(self.samples()):
            lines.extend(self._render_sample(values))
        return lines

    def _render_sample(self, values: LabelValues) -> list[str]:
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing counter family."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._samples.get(key, 0)

    def total(self) -> float:
        """Sum over every label combination (the summary-counter read)."""
        with self._lock:
            return sum(self._samples.values())

    def _render_sample(self, values: LabelValues) -> list[str]:
        suffix = _labels_suffix(self.label_names, values)
        return [f"{self.name}{suffix} {_format_value(self._samples[values])}"]


class Gauge(_Metric):
    """A settable instantaneous value family."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        key = self._key(labels)
        with self._lock:
            return self._samples.get(key, 0)

    def _render_sample(self, values: LabelValues) -> list[str]:
        suffix = _labels_suffix(self.label_names, values)
        return [f"{self.name}{suffix} {_format_value(self._samples[values])}"]


class Histogram(_Metric):
    """A cumulative-bucket histogram family (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Iterable[str] = (),
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs >= 1 bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = {
                    "counts": [0] * len(self.buckets),
                    "count": 0,
                    "sum": 0.0,
                }
                self._samples[key] = sample
            index = bisect_left(self.buckets, value)
            if index < len(self.buckets):
                sample["counts"][index] += 1
            sample["count"] += 1
            sample["sum"] += float(value)

    def count(self, **labels: str) -> int:
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            return 0 if sample is None else sample["count"]

    def _render_sample(self, values: LabelValues) -> list[str]:
        sample = self._samples[values]
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, sample["counts"]):
            cumulative += count
            suffix = _labels_suffix(
                self.label_names + ("le",), values + (_format_value(bound),)
            )
            lines.append(f"{self.name}_bucket{suffix} {cumulative}")
        inf_suffix = _labels_suffix(
            self.label_names + ("le",), values + ("+Inf",)
        )
        lines.append(f"{self.name}_bucket{inf_suffix} {sample['count']}")
        plain = _labels_suffix(self.label_names, values)
        lines.append(f"{self.name}_sum{plain} {_format_value(sample['sum'])}")
        lines.append(f"{self.name}_count{plain} {sample['count']}")
        return lines


class MetricsRegistry:
    """A named family registry that renders the exposition text."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric) or (
                    existing.label_names != metric.label_names
                ):
                    raise ConfigurationError(
                        f"metric {metric.name!r} already registered with a "
                        f"different type or label set"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help, labels))  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help, labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram(name, help, labels, buckets=buckets)
        )  # type: ignore[return-value]

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The Prometheus text exposition (families in name order)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


#: How each run-record summary counter maps onto a registry metric:
#: ``summary name -> (metric name, labels)``.  Counters sharing a metric
#: name become one labeled family (the cache tiers, the stream steps).
SUMMARY_METRICS: dict[str, tuple[str, dict[str, str]]] = {
    "submitted": ("repro_requests_submitted_total", {}),
    "executed": ("repro_solves_executed_total", {}),
    "launches": ("repro_launches_total", {}),
    "batched_launches": ("repro_launches_fused_total", {}),
    "cache_hits_memory": ("repro_cache_hits_total", {"tier": "memory"}),
    "cache_hits_store": ("repro_cache_hits_total", {"tier": "store"}),
    "dedup_hits": ("repro_cache_hits_total", {"tier": "dedup"}),
    "failed": ("repro_requests_failed_total", {}),
    "retries": ("repro_retries_total", {}),
    "streams": ("repro_streams_total", {}),
    "streamed_steps": ("repro_stream_steps_total", {"source": "computed"}),
    "resumed_steps": ("repro_stream_steps_total", {"source": "resumed"}),
}


class ServiceMetrics:
    """The serving tier's counters, owned once, read everywhere.

    One instance backs one :class:`~repro.serve.SolveService`:
    :class:`~repro.serve.records.RunRecorder` routes every summary
    mutation through :meth:`bump` and derives its ``summary`` dict from
    :meth:`summary`; the gateway renders the same :attr:`registry` on
    ``GET /metrics`` (adding its own HTTP/WS families to it).  There is
    no second tally anywhere, so the three surfaces agree by
    construction.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters: dict[str, tuple[Counter, dict[str, str]]] = {}
        label_names: dict[str, tuple[str, ...]] = {}
        for metric_name, labels in SUMMARY_METRICS.values():
            label_names.setdefault(metric_name, tuple(sorted(labels)))
        for summary_name, (metric_name, labels) in SUMMARY_METRICS.items():
            counter = self.registry.counter(
                metric_name,
                f"Serving-tier counter backing summary[{summary_name!r}].",
                label_names[metric_name],
            )
            self._counters[summary_name] = (counter, dict(labels))
        self.inflight = self.registry.gauge(
            "repro_inflight_requests", "Requests queued or solving right now."
        )
        self.queue_depth = self.registry.gauge(
            "repro_queue_depth", "Requests waiting for admission."
        )
        self.request_seconds = self.registry.histogram(
            "repro_request_seconds",
            "Submit-to-outcome latency per request.",
            ("outcome",),
        )
        self.record_write_failures = self.registry.counter(
            "repro_record_write_failures_total",
            "Run-record writes that failed; each lost its line or run.json rewrite.",
        )

    def bump(self, summary_name: str, amount: int = 1) -> None:
        """Increment one summary counter (the only mutation path)."""
        try:
            counter, labels = self._counters[summary_name]
        except KeyError:
            raise ConfigurationError(
                f"unknown summary counter {summary_name!r}; valid: "
                f"{', '.join(sorted(self._counters))}"
            ) from None
        counter.inc(amount, **labels)

    def value(self, summary_name: str) -> int:
        counter, labels = self._counters[summary_name]
        return int(counter.value(**labels))

    def summary(self) -> dict[str, int]:
        """The run-record summary dict, read back from the registry."""
        return {name: self.value(name) for name in self._counters}

    def observe_request(self, seconds: float, *, outcome: str) -> None:
        self.request_seconds.observe(seconds, outcome=outcome)

    def render(self) -> str:
        return self.registry.render()


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SUMMARY_METRICS",
    "ServiceMetrics",
]
