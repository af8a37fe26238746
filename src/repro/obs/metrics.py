"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The telemetry layer mirrors the component registries of the rest of the
library: a :class:`MetricsRegistry` is a thin façade over
:class:`repro.registry.Registry`, so metric names get the same duplicate
detection and did-you-mean errors as controllers or executors.  Three
instrument kinds cover the pipeline, the executors, the master and the
serving tier:

* :class:`Counter` — monotonically increasing totals
  (``repro_serve_requests_total``).
* :class:`Gauge` — point-in-time values (``repro_serve_queue_depth``).
* :class:`Histogram` — fixed, deterministic bucket bounds with
  p50/p95/p99 summaries estimated by linear interpolation inside the
  matching bucket (``repro_serve_request_latency_ms``).

Design constraints, in force everywhere the library records telemetry:

* **Off by default, and cheap when off.**  Every mutation checks a single
  ``enabled`` attribute before touching any lock or dict — the disabled
  fast path is one attribute load and a branch, so instrumented hot loops
  stay bit-identical and benchmark-neutral when telemetry is off.
* **Never touches RNG state.**  No ``random``/``uuid`` anywhere in the
  observability layer; identifiers are sequential.
* **Hash-excluded.**  Telemetry settings ride in ``ObsSpec`` which, like
  ``execution``, never enters ``spec_hash()``.
* **Bounded label cardinality.**  A metric rejects new label-value
  combinations past :data:`MAX_LABEL_SETS` with
  :class:`LabelCardinalityError`, so an unbounded label (user id, raw
  path) fails loudly instead of leaking memory.

Rendering is available as plain JSON (:meth:`MetricsRegistry.render_json`)
and as Prometheus text exposition format 0.0.4
(:meth:`MetricsRegistry.render_prometheus`), which backs the serving
tier's ``GET /metrics`` endpoint.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..registry import Registry
from ..analysis.runtime import register_shared_state, touch_shared_state

__all__ = [
    "MetricsError",
    "LabelCardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Default ceiling on distinct label-value combinations per metric.
MAX_LABEL_SETS = 64

#: Deterministic latency bounds (milliseconds), roughly log-spaced.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: Deterministic count/size bounds (items, bytes/1024, batch sizes ...).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
)

#: Deterministic duration bounds (seconds) for coarse phases.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class MetricsError(ValueError):
    """Invalid metric declaration or observation."""


class LabelCardinalityError(MetricsError):
    """A metric saw more distinct label-value sets than its ceiling allows.

    Raised instead of silently growing: an unbounded label value (request
    id, raw path, timestamp) would otherwise leak one series per value.
    """

    def __init__(self, metric: str, limit: int, labels: Mapping[str, str]):
        self.metric = metric
        self.limit = limit
        self.labels = dict(labels)
        super().__init__(
            f"metric '{metric}' exceeded its label-cardinality ceiling of "
            f"{limit} distinct label sets (rejected {self.labels}); label "
            "values must come from a bounded, enumerable set — move "
            "unbounded identifiers into span attributes instead"
        )


def _validate_labels(
    metric: str, labelnames: Tuple[str, ...], labels: Mapping[str, object]
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricsError(
            f"metric '{metric}' declares labels {list(labelnames)} but was "
            f"observed with {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Shared plumbing: name, help text, label schema, series storage."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        *,
        registry: "MetricsRegistry",
        max_label_sets: int = MAX_LABEL_SETS,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.max_label_sets = max_label_sets
        self._registry = registry
        self._series: Dict[Tuple[str, ...], object] = {}

    # The per-series payload; subclasses define the zero value.
    def _new_series(self) -> object:
        raise NotImplementedError

    def _series_for(self, labels: Mapping[str, object]) -> object:
        key = _validate_labels(self.name, self.labelnames, labels)
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_label_sets:
                raise LabelCardinalityError(
                    self.name, self.max_label_sets, dict(zip(self.labelnames, key))
                )
            series = self._new_series()
            self._series[key] = series
        return series

    def series(self) -> List[Tuple[Dict[str, str], object]]:
        """Snapshot of ``(labels, payload)`` pairs in first-seen order."""
        with self._registry._lock:
            return [
                (dict(zip(self.labelnames, key)), _copy_payload(payload))
                for key, payload in self._series.items()
            ]


def _copy_payload(payload: object) -> object:
    if isinstance(payload, dict):
        copied = dict(payload)
        if isinstance(copied.get("buckets"), list):
            copied["buckets"] = list(copied["buckets"])
        return copied
    return payload


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def _new_series(self) -> object:
        return {"value": 0.0}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise MetricsError(f"counter '{self.name}' cannot decrease (got {amount})")
        with self._registry._lock:
            series = self._series_for(labels)
            series["value"] += amount
            touch_shared_state("obs-metrics", self._registry)

    def value(self, **labels: object) -> float:
        key = _validate_labels(self.name, self.labelnames, labels)
        with self._registry._lock:
            series = self._series.get(key)
            return float(series["value"]) if series else 0.0


class Gauge(_Metric):
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def _new_series(self) -> object:
        return {"value": 0.0}

    def set(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            series = self._series_for(labels)
            series["value"] = float(value)
            touch_shared_state("obs-metrics", self._registry)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            series = self._series_for(labels)
            series["value"] += amount
            touch_shared_state("obs-metrics", self._registry)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = _validate_labels(self.name, self.labelnames, labels)
        with self._registry._lock:
            series = self._series.get(key)
            return float(series["value"]) if series else 0.0


class Histogram(_Metric):
    """Fixed-bucket histogram with interpolated quantile summaries.

    Bucket bounds are upper-inclusive (Prometheus ``le`` semantics) and an
    implicit ``+Inf`` bucket catches the tail.  Quantiles are estimated by
    locating the target rank's bucket and interpolating linearly between
    the bucket's bounds — deterministic given the same observations, and
    exact for observations sitting on a bound.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        registry: "MetricsRegistry",
        max_label_sets: int = MAX_LABEL_SETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError(f"histogram '{name}' needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricsError(
                f"histogram '{name}' bucket bounds must be strictly increasing: {bounds}"
            )
        super().__init__(
            name, help, labelnames, registry=registry, max_label_sets=max_label_sets
        )
        self.buckets = bounds

    def _new_series(self) -> object:
        # counts[i] pairs with buckets[i]; counts[-1] is the +Inf bucket.
        return {"buckets": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}

    def observe(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        with self._registry._lock:
            series = self._series_for(labels)
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            series["buckets"][index] += 1
            series["sum"] += value
            series["count"] += 1
            touch_shared_state("obs-metrics", self._registry)

    def summary(self, **labels: object) -> Dict[str, object]:
        """``{count, sum, p50, p95, p99}``; quantiles are ``None`` when empty."""
        key = _validate_labels(self.name, self.labelnames, labels)
        with self._registry._lock:
            series = self._series.get(key)
            payload = _copy_payload(series) if series else None
        if payload is None or payload["count"] == 0:
            return {"count": 0, "sum": 0.0, "p50": None, "p95": None, "p99": None}
        return {
            "count": payload["count"],
            "sum": payload["sum"],
            "p50": self._quantile(payload, 0.50),
            "p95": self._quantile(payload, 0.95),
            "p99": self._quantile(payload, 0.99),
        }

    def _quantile(self, payload: Mapping[str, object], q: float) -> float:
        counts: List[int] = payload["buckets"]  # type: ignore[assignment]
        total: int = payload["count"]  # type: ignore[assignment]
        rank = q * total
        cumulative = 0
        for i, count in enumerate(counts):
            if count == 0:
                continue
            previous = cumulative
            cumulative += count
            if cumulative >= rank:
                if i >= len(self.buckets):
                    # +Inf bucket: no finite upper bound, report the last one.
                    return self.buckets[-1]
                upper = self.buckets[i]
                lower = self.buckets[i - 1] if i > 0 else 0.0
                fraction = (rank - previous) / count
                return lower + (upper - lower) * fraction
        return self.buckets[-1]  # pragma: no cover - rank <= total always hits


class MetricsRegistry:
    """The process-wide instrument table behind :data:`METRICS`.

    Wraps a :class:`repro.registry.Registry` so metric names inherit
    duplicate detection and fuzzy unknown-name errors, and guards all
    series mutation behind one lock whose discipline is declared to the
    REPRO_TSAN runtime checker.  ``counter()`` / ``gauge()`` /
    ``histogram()`` are get-or-create: a second declaration with the same
    name returns the existing instrument if the schema matches and raises
    :class:`MetricsError` if it does not.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._metrics: Registry[_Metric] = Registry("metric")
        self._lock = threading.Lock()
        register_shared_state("obs-metrics", self, lock=self._lock)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded series (declarations stay registered)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._series.clear()
            touch_shared_state("obs-metrics", self)

    # ------------------------------------------------------------------
    # Declaration (get-or-create)
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._declare(Histogram, name, help, labelnames, buckets=buckets)

    def _declare(self, cls, name: str, help: str, labelnames, **kwargs) -> _Metric:
        with self._lock:
            if name in self._metrics:
                existing = self._metrics.get(name)
                if not isinstance(existing, cls):
                    raise MetricsError(
                        f"metric '{name}' already registered as {existing.kind}, "
                        f"cannot redeclare as {cls.kind}"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise MetricsError(
                        f"metric '{name}' already registered with labels "
                        f"{list(existing.labelnames)}, got {list(labelnames)}"
                    )
                wanted = kwargs.get("buckets")
                if wanted is not None and tuple(float(b) for b in wanted) != getattr(
                    existing, "buckets", None
                ):
                    raise MetricsError(
                        f"histogram '{name}' already registered with buckets "
                        f"{getattr(existing, 'buckets', ())}"
                    )
                return existing
            metric = cls(name, help, labelnames, registry=self, **kwargs)
            self._metrics.register(name, metric)
            return metric

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> _Metric:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return self._metrics.names()

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render_json(self) -> Dict[str, object]:
        """``{metric: {type, help, series: [{labels, ...payload}]}}``."""
        document: Dict[str, object] = {}
        for name, metric in self._metrics.items():
            rows: List[Dict[str, object]] = []
            for labels, payload in metric.series():
                row: Dict[str, object] = {"labels": labels}
                if isinstance(metric, Histogram):
                    row["count"] = payload["count"]
                    row["sum"] = payload["sum"]
                    row["buckets"] = {
                        _format_bound(bound): count
                        for bound, count in _cumulative_buckets(metric, payload)
                    }
                else:
                    row["value"] = payload["value"]
                rows.append(row)
            document[name] = {"type": metric.kind, "help": metric.help, "series": rows}
        return document

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for name, metric in self._metrics.items():
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for labels, payload in metric.series():
                if isinstance(metric, Histogram):
                    for bound, count in _cumulative_buckets(metric, payload):
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = _format_bound(bound)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_labels)} {count}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(labels)} {_format_value(payload['sum'])}"
                    )
                    lines.append(f"{name}_count{_format_labels(labels)} {payload['count']}")
                else:
                    lines.append(
                        f"{name}{_format_labels(labels)} {_format_value(payload['value'])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _cumulative_buckets(
    metric: Histogram, payload: Mapping[str, object]
) -> Iterable[Tuple[float, int]]:
    cumulative = 0
    counts: List[int] = payload["buckets"]  # type: ignore[assignment]
    for bound, count in zip(metric.buckets, counts):
        cumulative += count
        yield bound, cumulative
    yield float("inf"), cumulative + counts[-1]


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return repr(bound) if bound != int(bound) else str(int(bound)) + ".0"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value)) + ".0"
    return repr(value)


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape(value)}"' for key, value in labels.items())
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


#: The process-wide registry every instrumented module declares against.
#: Disabled by default; ``ObsSpec(metrics_enabled=True)`` or
#: ``METRICS.enable()`` turns recording on.
METRICS = MetricsRegistry(enabled=False)


def render_json_string(registry: Optional[MetricsRegistry] = None) -> str:
    """Convenience: the JSON exposition serialised to a string."""
    return json.dumps((registry or METRICS).render_json(), indent=2, sort_keys=True)
