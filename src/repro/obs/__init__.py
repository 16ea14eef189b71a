"""Observability: Prometheus export, ingest tracing, and alert rules.

The operational surface over the serving stack (PR 5–8):

- :mod:`~repro.obs.prometheus` — a dependency-free text-exposition
  encoder (counters/gauges/histograms with labels, spec-exact escaping,
  cumulative ``le`` buckets) plus the reference parser the property
  suite round-trips through.
- :mod:`~repro.obs.adapters` — every runtime metrics object
  (``ServiceMetrics``, ``ClusterMetrics``, ``FrontendMetrics``, sampler
  ``observe()`` gauges, trace and alert summaries) declared once in
  :data:`~repro.obs.adapters.INVENTORY` and rendered per scrape.
- :mod:`~repro.obs.exporter` — a standalone ``/metrics`` endpoint and
  the HTTP-ish helpers the cluster frontend's scrape path shares.
- :mod:`~repro.obs.trace` — bounded-ring ingest-path spans with
  per-stage durations (queued → WAL → apply, checkpoints separately).
- :mod:`~repro.obs.alerts` — declarative windowed alert rules with
  symmetric hysteresis, evaluated on the supervisor cadence over the
  adaptive controller's own
  :class:`~repro.serve.control.MetricsWindow`.
"""

from .adapters import (
    INVENTORY,
    MetricSpec,
    alerts_collector,
    cluster_collector,
    cluster_registry,
    frontend_collector,
    metric_inventory_markdown,
    sampler_gauges,
    service_collector,
    service_registry,
    trace_collector,
)
from .alerts import (
    ALERT_METRICS,
    AlertEngine,
    AlertEvent,
    AlertRule,
    ClusterWatcher,
    ServiceWatcher,
    default_rules,
)
from .exporter import SCRAPE_CONTENT_TYPE, MetricsExporter, serve_http
from .prometheus import (
    MetricFamily,
    PrometheusRegistry,
    escape_help,
    escape_label_value,
    format_value,
    parse_exposition,
    render,
)
from .trace import TRACE_STAGES, TraceLog

__all__ = [
    "ALERT_METRICS",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "ClusterWatcher",
    "INVENTORY",
    "MetricFamily",
    "MetricSpec",
    "MetricsExporter",
    "PrometheusRegistry",
    "SCRAPE_CONTENT_TYPE",
    "ServiceWatcher",
    "TRACE_STAGES",
    "TraceLog",
    "alerts_collector",
    "cluster_collector",
    "cluster_registry",
    "default_rules",
    "escape_help",
    "escape_label_value",
    "format_value",
    "frontend_collector",
    "metric_inventory_markdown",
    "parse_exposition",
    "render",
    "sampler_gauges",
    "service_collector",
    "service_registry",
    "trace_collector",
]
