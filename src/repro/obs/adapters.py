"""Adapters: the runtime's metrics objects rendered as Prometheus families.

Every exported series is declared once in :data:`INVENTORY` — name,
kind, labels, source, help — and the adapter builders construct their
:class:`~repro.obs.prometheus.MetricFamily` instances *from* those
declarations, so the docs table (:func:`metric_inventory_markdown`,
regenerated between markers in ``docs/architecture.md`` and pinned
byte-identical by the docs suite) cannot drift from what a scrape
actually returns.

Collector layering mirrors the runtime:

- :func:`service_collector` — one bare ``StreamService``:
  :class:`~repro.serve.metrics.ServiceMetrics` (including both pow2
  histograms rendered with real cumulative ``le`` bounds), the wrapped
  sampler's :meth:`~repro.api.protocol.StreamSampler.observe` gauges,
  and the service's :class:`~repro.obs.trace.TraceLog` summary when
  tracing is on.
- :func:`cluster_collector` — a ``Cluster``: per-service
  ``ServiceMetrics`` (labeled ``service=...``), outage/tenant tables
  (labeled per tenant), and per-tenant sampler gauges.  Gauges for
  tenants on a down worker are served from the worker's last durable
  snapshot and labeled ``degraded="true"`` — a scrape never awaits a
  dead worker.
- :func:`frontend_collector` / :func:`alerts_collector` — connection
  hardening counters and the alert engine's own meta-metrics.

``service_registry``/``cluster_registry`` assemble the standard
:class:`~repro.obs.prometheus.PrometheusRegistry` the exporter and the
frontend scrape endpoint serve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .prometheus import MetricFamily, PrometheusRegistry
from .trace import TRACE_STAGES

__all__ = [
    "INVENTORY",
    "MetricSpec",
    "cluster_collector",
    "cluster_registry",
    "frontend_collector",
    "alerts_collector",
    "metric_inventory_markdown",
    "sampler_gauges",
    "service_collector",
    "service_registry",
    "trace_collector",
]


@dataclass(frozen=True)
class MetricSpec:
    """One exported series: the single source for adapters and docs."""

    name: str
    kind: str
    labels: tuple
    source: str
    help: str


INVENTORY: tuple[MetricSpec, ...] = (
    # -- ServiceMetrics ------------------------------------------------
    MetricSpec("repro_service_events_enqueued_total", "counter", (),
               "ServiceMetrics", "Events admitted into the buffer."),
    MetricSpec("repro_service_events_dropped_total", "counter", (),
               "ServiceMetrics",
               "Events refused by the non-blocking ingest path."),
    MetricSpec("repro_service_events_dropped_by_total", "counter",
               ("drop_label",), "ServiceMetrics",
               "Drop attribution per label (tenant on cluster workers)."),
    MetricSpec("repro_service_events_logged_total", "counter", (),
               "ServiceMetrics", "Events appended to the WAL."),
    MetricSpec("repro_service_events_applied_total", "counter", (),
               "ServiceMetrics", "Events ingested by the sampler."),
    MetricSpec("repro_service_batches_applied_total", "counter", (),
               "ServiceMetrics", "Micro-batches applied."),
    MetricSpec("repro_service_flushes_total", "counter", ("reason",),
               "ServiceMetrics",
               "Flushes by trigger (size, deadline, drain)."),
    MetricSpec("repro_service_queue_depth", "gauge", (),
               "ServiceMetrics", "Buffered (admitted, unbatched) events."),
    MetricSpec("repro_service_queue_high_watermark", "gauge", (),
               "ServiceMetrics", "Lifetime buffered-event high-water mark."),
    MetricSpec("repro_service_batch_size", "histogram", (),
               "ServiceMetrics",
               "Flushed batch sizes (pow2 buckets)."),
    MetricSpec("repro_service_flush_latency_seconds", "histogram", (),
               "ServiceMetrics",
               "Buffered age of each flushed batch's oldest event."),
    MetricSpec("repro_service_last_flush_latency_seconds", "gauge", (),
               "ServiceMetrics", "Most recent flush latency."),
    MetricSpec("repro_service_flush_duration_seconds_total", "counter", (),
               "ServiceMetrics",
               "Cumulative wall-clock flush cost (WAL append + apply)."),
    MetricSpec("repro_service_last_flush_duration_seconds", "gauge", (),
               "ServiceMetrics", "Most recent flush duration."),
    MetricSpec("repro_service_checkpoints_written_total", "counter", (),
               "ServiceMetrics", "Atomic checkpoints written."),
    MetricSpec("repro_service_checkpoint_lag", "gauge", (),
               "ServiceMetrics",
               "Events applied since the newest checkpoint."),
    MetricSpec("repro_service_last_checkpoint_offset", "gauge", (),
               "ServiceMetrics", "Stream offset of the newest checkpoint."),
    MetricSpec("repro_service_wal_records_total", "counter", (),
               "ServiceMetrics", "WAL records appended."),
    MetricSpec("repro_service_wal_bytes_total", "counter", (),
               "ServiceMetrics", "WAL bytes appended."),
    MetricSpec("repro_service_restarts_total", "counter", (),
               "ServiceMetrics", "Supervised restart-in-place count."),
    MetricSpec("repro_service_retunes_applied_total", "counter", (),
               "ServiceMetrics", "Online reconfigurations applied."),
    # -- Sampler observe() gauges --------------------------------------
    MetricSpec("repro_sampler_threshold", "gauge", ("degraded",),
               "StreamSampler.observe",
               "Current inclusion threshold tau (+Inf while underfull)."),
    MetricSpec("repro_sampler_k", "gauge", ("degraded",),
               "StreamSampler.observe", "Configured sample capacity k."),
    MetricSpec("repro_sampler_fill", "gauge", ("degraded",),
               "StreamSampler.observe", "Retained sample size."),
    MetricSpec("repro_sampler_items_seen", "gauge", ("degraded",),
               "StreamSampler.observe", "Stream length observed so far."),
    MetricSpec("repro_sampler_state_version", "gauge", ("degraded",),
               "StreamSampler.observe",
               "Monotonic mutation counter of the sampler state."),
    # -- Cluster -------------------------------------------------------
    MetricSpec("repro_cluster_services", "gauge", (), "Cluster",
               "Workers in the pool."),
    MetricSpec("repro_cluster_workers_down", "gauge", (), "Cluster",
               "Workers currently marked down (failover in progress)."),
    MetricSpec("repro_cluster_service_up", "gauge", ("service",),
               "Cluster", "1 when the worker serves live, 0 while down."),
    MetricSpec("repro_cluster_degraded_reads_total", "counter",
               ("service",), "Cluster",
               "Reads served from a down worker's durable snapshot."),
    MetricSpec("repro_cluster_shed_events_total", "counter", ("service",),
               "Cluster", "Events shed while the worker was down."),
    MetricSpec("repro_cluster_tenants", "gauge", (), "Cluster",
               "Registered tenants."),
    MetricSpec("repro_tenant_events_enqueued_total", "counter",
               ("tenant", "service"), "ClusterMetrics",
               "Cluster-side admissions for the tenant."),
    MetricSpec("repro_tenant_events_applied_total", "counter",
               ("tenant", "service"), "ClusterMetrics",
               "Worker-side applied events for the tenant."),
    MetricSpec("repro_tenant_events_dropped_total", "counter",
               ("tenant", "service"), "ClusterMetrics",
               "Backpressure drops attributed to the tenant."),
    MetricSpec("repro_tenant_rejected_total", "counter",
               ("tenant", "reason"), "ClusterMetrics",
               "Quota/availability rejections by reason."),
    MetricSpec("repro_tenant_unavailable", "gauge", ("tenant",),
               "ClusterMetrics",
               "1 while the tenant's worker is down (degraded serving)."),
    MetricSpec("repro_tenant_migrating", "gauge", ("tenant",),
               "ClusterMetrics", "1 while a rebalance handoff is gated."),
    # -- FrontendMetrics -----------------------------------------------
    MetricSpec("repro_frontend_connections_opened_total", "counter", (),
               "FrontendMetrics", "Connections accepted."),
    MetricSpec("repro_frontend_connections_closed_total", "counter", (),
               "FrontendMetrics", "Connections closed."),
    MetricSpec("repro_frontend_connections_active", "gauge", (),
               "FrontendMetrics", "Currently open connections."),
    MetricSpec("repro_frontend_connections_rejected_total", "counter", (),
               "FrontendMetrics", "Connections refused at the cap."),
    MetricSpec("repro_frontend_frames_read_total", "counter", (),
               "FrontendMetrics", "Request frames read."),
    MetricSpec("repro_frontend_binary_frames_total", "counter", (),
               "FrontendMetrics",
               "Request frames read as binary ingest columns."),
    MetricSpec("repro_frontend_frames_rate_limited_total", "counter", (),
               "FrontendMetrics", "Frames pushed back by the rate limit."),
    MetricSpec("repro_frontend_idle_timeouts_total", "counter", (),
               "FrontendMetrics", "Connections reaped idle."),
    MetricSpec("repro_frontend_read_timeouts_total", "counter", (),
               "FrontendMetrics", "Slowloris body-read timeouts."),
    MetricSpec("repro_frontend_disconnects_mid_frame_total", "counter", (),
               "FrontendMetrics", "Peers that vanished mid-frame."),
    MetricSpec("repro_frontend_frame_errors_total", "counter", (),
               "FrontendMetrics", "Malformed frames answered."),
    MetricSpec("repro_frontend_replies_deduped_total", "counter", (),
               "FrontendMetrics", "Ingest replies served from the "
               "idempotency table."),
    MetricSpec("repro_frontend_scrapes_total", "counter", (),
               "FrontendMetrics",
               "Prometheus expositions served (HTTP or frame verb)."),
    MetricSpec("repro_frontend_trace_reads_total", "counter", (),
               "FrontendMetrics", "Trace-ring reads answered."),
    # -- TraceLog ------------------------------------------------------
    MetricSpec("repro_trace_spans_started_total", "counter", (),
               "TraceLog", "Ingest spans stamped at admission."),
    MetricSpec("repro_trace_spans_completed_total", "counter", (),
               "TraceLog", "Spans completed at a flush."),
    MetricSpec("repro_trace_events_total", "counter", (), "TraceLog",
               "Events covered by completed spans."),
    MetricSpec("repro_trace_stage_seconds_total", "counter", ("stage",),
               "TraceLog",
               "Cumulative per-stage time (queued, wal, apply)."),
    MetricSpec("repro_trace_checkpoints_total", "counter", (), "TraceLog",
               "Checkpoint writes traced."),
    MetricSpec("repro_trace_checkpoint_seconds_total", "counter", (),
               "TraceLog", "Cumulative checkpoint write time."),
    MetricSpec("repro_trace_last_span_seconds", "gauge", (), "TraceLog",
               "End-to-end latency of the most recent span."),
    # -- AlertEngine ---------------------------------------------------
    MetricSpec("repro_alerts_evaluations_total", "counter", (),
               "AlertEngine", "Windows evaluated."),
    MetricSpec("repro_alerts_firing", "gauge", ("rule", "severity"),
               "AlertEngine", "1 while the rule is firing."),
    MetricSpec("repro_alerts_transitions_total", "counter", ("kind",),
               "AlertEngine", "Firing/resolved transitions emitted."),
)

_SPECS = {spec.name: spec for spec in INVENTORY}


def _family(name: str) -> MetricFamily:
    spec = _SPECS[name]
    return MetricFamily(spec.name, spec.kind, spec.help)


def _service_families(rows: list) -> list:
    """``repro_service_*`` families over ``(labels, ServiceMetrics)``
    rows — one sample (or histogram) per row."""
    counters = {
        "repro_service_events_enqueued_total": "events_enqueued",
        "repro_service_events_dropped_total": "events_dropped",
        "repro_service_events_logged_total": "events_logged",
        "repro_service_events_applied_total": "events_applied",
        "repro_service_batches_applied_total": "batches_applied",
        "repro_service_flush_duration_seconds_total": "flush_duration_sum",
        "repro_service_checkpoints_written_total": "checkpoints_written",
        "repro_service_wal_records_total": "wal_records",
        "repro_service_wal_bytes_total": "wal_bytes",
        "repro_service_restarts_total": "restarts",
        "repro_service_retunes_applied_total": "retunes_applied",
    }
    gauges = {
        "repro_service_queue_depth": "queue_depth",
        "repro_service_queue_high_watermark": "queue_high_watermark",
        "repro_service_last_flush_latency_seconds": "last_flush_latency",
        "repro_service_last_flush_duration_seconds": "last_flush_duration",
        "repro_service_checkpoint_lag": "checkpoint_lag",
        "repro_service_last_checkpoint_offset": "last_checkpoint_offset",
    }
    families = {name: _family(name) for name in (
        *counters, *gauges,
        "repro_service_events_dropped_by_total",
        "repro_service_flushes_total",
        "repro_service_batch_size",
        "repro_service_flush_latency_seconds",
    )}
    for labels, metrics in rows:
        for name, attr in counters.items():
            families[name].add(getattr(metrics, attr), labels)
        for name, attr in gauges.items():
            families[name].add(getattr(metrics, attr), labels)
        for label, count in sorted(metrics.events_dropped_by.items()):
            families["repro_service_events_dropped_by_total"].add(
                count, {**labels, "drop_label": label}
            )
        for reason in ("size", "deadline", "drain"):
            families["repro_service_flushes_total"].add(
                getattr(metrics, f"flushes_{reason}"),
                {**labels, "reason": reason},
            )
        families["repro_service_batch_size"].add_histogram(
            {row["le"]: row["count"]
             for row in metrics.batch_size_histogram()},
            sum_value=metrics.events_applied,
            labels=labels,
        )
        families["repro_service_flush_latency_seconds"].add_histogram(
            metrics.flush_latency_histogram_seconds(),
            sum_value=metrics.flush_latency_sum,
            labels=labels,
        )
    return list(families.values())


_SAMPLER_GAUGES = {
    "repro_sampler_threshold": "threshold",
    "repro_sampler_k": "k",
    "repro_sampler_fill": "fill",
    "repro_sampler_items_seen": "items_seen",
    "repro_sampler_state_version": "state_version",
}


def sampler_gauges(rows: list) -> list:
    """``repro_sampler_*`` families over ``(labels, observe()-dict)``
    rows.  Keys outside the inventory are ignored (samplers may expose
    extra diagnostics without breaking the scrape contract); absent keys
    simply emit no sample for that row."""
    families = {name: _family(name) for name in _SAMPLER_GAUGES}
    for labels, observed in rows:
        for name, key in _SAMPLER_GAUGES.items():
            if key in observed:
                families[name].add(float(observed[key]), labels)
    return [family for family in families.values() if family.samples]


def trace_collector(trace_log):
    """Collector over one :class:`~repro.obs.trace.TraceLog`."""
    def collect() -> list:
        families = []
        for name, attr in (
            ("repro_trace_spans_started_total", "spans_started"),
            ("repro_trace_spans_completed_total", "spans_completed"),
            ("repro_trace_events_total", "events_traced"),
            ("repro_trace_checkpoints_total", "checkpoints"),
            ("repro_trace_checkpoint_seconds_total", "checkpoint_seconds"),
            ("repro_trace_last_span_seconds", "last_span_seconds"),
        ):
            families.append(_family(name).add(getattr(trace_log, attr)))
        stage = _family("repro_trace_stage_seconds_total")
        for name in TRACE_STAGES:
            stage.add(trace_log.stage_seconds[name], {"stage": name})
        families.append(stage)
        return families
    return collect


def alerts_collector(engine):
    """Collector over one :class:`~repro.obs.alerts.AlertEngine`."""
    def collect() -> list:
        firing = engine.firing()
        firing_family = _family("repro_alerts_firing")
        for rule in engine.rules():
            firing_family.add(
                1.0 if rule.name in firing else 0.0,
                {"rule": rule.name, "severity": rule.severity},
            )
        transitions = _family("repro_alerts_transitions_total")
        for kind in ("firing", "resolved"):
            transitions.add(engine.transitions[kind], {"kind": kind})
        return [
            _family("repro_alerts_evaluations_total").add(
                engine.evaluations
            ),
            firing_family,
            transitions,
        ]
    return collect


def service_collector(service, labels: dict | None = None):
    """Collector over one bare ``StreamService`` (metrics + sampler
    gauges; trace summaries ride along when the service is traced)."""
    base = dict(labels or {})

    def collect() -> list:
        families = _service_families([(base, service.metrics)])
        families.extend(
            sampler_gauges([
                ({**base, "degraded": "false"}, service.sampler.observe())
            ])
        )
        return families
    return collect


def frontend_collector(frontend):
    """Collector over a ``ClusterFrontend``'s connection counters."""
    attrs = {
        "repro_frontend_connections_opened_total": "connections_opened",
        "repro_frontend_connections_closed_total": "connections_closed",
        "repro_frontend_connections_active": "connections_active",
        "repro_frontend_connections_rejected_total": "connections_rejected",
        "repro_frontend_frames_read_total": "frames_read",
        "repro_frontend_binary_frames_total": "binary_frames",
        "repro_frontend_frames_rate_limited_total": "frames_rate_limited",
        "repro_frontend_idle_timeouts_total": "idle_timeouts",
        "repro_frontend_read_timeouts_total": "read_timeouts",
        "repro_frontend_disconnects_mid_frame_total": "disconnects_mid_frame",
        "repro_frontend_frame_errors_total": "frame_errors",
        "repro_frontend_replies_deduped_total": "replies_deduped",
        "repro_frontend_scrapes_total": "scrapes_served",
        "repro_frontend_trace_reads_total": "trace_reads",
    }

    def collect() -> list:
        metrics = frontend.metrics
        return [
            _family(name).add(getattr(metrics, attr))
            for name, attr in attrs.items()
        ]
    return collect


def cluster_collector(cluster):
    """Collector over a ``Cluster``: per-service metrics, outage and
    tenant tables, and per-tenant sampler gauges.

    The collector is strictly non-blocking: it reads in-process metrics
    objects and sampler attributes only (never ``await``), so a scrape
    during a failover returns immediately.  Tenants on a down worker
    serve their gauges from the worker's last durable snapshot, labeled
    ``degraded="true"``.
    """
    def collect() -> list:
        snapshot = cluster.metrics()
        down = snapshot.services_down
        families = _service_families([
            ({"service": name}, metrics)
            for name, metrics in sorted(snapshot.services.items())
        ])
        families.append(
            _family("repro_cluster_services").add(len(cluster.services))
        )
        families.append(
            _family("repro_cluster_workers_down").add(len(down))
        )
        up = _family("repro_cluster_service_up")
        for name in cluster.services:
            up.add(0.0 if name in down else 1.0, {"service": name})
        families.append(up)
        degraded_reads = _family("repro_cluster_degraded_reads_total")
        shed = _family("repro_cluster_shed_events_total")
        for name, outage in sorted(down.items()):
            degraded_reads.add(outage["degraded_reads"], {"service": name})
            shed.add(outage["shed_events"], {"service": name})
        families.extend([degraded_reads, shed])
        families.append(
            _family("repro_cluster_tenants").add(len(snapshot.tenants))
        )
        per_tenant = {
            "repro_tenant_events_enqueued_total": "events_enqueued",
            "repro_tenant_events_applied_total": "events_applied",
            "repro_tenant_events_dropped_total": "events_dropped",
        }
        tenant_families = {
            name: _family(name)
            for name in (*per_tenant, "repro_tenant_rejected_total",
                         "repro_tenant_unavailable",
                         "repro_tenant_migrating")
        }
        sampler_rows = []
        for tenant, row in sorted(snapshot.tenants.items()):
            labels = {"tenant": tenant, "service": row["service"]}
            for name, key in per_tenant.items():
                tenant_families[name].add(row[key], labels)
            for reason, count in sorted(row["rejected"].items()):
                tenant_families["repro_tenant_rejected_total"].add(
                    count, {"tenant": tenant, "reason": reason}
                )
            tenant_families["repro_tenant_unavailable"].add(
                1.0 if row["unavailable"] else 0.0, {"tenant": tenant}
            )
            tenant_families["repro_tenant_migrating"].add(
                1.0 if row["migrating"] else 0.0, {"tenant": tenant}
            )
            observed = _tenant_observe(cluster, tenant, row)
            if observed is not None:
                sampler_rows.append((
                    {**labels,
                     "degraded": "true" if row["unavailable"] else "false"},
                    observed,
                ))
        families.extend(tenant_families.values())
        families.extend(sampler_gauges(sampler_rows))
        return families
    return collect


def _tenant_observe(cluster, tenant: str, row: dict) -> dict | None:
    """A tenant's sampler gauges, from the live worker or — when the
    worker is down — its durable snapshot (synchronous either way)."""
    record = cluster.registry.get(tenant)
    if row["unavailable"]:
        try:
            return cluster._degraded_child(tenant, record).observe()
        except RuntimeError:
            # In-memory cluster with no durable snapshot to degrade to.
            return None
    worker = cluster._workers.get(record.service)
    if worker is None:
        return None
    mux = worker.sampler
    if not mux.has_tenant(tenant):
        return None
    return mux.tenant_sampler(tenant).observe()


def service_registry(service, *, alerts=None) -> PrometheusRegistry:
    """The standard registry for one bare ``StreamService``."""
    registry = PrometheusRegistry().register(service_collector(service))
    trace_log = getattr(service, "trace_log", None)
    if trace_log is not None:
        registry.register(trace_collector(trace_log))
    if alerts is not None:
        registry.register(alerts_collector(alerts))
    return registry


def cluster_registry(cluster, *, frontend=None,
                     alerts=None) -> PrometheusRegistry:
    """The standard registry for a cluster (plus optional frontend and
    alert-engine collectors) — what the ``/metrics`` endpoint serves."""
    registry = PrometheusRegistry().register(cluster_collector(cluster))
    if frontend is not None:
        registry.register(frontend_collector(frontend))
    if alerts is not None:
        registry.register(alerts_collector(alerts))
    return registry


def metric_inventory_markdown() -> str:
    """The docs metric-inventory table, generated from :data:`INVENTORY`
    (pinned byte-identical in ``docs/architecture.md`` by the docs
    suite, exactly like the capability matrix)."""
    lines = [
        "| Metric | Kind | Labels | Source | Help |",
        "| --- | --- | --- | --- | --- |",
    ]
    for spec in INVENTORY:
        labels = ", ".join(spec.labels) if spec.labels else "—"
        lines.append(
            f"| `{spec.name}` | {spec.kind} | {labels} | "
            f"`{spec.source}` | {spec.help} |"
        )
    return "\n".join(lines) + "\n"
