"""Cluster-wide metrics: per-service, per-tenant, and merged views.

Workers already maintain :class:`~repro.serve.metrics.ServiceMetrics`
inline; the cluster layer never re-derives a counter.  ``collect`` takes
one consistent pass over the pool: each worker's metrics snapshot keyed
by service name, a single merged total (both via
``ServiceMetrics.merge``), and a per-tenant table joining the registry's admission/rejection counters with the
worker-side applied counts and per-tenant drop attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..metrics import ServiceMetrics

__all__ = ["ClusterMetrics", "FrontendMetrics"]


@dataclass
class FrontendMetrics:
    """Connection-level counters for :class:`~.frontend.ClusterFrontend`.

    Every hardening decision the front end makes is counted here, so a
    misbehaving client shows up in a dashboard rather than only in the
    server's latency: connections refused at the concurrency cap,
    frames refused by the per-connection rate limit, idle/read timeouts,
    quiet mid-frame disconnects, and ingest replies served from the
    idempotency table instead of re-admitting.  ``binary_frames`` counts
    the request frames that arrived as binary ingest columns, so the
    rest of ``frames_read`` shows how much ingest still comes as JSON
    (str-keyed tenants, older clients).
    """

    connections_opened: int = 0
    connections_closed: int = 0
    connections_active: int = 0
    connections_rejected: int = 0
    frames_read: int = 0
    binary_frames: int = 0
    frames_rate_limited: int = 0
    idle_timeouts: int = 0
    read_timeouts: int = 0
    disconnects_mid_frame: int = 0
    frame_errors: int = 0
    replies_deduped: int = 0
    #: Observability surface: Prometheus expositions served (HTTP sniff
    #: or ``scrape`` frame verb) and ``trace`` verb reads answered.
    scrapes_served: int = 0
    trace_reads: int = 0

    def to_dict(self) -> dict:
        """JSON-friendly snapshot."""
        return {
            "connections_opened": self.connections_opened,
            "connections_closed": self.connections_closed,
            "connections_active": self.connections_active,
            "connections_rejected": self.connections_rejected,
            "frames_read": self.frames_read,
            "binary_frames": self.binary_frames,
            "frames_rate_limited": self.frames_rate_limited,
            "idle_timeouts": self.idle_timeouts,
            "read_timeouts": self.read_timeouts,
            "disconnects_mid_frame": self.disconnects_mid_frame,
            "frame_errors": self.frame_errors,
            "replies_deduped": self.replies_deduped,
            "scrapes_served": self.scrapes_served,
            "trace_reads": self.trace_reads,
        }


@dataclass
class ClusterMetrics:
    """Aggregated view over a worker pool and its tenant registry.

    ``services`` maps worker name to its own ``ServiceMetrics``;
    ``total`` is their label-wise merge; ``tenants`` maps tenant id to a
    flat row: current placement, cluster-side admissions, worker-side
    applied events, per-tenant backpressure drops, and quota rejections
    by reason.
    """

    services: dict[str, ServiceMetrics] = field(default_factory=dict)
    total: ServiceMetrics = field(default_factory=ServiceMetrics)
    tenants: dict[str, dict] = field(default_factory=dict)
    #: Workers currently marked down: name -> outage description
    #: (reason, since, degraded_reads, shed_events).
    services_down: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def collect(cls, workers: dict, registry,
                down: dict | None = None) -> "ClusterMetrics":
        """Snapshot ``workers`` (name -> ``StreamService``) and
        ``registry`` into one aggregated view.  ``down`` is the
        cluster's outage map (``Cluster.down_services()``)."""
        out = cls()
        down = down or {}
        out.services_down = {name: dict(row) for name, row in down.items()}
        for name in sorted(workers):
            snapshot = ServiceMetrics().merge(workers[name].metrics)
            out.services[name] = snapshot
            out.total.merge(snapshot)
        for tenant in registry.tenants():
            record = registry.get(tenant)
            worker = workers.get(record.service)
            mux = worker.sampler if worker is not None else None
            out.tenants[tenant] = {
                "service": record.service,
                "events_enqueued": record.events_enqueued,
                "events_applied": (
                    mux.events_applied_for(tenant)
                    if mux is not None and mux.has_tenant(tenant)
                    else 0
                ),
                "events_dropped": (
                    worker.metrics.events_dropped_by.get(tenant, 0)
                    if worker is not None
                    else 0
                ),
                "rejected": dict(record.rejected),
                "migrating": record.migrating,
                "unavailable": record.service in down,
            }
        return out

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (services and tenants name-sorted)."""
        return {
            "services": {
                name: metrics.to_dict()
                for name, metrics in sorted(self.services.items())
            },
            "total": self.total.to_dict(),
            "tenants": {
                tenant: dict(row)
                for tenant, row in sorted(self.tenants.items())
            },
            "services_down": {
                name: dict(row)
                for name, row in sorted(self.services_down.items())
            },
        }
