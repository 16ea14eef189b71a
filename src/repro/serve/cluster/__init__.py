"""Multi-tenant serving cluster: ring routing, quotas, live rebalancing.

This package scales the single-service runtime (:mod:`repro.serve`) out
to many tenants on a fixed worker pool:

- :class:`Cluster` — the facade: tenant namespace, consistent-hash
  placement, quota-fair ingest, snapshot-isolated tenant-scoped reads,
  live rebalancing, crash recovery with placement reconciliation.
- :class:`~repro.serve.cluster.ring.HashRing` — deterministic
  virtual-node consistent hashing (``~1/n`` movement under churn).
- :class:`~repro.serve.cluster.mux.TenantMuxSampler` — the registered
  ``"tenant_mux"`` sampler each worker wraps: per-tenant children fed
  routed per-tenant key blocks, membership changes as WAL-logged admin
  ops.
- :class:`~repro.serve.cluster.tenants.TenantRegistry` /
  :class:`~repro.serve.cluster.tenants.TenantQuota` — namespace, token
  buckets, queue-share caps, counted per-reason rejections.
- :mod:`~repro.serve.cluster.rebalance` — the gate/quiesce/extract/
  install/commit/drop handoff protocol (bit-exact moved state).
- :class:`ClusterFrontend` / :class:`ClusterClient` — the TCP front end
  (length-prefixed JSON frames, binary columns for numeric ingest
  blocks, per-connection hardening) and its thin
  async client (optional retry/backoff, circuit breaker, idempotent
  ingest retries).
- :class:`Supervisor` — the self-healing loop: health probes
  (:mod:`~repro.serve.cluster.health`), automatic restart-in-place or
  rehome failover, degraded serving while a worker is down.
- :class:`~repro.serve.cluster.metrics.ClusterMetrics` /
  :class:`~repro.serve.cluster.metrics.FrontendMetrics` — per-service,
  per-tenant, merged, and connection-level metric aggregation.

See the "Cluster" and "Fault tolerance" sections of
``docs/architecture.md`` for the ring diagram, quota semantics, the
rebalance protocol proof sketch, and the failure model.
"""

from .cluster import Cluster, StaleFrontier
from .controller import ClusterController
from .frontend import (
    ClusterClient,
    ClusterFrontend,
    FrameDisconnect,
    FrameError,
    FrameTimeout,
)
from .health import HealthConfig, WorkerHealth
from .metrics import ClusterMetrics, FrontendMetrics
from .mux import TenantMuxSampler
from .rebalance import RebalancePlan, TenantMove
from .retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from .ring import HashRing
from .supervisor import FailoverEvent, Supervisor
from .tenants import TenantQuota, TenantRecord, TenantRegistry, TokenBucket

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "Cluster",
    "ClusterClient",
    "ClusterController",
    "ClusterFrontend",
    "ClusterMetrics",
    "FailoverEvent",
    "FrameDisconnect",
    "FrameError",
    "FrameTimeout",
    "FrontendMetrics",
    "HashRing",
    "HealthConfig",
    "RebalancePlan",
    "RetryPolicy",
    "StaleFrontier",
    "Supervisor",
    "TenantMove",
    "TenantMuxSampler",
    "TenantQuota",
    "TenantRecord",
    "TenantRegistry",
    "TokenBucket",
    "WorkerHealth",
]
