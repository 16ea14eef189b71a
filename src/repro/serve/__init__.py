"""Async streaming serving runtime: ingest while you query, survive crashes.

The paper's premise is that **one** continuously-maintained adaptive
sample answers arbitrary downstream queries; this package is the
long-running runtime that premise deserves.  A
:class:`StreamService` wraps any registered sampler (or a
:class:`~repro.engine.ShardedSampler`) and provides:

* **Bounded async ingestion** — ``await service.ingest_many(...)`` with
  backpressure at ``queue_size`` buffered events (or counted drops via
  the non-blocking ``try_ingest`` variants).
* **Micro-batching** — events flush into the vectorized ``update_many``
  kernels on batch size *and* a max-latency deadline
  (:mod:`repro.serve.batcher`).
* **Snapshot-isolated reads** — ``sample()``/``estimate()``/``query()``
  pinned to one ``state_version``; no reader ever sees a half-applied
  batch (:class:`ServiceSnapshot`).
* **Durability** — a segmented write-ahead log (:mod:`repro.serve.wal`)
  plus periodic atomic checkpoints (:mod:`repro.serve.checkpoints`),
  with :meth:`StreamService.recover` replaying the log tail to a
  bit-identical state.
* **Metrics** — ingested/dropped/applied counts, queue depth, batch-size
  histogram, checkpoint lag (:mod:`repro.serve.metrics`).
* **Multi-tenancy** — :mod:`repro.serve.cluster` multiplexes many
  tenants onto a pool of these services with consistent-hash routing,
  per-tenant quotas, live rebalancing, and a TCP front end.
* **Adaptive control** — an :class:`AdaptiveController` retunes
  ``batch_size``/``max_latency``/sampler ``k`` online from live metrics
  (:mod:`repro.serve.control`); retunes apply at flush boundaries, are
  WAL-logged, and keep estimators unbiased across sampler resizes.
* **Self-healing** — a :class:`~repro.serve.cluster.Supervisor`
  health-checks the pool and fails over automatically (restart-in-place
  or rehome) while the cluster keeps serving degraded reads and sheds
  ingest with counted rejections; :mod:`repro.serve.chaos` is the fault
  injection harness that proves it.

See the "Serving" and "Cluster" sections of ``docs/architecture.md`` for
the runtime loop diagram and the durability/recovery guarantees.
"""

from .batcher import MicroBatcher
from .checkpoints import CheckpointStore
from .control import (
    AdaptiveController,
    CONTROLLER_MODES,
    ControllerConfig,
    ControlSignals,
    MetricsWindow,
    derive_signals,
)
from .metrics import ServiceMetrics
from .service import ServiceCrashed, ServiceSnapshot, StreamService

# .cluster imports .service, so it must come after (it also registers the
# "tenant_mux" sampler as an import side effect — `import repro` alone
# makes the cluster worker sampler constructible from the registry).
from .chaos import ChaosError, ChaosInjector, Fault
from .cluster import (
    CircuitBreaker,
    Cluster,
    ClusterClient,
    ClusterController,
    ClusterFrontend,
    ClusterMetrics,
    FrontendMetrics,
    HashRing,
    RetryPolicy,
    StaleFrontier,
    Supervisor,
    TenantMuxSampler,
    TenantQuota,
)
from .wal import WalRecord, WriteAheadLog, replay_records

__all__ = [
    "StreamService",
    "ServiceSnapshot",
    "ServiceCrashed",
    "MicroBatcher",
    "ServiceMetrics",
    "AdaptiveController",
    "ControllerConfig",
    "ControlSignals",
    "CONTROLLER_MODES",
    "MetricsWindow",
    "derive_signals",
    "CheckpointStore",
    "WriteAheadLog",
    "WalRecord",
    "replay_records",
    "ChaosError",
    "ChaosInjector",
    "Fault",
    "CircuitBreaker",
    "Cluster",
    "ClusterClient",
    "ClusterController",
    "ClusterFrontend",
    "ClusterMetrics",
    "FrontendMetrics",
    "HashRing",
    "RetryPolicy",
    "StaleFrontier",
    "Supervisor",
    "TenantMuxSampler",
    "TenantQuota",
]
