"""The multi-tenant serving cluster: many tenants, few workers.

A :class:`Cluster` multiplexes an arbitrary number of tenants — each with
its own :class:`~repro.api.SamplerSpec` and quota — onto a fixed pool of
:class:`~repro.serve.StreamService` workers.  Every worker is an
*unmodified* ``StreamService`` wrapping a
:class:`~repro.serve.cluster.mux.TenantMuxSampler`, so the WAL,
checkpoints, crash recovery, snapshot isolation, and metrics of the
single-service runtime carry over wholesale; the cluster layer adds only
routing, namespace, fairness, and rebalancing:

- **Routing** — a consistent-hash ring (:mod:`~repro.serve.cluster.ring`)
  gives each tenant a deterministic default worker; the authoritative
  *current* placement lives in the tenant registry (the ring proposes,
  the placement map disposes — rebalancing moves the map).
- **Namespace** — ``create_tenant`` / ``describe_tenant`` /
  ``drop_tenant`` manage :class:`~repro.serve.cluster.tenants.TenantRecord`
  entries; membership changes reach workers as WAL-logged admin ops in
  the event stream, so they are durable and ordered with the data.
- **Fairness** — per-tenant token buckets and queue-share caps
  (:mod:`~repro.serve.cluster.tenants`) run *in front of* each worker's
  bounded buffer, with counted, reason-attributed rejections.
- **Rebalancing** — ``add_service`` / ``remove_service`` /
  ``rebalance`` hand tenants off live via portable sampler state
  (:mod:`~repro.serve.cluster.rebalance`), with no event loss for
  anything past the WAL frontier.

Cluster metadata (ring parameters, tenant registry, placements)
persists to ``<dir>/cluster.json`` (atomic rename), and
:meth:`Cluster.recover` rebuilds every worker bit-exactly from its own
directory, then reconciles placements against what the WALs actually
hold — resolving rebalances that were interrupted mid-handoff.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable

from ...api.registry import SamplerSpec, get_sampler_class
from ..batcher import _slice_chunk, chunk_of
from ..service import _CONFIG_KEYS, ServiceCrashed, StreamService
from .metrics import ClusterMetrics
from .mux import create_op, drop_op, key_block
from .ring import HashRing
from .tenants import (
    REJECT_REASONS,
    TenantQuota,
    TenantRecord,
    TenantRegistry,
)

__all__ = ["Cluster", "StaleFrontier"]

_META_NAME = "cluster.json"


class StaleFrontier(RuntimeError):
    """Conditional admission failed: the tenant's admission frontier is
    not what the producer expected.

    Raised by the ingest paths when ``expect_frontier`` is given and a
    failover (or a competing producer) moved the frontier between the
    producer reading it and the batch arriving.  The batch was **not**
    admitted; the producer re-reads the frontier and re-sends from
    there.  This is what makes retry-across-failover safe: without the
    guard, a batch retried after a frontier rollback would be admitted
    at the wrong position, silently corrupting the at-least-once
    stream."""


@dataclass
class _DownWorker:
    """Book-keeping for one worker marked down (outage in progress).

    ``snapshot`` lazily holds an *offline* ``StreamService.recover`` of
    the worker's directory — the last durable state, bit-exact at the
    WAL frontier — which the degraded read path serves from.  It is
    never started: pure read-only state, discarded when the worker is
    marked up again.
    """

    reason: str
    since: float
    loaded: bool = False
    snapshot: StreamService | None = None
    #: Spec-built fallbacks for tenants whose create op never became
    #: durable (their durable state is legitimately "empty").
    fresh: dict = field(default_factory=dict)
    degraded_reads: int = 0
    shed_events: int = 0


def _stamp_degraded(result) -> None:
    """Mark a frozen ``QueryResult`` (and its group sub-results) as
    served from a durable snapshot, the same post-hoc mechanism the
    planner uses for ``state_version``."""
    object.__setattr__(result, "degraded", True)
    if result.groups:
        for sub in result.groups.values():
            _stamp_degraded(sub)


def _check_columns(record: TenantRecord, weights, values, times) -> None:
    """Refuse a tenant block without a column the tenant's sampler class
    requires (``TypeError``), before it reaches a worker's queue or WAL.
    The class comes from the tenant's spec, so the check holds while the
    tenant's create op is still queued on its worker."""
    cls = get_sampler_class(record.spec.name)
    if cls.required_columns:
        cls.check_columns(
            {"weights": weights, "values": values, "times": times}
        )


def _named_hook(hook: Callable[[str], object] | None, name: str):
    """Prefix a fault hook's stage with the worker name.

    Tests inject against one specific worker by matching stages like
    ``"svc-2:apply.before"``; the wrapper preserves awaitable returns
    (the ``flush.before`` stall contract).
    """
    if hook is None:
        return None
    return lambda stage: hook(f"{name}:{stage}")


class Cluster:
    """A pool of mux workers serving many tenants behind one facade.

    Parameters
    ----------
    services:
        Worker count (named ``svc-0`` .. ``svc-{n-1}``) or an explicit
        iterable of worker names.
    dir:
        Cluster directory: per-worker service dirs plus ``cluster.json``.
        ``None`` serves in memory only (no recovery, no rebalance
        durability beyond the running process).
    replicas / ring_salt:
        Consistent-hash ring tuning (virtual nodes per worker, placement
        salt).
    queue_size / batch_size / max_latency / checkpoint_every_events /
    segment_max_bytes / retain_checkpoints / fsync:
        Fanned out to every worker ``StreamService``.
    fault_hook:
        Test seam: worker hooks fire as ``"<worker>:<stage>"`` (e.g.
        ``"svc-1:wal.append.before"``), so faults can target one worker.
    clock:
        Injectable monotonic clock for the tenant token buckets.
    trace:
        Give every worker an ingest-path :class:`~repro.obs.TraceLog`
        (queued → WAL → apply spans).  Process-local observability, not
        persisted config: restarted and recovered workers get fresh,
        empty rings.

    Examples
    --------
    >>> import asyncio
    >>> from repro.serve.cluster import Cluster
    >>> async def demo():
    ...     async with Cluster(services=2) as cluster:
    ...         await cluster.create_tenant(
    ...             "acme", {"name": "bottom_k", "params": {"k": 64, "rng": 7}})
    ...         await cluster.ingest_many("acme", range(500))
    ...         return await cluster.estimate("acme", "total")
    >>> 200 < asyncio.run(demo()) < 1200  # HT estimate of the true 500
    True
    """

    def __init__(
        self,
        services: int | list | tuple = 4,
        *,
        dir: str | os.PathLike | None = None,
        replicas: int = 64,
        ring_salt: int = 0,
        queue_size: int = 65536,
        batch_size: int = 8192,
        max_latency: float = 0.05,
        checkpoint_every_events: int | None = None,
        segment_max_bytes: int = 4 * 1024 * 1024,
        retain_checkpoints: int = 2,
        fsync: bool = False,
        fault_hook: Callable[[str], object] | None = None,
        clock=None,
        trace: bool = False,
    ):
        if isinstance(services, int):
            if services < 1:
                raise ValueError("a cluster needs at least one service")
            names = [f"svc-{i}" for i in range(services)]
        else:
            names = [str(name) for name in services]
            if not names or len(set(names)) != len(names):
                raise ValueError("service names must be unique and non-empty")
        self.dir = pathlib.Path(dir) if dir is not None else None
        self.fault_hook = fault_hook
        self._clock = clock
        # Observability flag, not service config: trace rings are
        # process-local and deliberately not persisted, so the flag is
        # re-applied (not recovered) across restarts.
        self._trace = bool(trace)
        self._service_config = {
            "queue_size": int(queue_size),
            "batch_size": int(batch_size),
            "max_latency": float(max_latency),
            "checkpoint_every_events": checkpoint_every_events,
            "segment_max_bytes": int(segment_max_bytes),
            "retain_checkpoints": int(retain_checkpoints),
            "fsync": bool(fsync),
        }
        self.ring = HashRing(names, replicas=replicas, salt=ring_salt)
        self.registry = TenantRegistry(clock=clock)
        self._workers: dict[str, StreamService] = {
            name: self._build_worker(name) for name in names
        }
        self._recovered = False
        self._started = False
        self._closed = False
        #: Tenants mid-handoff: blocking ingest awaits the event, the
        #: non-blocking path rejects (reason ``backpressure``).
        self._migrating: dict[str, asyncio.Event] = {}
        #: Workers currently marked down (failover in progress): reads
        #: for their tenants degrade to the last durable snapshot,
        #: ingest sheds with the counted ``unavailable`` reason.
        self._down: dict[str, _DownWorker] = {}
        #: Attached supervisors.  While positive, a worker crash caught
        #: on the ingest path marks the worker down and sheds instead of
        #: raising ``ServiceCrashed`` — failover is coming.
        self._supervised = 0

    def _build_worker(self, name: str) -> StreamService:
        """A fresh (not started) mux worker service named ``name``."""
        return StreamService(
            "tenant_mux",
            dir=None if self.dir is None else self.dir / name,
            fault_hook=_named_hook(self.fault_hook, name),
            trace=self._trace or None,
            **self._service_config,
        )

    def _recover_worker(self, name: str) -> StreamService:
        """Worker ``name`` rebuilt (not started) from its own directory."""
        return StreamService.recover(
            self.dir / name,
            fault_hook=_named_hook(self.fault_hook, name),
            trace=self._trace or None,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def services(self) -> tuple[str, ...]:
        """Current worker names, sorted."""
        return tuple(sorted(self._workers))

    def service(self, name: str) -> StreamService:
        """The worker ``StreamService`` named ``name``."""
        try:
            return self._workers[name]
        except KeyError:
            raise KeyError(f"unknown service {name!r}") from None

    def tenants(self) -> tuple[str, ...]:
        """All tenant ids, sorted."""
        return self.registry.tenants()

    def placement(self) -> dict[str, str]:
        """The authoritative tenant -> worker map (a copy)."""
        return {
            tenant: self.registry.get(tenant).service
            for tenant in self.registry.tenants()
        }

    def _check_started(self) -> None:
        if not self._started:
            raise RuntimeError("cluster not started; call `await start()`")
        if self._closed:
            raise RuntimeError("cluster already stopped")

    def _locate(self, tenant: str) -> tuple[TenantRecord, StreamService]:
        """The registry record and owning worker for ``tenant``."""
        record = self.registry.get(tenant)
        return record, self._workers[record.service]

    # ------------------------------------------------------------------
    # Outage state (the failover layer's primitives)
    # ------------------------------------------------------------------
    def down_services(self) -> dict[str, dict]:
        """Workers currently marked down: name -> outage description."""
        return {
            name: {
                "reason": state.reason,
                "since": state.since,
                "degraded_reads": state.degraded_reads,
                "shed_events": state.shed_events,
            }
            for name, state in sorted(self._down.items())
        }

    def is_down(self, name: str) -> bool:
        """Whether worker ``name`` is currently marked down."""
        return name in self._down

    def mark_service_down(self, name: str, reason: str = "manual") -> None:
        """Enter degraded mode for ``name``'s tenants (idempotent).

        Reads answer from the worker's last durable snapshot (results
        stamped ``degraded=True``), ingest sheds with the counted
        ``unavailable`` reason — no caller sees ``ServiceCrashed``.
        The supervisor calls this on detection; it is also a manual
        drain/maintenance switch.
        """
        self._check_started()
        if name not in self._workers:
            raise KeyError(f"unknown service {name!r}")
        if name not in self._down:
            self._down[name] = _DownWorker(
                reason=reason, since=time.monotonic()
            )

    def mark_service_up(self, name: str) -> None:
        """Leave degraded mode: discard the outage state (idempotent)."""
        self._down.pop(name, None)

    def _degraded_snapshot(self, name: str) -> StreamService | None:
        """The down worker's offline durable snapshot, loaded lazily.

        ``None`` on an in-memory cluster (nothing durable to degrade to)
        or when the worker never wrote a meta file.
        """
        state = self._down[name]
        if not state.loaded:
            state.loaded = True
            if self.dir is not None and (
                self.dir / name / "service.pkl"
            ).exists():
                # Read-only recovery: newest valid checkpoint + WAL-tail
                # replay, bit-exact at the durable frontier.  The service
                # is never started, so it opens no files for writing and
                # cannot clash with the (dead) live worker.
                state.snapshot = StreamService.recover(self.dir / name)
        return state.snapshot

    def _degraded_child(self, tenant: str, record: TenantRecord):
        """The sampler the degraded read path serves ``tenant`` from."""
        state = self._down[record.service]
        state.degraded_reads += 1
        snapshot = self._degraded_snapshot(record.service)
        if snapshot is not None and snapshot.sampler.has_tenant(tenant):
            return snapshot.sampler.tenant_sampler(tenant)
        if self.dir is None:
            raise RuntimeError(
                f"tenant {tenant!r} is unavailable: its worker "
                f"{record.service!r} is down and an in-memory cluster has "
                "no durable snapshot to degrade to"
            )
        # The tenant's create op never became durable: its durable
        # state is a fresh sampler from its spec (cached so repeated
        # reads pin one object, hence one state_version).
        if tenant not in state.fresh:
            state.fresh[tenant] = record.spec.build()
        return state.fresh[tenant]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "Cluster":
        """Start every worker (and reconcile placements after recovery)."""
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)
        for worker in self._workers.values():
            await worker.start()
        if self._recovered:
            await self._reconcile()
        self._save_meta()
        return self

    async def __aenter__(self) -> "Cluster":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.stop()
        else:
            await self.abort()

    async def stop(self) -> None:
        """Drain and stop every worker, then persist the cluster meta.

        Worker ``stop()`` takes a final checkpoint each; the meta file is
        rewritten last so it describes the fully-drained placements.
        """
        if self._closed:
            return
        self._check_started()
        errors = []
        for name, worker in self._workers.items():
            try:
                if name in self._down:
                    # A worker mid-outage has nothing to drain; abort it
                    # instead of letting stop() re-raise its crash.
                    await worker.abort()
                else:
                    await worker.stop()
            except Exception as err:  # noqa: BLE001 - stop every worker
                errors.append(err)
        self._closed = True
        self._save_meta()
        if errors:
            raise errors[0]

    async def abort(self) -> None:
        """Hard-kill every worker without draining (a simulated crash)."""
        for worker in self._workers.values():
            await worker.abort()
        self._closed = True

    # ------------------------------------------------------------------
    # Tenant namespace
    # ------------------------------------------------------------------
    async def create_tenant(
        self,
        tenant: str,
        spec: SamplerSpec | dict | str,
        *,
        quota: TenantQuota | dict | None = None,
    ) -> TenantRecord:
        """Register ``tenant`` and create its sampler on the ring's worker
        (:meth:`create_tenants` of one tenant).

        The sampler materializes when the worker's consumer applies the
        admin op — cheap enough to call thousands of times; reads
        flush-and-retry if they arrive first.
        """
        (record,) = await self.create_tenants(
            {tenant: spec}, quotas={tenant: quota}
        )
        return record

    async def create_tenants(
        self,
        specs: dict,
        *,
        quotas: dict | None = None,
    ) -> list[TenantRecord]:
        """Register tenants: one admin record per worker, one meta save.

        Bootstrapping thousands of tenants one call each would rewrite
        the cluster meta per tenant; this groups the create ops by
        placement and persists once at the end.  All-or-nothing on
        validation: every tenant id and spec is checked (and reserved in
        the registry) before any worker sees an op.  If a worker refuses
        its ops (crashed, stopped), every tenant whose create op was not
        enqueued is unregistered before the error propagates, so no
        registered tenant lacks its create op.
        """
        self._check_started()
        quotas = quotas or {}
        records: list[TenantRecord] = []
        try:
            for tenant, spec in specs.items():
                records.append(self.registry.create(
                    tenant, spec, quota=quotas.get(tenant),
                    service=self.ring.node_for(tenant),
                ))
        except BaseException:
            for record in records:
                self.registry.drop(record.tenant)
            raise
        by_worker: dict[str, list[TenantRecord]] = {}
        for record in records:
            by_worker.setdefault(record.service, []).append(record)
        try:
            for name, group in list(by_worker.items()):
                self._workers[name].enqueue_admin(
                    *(create_op(r.tenant, r.spec) for r in group)
                )
                del by_worker[name]
        except BaseException:
            for group in by_worker.values():
                for record in group:
                    self.registry.drop(record.tenant)
            raise
        self._save_meta()
        return records

    def _gate(self, tenant: str) -> None:
        """Close the migrating gate for ``tenant`` (handoff in progress):
        it admits nothing until :meth:`_ungate`, so a worker flush covers
        everything it admitted (see :meth:`_try_admit`)."""
        self.registry.get(tenant).migrating = True
        self._migrating.setdefault(tenant, asyncio.Event())

    def _ungate(self, tenant: str) -> None:
        """Reopen the gate; waiting producers rerun the gate sequence."""
        if tenant in self.registry:
            self.registry.get(tenant).migrating = False
        event = self._migrating.pop(tenant, None)
        if event is not None:
            event.set()

    async def drop_tenant(self, tenant: str) -> TenantRecord:
        """Remove ``tenant``: enqueue the drop op, forget the record.

        No block can trail the drop op into the worker (see
        :meth:`_try_admit`); a producer waiting on a gate raises
        ``KeyError`` when it wakes, the rest of its block unadmitted."""
        self._check_started()
        record, worker = self._locate(tenant)
        worker.enqueue_admin(drop_op(tenant))
        self.registry.drop(tenant)
        self._ungate(tenant)  # wake producers waiting on a handoff
        self._save_meta()
        return record

    def describe_tenant(self, tenant: str) -> dict:
        """One tenant's registry entry plus live worker-side counters."""
        record, worker = self._locate(tenant)
        mux = worker.sampler
        out = record.to_dict()
        out["migrating"] = record.migrating
        out["events_applied"] = (
            mux.events_applied_for(tenant) if mux.has_tenant(tenant) else 0
        )
        out["events_dropped"] = worker.metrics.events_dropped_by.get(tenant, 0)
        return out

    # ------------------------------------------------------------------
    # Online retuning (the adaptive control plane's actuators)
    # ------------------------------------------------------------------
    async def retune_service(
        self,
        name: str,
        *,
        batch_size: int | None = None,
        max_latency: float | None = None,
        k: int | None = None,
    ) -> dict:
        """Retune one worker's flush knobs online, via
        :meth:`StreamService.retune` (applied at a flush boundary,
        WAL-logged, bit-exact under recovery).

        ``k`` is accepted for symmetry but cluster workers wrap the
        non-resizable tenant mux, so passing it raises ``ValueError``
        from the worker.  Down workers cannot be retuned — failover
        restores them with their durable config first.
        """
        self._check_started()
        worker = self.service(name)
        if self.is_down(name):
            raise RuntimeError(f"service {name!r} is down; cannot retune")
        return await worker.retune(
            batch_size=batch_size, max_latency=max_latency, k=k
        )

    def retune_quota(
        self, tenant: str, quota: "TenantQuota | dict | None"
    ) -> "TenantQuota":
        """Replace ``tenant``'s quota online and persist the new limits.

        Delegates to :meth:`TenantRegistry.retune_quota` (frozen-quota
        swap plus a fresh token bucket) and rewrites the cluster meta so
        a recovered cluster enforces the retuned limits.  Returns the
        quota now in force.
        """
        self._check_started()
        record = self.registry.retune_quota(tenant, quota)
        self._save_meta()
        return record.quota

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    async def ingest(self, tenant: str, key, weight: float = 1.0, *,
                     value=None, time=None,
                     expect_frontier: int | None = None) -> bool:
        """Admit one event for ``tenant`` (suspends under backpressure).

        ``True`` when admitted; ``False`` only when shed because the
        tenant's worker is down (see :meth:`ingest_many`).
        """
        return await self.ingest_many(
            tenant,
            [key],
            weights=None if weight == 1.0 else [weight],
            values=None if value is None else [value],
            times=None if time is None else [time],
            expect_frontier=expect_frontier,
        )

    async def ingest_many(self, tenant: str, keys, weights=None,
                          values=None, times=None, *,
                          expect_frontier: int | None = None) -> bool:
        """Admit a batch for ``tenant``, waiting out closed gates.
        Returns ``True`` on admission, ``False`` when shed (worker
        down).

        Where :meth:`try_ingest_many` refuses, this awaits the closed
        gate's opening — the end of a handoff, the token-bucket debt it
        takes (paid once), the worker's applied progress (queue share)
        or free slots — then tries again on the tenant's current
        placement (``KeyError`` if the tenant was dropped meanwhile).  It
        never drops, except that a tenant whose worker is marked
        **down** sheds (counted under ``unavailable``): the caller
        re-sends from the durable frontier once failover restores
        service.  A block over the tenant's bound goes in pieces.

        ``expect_frontier`` makes the admission *conditional*: the block
        is admitted whole, and only if the tenant's admission frontier
        still equals it when the gates open (else :class:`StaleFrontier`
        with nothing admitted, or ``ValueError`` for a block over the
        bound), so a batch re-sent from the frontier after failover can
        never land at the wrong position, and competing conditional
        producers resolve to exactly one winner, unconditional producers
        on the same tenant notwithstanding.  A block without a column
        the tenant's sampler requires raises ``TypeError``, as in
        :meth:`try_ingest_many`.
        """
        record, keys = self._block(tenant, keys, weights, values, times)
        n = len(keys)
        if not n:
            return True
        bound = self._bound(record, self._workers[record.service])
        if n <= bound or expect_frontier is not None or not bound:
            return await self._admit_when_open(
                record, keys, weights, values, times, expect_frontier
            )
        chunk = chunk_of(keys, weights, values, times)
        for lo in range(0, n, bound):
            piece = _slice_chunk(chunk, lo, min(lo + bound, n))
            if not await self._admit_when_open(
                record, piece["keys"], piece["weights"], piece["values"],
                piece["times"], None,
            ):
                return False
        return True

    def try_ingest(self, tenant: str, key, weight: float = 1.0, *,
                   value=None, time=None,
                   expect_frontier: int | None = None) -> bool:
        """Non-blocking scalar admit; ``False`` means rejected-and-counted."""
        return self.try_ingest_many(
            tenant,
            [key],
            weights=None if weight == 1.0 else [weight],
            values=None if value is None else [value],
            times=None if time is None else [time],
            expect_frontier=expect_frontier,
        )

    def try_ingest_many(self, tenant: str, keys, weights=None,
                        values=None, times=None, *,
                        expect_frontier: int | None = None) -> bool:
        """Non-blocking batch admit with per-reason rejection accounting.

        All-or-nothing: the gates run in order and the first closed one
        refuses the block — ``expect_frontier`` (:class:`StaleFrontier`),
        a down worker (``unavailable``: shed, no quota charged), a
        migrating tenant (``backpressure``), the token bucket (``rate``),
        the tenant's queue-share cap (``share``), the worker's bounded
        buffer (``backpressure``, also in the worker's per-tenant drop
        metrics).  A block no gate could ever admit (over ``queue_size``
        or the tenant's share of it) raises ``ValueError``, and one
        without a column the tenant's sampler requires ``TypeError``,
        with nothing counted or logged.  Numpy blocks are kept by
        reference until applied (see :meth:`StreamService.ingest_many`).
        """
        record, keys = self._block(tenant, keys, weights, values, times)
        n = len(keys)
        if not n:
            return True
        gate = self._try_admit(record, keys, weights, values, times,
                               expect_frontier)
        if gate is None:
            return True
        if gate == "unavailable":
            self._shed(record, n)
        else:
            record.reject(
                "backpressure" if gate in ("migrating", "capacity") else gate,
                n,
            )
        if gate == "capacity":
            self._workers[record.service].metrics.record_drop(n, tenant)
        return False

    def _block(self, tenant: str, keys, weights, values, times):
        """The tenant's record and one ingest call's key block, a
        non-empty block's required columns checked."""
        self._check_started()
        record = self.registry.get(tenant)  # raise early on unknown tenants
        keys = key_block(keys)
        if len(keys):
            _check_columns(record, weights, values, times)
        return record, keys

    @staticmethod
    def _bound(record: TenantRecord, worker: StreamService) -> int:
        """The largest block the gates could ever admit for the tenant."""
        share = record.quota.queue_share
        if share is None:
            return worker.queue_size
        return int(share * worker.queue_size)

    @staticmethod
    def _share_excess(record: TenantRecord, worker: StreamService, n):
        """How far the tenant's in-flight events (admitted, not applied)
        plus ``n`` overshoot its queue share; the gate is open at <= 0."""
        share = record.quota.queue_share
        if share is None:
            return 0
        mux, tenant = worker.sampler, record.tenant
        pending = record.events_enqueued - (
            mux.events_applied_for(tenant) if mux.has_tenant(tenant) else 0
        )
        return pending + n - share * worker.queue_size

    def _try_admit(self, record: TenantRecord, keys, weights, values, times,
                   expect_frontier: int | None, paid: bool = False):
        """One synchronous admission: run the gates (see
        :meth:`try_ingest_many`) and, when every one is open, queue the
        block on the tenant's worker and take its rate tokens (unless
        ``paid``); ``None`` then, else the first closed gate.

        Both ingest paths admit only here, so no admission is ever in
        progress across an await: a gated tenant's worker flush covers
        every event it admitted, and its drop op trails all of them.
        """
        n, worker = len(keys), self._workers[record.service]
        bound = self._bound(record, worker)
        if n > bound:
            raise ValueError(
                f"a block of {n} events exceeds tenant {record.tenant!r}'s "
                f"admission bound of {bound} events (queue_size="
                f"{worker.queue_size}, queue_share="
                f"{record.quota.queue_share})"
            )
        if (expect_frontier is not None
                and record.events_enqueued != expect_frontier):
            raise StaleFrontier(
                f"tenant {record.tenant!r} admission frontier is "
                f"{record.events_enqueued}, producer expected "
                f"{expect_frontier}; re-read the frontier and re-send"
            )
        if worker.crashed and record.service not in self._down:
            if self._supervised <= 0:
                raise ServiceCrashed(
                    f"worker {record.service!r} crashed"
                ) from worker.error
            # Supervised: failover is coming, so shed instead of raising.
            self.mark_service_down(record.service, "crashed")
        if record.service in self._down:
            return "unavailable"
        if record.tenant in self._migrating:
            return "migrating"
        bucket = None if paid else self.registry.bucket(record.tenant)
        if bucket is not None and bucket.tokens < n:
            return "rate"
        if self._share_excess(record, worker, n) > 0:
            return "share"
        if worker.free_slots < n:
            return "capacity"
        worker.try_ingest_many(keys, weights, values, times,
                               route=record.tenant)
        if bucket is not None:
            bucket.try_acquire(n)
        record.events_enqueued += n
        return None

    async def _admit_when_open(self, record: TenantRecord, keys, weights,
                               values, times,
                               expect_frontier: int | None) -> bool:
        """Blocking admission of one block within the bound: await each
        closed gate's opening, then try again."""
        tenant, n, paid = record.tenant, len(keys), False
        while gate := self._try_admit(record, keys, weights, values, times,
                                      expect_frontier, paid):
            worker = self._workers[record.service]
            if gate == "unavailable":
                self._shed(record, n)
                return False
            if gate == "migrating":
                await self._migrating[tenant].wait()
            elif gate == "rate":
                # Take the whole debt now: later blocks queue behind it.
                paid = True
                await asyncio.sleep(
                    self.registry.bucket(tenant).acquire_delay(n)
                )
            elif gate == "share":
                await worker.wait_applied(worker.events_applied + math.ceil(
                    self._share_excess(record, worker, n)
                ))
            else:
                await worker.wait_room(n)
            if self.registry.get(tenant) is not record:
                raise KeyError(f"tenant {tenant!r} was dropped and re-created")
        return True

    def _shed(self, record: TenantRecord, n: int) -> None:
        """Count ``n`` events shed because the tenant's worker is down."""
        record.reject("unavailable", n)
        state = self._down.get(record.service)
        if state is not None:
            state.shed_events += n

    # ------------------------------------------------------------------
    # Reads (tenant-scoped, snapshot-isolated on the owning worker)
    # ------------------------------------------------------------------
    async def _read(self, tenant: str, read: Callable, *,
                    stamp: bool = False):
        """``read(child)`` under the worker's snapshot lock, flushing once
        if the child's create op is still queued; while the worker is
        down, on the last durable snapshot (immutable, so unlocked), the
        result marked ``degraded`` when ``stamp``."""
        self._check_started()
        record = self.registry.get(tenant)
        if record.service in self._down:
            result = read(self._degraded_child(tenant, record))
            if stamp:
                _stamp_degraded(result)
            return result
        worker = self._workers[record.service]
        if not worker.sampler.has_tenant(tenant):
            await worker.flush()
        child = worker.sampler.tenant_sampler(tenant)
        async with worker.snapshot():
            return read(child)

    async def sample(self, tenant: str):
        """Snapshot-isolated ``sample()`` of one tenant's child sampler
        (from the last durable snapshot while its worker is down)."""
        return await self._read(tenant, lambda child: child.sample())

    async def estimate(self, tenant: str, kind: str | None = None,
                       predicate=None, **kw):
        """Snapshot-isolated estimate from one tenant's child sampler.

        Degrades to the last durable snapshot while the tenant's worker
        is down (the scalar return carries no flag; use :meth:`query`
        when the caller must distinguish degraded answers).
        """
        return await self._read(
            tenant,
            lambda child: child.estimate(kind, predicate=predicate, **kw),
        )

    async def query(self, tenant: str, query=None, /, **kw):
        """Snapshot-isolated declarative query against one tenant.

        Delegates to the child sampler's
        :meth:`~repro.api.StreamSampler.query`, so results are cached per
        ``(state_version, fingerprint)`` exactly as on a single service.
        While the tenant's worker is down the answer comes from the last
        durable snapshot, stamped ``degraded=True`` with the recovered
        epoch's pinned ``state_version``.
        """
        return await self._read(
            tenant, lambda child: child.query(query, **kw), stamp=True
        )

    async def flush(self) -> None:
        """Barrier: every event admitted to every *live* worker is
        applied (workers marked down are skipped — they will reconcile
        during failover).  Under supervision a worker found crashed at
        the barrier is marked down instead of raising — the supervisor
        restores it, and events stuck behind the crash are the
        producer's to re-send past the durable frontier."""
        self._check_started()
        for name, worker in self._workers.items():
            if name in self._down:
                continue
            try:
                await worker.flush()
            except ServiceCrashed:
                if self._supervised <= 0:
                    raise
                # The waiter may only wake *after* a failover already
                # replaced this worker — don't mark the healthy
                # replacement down for its predecessor's crash.
                if self._workers.get(name) is worker:
                    self.mark_service_down(name, "crashed")

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self) -> ClusterMetrics:
        """Aggregate worker metrics per service, per tenant, and overall."""
        return ClusterMetrics.collect(
            self._workers, self.registry, down=self.down_services()
        )

    # ------------------------------------------------------------------
    # Failover (the supervisor's two recovery actions; callable manually)
    # ------------------------------------------------------------------
    async def restart_service(self, name: str, *,
                              reason: str = "manual") -> None:
        """Replace worker ``name`` with a bit-exact recovery of itself.

        Marks the worker down (reads degrade, ingest sheds), hard-aborts
        whatever is left of it, rebuilds it via
        :meth:`StreamService.recover` — newest valid checkpoint plus
        WAL-tail replay, identical to an uninterrupted run over its
        durable frontier — starts the replacement, and reconciles it with
        :meth:`_reconcile_worker`, the same per-worker step cold recovery
        runs.  On an in-memory cluster there is nothing durable: the
        replacement starts empty, so that step recreates every resident
        from its spec with its counters reset (the documented best
        effort).

        On failure the worker *stays marked down* (degraded serving
        continues) and the error propagates — the supervisor retries on
        its next tick.
        """
        self._check_started()
        if name not in self._workers:
            raise KeyError(f"unknown service {name!r}")
        self.mark_service_down(name, reason)
        await self._workers[name].abort()
        worker = (
            self._build_worker(name) if self.dir is None
            else self._recover_worker(name)
        )
        worker.metrics.restarts += 1
        await worker.start()
        self._workers[name] = worker
        await self._reconcile_worker(name)
        self.mark_service_up(name)
        self._save_meta()

    async def _reconcile_worker(self, name: str) -> None:
        """Align one started worker's tenants with the registry.

        The worker's WAL is authoritative for *state*; the registry for
        *membership*: residents missing from the mux (create op lost
        with the crash, or the whole directory lost) are recreated fresh
        from their spec with their admission and rejection counters
        reset — they described a stream history that no longer exists —
        and stray mux tenants the registry does not place here (a
        handoff's or a drop's drop op lost) are dropped.  Each
        resident's in-flight counter resets to its applied frontier:
        events admitted but never logged are the producer's to re-send,
        exactly as on a single service.  Shared by hot restarts
        (:meth:`restart_service`) and cold recovery (:meth:`_reconcile`).
        """
        worker = self._workers[name]
        mux = worker.sampler
        residents = [
            self.registry.get(tenant) for tenant in self.registry.tenants()
            if self.registry.get(tenant).service == name
        ]
        recreated = [r for r in residents if not mux.has_tenant(r.tenant)]
        ops = [create_op(r.tenant, r.spec) for r in recreated]
        ops.extend(
            drop_op(tenant) for tenant in mux.tenants()
            if tenant not in self.registry
            or self.registry.get(tenant).service != name
        )
        for record in recreated:
            record.rejected = {why: 0 for why in REJECT_REASONS}
        worker.enqueue_admin(*ops)
        await worker.flush()
        for record in residents:
            record.events_enqueued = (
                mux.events_applied_for(record.tenant)
                if mux.has_tenant(record.tenant) else 0
            )

    async def rehome_service(self, name: str, *,
                             reason: str = "manual") -> "RebalancePlan":
        """Evacuate a dead worker's tenants onto the surviving pool."""
        from .rebalance import rehome_service

        return await rehome_service(self, name, reason=reason)

    # ------------------------------------------------------------------
    # Rebalancing (implemented in .rebalance; thin facades here)
    # ------------------------------------------------------------------
    async def add_service(self, name: str | None = None) -> str:
        """Grow the pool by one worker and migrate its ring share in."""
        from .rebalance import add_service

        return await add_service(self, name)

    async def remove_service(self, name: str) -> None:
        """Drain a worker's tenants to the survivors and retire it."""
        from .rebalance import remove_service

        return await remove_service(self, name)

    async def rebalance(self) -> "list":
        """Move every tenant whose ring owner differs from its placement."""
        from .rebalance import rebalance

        return await rebalance(self)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _save_meta(self) -> None:
        """Atomically rewrite ``cluster.json`` (no-op in memory mode)."""
        if self.dir is None:
            return
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": 1,
            "ring": self.ring.to_dict(),
            "service_config": self._service_config,
            "tenants": self.registry.to_dict(),
        }
        tmp = self.dir / (_META_NAME + ".tmp")
        # Compact separators: the meta rewrites on every tenant create,
        # so serialization cost scales with fleet size.
        tmp.write_text(json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ))
        os.replace(tmp, self.dir / _META_NAME)

    @classmethod
    def recover(cls, dir: str | os.PathLike, *,
                fault_hook: Callable[[str], object] | None = None,
                clock=None, trace: bool = False) -> "Cluster":
        """Rebuild a cluster from its directory, bit-exactly per worker.

        Each worker recovers through ``StreamService.recover`` (newest
        valid checkpoint + WAL-tail replay — the PR5 guarantee), then the
        first ``start()`` reconciles the tenant registry against what the
        WALs actually hold, resolving any rebalance that crashed
        mid-handoff (see :meth:`_reconcile`).  The returned cluster is
        not started.
        """
        root = pathlib.Path(dir)
        meta_path = root / _META_NAME
        if not meta_path.exists():
            raise FileNotFoundError(
                f"{root} does not contain a cluster meta file ({_META_NAME})"
            )
        meta = json.loads(meta_path.read_text())
        ring = HashRing.from_dict(meta["ring"])
        config = dict(meta.get("service_config", {}))
        cluster = cls(
            services=list(ring.nodes),
            dir=root,
            replicas=ring.replicas,
            ring_salt=ring.salt,
            fault_hook=fault_hook,
            clock=clock,
            trace=trace,
            **{key: config[key] for key in _CONFIG_KEYS if key in config},
        )
        cluster.registry = TenantRegistry.from_dict(
            meta.get("tenants", {}), clock=clock
        )
        workers: dict[str, StreamService] = {}
        for name in ring.nodes:
            if (root / name / "service.pkl").exists():
                workers[name] = cluster._recover_worker(name)
            else:
                # The worker's directory is gone entirely (disk lost).
                # Its durable state is unrecoverable; stand up a fresh
                # worker under the same name — reconciliation recreates
                # its tenants from placement + specs, state restarted
                # from zero with counters reset (see :meth:`_reconcile`).
                workers[name] = cluster._build_worker(name)
        cluster._workers = workers
        cluster._recovered = True
        return cluster

    async def _reconcile(self) -> None:
        """Align registry placements with recovered worker state.

        The rebalance protocol makes a move durable on the destination
        *before* dropping the source or persisting the new placement, so
        after a crash a tenant can be (a) on both workers — the
        registry's placement wins; (b) only on a worker the registry
        does not point at — the move never committed or the meta write
        was lost, so the placement repoints to the actual holder; or
        (c) nowhere — its create op was admitted but never WAL-logged,
        or its worker's directory was lost entirely — so it stays put
        (or, if its worker left the pool, goes to its ring owner).  Then
        :meth:`_reconcile_worker` runs on every worker, exactly as after
        a hot restart: it drops each copy the registry does not place
        there (and strays the registry no longer lists) and recreates
        case (c) fresh.  No handoff survives a full restart: a recovered
        registry starts with every gate open.
        """
        holders: dict[str, list[str]] = {}
        for name, worker in self._workers.items():
            for tenant in worker.sampler.tenants():
                holders.setdefault(tenant, []).append(name)
        for tenant in self.registry.tenants():
            record = self.registry.get(tenant)
            where = holders.get(tenant, [])
            if where and record.service not in where:
                record.service = sorted(where)[0]
            elif record.service not in self._workers:
                record.service = self.ring.node_for(tenant)
        for name in self._workers:
            await self._reconcile_worker(name)
        self._save_meta()
