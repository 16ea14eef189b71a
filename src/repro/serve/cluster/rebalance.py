"""Live tenant rebalancing: move sampler state between running workers.

Tenants move because the pool changed (``add_service`` /
``remove_service``) or because placements drifted from the ring
(``rebalance``).  A move ships the tenant's *portable sampler state* —
``to_state()``, RNG continuation included — from source to destination
worker while the rest of the cluster keeps serving.  The execution order
is what makes it safe:

1. **Gate** every moving tenant (blocking ingest suspends, non-blocking
   rejects) and **quiesce**: wait out ingests already in flight, so every
   event a producer was promised is admitted.
2. **Flush + extract**: flush each source worker (the barrier now covers
   all accepted events) and, under its snapshot lock, capture each moving
   tenant's child state and applied count.
3. **Install durably**: enqueue install ops on the destinations and
   flush them — the moved state is in the destination WAL *before*
   anything is removed.
4. **Commit placement**: repoint the registry and persist the cluster
   meta.
5. **Drop sources**: enqueue drop ops on the sources and flush.
6. **Ungate** (in ``finally``): suspended producers resume against the
   new placement.

A crash between (3) and (5) leaves the tenant on two workers; recovery's
reconciliation resolves by the persisted placement, and whichever copy
survives is bit-exact at its WAL frontier — the install op and the
source's original WAL each replay to the same state, because the state
that moved *is* the flushed source state.  No step discards events that
ever reached a WAL, so a mid-rebalance crash loses at most the
admitted-but-unlogged tail, exactly the single-service guarantee.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from ...api import SamplerSpec
from ..service import StreamService
from .mux import drop_op, install_op
from .tenants import REJECT_REASONS

__all__ = ["TenantMove", "RebalancePlan", "plan_moves", "execute",
           "add_service", "remove_service", "rebalance", "rehome_service"]


@dataclass(frozen=True)
class TenantMove:
    """One tenant's handoff: ``source`` worker to ``destination`` worker."""

    tenant: str
    source: str
    destination: str


@dataclass(frozen=True)
class RebalancePlan:
    """An executable set of tenant moves (grouped views for the protocol)."""

    moves: tuple[TenantMove, ...]

    def __len__(self) -> int:
        return len(self.moves)

    def by_source(self) -> dict[str, list[TenantMove]]:
        """Moves grouped by source worker, source-sorted."""
        groups: dict[str, list[TenantMove]] = {}
        for move in self.moves:
            groups.setdefault(move.source, []).append(move)
        return {name: groups[name] for name in sorted(groups)}

    def by_destination(self) -> dict[str, list[TenantMove]]:
        """Moves grouped by destination worker, destination-sorted."""
        groups: dict[str, list[TenantMove]] = {}
        for move in self.moves:
            groups.setdefault(move.destination, []).append(move)
        return {name: groups[name] for name in sorted(groups)}


def plan_moves(cluster) -> RebalancePlan:
    """Every tenant whose ring owner differs from its current placement."""
    moves = []
    for tenant in cluster.registry.tenants():
        record = cluster.registry.get(tenant)
        target = cluster.ring.node_for(tenant)
        if target != record.service:
            moves.append(TenantMove(tenant, record.service, target))
    return RebalancePlan(tuple(moves))


async def execute(cluster, plan: RebalancePlan) -> RebalancePlan:
    """Run the six-step handoff protocol for every move in ``plan``."""
    if not plan.moves:
        return plan
    for move in plan.moves:
        if move.source not in cluster._workers:
            raise ValueError(f"unknown source service {move.source!r}")
        if move.destination not in cluster._workers:
            raise ValueError(f"unknown destination service {move.destination!r}")
    #: Destination copies enqueued but not yet committed (step 4).  A
    #: failure before commit must roll these back: the registry still
    #: points at the sources, so a retry would re-plan the same moves and
    #: install over the leftover copies.
    installed: dict[str, list[TenantMove]] = {}
    states: dict[str, tuple[dict, int]] = {}
    committed = False
    try:
        # (1) Gate, then drain in-flight ingests.
        for move in plan.moves:
            cluster._gate(move.tenant)
        for move in plan.moves:
            await cluster._quiesce(move.tenant)

        # (2) Flush each source, extract portable state under its
        # snapshot lock (no flush can interleave with the extraction).
        for source, group in plan.by_source().items():
            worker = cluster._workers[source]
            await worker.flush()
            async with worker.snapshot():
                mux = worker.sampler
                for move in group:
                    states[move.tenant] = (
                        mux.tenant_sampler(move.tenant).to_state(),
                        mux.events_applied_for(move.tenant),
                    )

        # (3) Install on destinations; flush makes the copies durable
        # *before* any source forgets anything.
        for destination, group in plan.by_destination().items():
            worker = cluster._workers[destination]
            worker.enqueue_admin(*(
                install_op(move.tenant, *states[move.tenant])
                for move in group
            ))
            installed[destination] = group
            await worker.flush()

        # (4) Commit the new placements.
        for move in plan.moves:
            record = cluster.registry.get(move.tenant)
            record.service = move.destination
            record.events_enqueued = states[move.tenant][1]
        cluster._save_meta()
        committed = True

        # (5) Retire the source copies.
        for source, group in plan.by_source().items():
            worker = cluster._workers[source]
            worker.enqueue_admin(*(drop_op(move.tenant) for move in group))
            await worker.flush()
    except BaseException:
        if not committed:
            # Unwind a partially-applied commit first: step (4) repoints
            # registry records *before* the meta write lands, so a failed
            # write must put them back on the sources (whose copies are
            # intact and about to become authoritative again).
            for move in plan.moves:
                if move.tenant not in cluster.registry:
                    continue
                record = cluster.registry.get(move.tenant)
                if record.service == move.destination:
                    record.service = move.source
                    record.events_enqueued = states[move.tenant][1]
            # Then roll back uncommitted destination copies (best effort
            # — the drop ops enqueue behind the install ops on each
            # worker's own queue, so they find the tenant present; a
            # worker too broken to accept them is resolved by cold
            # reconciliation).  Without this, a live retry would re-plan
            # the same moves and install over the leftover copies.
            for destination, group in installed.items():
                worker = cluster._workers[destination]
                with contextlib.suppress(Exception):
                    worker.enqueue_admin(
                        *(drop_op(move.tenant) for move in group)
                    )
                    await worker.flush()
        raise
    finally:
        # (6) Reopen the gates whatever happened; a failed handoff left
        # either the old or the new placement fully intact.
        for move in plan.moves:
            cluster._ungate(move.tenant)
    return plan


async def rebalance(cluster) -> RebalancePlan:
    """Converge placements back onto the ring (after drift or churn)."""
    cluster._check_started()
    return await execute(cluster, plan_moves(cluster))


async def add_service(cluster, name: str | None = None) -> str:
    """Grow the pool by one started worker and migrate its ring share in.

    Consistent hashing keeps the move set to roughly ``tenants / n``:
    only tenants whose ring owner *becomes* the new worker relocate.
    """
    cluster._check_started()
    if name is None:
        # Skip live workers AND on-disk tombstones of retired ones — a
        # removed worker's directory stays behind, and a fresh service
        # refuses to start over it.
        taken = set(cluster._workers)

        def free(candidate: str) -> bool:
            if candidate in taken:
                return False
            return cluster.dir is None or not (cluster.dir / candidate).exists()

        index = len(taken)
        while not free(f"svc-{index}"):
            index += 1
        name = f"svc-{index}"
    if name in cluster._workers:
        raise ValueError(f"service {name!r} already exists")
    worker = cluster._build_worker(name)
    await worker.start()
    cluster._workers[name] = worker
    cluster.ring.add_node(name)
    try:
        await execute(cluster, plan_moves(cluster))
    finally:
        cluster._save_meta()
    return name


async def rehome_service(cluster, name: str, *,
                         reason: str = "manual") -> RebalancePlan:
    """Evacuate a *dead* worker's tenants onto the surviving pool.

    The live-handoff protocol (:func:`execute`) cannot run here — the
    source worker's consumer is gone, so there is nothing to gate,
    quiesce, or flush.  Instead the dead worker's **durable** state is
    read offline (``StreamService.recover`` on its directory: newest
    valid checkpoint + WAL-tail replay, bit-exact at the durable
    frontier, never started) and installed on the ring-chosen survivors
    with the same durable-before-commit ordering as a live move:

    1. Mark the worker down (reads degrade, ingest sheds) and abort its
       remains; recover its directory offline.
    2. Remove it from the *ring* only, so destinations resolve to
       survivors.  The worker stays in the pool until the evacuation
       commits: a failed install must leave it discoverable, because
       both the supervisor's retry scan and a manual
       ``rehome_service(name)`` retry look workers up in the pool.
    3. Per destination: enqueue install ops (tenants whose create
       never became durable get an install of a fresh spec-built state
       — they restart with counters reset; installs *overwrite*, so a
       retry against a survivor already holding a copy from an earlier
       failed attempt is idempotent) and flush, *then* repoint the
       registry.  FIFO worker queues order any racing post-repoint
       ingest behind the install op, so no event meets an unknown
       tenant.
    4. Retire the worker from the pool and persist the meta (its
       directory stays behind as an inert tombstone, exactly like
       ``remove_service``).  Tenants resume at their durable frontier;
       events past it were never durable anywhere and are the
       producer's to re-send — the single-service loss contract.

    On failure the worker goes back on the ring and stays in the pool,
    marked down: tenants already repointed keep serving from their
    survivors (their installs are durable), the rest keep degrading,
    and the next supervisor tick — or a manual retry — re-plans exactly
    the tenants still placed on the dead worker.

    On an in-memory cluster there is nothing durable: every tenant is
    recreated fresh from its spec on its new worker (documented state
    loss, counters reset).
    """
    cluster._check_started()
    if name not in cluster._workers:
        raise ValueError(f"unknown service {name!r}")
    if len(cluster._workers) == 1:
        raise ValueError("cannot rehome the last service")
    cluster.mark_service_down(name, reason)
    await cluster._workers[name].abort()

    # (1) The dead worker's durable state, read offline.
    states: dict[str, tuple[dict, int]] = {}
    if cluster.dir is not None and (
        cluster.dir / name / "service.pkl"
    ).exists():
        snapshot = StreamService.recover(cluster.dir / name)
        mux = snapshot.sampler
        for tenant in mux.tenants():
            states[tenant] = (
                mux.tenant_sampler(tenant).to_state(),
                mux.events_applied_for(tenant),
            )

    # (2) Off the ring (placement), still in the pool (discoverability).
    cluster.ring.remove_node(name)
    try:
        # (3) Install on survivors, then commit placements.
        moves = []
        by_destination: dict[str, list] = {}
        for tenant in cluster.registry.tenants():
            record = cluster.registry.get(tenant)
            if record.service != name:
                continue
            destination = cluster.ring.node_for(tenant)
            moves.append(TenantMove(tenant, name, destination))
            by_destination.setdefault(destination, []).append(record)
        for destination, group in by_destination.items():
            worker = cluster._workers[destination]
            worker.enqueue_admin(*(
                install_op(record.tenant, *states[record.tenant])
                if record.tenant in states
                else install_op(record.tenant, _fresh_state(record.spec))
                for record in group
            ))
            await worker.flush()
            for record in group:
                record.service = destination
                if record.tenant in states:
                    record.events_enqueued = states[record.tenant][1]
                else:
                    record.events_enqueued = 0
                    record.rejected = {r: 0 for r in REJECT_REASONS}
    except BaseException:
        # Leave the worker down but retryable: back on the ring, still
        # in the pool.  The supervisor's next tick re-runs the
        # evacuation for the tenants still placed here.
        cluster.ring.add_node(name)
        raise

    # (4) The outage is over: the dead worker serves nothing now.
    cluster._workers.pop(name)
    cluster.mark_service_up(name)
    cluster._save_meta()
    return RebalancePlan(tuple(moves))


def _fresh_state(spec) -> dict:
    """A brand-new sampler state built from ``spec``.

    Shipping *installs* (which overwrite) instead of create ops keeps a
    retried rehome idempotent: a create op replayed against a survivor
    that already applied it would raise ``tenant already exists`` inside
    the consumer and crash an otherwise healthy worker.
    """
    return SamplerSpec.of(spec).build().to_state()


async def remove_service(cluster, name: str) -> RebalancePlan:
    """Drain a worker's tenants to the survivors, then retire it.

    The worker stops (final checkpoint, WAL closed) only after every one
    of its tenants is durably installed elsewhere; its directory remains
    on disk as an inert tombstone.
    """
    cluster._check_started()
    if name not in cluster._workers:
        raise ValueError(f"unknown service {name!r}")
    if len(cluster._workers) == 1:
        raise ValueError("cannot remove the last service")
    cluster.ring.remove_node(name)
    try:
        plan = await execute(cluster, plan_moves(cluster))
    except BaseException:
        cluster.ring.add_node(name)
        cluster._save_meta()
        raise
    worker = cluster._workers.pop(name)
    await worker.stop()
    cluster._save_meta()
    return plan
