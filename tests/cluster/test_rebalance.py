"""Live rebalancing: bit-exact handoffs, crash-interrupted handoffs,
and the thousand-tenant acceptance scenario.

Every move is judged against an isolated control sampler replaying the
same per-tenant event prefix — "no loss" here always means *bit-exact
state*, not approximately-equal estimates.
"""

from __future__ import annotations

import asyncio
import collections

import numpy as np
import pytest

from repro.serve import ServiceCrashed
from repro.serve.cluster import Cluster
from repro.serve.cluster.rebalance import (
    RebalancePlan,
    TenantMove,
    execute,
    plan_moves,
)
from tests.cluster.common import (
    control_signature,
    run_async,
    sig_of,
    tenant_spec,
    tenant_stream,
)


class InjectedFault(Exception):
    """Deliberate failure raised from a worker fault hook."""


def _armed_hook(target_stage: str):
    """A fault hook that raises at ``target_stage`` once armed.

    Stages arrive as ``"<worker>:<stage>"``; the test flips ``armed``
    right before the operation under attack so earlier traffic through
    the same worker does not trip it.
    """
    state = {"armed": False}

    def hook(stage: str):
        if state["armed"] and stage == target_stage:
            raise InjectedFault(stage)

    return hook, state


async def _seed(cluster, n_tenants: int, n_events: int = 300, k: int = 16):
    streams = {}
    specs = {}
    for i in range(n_tenants):
        tenant = f"tenant-{i}"
        specs[tenant] = tenant_spec(i, k)
        streams[tenant] = tenant_stream(i, n_events)
    await cluster.create_tenants(specs)
    for tenant, keys in streams.items():
        await cluster.ingest_many(tenant, keys)
    await cluster.flush()
    return streams


async def _assert_bit_exact(cluster, streams, *, k: int = 16):
    for tenant, keys in sorted(streams.items()):
        i = int(tenant.rsplit("-", 1)[1])
        assert sig_of(await cluster.sample(tenant)) == \
            control_signature(i, keys, k=k), tenant


class TestPlanning:
    def test_plan_groups_by_source_and_destination(self):
        plan = RebalancePlan((
            TenantMove("a", "s1", "d1"),
            TenantMove("b", "s1", "d2"),
            TenantMove("c", "s2", "d1"),
        ))
        assert len(plan) == 3
        assert list(plan.by_source()) == ["s1", "s2"]
        assert [m.tenant for m in plan.by_source()["s1"]] == ["a", "b"]
        assert [m.tenant for m in plan.by_destination()["d1"]] == ["a", "c"]

    def test_converged_cluster_plans_no_moves(self):
        async def body():
            async with Cluster(services=3) as cluster:
                await _seed(cluster, 6, n_events=10)
                assert len(plan_moves(cluster)) == 0
                assert len(await cluster.rebalance()) == 0

        run_async(body())


class TestLiveMoves:
    def test_add_service_moves_its_ring_share_bit_exactly(self, tmp_path):
        async def body():
            async with Cluster(services=3, dir=tmp_path) as cluster:
                streams = await _seed(cluster, 20)
                before = cluster.placement()
                name = await cluster.add_service()
                assert name == "svc-3"
                moved = {
                    t for t, s in cluster.placement().items()
                    if before[t] != s
                }
                assert moved, "a 20-tenant seed must move someone"
                assert all(
                    cluster.placement()[t] == name for t in moved
                ), "adding a node only moves tenants TO it"
                await _assert_bit_exact(cluster, streams)
                # Moves keep working after the handoff.
                for tenant in sorted(moved):
                    i = int(tenant.split("-")[1])
                    extra = tenant_stream(i, 50) + 9
                    await cluster.ingest_many(tenant, extra)
                    await cluster.flush()
                    assert sig_of(await cluster.sample(tenant)) == \
                        control_signature(i, streams[tenant], extra)

        run_async(body())

    def test_remove_service_drains_to_survivors_bit_exactly(self, tmp_path):
        async def body():
            async with Cluster(services=4, dir=tmp_path) as cluster:
                streams = await _seed(cluster, 20)
                counts = collections.Counter(cluster.placement().values())
                victim = counts.most_common(1)[0][0]
                plan = await cluster.remove_service(victim)
                assert len(plan) == counts[victim]
                assert victim not in cluster.services
                assert victim not in set(cluster.placement().values())
                await _assert_bit_exact(cluster, streams)

        run_async(body())

    def test_remove_last_service_is_refused(self):
        async def body():
            async with Cluster(services=1) as cluster:
                with pytest.raises(ValueError, match="last service"):
                    await cluster.remove_service("svc-0")
                with pytest.raises(ValueError, match="unknown service"):
                    await cluster.remove_service("svc-7")

        run_async(body())

    def test_nonblocking_ingest_rejects_during_migration(self):
        async def body():
            async with Cluster(services=2) as cluster:
                await _seed(cluster, 4, n_events=20)
                tenant = "tenant-0"
                cluster._gate(tenant)
                try:
                    assert not cluster.try_ingest(tenant, 1)
                    record = cluster.registry.get(tenant)
                    assert record.rejected["backpressure"] == 1
                    assert record.migrating
                finally:
                    cluster._ungate(tenant)
                assert cluster.try_ingest(tenant, 1)

        run_async(body())

    def test_bucket_suspended_producer_rides_through_handoff(self):
        """A blocking producer asleep in its token-bucket delay holds the
        in-flight token, so a concurrent handoff quiesces on it instead
        of extracting state out from under it — its batch lands on the
        source before the pre-handoff flush and moves with the tenant."""
        async def body():
            async with Cluster(services=2) as cluster:
                keys = tenant_stream(0, 120)
                await cluster.create_tenant(
                    "tenant-0", tenant_spec(0),
                    quota={"events_per_sec": 500.0, "burst": 40.0},
                )
                await cluster.ingest_many("tenant-0", keys[:40])  # drain burst
                producer = asyncio.ensure_future(
                    cluster.ingest_many("tenant-0", keys[40:])  # ~0.16s debt
                )
                await asyncio.sleep(0.01)
                assert not producer.done()
                assert cluster._inflight.get("tenant-0", 0) == 1
                source = cluster.placement()["tenant-0"]
                destination = next(
                    name for name in cluster.services if name != source
                )
                await execute(cluster, RebalancePlan(
                    (TenantMove("tenant-0", source, destination),)
                ))
                await producer
                await cluster.flush()
                assert cluster.placement()["tenant-0"] == destination
                worker = cluster.service(destination)
                assert worker.sampler.events_applied_for("tenant-0") == 120
                assert sig_of(await cluster.sample("tenant-0")) == \
                    control_signature(0, keys)

        run_async(body())

    def test_bucket_suspended_producer_survives_drop_tenant(self):
        """drop_tenant must quiesce on a producer suspended in the token
        bucket: its rows go in ahead of the drop row (then erased with
        the tenant) instead of trailing it as unknown-tenant rows that
        would crash the worker's consumer."""
        async def body():
            async with Cluster(services=2) as cluster:
                keys = tenant_stream(0, 120)
                await cluster.create_tenant(
                    "tenant-0", tenant_spec(0),
                    quota={"events_per_sec": 500.0, "burst": 40.0},
                )
                await cluster.create_tenant("tenant-1", tenant_spec(1))
                await cluster.ingest_many("tenant-0", keys[:40])
                producer = asyncio.ensure_future(
                    cluster.ingest_many("tenant-0", keys[40:])
                )
                await asyncio.sleep(0.01)
                assert cluster._inflight.get("tenant-0", 0) == 1
                await cluster.drop_tenant("tenant-0")
                await producer  # admitted before the drop row, no error
                assert "tenant-0" not in cluster.tenants()
                # Every worker's consumer survived (a stray post-drop row
                # would have crashed it, failing this flush).
                extra = tenant_stream(1, 50)
                await cluster.ingest_many("tenant-1", extra)
                await cluster.flush()
                assert sig_of(await cluster.sample("tenant-1")) == \
                    control_signature(1, extra)

        run_async(body())

    def test_concurrent_blocking_ingest_loses_nothing(self):
        async def body():
            async with Cluster(services=3) as cluster:
                streams = {}
                specs = {}
                for i in range(30):
                    tenant = f"tenant-{i}"
                    specs[tenant] = tenant_spec(i)
                    streams[tenant] = tenant_stream(i, 4000)
                await cluster.create_tenants(specs)
                sent = dict.fromkeys(streams, 0)
                stop = asyncio.Event()

                async def produce():
                    while not stop.is_set():
                        for tenant, keys in streams.items():
                            at = sent[tenant]
                            if at >= len(keys):
                                return
                            chunk = keys[at:at + 10]
                            await cluster.ingest_many(tenant, chunk)
                            sent[tenant] = at + len(chunk)
                        await asyncio.sleep(0)

                producer = asyncio.ensure_future(produce())
                await asyncio.sleep(0.02)  # let ingestion get going
                name = await cluster.add_service()
                await cluster.remove_service("svc-0")
                stop.set()
                await producer
                await cluster.flush()
                assert name in set(cluster.placement().values())
                assert min(sent.values()) > 0
                for i in range(30):
                    tenant = f"tenant-{i}"
                    record = cluster.registry.get(tenant)
                    assert record.rejected["backpressure"] == 0
                    worker = cluster.service(cluster.placement()[tenant])
                    applied = worker.sampler.events_applied_for(tenant)
                    assert applied == sent[tenant], tenant
                    assert sig_of(await cluster.sample(tenant)) == \
                        control_signature(i, streams[tenant][:applied])

        run_async(body())


class TestFailedHandoffRollback:
    def test_failed_commit_rolls_back_destination_copies(self):
        """A failure before the placement commit lands must leave no
        live duplicate: the registry keeps pointing at the sources, the
        installed destination copies are dropped, and a live retry
        converges cleanly (previously the retry re-installed over the
        leftovers and crashed the destination worker)."""
        async def body():
            async with Cluster(services=3) as cluster:
                streams = await _seed(cluster, 20, n_events=100)
                before = cluster.placement()
                real_save = cluster._save_meta
                boom = {"armed": True}

                def failing_save():
                    if boom["armed"]:
                        boom["armed"] = False
                        raise OSError("simulated meta-write failure")
                    real_save()

                cluster._save_meta = failing_save
                with pytest.raises(OSError, match="meta-write"):
                    await cluster.add_service()
                cluster._save_meta = real_save

                # The move never committed: placements are unchanged and
                # every tenant lives on exactly one worker.
                assert cluster.placement() == before
                holders = collections.Counter(
                    tenant
                    for name in cluster.services
                    for tenant in cluster.service(name).sampler.tenants()
                )
                assert set(holders) == set(streams)
                assert all(count == 1 for count in holders.values())
                await _assert_bit_exact(cluster, streams)

                # The interrupted expansion replays cleanly, live.
                plan = await cluster.rebalance()
                assert plan.moves, "svc-3's ring share must move to it"
                moved = {
                    tenant for tenant, service
                    in cluster.placement().items()
                    if before[tenant] != service
                }
                assert moved == {move.tenant for move in plan.moves}
                assert all(
                    cluster.placement()[tenant] == "svc-3"
                    for tenant in moved
                )
                await _assert_bit_exact(cluster, streams)

        run_async(body())

    def test_failed_rehome_stays_retryable(self, tmp_path):
        """A rehome whose install on a survivor fails must leave the
        dead worker *discoverable* — still in the pool, back on the
        ring, still marked down — so both the supervisor's retry scan
        (which iterates the pool) and a manual ``rehome_service(name)``
        find it.  Previously the worker was popped before the installs,
        so one failed evacuation stranded its tenants in degraded mode
        forever ('unknown service' on every retry)."""
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                streams = await _seed(cluster, 6, n_events=200)
                victim = cluster.registry.get("tenant-0").service
                survivor = next(
                    name for name in cluster.services if name != victim
                )
                worker = cluster._workers[survivor]
                real_enqueue = worker.enqueue_admin
                boom = {"armed": True}

                def failing_enqueue(*ops):
                    if boom["armed"]:
                        boom["armed"] = False
                        raise InjectedFault("install enqueue failed")
                    return real_enqueue(*ops)

                worker.enqueue_admin = failing_enqueue
                with pytest.raises(InjectedFault):
                    await cluster.rehome_service(victim, reason="dead")

                # Retryable, not vanished: in the pool, on the ring,
                # and still in its outage (degraded serving continues).
                assert victim in cluster.services
                assert victim in cluster.ring
                assert cluster.is_down(victim)
                for tenant in streams:
                    if cluster.registry.get(tenant).service == victim:
                        result = await cluster.query(tenant, "sum")
                        assert result.degraded

                # The manual retry completes the evacuation bit-exactly.
                plan = await cluster.rehome_service(victim, reason="dead")
                assert plan.moves
                assert victim not in cluster.services
                assert victim not in cluster.ring
                assert not cluster.is_down(victim)
                await _assert_bit_exact(cluster, streams)

        run_async(body())


class TestCrashedHandoffs:
    def test_crash_before_install_durable_keeps_the_source(self, tmp_path):
        """Destination dies before the install row reaches its WAL: the
        move never committed, recovery serves from the source, and a
        later rebalance completes the interrupted move."""
        async def body():
            hook, armed = _armed_hook("svc-3:wal.append.before")
            cluster = Cluster(services=3, dir=tmp_path, fault_hook=hook)
            await cluster.start()
            streams = await _seed(cluster, 20)
            before = cluster.placement()
            will_move = cluster.ring.copy()
            will_move.add_node("svc-3")
            moving = [
                t for t in streams if will_move.node_for(t) != before[t]
            ]
            assert moving, "seed must route some tenants to svc-3"

            armed["armed"] = True
            with pytest.raises(ServiceCrashed):
                await cluster.add_service()
            armed["armed"] = False
            await cluster.abort()

            recovered = Cluster.recover(tmp_path, fault_hook=hook)
            async with recovered:
                # Nothing committed: every placement is pre-crash.
                assert {
                    t: s for t, s in recovered.placement().items()
                } == before
                await _assert_bit_exact(recovered, streams)
                # The interrupted move replays cleanly.
                plan = await recovered.rebalance()
                assert sorted(m.tenant for m in plan.moves) == sorted(moving)
                assert all(
                    recovered.placement()[t] == "svc-3" for t in moving
                )
                await _assert_bit_exact(recovered, streams)

        run_async(body())

    def test_crash_before_source_drop_resolves_to_destination(self, tmp_path):
        """Source dies after the installs are durable and the placement
        committed, but before its drop rows land: the tenant exists on
        two WALs and reconciliation keeps the committed placement."""
        async def body():
            async with Cluster(services=4, dir=tmp_path) as probe:
                await _seed(probe, 20, n_events=10)
                counts = collections.Counter(probe.placement().values())
            victim = counts.most_common(1)[0][0]

            hook, armed = _armed_hook(f"{victim}:wal.append.before")
            cluster = Cluster.recover(tmp_path, fault_hook=hook)
            await cluster.start()
            streams = {
                f"tenant-{i}": tenant_stream(i, 300) for i in range(20)
            }
            for tenant, keys in streams.items():
                await cluster.ingest_many(tenant, keys[10:])
                streams[tenant] = np.concatenate([keys[:10], keys[10:]])
            await cluster.flush()
            victims = [
                t for t, s in cluster.placement().items() if s == victim
            ]

            armed["armed"] = True
            with pytest.raises(ServiceCrashed):
                await cluster.remove_service(victim)
            armed["armed"] = False
            await cluster.abort()

            recovered = Cluster.recover(tmp_path, fault_hook=hook)
            async with recovered:
                # Placement committed before the crash: every victim
                # tenant now lives on a survivor, and the stale copies
                # on the crashed worker were reconciled away.
                for tenant in victims:
                    assert recovered.placement()[tenant] != victim
                assert not recovered.service(victim).sampler.tenants()
                await _assert_bit_exact(recovered, streams)
                # The worker is intact, so retiring it now succeeds.
                await recovered.remove_service(victim)
                assert victim not in recovered.services
                await _assert_bit_exact(recovered, streams)

        run_async(body())


class TestAcceptanceScale:
    def test_thousand_tenants_live_rebalance_zero_loss(self, tmp_path):
        """The PR's acceptance scenario: a 4-service cluster serving
        1000 tenants sustains ingestion while a live rebalance moves at
        least a quarter of them, with zero loss — every tenant's state
        bit-identical to a control replay of exactly its accepted
        prefix."""
        async def body():
            n = 1000
            async with Cluster(
                services=4, dir=tmp_path,
                queue_size=65536, batch_size=8192,
            ) as cluster:
                specs = {
                    f"t{i:04d}": tenant_spec(i, 8) for i in range(n)
                }
                await cluster.create_tenants(specs)
                streams = {
                    f"t{i:04d}": tenant_stream(i, 260) for i in range(n)
                }
                for tenant, keys in streams.items():
                    await cluster.ingest_many(tenant, keys[:100])
                sent = dict.fromkeys(streams, 100)
                before = cluster.placement()
                counts = collections.Counter(before.values())
                victim = counts.most_common(1)[0][0]
                assert counts[victim] >= n // 4  # pigeonhole over 4

                # One blocking producer rides straight through the
                # rebalance; the try_ingest producer keeps the rest of
                # the fleet fed and must never lose an *accepted* event.
                stop = asyncio.Event()

                async def produce_blocking(tenant):
                    keys = streams[tenant]
                    while sent[tenant] < len(keys):
                        chunk = keys[sent[tenant]:sent[tenant] + 20]
                        await cluster.ingest_many(tenant, chunk)
                        sent[tenant] += len(chunk)
                        await asyncio.sleep(0)

                async def produce_optimistic(tenants):
                    while not stop.is_set():
                        for tenant in tenants:
                            at = sent[tenant]
                            chunk = streams[tenant][at:at + 20]
                            if len(chunk) and cluster.try_ingest_many(
                                tenant, chunk
                            ):
                                sent[tenant] = at + len(chunk)
                        await asyncio.sleep(0)

                riders = [
                    t for t, s in sorted(before.items()) if s == victim
                ][:2]
                producers = [
                    asyncio.ensure_future(produce_blocking(t))
                    for t in riders
                ]
                # One writer per tenant: the optimistic producer covers
                # everyone the blocking riders don't.
                producers.append(asyncio.ensure_future(
                    produce_optimistic(sorted(set(streams) - set(riders)))
                ))
                await asyncio.sleep(0.01)

                plan = await cluster.remove_service(victim)

                stop.set()
                await asyncio.gather(*producers)
                await cluster.flush()

                moved = {
                    t for t, s in cluster.placement().items()
                    if before[t] != s
                }
                assert len(plan) == counts[victim]
                assert len(moved) >= n // 4
                assert victim not in cluster.services

                for i in range(n):
                    tenant = f"t{i:04d}"
                    worker = cluster.service(cluster.placement()[tenant])
                    applied = worker.sampler.events_applied_for(tenant)
                    assert applied == sent[tenant], tenant
                    assert sig_of(await cluster.sample(tenant)) == \
                        control_signature(
                            i, streams[tenant][:applied], k=8
                        ), tenant
                assert all(sent[t] == 260 for t in riders)

        run_async(body())


@pytest.mark.soak
class TestChurnSoak:
    def test_many_tenant_service_churn_stays_bit_exact(self, tmp_path):
        """Soak: repeated grow/shrink churn under continuous ingestion,
        with a crash-recovery pass in the middle."""
        async def body():
            n = 300
            cluster = Cluster(services=3, dir=tmp_path,
                              queue_size=65536, batch_size=4096)
            await cluster.start()
            await cluster.create_tenants(
                {f"t{i:03d}": tenant_spec(i, 8) for i in range(n)}
            )
            streams = {f"t{i:03d}": tenant_stream(i, 5000) for i in range(n)}
            sent = dict.fromkeys(streams, 0)
            stop = asyncio.Event()

            async def produce():
                while not stop.is_set():
                    for tenant, keys in streams.items():
                        at = sent[tenant]
                        chunk = keys[at:at + 25]
                        if len(chunk) and cluster.try_ingest_many(
                            tenant, chunk
                        ):
                            sent[tenant] = at + len(chunk)
                    await asyncio.sleep(0)

            async def verify_all():
                await cluster.flush()
                for i in range(n):
                    tenant = f"t{i:03d}"
                    worker = cluster.service(cluster.placement()[tenant])
                    applied = worker.sampler.events_applied_for(tenant)
                    assert applied == sent[tenant], tenant
                    assert sig_of(await cluster.sample(tenant)) == \
                        control_signature(
                            i, streams[tenant][:applied], k=8
                        ), tenant

            try:
                for round_at in range(4):
                    producer = asyncio.ensure_future(produce())
                    await asyncio.sleep(0.02)
                    added = await cluster.add_service()
                    await asyncio.sleep(0.02)
                    counts = collections.Counter(
                        cluster.placement().values()
                    )
                    victim = counts.most_common(1)[0][0]
                    if victim == added and len(counts) > 1:
                        victim = counts.most_common(2)[1][0]
                    await cluster.remove_service(victim)
                    stop.set()
                    await producer
                    stop.clear()
                    await verify_all()
                    if round_at == 1:
                        await cluster.abort()
                        cluster = Cluster.recover(tmp_path)
                        await cluster.start()
                        # Recovery truncates to each durable frontier;
                        # producers resend from there.
                        for i in range(n):
                            tenant = f"t{i:03d}"
                            worker = cluster.service(
                                cluster.placement()[tenant]
                            )
                            sent[tenant] = (
                                worker.sampler.events_applied_for(tenant)
                            )
                        await verify_all()
            finally:
                stop.set()
                await cluster.abort()

        run_async(body())
