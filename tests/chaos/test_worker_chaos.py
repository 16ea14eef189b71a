"""Worker-level chaos: kills, wedges, and WAL faults under supervision.

Every test injects a real infrastructure fault mid-stream and then
demands the strongest possible outcome: the supervisor restores service
*without operator intervention*, nothing durable is lost, and — with the
at-least-once producer re-sending past the durable frontier — the final
state is **bit-identical** to a fault-free control fed the same stream.
A test also asserts its fault actually fired: a chaos test whose fault
never bit proves nothing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.chaos import ChaosError, ChaosInjector, Fault
from repro.serve.cluster import Cluster, Supervisor
from tests.chaos.common import (
    FAST_SUPERVISION,
    control_signature,
    reliable_stream,
    run_async,
    settle,
    sig_of,
    tenant_spec,
    tenant_stream,
    wait_for,
)


class TestWalFaults:
    def test_wal_write_fault_autorestores_bit_exact(self, tmp_path):
        async def body():
            chaos = ChaosInjector(Fault("*:wal.append.mid", at=4))
            async with Cluster(services=2, dir=tmp_path, fault_hook=chaos,
                               batch_size=32,
                               max_latency=0.001) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                keys = tenant_stream(0, 600)
                async with Supervisor(cluster, **FAST_SUPERVISION) as sup:
                    await settle(cluster, {"acme": keys})
                    assert chaos.count("*:wal.append.mid") == 1, (
                        "the injected WAL fault never fired"
                    )
                    assert any(e.restored_at is not None
                               for e in sup.events)
                    assert sig_of(await cluster.sample("acme")) == \
                        control_signature(0, keys)
                    restarted = [
                        m for m in cluster.metrics().services.values()
                        if m.restarts > 0
                    ]
                    assert restarted, "no worker recorded a restart"

        run_async(body())

    def test_repeated_wal_faults_across_restarts(self, tmp_path):
        async def body():
            # The fault re-bites the *recovered* worker too: two
            # separate appends fail, two separate failovers restore.
            chaos = ChaosInjector(
                Fault("*:wal.append.mid", at=3),
                Fault("*:wal.append.mid", at=9),
            )
            async with Cluster(services=2, dir=tmp_path, fault_hook=chaos,
                               batch_size=32,
                               max_latency=0.001) as cluster:
                await cluster.create_tenant("acme", tenant_spec(1))
                keys = tenant_stream(1, 800)
                async with Supervisor(cluster, **FAST_SUPERVISION) as sup:
                    await settle(cluster, {"acme": keys}, chunk=30)
                    assert chaos.count("*:wal.append.mid") == 2
                    restored = [e for e in sup.events
                                if e.restored_at is not None]
                    assert len(restored) >= 2
                    assert sig_of(await cluster.sample("acme")) == \
                        control_signature(1, keys)

        run_async(body())


class TestConsumerStall:
    def test_wedged_consumer_is_detected_and_restarted(self, tmp_path):
        async def body():
            # The consumer wedges for 60s mid-flush — far longer than
            # the stall timeout.  Detection must come from the liveness
            # probe (stale heartbeat + backlog), not from a crash.
            chaos = ChaosInjector(
                Fault("*:flush.before", action="stall", delay=60.0, at=3)
            )
            async with Cluster(services=2, dir=tmp_path, fault_hook=chaos,
                               batch_size=32,
                               max_latency=0.001) as cluster:
                await cluster.create_tenant("acme", tenant_spec(2))
                keys = tenant_stream(2, 500)
                async with Supervisor(cluster, **FAST_SUPERVISION) as sup:
                    await settle(cluster, {"acme": keys})
                    assert chaos.count("*:flush.before") == 1
                    assert any(e.reason == "stalled" for e in sup.events)
                    assert sig_of(await cluster.sample("acme")) == \
                        control_signature(2, keys)

        run_async(body())


class TestKillAndRehome:
    def test_killed_worker_rehomes_tenants_bit_exact(self, tmp_path):
        async def body():
            async with Cluster(services=3, dir=tmp_path, batch_size=32,
                               max_latency=0.001) as cluster:
                streams = {}
                for i in range(6):
                    tenant = f"tenant-{i}"
                    await cluster.create_tenant(tenant, tenant_spec(i))
                    streams[tenant] = tenant_stream(i, 400)
                async with Supervisor(cluster, policy="rehome",
                                      **FAST_SUPERVISION) as sup:
                    pumps = [
                        asyncio.ensure_future(
                            reliable_stream(cluster, tenant, keys)
                        )
                        for tenant, keys in streams.items()
                    ]
                    # Let the pumps make some progress, then kill one
                    # worker's consumer outright.
                    await asyncio.sleep(0.1)
                    victim = cluster.registry.get("tenant-0").service
                    cluster._workers[victim]._task.cancel()
                    # Detection is asynchronous — the probe loop needs
                    # ``max_missed`` ticks before it trips and evacuates.
                    await wait_for(lambda: victim not in cluster.services)
                    await asyncio.gather(*pumps)
                    await settle(cluster, streams)
                    assert victim not in cluster.services
                    event = next(e for e in sup.events
                                 if e.restored_at is not None)
                    assert event.action == "rehome" and event.moved
                    for i in range(6):
                        tenant = f"tenant-{i}"
                        assert sig_of(await cluster.sample(tenant)) == \
                            control_signature(i, streams[tenant]), tenant

        run_async(body())

    def test_killed_worker_restarts_under_concurrent_load(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path, batch_size=32,
                               max_latency=0.001) as cluster:
                streams = {}
                for i in range(4):
                    tenant = f"tenant-{i}"
                    await cluster.create_tenant(tenant, tenant_spec(i))
                    streams[tenant] = tenant_stream(i, 400)
                async with Supervisor(cluster, **FAST_SUPERVISION) as sup:
                    pumps = [
                        asyncio.ensure_future(
                            reliable_stream(cluster, tenant, keys)
                        )
                        for tenant, keys in streams.items()
                    ]
                    await asyncio.sleep(0.08)
                    victim = cluster.registry.get("tenant-0").service
                    cluster._workers[victim]._task.cancel()
                    await wait_for(lambda: any(e.restored_at is not None
                                               for e in sup.events))
                    await asyncio.gather(*pumps)
                    await settle(cluster, streams)
                    assert any(e.restored_at is not None
                               for e in sup.events)
                    for i in range(4):
                        tenant = f"tenant-{i}"
                        assert sig_of(await cluster.sample(tenant)) == \
                            control_signature(i, streams[tenant]), tenant

        run_async(body())


class TestDegradedWindow:
    def test_outage_window_pins_reads_and_counts_sheds(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path, batch_size=32,
                               max_latency=0.001) as cluster:
                await cluster.create_tenant("acme", tenant_spec(3))
                keys = tenant_stream(3, 300)
                await cluster.ingest_many("acme", keys)
                await cluster.flush()
                durable = await cluster.query("acme", "sum")
                holder = cluster.registry.get("acme").service
                cluster.mark_service_down(holder, "chaos")
                # Reads stay pinned to the durable snapshot for the
                # whole outage; every shed ingest is counted, none is
                # silently dropped into the void as admitted.
                frontier = cluster.registry.get("acme").events_enqueued
                for step in range(3):
                    result = await cluster.query("acme", "sum")
                    assert result.degraded
                    assert result.estimate == durable.estimate
                    assert result.state_version == durable.state_version
                    admitted = await cluster.ingest_many(
                        "acme", tenant_stream(3, 20)
                    )
                    assert admitted is False
                record = cluster.registry.get("acme")
                assert record.events_enqueued == frontier
                assert record.rejected["unavailable"] == 60
                outage = cluster.down_services()[holder]
                assert outage["shed_events"] == 60
                assert outage["degraded_reads"] == 3
                # Recovery: back to live serving, state bit-exact.
                await cluster.restart_service(holder, reason="chaos")
                fresh = await cluster.query("acme", "sum")
                assert not fresh.degraded
                assert sig_of(await cluster.sample("acme")) == \
                    control_signature(3, keys)

        run_async(body())


@pytest.mark.soak
class TestChaosSoak:
    def test_kill_restore_cycles_stay_bit_exact(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path, batch_size=32,
                               max_latency=0.001) as cluster:
                await cluster.create_tenant("acme", tenant_spec(7))
                keys = tenant_stream(7, 4000)
                async with Supervisor(cluster, **FAST_SUPERVISION) as sup:

                    def restored_count():
                        return sum(1 for e in sup.events
                                   if e.restored_at is not None)

                    # Deterministic kill/restore cycles: admit one
                    # segment, kill the holder (losing whatever of the
                    # segment was admitted but not yet durable), wait
                    # for the supervisor to restore, repeat.  The
                    # producer's frontier-rewind re-sends the lost
                    # tail on the next cycle.
                    seg = len(keys) // 5
                    for cycle in range(5):
                        upto = keys[:(cycle + 1) * seg]
                        await reliable_stream(cluster, "acme", upto,
                                              chunk=80, pause=0.01)
                        holder = cluster.registry.get("acme").service
                        worker = cluster._workers[holder]
                        if worker.consumer_alive:
                            worker._task.cancel()
                            target = restored_count() + 1
                            await wait_for(
                                lambda: restored_count() >= target
                            )
                    await settle(cluster, {"acme": keys}, chunk=80)
                    # The last kill may still be *in delivery* (cancel
                    # is scheduled, the task dies a tick later): wait
                    # until every worker is alive, give a pending kill
                    # time to land, and wait again — i.e. until the
                    # supervisor restored the fleet.
                    def fleet_alive():
                        return all(w.consumer_alive
                                   for w in cluster._workers.values())

                    await wait_for(fleet_alive)
                    await asyncio.sleep(0.05)
                    await wait_for(fleet_alive)
                    assert sig_of(await cluster.sample("acme")) == \
                        control_signature(7, keys)
                    restored = [e for e in sup.events
                                if e.restored_at is not None]
                    assert restored, "no failover ever completed"

        run_async(body())

    def test_sustained_wal_faults_many_tenants(self, tmp_path):
        async def body():
            chaos = ChaosInjector(
                *(Fault("*:wal.append.mid", at=at) for at in (5, 15, 25))
            )
            async with Cluster(services=3, dir=tmp_path, fault_hook=chaos,
                               batch_size=32,
                               max_latency=0.001) as cluster:
                streams = {}
                for i in range(9):
                    tenant = f"tenant-{i}"
                    await cluster.create_tenant(tenant, tenant_spec(i))
                    streams[tenant] = tenant_stream(i, 1500)
                async with Supervisor(cluster, **FAST_SUPERVISION):
                    pumps = [
                        asyncio.ensure_future(
                            reliable_stream(cluster, tenant, keys,
                                            chunk=60, pause=0.01)
                        )
                        for tenant, keys in streams.items()
                    ]
                    await asyncio.gather(*pumps)
                    await settle(cluster, streams, chunk=60,
                                 deadline=60.0)
                    assert chaos.count("*:wal.append.mid") == 3
                    for i in range(9):
                        tenant = f"tenant-{i}"
                        assert sig_of(await cluster.sample(tenant)) == \
                            control_signature(i, streams[tenant]), tenant

        run_async(body())
