"""Cluster admission: one gate sequence for both ingest paths.

Every block runs the same ordered gates — frontier, unavailable,
migrating, rate, share, capacity — and reaches its worker in the same
event-loop turn.  The non-blocking path refuses at the first closed
gate with that gate's counted reason; the blocking path waits for the
gate to open and runs the sequence again.  The tables below close each
gate on purpose and check both paths, in process and over the wire,
against the tenant's counters and its worker's write-ahead log.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.serve import StreamService
from repro.serve.cluster import (
    Cluster,
    ClusterClient,
    ClusterFrontend,
    StaleFrontier,
)
from repro.serve.cluster.rebalance import RebalancePlan, TenantMove, execute
from repro.serve.wal import replay_records
from tests.cluster.common import (
    control_signature,
    run_async,
    sig_of,
    tenant_spec,
    tenant_stream,
)

#: Events in every block the gate tables send.
N = 16

GATES = ("frontier", "unavailable", "migrating", "rate", "share", "capacity")

#: The tenant quota each gate's scene needs.
QUOTAS = {
    "rate": {"events_per_sec": 100.0, "burst": 8.0},
    "share": {"queue_share": 0.25},  # 16 of the worker's 64 slots
}


class Stall:
    """A fault hook that parks the worker's consumer at ``flush.before``
    once armed, until :meth:`release`."""

    def __init__(self):
        self.armed = False
        self.stalled = False
        self._release = asyncio.Event()

    def hook(self, stage: str):
        if self.armed and stage == "svc-0:flush.before":
            self.stalled = True
            return self._release.wait()
        return None

    async def engage(self, cluster, tenant: str, n: int) -> None:
        """Feed ``n`` events (one batch) to ``tenant`` and wait until
        the consumer is parked in their flush."""
        self.armed = True
        assert cluster.try_ingest_many(tenant, np.arange(n) + 50_000)
        while not self.stalled:
            await asyncio.sleep(0.001)

    def release(self) -> None:
        self.armed = False
        self._release.set()


def _logged(root, tenant: str) -> tuple[int, int]:
    """``tenant``'s events in a worker's WAL: all of them, and those
    logged after a drop op of ``tenant``."""
    rows = after_drop = 0
    dropped = False
    for record in replay_records(root):
        admin = record.columns.get("admin")
        if admin is not None:
            dropped |= any(
                op.get("op") == "drop" and op.get("tenant") == tenant
                for op in admin.get("ops", ())
            )
            continue
        for route, n in record.columns.get("routes") or ():
            if route == tenant:
                rows += n
                after_drop += n if dropped else 0
    return rows, after_drop


async def _close(gate: str, cluster: Cluster, stall: Stall):
    """Close ``gate`` for tenant ``t``; return what opens it again."""
    if gate == "frontier":
        assert cluster.try_ingest_many("t", np.arange(8))  # frontier 8
        return lambda: None
    if gate == "unavailable":
        cluster.mark_service_down("svc-0", "test")
        return lambda: cluster.mark_service_up("svc-0")
    if gate == "migrating":
        cluster._gate("t")
        return lambda: cluster._ungate("t")
    if gate == "rate":
        assert cluster.try_ingest_many("t", np.arange(8))  # drain the burst
        return lambda: None  # the debt refills by itself
    if gate == "share":
        await stall.engage(cluster, "t", N)  # t's 16 slots in flight
        return stall.release
    await stall.engage(cluster, "fill", N)
    assert cluster.try_ingest_many("fill", np.arange(64))  # buffer full
    return stall.release


async def _send(cluster, client, keys, blocking: bool,
                expect_frontier=None, tenant: str = "t"):
    """One block through the path under test; ``admitted`` as a bool."""
    if client is not None:
        reply = await client.ingest_many(tenant, keys, block=blocking,
                                         expect_frontier=expect_frontier)
        return reply["admitted"]
    if blocking:
        return await cluster.ingest_many(tenant, keys,
                                         expect_frontier=expect_frontier)
    return cluster.try_ingest_many(tenant, keys,
                                   expect_frontier=expect_frontier)


async def _scene(tmp_path, gate: str, wire: bool, check):
    """A one-worker durable cluster with tenants ``t`` (the gate's
    quota) and ``fill``; runs ``check(cluster, client, stall, opener)``
    with ``gate`` closed, then checks ``t``'s WAL rows against its
    frontier."""
    stall = Stall()
    async with Cluster(services=1, dir=tmp_path, queue_size=64,
                       batch_size=N, max_latency=0.002,
                       fault_hook=stall.hook) as cluster:
        await cluster.create_tenant("t", tenant_spec(0),
                                    quota=QUOTAS.get(gate))
        await cluster.create_tenant("fill", tenant_spec(1))
        await cluster.flush()
        client = frontend = None
        if wire:
            frontend = await ClusterFrontend(cluster).start()
            client = await ClusterClient.connect(*frontend.address)
        try:
            opener = await _close(gate, cluster, stall)
            await check(cluster, client, stall, opener)
            opener()
            stall.release()
            await cluster.flush()
            if "t" in cluster.tenants():
                record = cluster.registry.get("t")
                mux = cluster.service("svc-0").sampler
                assert mux.events_applied_for("t") == record.events_enqueued
                rows, _ = _logged(tmp_path / "svc-0", "t")
                assert rows == record.events_enqueued
        finally:
            if client is not None:
                await client.aclose()
                await frontend.stop()


def _raises_stale(wire: bool):
    if wire:
        return pytest.raises(RuntimeError, match="^StaleFrontier")
    return pytest.raises(StaleFrontier)


@pytest.mark.parametrize("wire", [False, True], ids=["process", "wire"])
@pytest.mark.parametrize("gate", GATES)
class TestGateTable:
    def test_nonblocking_refuses_with_the_gates_reason(self, tmp_path,
                                                       gate, wire):
        async def check(cluster, client, stall, opener):
            record = cluster.registry.get("t")
            frontier = record.events_enqueued
            before = dict(record.rejected)
            keys = tenant_stream(0, N) + 10_000
            if gate == "frontier":
                with _raises_stale(wire):
                    await _send(cluster, client, keys, False,
                                expect_frontier=0)
            else:
                assert not await _send(cluster, client, keys, False)
            reason = {"unavailable": "unavailable", "rate": "rate",
                      "share": "share", "frontier": None}.get(
                          gate, "backpressure")
            assert record.rejected == {
                why: count + (N if why == reason else 0)
                for why, count in before.items()
            }
            assert record.events_enqueued == frontier
            drops = cluster.service("svc-0").metrics.events_dropped_by
            assert drops.get("t", 0) == (N if gate == "capacity" else 0)

        run_async(_scene(tmp_path, gate, wire, check))

    def test_blocking_waits_then_admits_sheds_or_raises(self, tmp_path,
                                                         gate, wire):
        async def check(cluster, client, stall, opener):
            record = cluster.registry.get("t")
            frontier = record.events_enqueued
            keys = tenant_stream(0, N) + 10_000
            if gate == "frontier":
                with _raises_stale(wire):
                    await _send(cluster, client, keys, True,
                                expect_frontier=0)
                assert record.events_enqueued == frontier
                return
            if gate == "unavailable":
                if wire:
                    with pytest.raises(RuntimeError, match="^Unavailable"):
                        await _send(cluster, client, keys, True)
                else:
                    assert await _send(cluster, client, keys, True) is False
                assert record.rejected["unavailable"] == N
                assert record.events_enqueued == frontier
                return
            producer = asyncio.ensure_future(
                _send(cluster, client, keys, True, expect_frontier=frontier)
            )
            await asyncio.sleep(0.03)
            assert not producer.done()
            assert record.events_enqueued == frontier
            opener()
            assert await producer is True
            assert record.events_enqueued == frontier + N
            assert sum(record.rejected.values()) == 0

        run_async(_scene(tmp_path, gate, wire, check))


@pytest.mark.parametrize("wire", [False, True], ids=["process", "wire"])
@pytest.mark.parametrize("gate", ("migrating", "rate", "share", "capacity"))
def test_producer_waiting_on_a_dropped_tenant_raises_keyerror(tmp_path,
                                                              gate, wire):
    """The producer learns its tenant is gone, and no row of its block
    trails the drop op into the WAL (where the mux would refuse it)."""
    async def check(cluster, client, stall, opener):
        keys = tenant_stream(0, N) + 10_000
        producer = asyncio.ensure_future(
            _send(cluster, client, keys, True)
        )
        await asyncio.sleep(0.03)
        assert not producer.done()
        admitted = cluster.registry.get("t").events_enqueued
        await cluster.drop_tenant("t")
        stall.release()
        if wire:
            with pytest.raises(RuntimeError, match="^KeyError"):
                await producer
        else:
            with pytest.raises(KeyError, match="'t'"):
                await producer
        await cluster.flush()
        assert _logged(tmp_path / "svc-0", "t") == (admitted, 0)

    run_async(_scene(tmp_path, gate, wire, check))


class TestNeverAdmissible:
    """Blocks no gate could ever admit are refused at the call."""

    def test_service_refuses_a_block_over_queue_size(self):
        async def body():
            async with StreamService(tenant_spec(0),
                                     queue_size=1000) as service:
                with pytest.raises(ValueError, match="queue_size=1000"):
                    service.try_ingest_many(tenant_stream(0, 2000))
                assert service.metrics.events_dropped == 0
                assert service.events_enqueued == 0
                # The blocking path splits the same block.
                await service.ingest_many(tenant_stream(0, 2000))
                await service.flush()
                assert service.events_applied == 2000

        run_async(body())

    @pytest.mark.parametrize("wire", [False, True], ids=["process", "wire"])
    def test_cluster_refuses_over_bound_and_splits_blocking(self, tmp_path,
                                                            wire):
        async def body():
            async with Cluster(services=1, dir=tmp_path, queue_size=1000,
                               batch_size=64) as cluster:
                await cluster.create_tenant("t", tenant_spec(0))
                await cluster.create_tenant("s", tenant_spec(1),
                                            quota={"queue_share": 0.25})
                client = frontend = None
                if wire:
                    frontend = await ClusterFrontend(cluster).start()
                    client = await ClusterClient.connect(*frontend.address)
                refused = (RuntimeError, "^ValueError") if wire else (
                    ValueError, "admission bound of")
                for tenant, n, bound in (("t", 2000, 1000), ("s", 300, 250)):
                    keys = tenant_stream(0, n)
                    with pytest.raises(refused[0], match=refused[1]):
                        await _send(cluster, client, keys, False,
                                    tenant=tenant)
                    with pytest.raises(refused[0], match=f"{bound} events"):
                        await _send(cluster, client, keys, True,
                                    expect_frontier=0, tenant=tenant)
                    record = cluster.registry.get(tenant)
                    assert record.events_enqueued == 0
                    assert sum(record.rejected.values()) == 0
                    assert await _send(cluster, client, keys, True,
                                       tenant=tenant) is True
                await cluster.flush()
                assert cluster.service("svc-0").metrics.events_dropped == 0
                assert sig_of(await cluster.sample("t")) == \
                    control_signature(0, tenant_stream(0, 2000))
                assert sig_of(await cluster.sample("s")) == \
                    control_signature(1, tenant_stream(0, 300))
                if client is not None:
                    await client.aclose()
                    await frontend.stop()

        run_async(body())


class TestDriftsClosed:
    """Where the two ingest paths used to disagree."""

    def test_blocking_ingest_honors_queue_share(self):
        async def body():
            release = asyncio.Event()

            def stall(stage):
                if stage == "svc-0:flush.before" and not release.is_set():
                    return release.wait()
                return None

            async with Cluster(services=1, queue_size=1000, batch_size=100,
                               max_latency=0.002,
                               fault_hook=stall) as cluster:
                await cluster.create_tenant("t", tenant_spec(0),
                                            quota={"queue_share": 0.25})
                keys = tenant_stream(0, 900)
                producer = asyncio.ensure_future(
                    cluster.ingest_many("t", keys)
                )
                await asyncio.sleep(0.05)
                record = cluster.registry.get("t")
                mux = cluster.service("svc-0").sampler
                in_flight = record.events_enqueued - (
                    mux.events_applied_for("t") if mux.has_tenant("t") else 0
                )
                assert in_flight <= 250
                assert not producer.done()
                release.set()
                assert await producer is True
                await cluster.flush()
                assert cluster.try_ingest_many("t", np.arange(10) + 9000)
                assert record.rejected["share"] == 0
                await cluster.flush()
                assert sig_of(await cluster.sample("t")) == \
                    control_signature(0, keys, np.arange(10) + 9000)

        run_async(body())

    @pytest.mark.parametrize("wire", [False, True], ids=["process", "wire"])
    def test_nonblocking_ingest_honors_expect_frontier(self, wire):
        async def body():
            async with Cluster(services=1) as cluster:
                await cluster.create_tenant("t", tenant_spec(0))
                client = frontend = None
                if wire:
                    frontend = await ClusterFrontend(cluster).start()
                    client = await ClusterClient.connect(*frontend.address)
                keys = np.arange(10)
                assert await _send(cluster, client, keys, False,
                                   expect_frontier=0)
                with _raises_stale(wire):
                    await _send(cluster, client, keys, False,
                                expect_frontier=0)
                assert cluster.registry.get("t").events_enqueued == 10
                if client is not None:
                    # The scalar verb carries the condition too.
                    with _raises_stale(wire):
                        await client.ingest("t", 1, expect_frontier=0)
                    await client.aclose()
                    await frontend.stop()
                else:
                    with pytest.raises(StaleFrontier):
                        cluster.try_ingest("t", 1, expect_frontier=0)
                assert cluster.registry.get("t").events_enqueued == 10

        run_async(body())


class TestCreatePath:
    def test_create_tenants_unregisters_tenants_without_a_create_op(self):
        async def body():
            async with Cluster(services=2) as cluster:
                homes: dict[str, str] = {}
                for i in range(1000):
                    homes.setdefault(cluster.ring.node_for(f"t{i}"), f"t{i}")
                    if len(homes) == 2:
                        break
                await cluster.service("svc-1").abort()
                with pytest.raises(RuntimeError):
                    await cluster.create_tenants(
                        {tenant: tenant_spec(0) for tenant in homes.values()}
                    )
                assert homes["svc-1"] not in cluster.tenants()
                await cluster.service("svc-0").flush()
                for tenant in cluster.tenants():
                    assert cluster.service("svc-0").sampler.has_tenant(tenant)
                with pytest.raises(RuntimeError):
                    await cluster.create_tenant(homes["svc-1"],
                                                tenant_spec(0))
                assert homes["svc-1"] not in cluster.tenants()

        run_async(body())


#: Seconds of the stress run (longer under ``REPRO_SOAK=1``).
STRESS_SECONDS = 6.0 if os.environ.get("REPRO_SOAK") else 1.0


def test_blocking_producers_ride_through_moves_exactly_once():
    """16 blocking producers on 2 rate- and share-capped tenants of a
    64-event-queue cluster, with a consumer slower than the producers,
    while a rebalance moves the tenants back and forth: every event a
    producer was told is admitted is applied exactly once, nothing else
    is, and no admission leaves a tenant over its queue share."""
    async def body():
        # Coordinated bottom-k with k above the stream: the sample holds
        # every applied key, so duplicates and losses both show.
        spec = {"name": "bottom_k",
                "params": {"k": 1 << 15, "coordinated": True, "salt": 3}}
        quota = {"events_per_sec": 4000.0, "burst": 48.0,
                 "queue_share": 0.5}
        tenants = ("a", "b")

        def slow_consumer(stage):
            if stage.endswith(":flush.before"):
                return asyncio.sleep(0.004)
            return None

        async with Cluster(services=2, queue_size=64, batch_size=16,
                           max_latency=0.002,
                           fault_hook=slow_consumer) as cluster:
            await cluster.create_tenants(
                {t: spec for t in tenants},
                quotas={t: quota for t in tenants},
            )
            told = {t: [] for t in tenants}
            peak = dict.fromkeys(tenants, 0)
            stop = asyncio.Event()

            def in_flight(tenant: str) -> int:
                record = cluster.registry.get(tenant)
                mux = cluster.service(record.service).sampler
                return record.events_enqueued - mux.events_applied_for(tenant)

            async def produce(p: int) -> None:
                tenant = tenants[p % 2]
                sizes = np.random.default_rng(p).integers(1, 41, 10_000)
                at = p * 10_000_000
                for n in sizes:
                    if stop.is_set():
                        return
                    keys = np.arange(at, at + n)
                    at += int(n)
                    assert await cluster.ingest_many(tenant, keys)
                    told[tenant].extend(keys.tolist())
                    peak[tenant] = max(peak[tenant], in_flight(tenant))

            async def move() -> int:
                moves = 0
                while not stop.is_set():
                    for tenant in tenants:
                        source = cluster.placement()[tenant]
                        destination = next(
                            s for s in cluster.services if s != source
                        )
                        await execute(cluster, RebalancePlan(
                            (TenantMove(tenant, source, destination),)
                        ))
                        moves += 1
                    await asyncio.sleep(0.01)
                return moves

            producers = [asyncio.ensure_future(produce(p))
                         for p in range(16)]
            mover = asyncio.ensure_future(move())
            await asyncio.sleep(STRESS_SECONDS)
            stop.set()
            await asyncio.gather(*producers)
            moves = await mover
            await cluster.flush()
            assert moves >= 4
            assert max(peak.values()) <= 32  # queue_share 0.5 of 64
            for tenant in tenants:
                record = cluster.registry.get(tenant)
                assert told[tenant]
                assert record.events_enqueued == len(told[tenant])
                mux = cluster.service(record.service).sampler
                assert mux.events_applied_for(tenant) == len(told[tenant])
                sample = await cluster.sample(tenant)
                assert sorted(sample.keys) == sorted(told[tenant])

    run_async(body(), timeout=60.0 + 4 * STRESS_SECONDS)
