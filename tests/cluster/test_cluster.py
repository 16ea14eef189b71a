"""The Cluster facade: routing, quotas, reads, metrics, recovery."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import ServiceCrashed
from repro.serve.cluster import Cluster, StaleFrontier, TenantQuota
from tests.cluster.common import (
    control_signature,
    run_async,
    sig_of,
    tenant_spec,
    tenant_stream,
)


class Clock:
    """A hand-cranked monotonic clock for quota buckets."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


async def _populate(cluster, n_tenants: int, n_events: int = 300):
    """Create ``n_tenants`` seeded tenants and feed their streams."""
    streams = {}
    for i in range(n_tenants):
        tenant = f"tenant-{i}"
        await cluster.create_tenant(tenant, tenant_spec(i))
        streams[tenant] = tenant_stream(i, n_events)
    for tenant, keys in streams.items():
        await cluster.ingest_many(tenant, keys)
    await cluster.flush()
    return streams


class TestLifecycle:
    def test_tenants_read_bit_exactly_vs_isolated_controls(self, tmp_path):
        async def body():
            async with Cluster(services=3, dir=tmp_path) as cluster:
                streams = await _populate(cluster, 12)
                for i, (tenant, keys) in enumerate(streams.items()):
                    assert sig_of(await cluster.sample(tenant)) == \
                        control_signature(i, keys)
                    est = await cluster.estimate(tenant, "total")
                    assert np.isfinite(est) and est > 0
                placement = cluster.placement()
                assert set(placement.values()) <= set(cluster.services)
                assert len(set(placement.values())) > 1, (
                    "12 tenants should spread over >1 service"
                )

        run_async(body())

    def test_placement_follows_the_ring_deterministically(self, tmp_path):
        async def body():
            async with Cluster(services=4, dir=tmp_path) as cluster:
                await _populate(cluster, 8, n_events=10)
                for tenant, service in cluster.placement().items():
                    assert service == cluster.ring.node_for(tenant)

        run_async(body())

    def test_query_is_tenant_scoped_and_version_pinned(self):
        async def body():
            async with Cluster(services=2) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 200))
                await cluster.flush()
                result = await cluster.query("acme", "sum", ci=0.95)
                assert result.aggregate == "sum"
                assert result.ci is not None
                again = await cluster.query("acme", "sum", ci=0.95)
                assert again.state_version == result.state_version

        run_async(body())

    def test_reads_flush_once_for_a_queued_create(self):
        async def body():
            async with Cluster(services=2, max_latency=5.0) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                # The create admin row is still buffered (long deadline);
                # the read path must flush it through rather than fail.
                sample = await cluster.sample("acme")
                assert len(sample.keys) == 0

        run_async(body())

    def test_unknown_tenant_and_service_errors(self):
        async def body():
            async with Cluster(services=2) as cluster:
                with pytest.raises(KeyError, match="unknown tenant"):
                    await cluster.estimate("ghost")
                with pytest.raises(KeyError, match="unknown service"):
                    cluster.service("svc-9")
                await cluster.create_tenant("acme", tenant_spec(0))
                with pytest.raises(ValueError, match="already exists"):
                    await cluster.create_tenant("acme", tenant_spec(0))

        run_async(body())

    def test_drop_tenant_removes_namespace_and_worker_state(self):
        async def body():
            async with Cluster(services=2) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 50))
                record = await cluster.drop_tenant("acme")
                assert record.tenant == "acme"
                assert "acme" not in cluster.tenants()
                await cluster.flush()
                for name in cluster.services:
                    assert not cluster.service(name).sampler.has_tenant("acme")

        run_async(body())

    def test_conditional_admissions_serialize_per_tenant(self):
        """Two producers racing the same ``expect_frontier`` resolve
        cleanly — exactly one admits, the other sees ``StaleFrontier``
        — even when both pass the frontier gate and then wait on a full
        worker buffer: each reruns the whole gate sequence when the
        wait ends, so the loser cannot land its batch at a stale
        position."""
        async def body():
            release = asyncio.Event()

            def stall(stage):
                if stage == "svc-0:flush.before" and not release.is_set():
                    return release.wait()

            async with Cluster(services=1, queue_size=100, batch_size=100,
                               max_latency=30.0, fault_hook=stall) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.create_tenant("fill", tenant_spec(1))
                # The first block stalls the consumer in its flush, the
                # second fills the buffer behind it.
                assert cluster.try_ingest_many("fill", list(range(100)))
                await asyncio.sleep(0.01)
                assert cluster.try_ingest_many("fill", list(range(100)))
                worker = cluster._workers["svc-0"]
                real_wait = worker.wait_room

                async def slow_wait_room(n):
                    await asyncio.sleep(0.05)  # a long buffer wait
                    return await real_wait(n)

                worker.wait_room = slow_wait_room
                asyncio.get_running_loop().call_later(0.02, release.set)
                keys = tenant_stream(0, 100).tolist()
                results = await asyncio.gather(
                    cluster.ingest_many("acme", keys, expect_frontier=0),
                    cluster.ingest_many("acme", keys, expect_frontier=0),
                    return_exceptions=True,
                )
                admitted = [r for r in results if r is True]
                stale = [r for r in results
                         if isinstance(r, StaleFrontier)]
                assert len(admitted) == 1 and len(stale) == 1
                assert cluster.registry.get("acme").events_enqueued == \
                    len(keys)

        run_async(body())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Cluster(services=0)
        with pytest.raises(ValueError, match="unique"):
            Cluster(services=["a", "a"])


#: Specs ``create_tenant`` used to accept although the tenant's worker
#: could never build or feed them: the create op crashed the worker (and
#: its healthy tenants) and every WAL replay of the directory.
BAD_SPECS = {
    "unknown_sampler": ({"name": "nope"}, ValueError, "unknown sampler"),
    "bad_param": ({"name": "bottom_k", "params": {"k": 0}}, ValueError,
                  "positive"),
    "unknown_param": ({"name": "bottom_k", "params": {"k": 4, "bogus": 1}},
                      TypeError, "bogus"),
    "unshardable": (
        {"name": "sharded", "params": {
            "spec": {"name": "sliding_window",
                     "params": {"k": 4, "window": 1.0}},
            "n_shards": 2,
        }},
        ValueError, "not mergeable",
    ),
    "needs_strata": ({"name": "multi_stratified",
                      "params": {"n_dims": 1, "k": 4}},
                     ValueError, "strata= column"),
    "needs_groups": ({"name": "grouped_distinct", "params": {"m": 2, "k": 4}},
                     ValueError, "groups= column"),
    "offline_design": ("cps", ValueError, "unknown sampler 'cps'"),
    "no_name": ({"params": {"k": 4}}, ValueError, "'name'"),
    "params_not_a_dict": ({"name": "bottom_k", "params": "k=4"}, TypeError,
                          "'params'"),
}


def _beside(cluster, tenant: str) -> str:
    """A fresh tenant id the ring places on ``tenant``'s worker."""
    home = cluster.ring.node_for(tenant)
    return next(
        name for name in (f"bad-{i}" for i in range(1000))
        if cluster.ring.node_for(name) == home
    )


class TestTenantSpecs:
    @pytest.mark.parametrize("case", list(BAD_SPECS))
    def test_refused_spec_leaves_its_worker_and_directory_healthy(
        self, tmp_path, case
    ):
        spec, error, match = BAD_SPECS[case]
        keys = tenant_stream(0, 200)

        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("healthy", tenant_spec(0))
                with pytest.raises(error, match=match):
                    await cluster.create_tenant(
                        _beside(cluster, "healthy"), spec
                    )
                assert cluster.tenants() == ("healthy",)
                await cluster.ingest_many("healthy", keys)
                await cluster.flush()
                assert sig_of(await cluster.sample("healthy")) == \
                    control_signature(0, keys)
            recovered = Cluster.recover(tmp_path)
            async with recovered:
                assert recovered.tenants() == ("healthy",)
                assert sig_of(await recovered.sample("healthy")) == \
                    control_signature(0, keys)

        run_async(body())

    def test_bulk_create_with_one_bad_spec_registers_none(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                specs = {
                    "a": tenant_spec(0),
                    "b": BAD_SPECS["bad_param"][0],
                    "c": tenant_spec(2),
                }
                with pytest.raises(ValueError, match="positive"):
                    await cluster.create_tenants(specs)
                assert cluster.tenants() == ()
                await cluster.flush()
                for name in cluster.services:
                    worker = cluster.service(name).sampler
                    assert not any(worker.has_tenant(t) for t in specs)
                del specs["b"]
                await cluster.create_tenants(specs)
                await cluster.ingest_many("c", tenant_stream(2, 100))
                await cluster.flush()
            recovered = Cluster.recover(tmp_path)
            async with recovered:
                assert recovered.tenants() == ("a", "c")
                assert sig_of(await recovered.sample("c")) == \
                    control_signature(2, tenant_stream(2, 100))

        run_async(body())


class TestQuotas:
    def test_rate_quota_rejects_and_counts(self):
        async def body():
            clock = Clock()
            async with Cluster(services=1, clock=clock) as cluster:
                await cluster.create_tenant(
                    "hot", tenant_spec(0),
                    quota=TenantQuota(events_per_sec=100.0, burst=10.0),
                )
                assert cluster.try_ingest_many("hot", list(range(10)))
                assert not cluster.try_ingest_many("hot", [99])
                record = cluster.registry.get("hot")
                assert record.rejected["rate"] == 1
                clock.now += 0.05  # 5 tokens refill
                assert cluster.try_ingest_many("hot", list(range(5)))
                assert not cluster.try_ingest("hot", 7)
                assert record.rejected["rate"] == 2
                assert record.events_enqueued == 15

        run_async(body())

    def test_share_quota_caps_in_flight_events(self):
        async def body():
            # max_latency is huge so nothing applies until flush: the
            # tenant's in-flight count climbs against its share cap.
            async with Cluster(
                services=1, queue_size=100, batch_size=1000, max_latency=30.0
            ) as cluster:
                await cluster.create_tenant(
                    "greedy", tenant_spec(0),
                    quota=TenantQuota(queue_share=0.2),  # 20 of 100 slots
                )
                await cluster.create_tenant("other", tenant_spec(1))
                assert cluster.try_ingest_many("greedy", list(range(20)))
                assert not cluster.try_ingest("greedy", 99)
                record = cluster.registry.get("greedy")
                assert record.rejected["share"] == 1
                # The shared queue still has room for everyone else.
                assert cluster.try_ingest_many("other", list(range(50)))
                await cluster.flush()
                # Applied events no longer count against the share.
                assert cluster.try_ingest_many("greedy", list(range(20, 35)))

        run_async(body())

    def test_backpressure_drops_are_counted_per_tenant(self):
        async def body():
            async with Cluster(
                services=1, queue_size=64, batch_size=1000, max_latency=30.0
            ) as cluster:
                await cluster.create_tenant("a", tenant_spec(0))
                await cluster.create_tenant("b", tenant_spec(1))
                assert cluster.try_ingest_many("a", list(range(60)))
                assert not cluster.try_ingest_many("b", list(range(10)))
                record = cluster.registry.get("b")
                assert record.rejected["backpressure"] == 10
                worker = cluster.service(cluster.placement()["b"])
                assert worker.metrics.events_dropped_by == {"b": 10}
                assert worker.metrics.events_dropped == 10

        run_async(body())

    def test_blocking_path_waits_instead_of_dropping(self):
        async def body():
            async with Cluster(services=1) as cluster:
                await cluster.create_tenant(
                    "steady", tenant_spec(0),
                    quota=TenantQuota(events_per_sec=1e9),
                )
                await cluster.ingest_many("steady", tenant_stream(0, 500))
                await cluster.flush()
                record = cluster.registry.get("steady")
                assert record.events_enqueued == 500
                assert record.rejected == {
                    "rate": 0, "share": 0, "backpressure": 0,
                    "unavailable": 0,
                }

        run_async(body())


class TestMetrics:
    def test_cluster_metrics_aggregate_workers_and_tenants(self, tmp_path):
        async def body():
            async with Cluster(services=3, dir=tmp_path) as cluster:
                streams = await _populate(cluster, 9, n_events=200)
                metrics = cluster.metrics()
                assert set(metrics.services) == set(cluster.services)
                total_applied = sum(
                    m.events_applied for m in metrics.services.values()
                )
                assert metrics.total.events_applied == total_applied
                assert total_applied == 9 * 200  # admin ops are not events
                assert set(metrics.tenants) == set(streams)
                for tenant, row in metrics.tenants.items():
                    assert row["service"] == cluster.placement()[tenant]
                    assert row["events_applied"] == 200
                    assert row["events_enqueued"] == 200
                    assert row["rejected"]["rate"] == 0
                payload = metrics.to_dict()
                assert payload["total"]["events_applied"] == total_applied

        run_async(body())

    def test_describe_tenant_joins_registry_and_worker_state(self):
        async def body():
            async with Cluster(services=2) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 100))
                await cluster.flush()
                description = cluster.describe_tenant("acme")
                assert description["events_applied"] == 100
                assert description["events_enqueued"] == 100
                assert description["events_dropped"] == 0
                assert description["service"] in cluster.services
                assert description["spec"]["name"] == "bottom_k"

        run_async(body())


class TestRecovery:
    def test_recover_is_bit_exact_at_the_durable_frontier(self, tmp_path):
        async def body():
            cluster = Cluster(
                services=3, dir=tmp_path, batch_size=64, max_latency=0.005
            )
            streams = {}
            async with cluster:
                streams = await _populate(cluster, 10, n_events=400)
                # More events, then crash without draining.
                for tenant, keys in streams.items():
                    await cluster.ingest_many(tenant, keys[:100])
                await cluster.abort()

            recovered = Cluster.recover(tmp_path)
            async with recovered:
                assert recovered.tenants() == tuple(sorted(streams))
                for i, (tenant, keys) in enumerate(sorted(streams.items())):
                    worker = recovered.service(
                        recovered.placement()[tenant]
                    )
                    frontier = worker.sampler.events_applied_for(tenant)
                    assert 400 <= frontier <= 500
                    # The recovered tenant equals a control fed exactly
                    # its durable prefix (per-tenant order is the
                    # ingestion order: full stream then the replay tail).
                    replayed = np.concatenate([keys, keys[:100]])[:frontier]
                    assert sig_of(await recovered.sample(tenant)) == \
                        control_signature(i, replayed)

        run_async(body())

    def test_recover_requires_a_meta_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="cluster meta"):
            Cluster.recover(tmp_path / "nope")

    def test_stop_then_recover_preserves_rejection_history(self, tmp_path):
        async def body():
            async with Cluster(
                services=1, dir=tmp_path, queue_size=64,
                batch_size=1000, max_latency=30.0,
            ) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                # Same turn, so the consumer has not pulled the first
                # block: the second finds 32 free slots.
                assert cluster.try_ingest_many("acme", list(range(32)))
                assert not cluster.try_ingest_many("acme", list(range(40)))
                assert cluster.registry.get("acme").rejected[
                    "backpressure"] == 40

            recovered = Cluster.recover(tmp_path)
            async with recovered:
                assert recovered.registry.get("acme").rejected[
                    "backpressure"] == 40

        run_async(body())

    def test_crashed_worker_propagates_on_stop(self, tmp_path):
        async def body():
            hits = {"n": 0}

            def hook(stage):
                if stage == "svc-0:apply.before":
                    hits["n"] += 1
                    if hits["n"] >= 2:
                        raise RuntimeError("injected")

            cluster = Cluster(
                services=1, dir=tmp_path, batch_size=16,
                max_latency=0.001, fault_hook=hook,
            )
            await cluster.start()
            await cluster.create_tenant("acme", tenant_spec(0))
            with pytest.raises(ServiceCrashed):
                for lo in range(0, 600, 50):
                    await cluster.ingest_many(
                        "acme", tenant_stream(0, 600)[lo:lo + 50]
                    )
                    await cluster.flush()
                await cluster.stop()
            # The directory remains recoverable after the crash.
            await cluster.abort()
            recovered = Cluster.recover(tmp_path)
            async with recovered:
                assert "acme" in recovered.tenants()

        run_async(body())
