"""Supervision: health probes, failover, and degraded serving.

The chaos battery (``tests/chaos/``) drives the same machinery through
injected infrastructure faults end to end; this file pins the unit
semantics — probe verdicts, miss counting, the failover actions, outage
bookkeeping — with hand-built failures.
"""

from __future__ import annotations

import asyncio
import types

import pytest

from repro.serve import ServiceCrashed
from repro.serve.cluster import Cluster, Supervisor
from repro.serve.cluster.tenants import REJECT_REASONS
from repro.serve.cluster.health import (
    UNHEALTHY_VERDICTS,
    VERDICT_CRASHED,
    VERDICT_DEAD,
    VERDICT_HEALTHY,
    VERDICT_STALLED,
    HealthConfig,
    WorkerHealth,
    probe_service,
)
from tests.cluster.common import (
    control_signature,
    run_async,
    sig_of,
    tenant_spec,
    tenant_stream,
)

FAST = dict(interval=0.02, stall_timeout=0.2, max_missed=2)


def _probe(now=100.0, **attrs) -> str:
    """Probe a stub service with the given liveness attributes."""
    defaults = dict(
        crashed=False, consumer_alive=True, pending_events=0,
        last_heartbeat=now, events_applied=0,
    )
    defaults.update(attrs)
    service = types.SimpleNamespace(**defaults)
    health = WorkerHealth("svc-0")
    health.last_applied = attrs.get("_last_applied", -1)
    return probe_service(service, now, health, HealthConfig(**FAST))


async def _wait_for(predicate, deadline: float = 10.0):
    """Poll ``predicate`` until true (supervision is asynchronous)."""
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    while not predicate():
        if loop.time() > end:
            raise AssertionError("condition not reached before deadline")
        await asyncio.sleep(0.01)


class TestHealthProbes:
    def test_healthy_service_probes_healthy(self):
        assert _probe() == VERDICT_HEALTHY

    def test_crashed_consumer_is_crashed(self):
        assert _probe(crashed=True) == VERDICT_CRASHED

    def test_gone_task_is_dead(self):
        assert _probe(consumer_alive=False) == VERDICT_DEAD

    def test_stale_heartbeat_with_backlog_is_stalled(self):
        verdict = _probe(
            now=100.0, pending_events=5, last_heartbeat=99.0,
            events_applied=7, _last_applied=7,
        )
        assert verdict == VERDICT_STALLED

    def test_stale_heartbeat_without_backlog_is_idle_not_stalled(self):
        assert _probe(now=100.0, pending_events=0,
                      last_heartbeat=50.0) == VERDICT_HEALTHY

    def test_progress_resets_the_stall_clock(self):
        # Applied frontier moved since the last probe: not stalled even
        # with a stale heartbeat and a backlog.
        verdict = _probe(
            now=100.0, pending_events=5, last_heartbeat=99.0,
            events_applied=8, _last_applied=7,
        )
        assert verdict == VERDICT_HEALTHY

    def test_observe_trips_only_after_max_missed(self):
        health = WorkerHealth("svc-0")
        assert not health.observe(VERDICT_CRASHED, 0, max_missed=2)
        assert health.status == "suspect"
        assert health.observe(VERDICT_CRASHED, 0, max_missed=2)

    def test_healthy_probe_clears_the_miss_streak(self):
        health = WorkerHealth("svc-0")
        health.observe(VERDICT_STALLED, 0, max_missed=3)
        health.observe(VERDICT_HEALTHY, 1, max_missed=3)
        assert health.missed == 0 and health.status == "healthy"
        assert not health.observe(VERDICT_STALLED, 1, max_missed=3)

    def test_unhealthy_verdicts_enumerated(self):
        assert set(UNHEALTHY_VERDICTS) == {
            VERDICT_CRASHED, VERDICT_DEAD, VERDICT_STALLED,
        }


class TestSupervisorFailover:
    def test_dead_worker_restarts_bit_exactly(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                keys = tenant_stream(0, 400)
                await cluster.ingest_many("acme", keys)
                await cluster.flush()
                baseline = sig_of(await cluster.sample("acme"))
                async with Supervisor(cluster, **FAST) as sup:
                    holder = cluster.registry.get("acme").service
                    cluster._workers[holder]._task.cancel()
                    await _wait_for(lambda: any(
                        e.restored_at is not None for e in sup.events
                    ))
                    event = sup.events[0]
                    assert event.worker == holder
                    assert event.reason == VERDICT_DEAD
                    assert event.action == "restart"
                    assert event.restore_latency >= 0
                    assert not cluster.is_down(holder)
                    assert sig_of(await cluster.sample("acme")) == baseline
                    assert sig_of(await cluster.sample("acme")) == \
                        control_signature(0, keys)
                    metrics = cluster.metrics()
                    assert metrics.services[holder].restarts == 1

        run_async(body())

    def test_rehome_policy_evacuates_the_dead_worker(self, tmp_path):
        async def body():
            async with Cluster(services=3, dir=tmp_path) as cluster:
                streams = {}
                for i in range(6):
                    tenant = f"tenant-{i}"
                    await cluster.create_tenant(tenant, tenant_spec(i))
                    streams[tenant] = tenant_stream(i, 200)
                    await cluster.ingest_many(tenant, streams[tenant])
                await cluster.flush()
                async with Supervisor(cluster, policy="rehome",
                                      **FAST) as sup:
                    victim = cluster.registry.get("tenant-0").service
                    cluster._workers[victim]._task.cancel()
                    await _wait_for(lambda: any(
                        e.restored_at is not None for e in sup.events
                    ))
                    event = sup.events[-1]
                    assert event.action == "rehome"
                    assert victim not in cluster.services
                    for i in range(6):
                        tenant = f"tenant-{i}"
                        assert sig_of(await cluster.sample(tenant)) == \
                            control_signature(i, streams[tenant])
                    moved = set(event.moved)
                    assert moved and all(
                        cluster.registry.get(t).service != victim
                        for t in moved
                    )

        run_async(body())

    def test_policy_callable_picks_per_verdict(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 100))
                await cluster.flush()
                seen = []

                def policy(name, verdict):
                    seen.append((name, verdict))
                    return "restart"

                async with Supervisor(cluster, policy=policy,
                                      **FAST) as sup:
                    holder = cluster.registry.get("acme").service
                    cluster._workers[holder]._task.cancel()
                    await _wait_for(lambda: any(
                        e.restored_at is not None for e in sup.events
                    ))
                assert (holder, VERDICT_DEAD) in seen

        run_async(body())

    def test_failed_recovery_keeps_degraded_serving_and_retries(
            self, tmp_path, monkeypatch):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 300))
                await cluster.flush()
                baseline = await cluster.query("acme", "sum")
                real_restart = cluster.restart_service
                failures = {"left": 2}

                async def flaky_restart(name, *, reason="manual"):
                    if failures["left"] > 0:
                        failures["left"] -= 1
                        # The real contract: a failed restart leaves the
                        # worker marked down, serving degraded.
                        cluster.mark_service_down(name, reason)
                        await cluster._workers[name].abort()
                        raise RuntimeError("injected recovery failure")
                    await real_restart(name, reason=reason)

                monkeypatch.setattr(cluster, "restart_service",
                                    flaky_restart)
                async with Supervisor(cluster, **FAST) as sup:
                    holder = cluster.registry.get("acme").service
                    cluster._workers[holder]._task.cancel()
                    # While recovery keeps failing the worker stays down
                    # and reads degrade to the durable snapshot.
                    await _wait_for(lambda: cluster.is_down(holder))
                    result = await cluster.query("acme", "sum")
                    assert result.degraded
                    assert result.estimate == baseline.estimate
                    assert result.state_version == baseline.state_version
                    # The tick loop retries until recovery succeeds.
                    await _wait_for(lambda: any(
                        e.restored_at is not None for e in sup.events
                    ))
                    failed = [e for e in sup.events if e.error]
                    assert len(failed) == 2
                    assert not cluster.is_down(holder)
                    fresh = await cluster.query("acme", "sum")
                    assert not fresh.degraded

        run_async(body())

    def test_stop_mid_failover_completes_the_swap(
            self, tmp_path, monkeypatch):
        """``stop()`` during an in-flight failover awaits the swap to
        completion: the cancellation lands in the probe loop, never
        inside ``restart_service`` — a half-executed restart abandoned
        mid-swap would leave the worker down with no supervisor left to
        retry it."""
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                keys = tenant_stream(0, 300)
                await cluster.ingest_many("acme", keys)
                await cluster.flush()
                real_restart = cluster.restart_service
                entered = asyncio.Event()
                finished = {"done": False}

                async def slow_restart(name, *, reason="manual"):
                    entered.set()
                    await asyncio.sleep(0.2)
                    await real_restart(name, reason=reason)
                    finished["done"] = True

                monkeypatch.setattr(cluster, "restart_service",
                                    slow_restart)
                sup = await Supervisor(cluster, **FAST).start()
                holder = cluster.registry.get("acme").service
                cluster._workers[holder]._task.cancel()
                await entered.wait()
                await sup.stop()
                assert finished["done"]
                assert not cluster.is_down(holder)
                assert sup.events[-1].restored_at is not None
                assert sig_of(await cluster.sample("acme")) == \
                    control_signature(0, keys)

        run_async(body())

    def test_operator_declared_outage_is_honored(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 100))
                await cluster.flush()
                holder = cluster.registry.get("acme").service
                async with Supervisor(cluster, **FAST) as sup:
                    cluster.mark_service_down(holder, "maintenance")
                    await asyncio.sleep(0.15)
                    # No failover: the operator said down, so down it is.
                    assert sup.events == []
                    assert cluster.is_down(holder)
                    assert sup.status()[holder]["status"] == "down"
                    cluster.mark_service_up(holder)
                    await asyncio.sleep(0.1)
                    assert sup.events == []
                    assert sup.status()[holder]["status"] == "healthy"

        run_async(body())

    def test_on_failover_callback_and_events_log(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.flush()
                observed = []
                async with Supervisor(cluster, on_failover=observed.append,
                                      **FAST) as sup:
                    holder = cluster.registry.get("acme").service
                    cluster._workers[holder]._task.cancel()
                    await _wait_for(lambda: len(observed) > 0)
                    assert observed[0] is sup.events[0]

        run_async(body())

    def test_in_memory_restart_resets_tenants_best_effort(self):
        async def body():
            async with Cluster(services=2) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 200))
                await cluster.flush()
                async with Supervisor(cluster, **FAST) as sup:
                    holder = cluster.registry.get("acme").service
                    cluster._workers[holder]._task.cancel()
                    await _wait_for(lambda: any(
                        e.restored_at is not None for e in sup.events
                    ))
                    # Nothing durable: the tenant restarts empty with
                    # its counters zeroed (documented best effort).
                    record = cluster.registry.get("acme")
                    assert record.events_enqueued == 0
                    assert all(v == 0 for v in record.rejected.values())
                    sample = await cluster.sample("acme")
                    assert len(sample.keys) == 0
                    await cluster.ingest_many("acme", tenant_stream(0, 50))
                    await cluster.flush()

        run_async(body())

    @pytest.mark.parametrize("durable", [True, False],
                             ids=["disk", "in-memory"])
    def test_restart_resets_counters_of_a_recreated_tenant(
            self, tmp_path, durable):
        # The create row is still buffered (max_latency=5s) when the
        # worker dies, so the restart recreates the tenant from its
        # spec.  Its counters described a history that no longer
        # exists: both restart paths reset them.
        async def body():
            async with Cluster(services=2, max_latency=5.0,
                               dir=tmp_path if durable else None) as cluster:
                await cluster.create_tenant(
                    "acme", tenant_spec(0),
                    quota={"events_per_sec": 1, "burst": 1},
                )
                assert not cluster.try_ingest_many("acme", list(range(50)))
                record = cluster.registry.get("acme")
                assert record.rejected["rate"] == 50
                await cluster.service(record.service).abort()
                await cluster.restart_service(record.service)
                assert record.rejected == {why: 0 for why in REJECT_REASONS}
                assert record.events_enqueued == 0
                assert len((await cluster.sample("acme")).keys) == 0

        run_async(body())

    def test_supervised_ingest_sheds_instead_of_raising(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 100))
                await cluster.flush()
                holder = cluster.registry.get("acme").service
                async with Supervisor(cluster, interval=60.0) as sup:
                    # Interval is huge: the worker crashes and the
                    # supervisor has not noticed yet — the ingest path
                    # itself must contain the crash.
                    await cluster._workers[holder]._crash(
                        RuntimeError("boom")
                    )
                    admitted = await cluster.ingest_many(
                        "acme", tenant_stream(0, 10)
                    )
                    assert admitted is False
                    record = cluster.registry.get("acme")
                    assert record.rejected["unavailable"] == 10
                    assert cluster.is_down(holder)
                    assert not sup.events

        run_async(body())

    def test_unsupervised_crash_still_raises(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 50))
                await cluster.flush()
                holder = cluster.registry.get("acme").service
                await cluster._workers[holder]._crash(RuntimeError("boom"))
                with pytest.raises(ServiceCrashed):
                    await cluster.ingest_many("acme", tenant_stream(0, 10))
                # Quiet close: the crash already surfaced above.
                await cluster._workers[holder].abort()

        run_async(body())

    def test_start_stop_lifecycle(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                sup = Supervisor(cluster, **FAST)
                assert not sup.running
                await sup.start()
                assert sup.running and cluster._supervised == 1
                with pytest.raises(RuntimeError):
                    await sup.start()
                await sup.stop()
                assert not sup.running and cluster._supervised == 0
                await sup.stop()  # idempotent

        run_async(body())

    def test_config_and_kwargs_are_mutually_exclusive(self, tmp_path):
        async def body():
            async with Cluster(services=1, dir=tmp_path) as cluster:
                with pytest.raises(ValueError):
                    Supervisor(cluster, config=HealthConfig(),
                               interval=0.5)
                with pytest.raises(ValueError):
                    Supervisor(cluster, policy="reboot")

        run_async(body())


class TestDegradedServing:
    def test_degraded_reads_pin_the_durable_snapshot(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                keys = tenant_stream(0, 300)
                await cluster.ingest_many("acme", keys)
                await cluster.flush()
                baseline = await cluster.query("acme", "sum")
                holder = cluster.registry.get("acme").service
                cluster.mark_service_down(holder, "test")
                result = await cluster.query("acme", "sum")
                assert result.degraded
                assert result.estimate == baseline.estimate
                assert result.state_version == baseline.state_version
                sample = await cluster.sample("acme")
                assert sig_of(sample) == control_signature(0, keys)
                est = await cluster.estimate("acme", "total")
                assert est > 0
                outage = cluster.down_services()[holder]
                assert outage["degraded_reads"] == 3
                assert cluster.metrics().tenants["acme"]["unavailable"]
                cluster.mark_service_up(holder)
                fresh = await cluster.query("acme", "sum")
                assert not fresh.degraded

        run_async(body())

    def test_in_memory_down_worker_has_no_snapshot_to_serve(self):
        async def body():
            async with Cluster(services=2) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 100))
                await cluster.flush()
                holder = cluster.registry.get("acme").service
                cluster.mark_service_down(holder, "test")
                with pytest.raises(RuntimeError):
                    await cluster.query("acme", "sum")

        run_async(body())

    def test_degraded_results_survive_json_round_trip(self, tmp_path):
        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                await cluster.create_tenant("acme", tenant_spec(0))
                await cluster.ingest_many("acme", tenant_stream(0, 100))
                await cluster.flush()
                holder = cluster.registry.get("acme").service
                cluster.mark_service_down(holder, "test")
                result = await cluster.query("acme", "sum")
                payload = result.to_dict()
                assert payload["degraded"] is True

        run_async(body())


class TestLostDirectoryRecovery:
    def test_recover_rebuilds_a_worker_whose_directory_vanished(
            self, tmp_path):
        async def body():
            streams = {}
            async with Cluster(services=3, dir=tmp_path) as cluster:
                for i in range(6):
                    tenant = f"tenant-{i}"
                    await cluster.create_tenant(tenant, tenant_spec(i))
                    streams[tenant] = tenant_stream(i, 200)
                    await cluster.ingest_many(tenant, streams[tenant])
                await cluster.flush()
                placement = cluster.placement()
            victim = placement["tenant-0"]
            victims = [t for t, s in placement.items() if s == victim]
            survivors = [t for t in streams if t not in victims]
            import shutil
            shutil.rmtree(tmp_path / victim)

            cluster = Cluster.recover(tmp_path)
            async with cluster:
                # The lost worker is rebuilt empty under its old name;
                # its residents are recreated from placement + specs
                # with admission and rejection counters reset.
                assert victim in cluster.services
                for tenant in victims:
                    record = cluster.registry.get(tenant)
                    assert record.service == victim
                    assert record.events_enqueued == 0
                    assert all(
                        v == 0 for v in record.rejected.values()
                    )
                    sample = await cluster.sample(tenant)
                    assert len(sample.keys) == 0
                # Tenants on surviving workers are untouched.
                for tenant in survivors:
                    i = int(tenant.split("-")[1])
                    assert sig_of(await cluster.sample(tenant)) == \
                        control_signature(i, streams[tenant])
                # The rebuilt worker accepts fresh traffic.
                for tenant in victims:
                    i = int(tenant.split("-")[1])
                    await cluster.ingest_many(tenant, streams[tenant])
                await cluster.flush()
                for tenant in victims:
                    i = int(tenant.split("-")[1])
                    assert sig_of(await cluster.sample(tenant)) == \
                        control_signature(i, streams[tenant])

        run_async(body())
