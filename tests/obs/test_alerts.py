"""Alert-rule battery: expression validation, injectable-clock
windowing, ``for_duration`` hysteresis with flap suppression, and every
default rule driven to fire *and* resolve from synthetic
``ServiceMetrics`` snapshots.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    ALERT_METRICS,
    AlertEngine,
    AlertRule,
    ClusterWatcher,
    ServiceWatcher,
    default_rules,
)
from repro.serve import ServiceMetrics

pytestmark = [pytest.mark.obs, pytest.mark.timeout(120)]


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Rule construction
# ----------------------------------------------------------------------
class TestRuleValidation:
    def test_unknown_metric_rejected_with_valid_name_list(self):
        with pytest.raises(ValueError) as err:
            AlertRule("bad", "qeue_depth > 5")
        message = str(err.value)
        assert "unknown metric 'qeue_depth'" in message
        # The error must teach the valid vocabulary, not just reject.
        for name in ALERT_METRICS:
            assert name in message

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown operator"):
            AlertRule("bad", "queue_depth >> 5")

    def test_non_numeric_threshold_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            AlertRule("bad", "queue_depth > lots")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="metric op threshold"):
            AlertRule("bad", "queue_depth>5")

    def test_bad_severity_and_duration_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            AlertRule("bad", "queue_depth > 5", severity="panic")
        with pytest.raises(ValueError, match="for_duration"):
            AlertRule("bad", "queue_depth > 5", for_duration=-1)

    def test_missing_metric_reads_condition_false(self):
        rule = AlertRule("r", "workers_down > 0")
        assert rule.holds({"queue_depth": 9.0}) == (False, None)

    def test_duplicate_rule_name_rejected(self):
        engine = AlertEngine([AlertRule("dup", "queue_depth > 1")])
        with pytest.raises(ValueError, match="duplicate"):
            engine.add_rule(AlertRule("dup", "queue_depth > 2"))


# ----------------------------------------------------------------------
# Hysteresis state machine (injectable clock)
# ----------------------------------------------------------------------
class TestHysteresis:
    def engine(self, for_duration: float) -> tuple[AlertEngine, FakeClock]:
        clock = FakeClock()
        rule = AlertRule("lag", "queue_depth > 10",
                         for_duration=for_duration)
        return AlertEngine([rule], clock=clock), clock

    def test_zero_duration_fires_and_resolves_immediately(self):
        engine, _ = self.engine(0.0)
        events = engine.observe({"queue_depth": 11}, now=0.0)
        assert [e.kind for e in events] == ["firing"]
        assert engine.status() == {"lag": "firing"}
        events = engine.observe({"queue_depth": 3}, now=1.0)
        assert [e.kind for e in events] == ["resolved"]
        assert engine.status() == {"lag": "ok"}

    def test_for_duration_gates_firing(self):
        engine, _ = self.engine(1.0)
        assert engine.observe({"queue_depth": 99}, now=0.0) == []
        assert engine.status() == {"lag": "pending"}
        assert engine.observe({"queue_depth": 99}, now=0.5) == []
        events = engine.observe({"queue_depth": 99}, now=1.0)
        assert [e.kind for e in events] == ["firing"]
        assert engine.firing()["lag"]["value"] == 99.0

    def test_resolve_needs_symmetric_clear_window(self):
        engine, _ = self.engine(1.0)
        for t in (0.0, 1.0):
            engine.observe({"queue_depth": 99}, now=t)
        assert engine.status() == {"lag": "firing"}
        # Clear, but not for long enough — still firing.
        assert engine.observe({"queue_depth": 0}, now=1.5) == []
        # A blip back above threshold resets the clear window.
        assert engine.observe({"queue_depth": 99}, now=2.0) == []
        assert engine.observe({"queue_depth": 0}, now=2.4) == []
        assert engine.status() == {"lag": "firing"}
        events = engine.observe({"queue_depth": 0}, now=3.4)
        assert [e.kind for e in events] == ["resolved"]

    def test_flap_inside_pending_window_emits_nothing(self):
        engine, _ = self.engine(1.0)
        for t, depth in ((0.0, 99), (0.5, 0), (1.0, 99), (1.5, 0),
                         (2.0, 99), (2.5, 0)):
            assert engine.observe({"queue_depth": depth}, now=t) == []
        assert engine.transitions == {"firing": 0, "resolved": 0}
        assert engine.events == type(engine.events)(maxlen=256)

    def test_event_history_is_bounded(self):
        engine, _ = self.engine(0.0)
        engine.events = type(engine.events)(maxlen=4)
        for i in range(20):
            engine.observe({"queue_depth": 99 if i % 2 else 0}, now=float(i))
        assert len(engine.events) == 4
        assert engine.transitions["firing"] + engine.transitions["resolved"] > 4

    def test_evaluations_counted(self):
        engine, clock = self.engine(0.0)
        for _ in range(5):
            clock.now += 1.0
            engine.observe({})
        assert engine.evaluations == 5


# ----------------------------------------------------------------------
# Every default rule, fired and resolved from synthetic snapshots
# ----------------------------------------------------------------------
def _snapshot(**fields) -> ServiceMetrics:
    metrics = ServiceMetrics()
    for name, value in fields.items():
        setattr(metrics, name, value)
    return metrics


class TestDefaultRules:
    QUEUE_SIZE = 100

    def window(self, prev: ServiceMetrics, curr: ServiceMetrics, **extra):
        """The one-second window from ``prev`` to ``curr``, as a
        :class:`ServiceWatcher` samples it."""
        clock = FakeClock(0.0)
        service = type("S", (), {})()
        service.metrics, service.queue_size = prev, self.QUEUE_SIZE
        watcher = ServiceWatcher(service, clock=clock)
        watcher.sample()
        service.metrics, clock.now = curr, 1.0
        values = watcher.sample()
        values.setdefault("workers_down", 0.0)
        values.setdefault("circuits_open", 0.0)
        values.update(extra)
        return values

    def drive(self, rule_name: str, quiet: dict, noisy: dict):
        """Assert ``rule_name`` (and only it) fires on ``noisy`` and
        resolves back on ``quiet``."""
        engine = AlertEngine(default_rules(), clock=FakeClock())
        assert engine.observe(quiet, now=0.0) == []
        events = engine.observe(noisy, now=1.0)
        assert [(e.rule, e.kind) for e in events] == [(rule_name, "firing")]
        assert rule_name in engine.firing()
        events = engine.observe(quiet, now=2.0)
        assert [(e.rule, e.kind) for e in events] == [(rule_name, "resolved")]
        assert engine.firing() == {}

    def test_drop_rate(self):
        prev = _snapshot(events_dropped=100)
        curr = _snapshot(events_dropped=150)
        self.drive(
            "drop-rate",
            quiet=self.window(prev, prev),
            noisy=self.window(prev, curr),
        )

    def test_queue_occupancy(self):
        calm = _snapshot(queue_depth=5)
        swamped = _snapshot(queue_depth=95)  # 0.95 of QUEUE_SIZE
        self.drive(
            "queue-occupancy",
            quiet=self.window(calm, calm),
            noisy=self.window(calm, swamped),
        )

    def test_flush_p99_slo(self):
        prev = _snapshot()
        # 20 flushes in the 256ms pow2 bucket: windowed p99 = 0.256s,
        # past the default 0.1s SLO.
        slow = _snapshot(flush_latency_buckets={256: 20})
        self.drive(
            "flush-p99-slo",
            quiet=self.window(prev, prev),
            noisy=self.window(prev, slow),
        )

    def test_worker_down(self):
        base = _snapshot()
        self.drive(
            "worker-down",
            quiet=self.window(base, base),
            noisy=self.window(base, base, workers_down=1.0),
        )

    def test_circuit_open(self):
        base = _snapshot()
        self.drive(
            "circuit-open",
            quiet=self.window(base, base),
            noisy=self.window(base, base, circuits_open=2.0),
        )

    def test_outage_rules_have_no_hysteresis(self):
        # Even when the deployment asks for smoothing on the load rules,
        # an outage must fire within one evaluation.
        rules = {rule.name: rule for rule in default_rules(for_duration=5.0)}
        assert rules["worker-down"].for_duration == 0.0
        assert rules["circuit-open"].for_duration == 0.0
        assert rules["drop-rate"].for_duration == 5.0


# ----------------------------------------------------------------------
# Watchers
# ----------------------------------------------------------------------
class TestWatchers:
    def test_service_watcher_first_sample_is_gauges_only(self):
        clock = FakeClock(10.0)
        service = type("S", (), {})()
        service.metrics = _snapshot(queue_depth=7, events_enqueued=100)
        service.queue_size = 70
        watcher = ServiceWatcher(service, clock=clock)
        first = watcher.sample()
        assert first["queue_depth"] == 7.0
        assert first["queue_occupancy"] == pytest.approx(0.1)
        assert "ingest_rate" not in first  # no window yet

        clock.now = 12.0
        service.metrics = _snapshot(queue_depth=7, events_enqueued=300)
        second = watcher.sample()
        assert second["interval"] == pytest.approx(2.0)
        assert second["ingest_rate"] == pytest.approx(100.0)

    def test_service_watcher_non_advancing_clock_degrades_to_gauges(self):
        clock = FakeClock(5.0)
        service = type("S", (), {})()
        service.metrics = _snapshot(queue_depth=1)
        service.queue_size = 10
        watcher = ServiceWatcher(service, clock=clock)
        watcher.sample()
        stalled = watcher.sample()  # same timestamp: no rate window
        assert "ingest_rate" not in stalled
        assert stalled["queue_depth"] == 1.0

    def test_cluster_watcher_adds_cluster_gauges(self, tmp_path):
        import asyncio
        from repro.serve.cluster import Cluster

        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                clock = FakeClock(1.0)
                watcher = ClusterWatcher(
                    cluster, circuits=lambda: 3, clock=clock
                )
                first = watcher.sample()
                assert first["workers_down"] == 0.0
                assert first["circuits_open"] == 3.0
                cluster.mark_service_down("svc-0", "maintenance")
                clock.now = 2.0
                second = watcher.sample()
                assert second["workers_down"] == 1.0
                assert second["interval"] == pytest.approx(1.0)
        asyncio.run(body())

    def test_cluster_watcher_windows_survive_rehome_and_restart(
            self, tmp_path):
        import asyncio
        from repro.serve.cluster import Cluster

        async def body():
            async with Cluster(services=2, dir=tmp_path) as cluster:
                tenants = [f"t{i}" for i in range(8)]
                await cluster.create_tenants({
                    t: {"name": "bottom_k", "params": {"k": 16, "rng": i}}
                    for i, t in enumerate(tenants)
                })
                for tenant in tenants:
                    await cluster.ingest_many(tenant, range(5000))
                await cluster.flush()
                victim = cluster.registry.get("t0").service
                survivor = next(n for n in cluster.services if n != victim)

                def enqueued() -> int:
                    return cluster.service(survivor).metrics.events_enqueued

                clock = FakeClock(1.0)
                watcher = ClusterWatcher(cluster, clock=clock)
                watcher.sample()
                start = enqueued()
                for tenant in tenants:
                    await cluster.ingest_many(tenant, range(100))
                await cluster.flush()
                await cluster.rehome_service(victim)
                # The rehomed worker left the pool and adds nothing; the
                # survivor's feeds and install rows are all counted.
                clock.now = 2.0
                window = watcher.sample()
                assert window["ingest_rate"] == enqueued() - start > 0
                # A restarted worker is a new lifetime: its window starts
                # at the next sample.
                await cluster.ingest_many("t0", range(100))
                await cluster.flush()
                await cluster.restart_service(survivor)
                clock.now = 3.0
                window = watcher.sample()
                assert window["ingest_rate"] == 0.0
                assert window["restarts"] == 1.0
                await cluster.ingest_many("t0", range(50))
                await cluster.flush()
                clock.now = 4.0
                assert watcher.sample()["ingest_rate"] == 50.0
        asyncio.run(body())
