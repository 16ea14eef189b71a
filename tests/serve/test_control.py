"""Adaptive control plane battery: signals, policies, retunes, recovery.

Covers the full loop the control plane closes:

- the new :class:`ServiceMetrics` gauges (flush latency / duration,
  quantiles, volatile reset) and their validation;
- :func:`derive_signals` — pure snapshot-diff → windowed signals — and
  the :class:`MetricsWindow` that feeds it per source;
- the five :class:`AdaptiveController` policy modes, exercised through
  the pure ``propose`` seam with fabricated signals;
- :meth:`StreamService.retune` — flush-boundary application, the
  dead-config ``batch_size`` clamp, WAL admin records, and bit-exact
  recovery through mid-run retunes (checkpoint-straddling included);
- the live controller loop against a real overloaded service;
- :class:`ClusterController` quota backoff/recovery and the cluster's
  retune facades.
"""

from __future__ import annotations

import asyncio
from unittest import mock

import numpy as np
import pytest

from repro import make_sampler
from repro.api.registry import SamplerSpec
from repro.obs import ServiceWatcher
from repro.serve import (
    AdaptiveController,
    Cluster,
    ClusterController,
    CONTROLLER_MODES,
    ControllerConfig,
    ControlSignals,
    MetricsWindow,
    ServiceCrashed,
    ServiceMetrics,
    StreamService,
    TenantQuota,
    derive_signals,
)
from repro.serve.metrics import FLUSH_REASONS
from tests.serve.common import run_async, signature, stream

KEYS, WEIGHTS = stream(600)

SPEC = SamplerSpec("weighted_distinct", {"k": 64, "salt": 3})


def _signals(**overrides) -> ControlSignals:
    base = dict(
        interval=0.25, ingest_rate=100.0, drop_rate=0.0,
        queue_occupancy=0.2, deadline_share=0.2, flush_latency_p99=0.01,
        avg_flush_duration=0.001, backlog=10,
    )
    base.update(overrides)
    return ControlSignals(**base)


def _primed(service, mode="balanced", **config_kw) -> AdaptiveController:
    """A controller with bounds resolved and baseline captured, but no
    background loop (drives ``propose`` directly)."""
    config = ControllerConfig(slo_p99=0.05, **config_kw)
    ctl = AdaptiveController(service, mode=mode, config=config)
    ctl.config = ctl.config.resolve(service)
    k = getattr(service.sampler, "k", None)
    ctl.baseline = {
        "batch_size": service.batch_size,
        "max_latency": service.max_latency,
        "k": int(k) if k is not None else None,
    }
    return ctl


def _service(**kw) -> StreamService:
    kw.setdefault("batch_size", 32)
    kw.setdefault("max_latency", 0.05)
    kw.setdefault("queue_size", 1024)
    return StreamService(SPEC, **kw)


# ----------------------------------------------------------------------
# Metrics: new gauges + the bugfix pins
# ----------------------------------------------------------------------
class TestFlushMetrics:
    def test_unknown_flush_reason_raises_value_error(self):
        # Bugfix pin: a typo'd reason used to explode as AttributeError
        # deep in the consumer loop (recorded as a service crash).
        metrics = ServiceMetrics()
        with pytest.raises(ValueError, match="unknown flush reason"):
            metrics.record_flush(5, "deadlien")
        with pytest.raises(ValueError, match="deadlien"):
            metrics.record_flush(5, "deadlien")
        for reason in FLUSH_REASONS:
            metrics.record_flush(1, reason)  # all real reasons accepted

    def test_latency_and_duration_recorded(self):
        metrics = ServiceMetrics()
        metrics.record_flush(10, "size", latency=0.004, duration=0.001)
        metrics.record_flush(10, "deadline", latency=0.060, duration=0.002)
        assert metrics.last_flush_latency == pytest.approx(0.060)
        assert metrics.flush_latency_sum == pytest.approx(0.064)
        assert metrics.last_flush_duration == pytest.approx(0.002)
        assert metrics.flush_duration_sum == pytest.approx(0.003)
        # pow2-ms buckets: 4ms -> 4, 60ms -> 64
        assert metrics.flush_latency_buckets == {4: 1, 64: 1}

    def test_quantile_is_conservative_upper_bound(self):
        metrics = ServiceMetrics()
        for _ in range(99):
            metrics.record_flush(1, "size", latency=0.001)
        metrics.record_flush(1, "size", latency=0.100)
        assert metrics.flush_latency_quantile(0.5) == pytest.approx(0.001)
        assert metrics.flush_latency_quantile(1.0) == pytest.approx(0.128)
        # q=0 reports the smallest bucket's (conservative) upper bound
        assert metrics.flush_latency_quantile(0.0) == pytest.approx(0.001)

    def test_quantile_validates_and_handles_empty(self):
        metrics = ServiceMetrics()
        assert metrics.flush_latency_quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            metrics.flush_latency_quantile(1.5)
        with pytest.raises(ValueError):
            metrics.flush_latency_quantile(-0.1)

    def test_reset_volatile_zeroes_gauges_only(self):
        metrics = ServiceMetrics()
        metrics.record_flush(10, "size", latency=0.05, duration=0.01)
        metrics.record_depth(42)
        metrics.reset_volatile()
        assert metrics.queue_depth == 0
        assert metrics.last_flush_latency == 0.0
        assert metrics.last_flush_duration == 0.0
        # durable counters untouched
        assert metrics.batches_applied == 1
        assert metrics.flush_latency_sum == pytest.approx(0.05)
        assert metrics.flush_latency_buckets
        assert metrics.queue_high_watermark == 42

    def test_roundtrip_and_merge_cover_new_fields(self):
        a = ServiceMetrics()
        a.record_flush(10, "size", latency=0.004, duration=0.001)
        a.record_retune()
        b = ServiceMetrics.from_dict(a.to_dict())
        assert b.flush_latency_buckets == a.flush_latency_buckets
        assert b.last_flush_latency == a.last_flush_latency
        assert b.flush_duration_sum == a.flush_duration_sum
        assert b.retunes_applied == 1
        b.merge(a)
        assert b.retunes_applied == 2
        assert b.flush_latency_buckets == {4: 2}
        assert b.flush_latency_sum == pytest.approx(0.008)


# ----------------------------------------------------------------------
# Signal derivation
# ----------------------------------------------------------------------
class TestDeriveSignals:
    def test_rates_and_shares_from_snapshot_diff(self):
        prev = ServiceMetrics()
        prev.events_enqueued = 100
        prev.record_flush(50, "size", latency=0.001)
        curr = ServiceMetrics.from_dict(prev.to_dict())
        curr.events_enqueued = 300
        curr.events_dropped = 50
        curr.record_flush(100, "deadline", latency=0.030)
        curr.record_flush(50, "size", latency=0.001)
        curr.record_flush(50, "deadline", latency=0.900)
        curr.record_depth(128)
        signals = derive_signals(prev, curr, 2.0, 512)
        assert signals.ingest_rate == pytest.approx(100.0)
        assert signals.drop_rate == pytest.approx(25.0)
        assert signals.queue_occupancy == pytest.approx(0.25)
        assert signals.deadline_share == pytest.approx(2 / 3)
        assert signals.backlog == 128
        # windowed p99: the 900ms outlier dominates the window's tail
        assert signals.flush_latency_p99 == pytest.approx(1.024)

    def test_windowed_quantile_ignores_history(self):
        # Lifetime histogram may be dominated by old slow flushes; the
        # windowed p99 must reflect only this window's samples.
        prev = ServiceMetrics()
        for _ in range(1000):
            prev.record_flush(1, "size", latency=0.500)
        curr = ServiceMetrics.from_dict(prev.to_dict())
        for _ in range(10):
            curr.record_flush(1, "size", latency=0.001)
        signals = derive_signals(prev, curr, 1.0, 100)
        assert signals.flush_latency_p99 == pytest.approx(0.001)

    def test_idle_window_is_all_zero(self):
        prev = ServiceMetrics()
        curr = ServiceMetrics.from_dict(prev.to_dict())
        signals = derive_signals(prev, curr, 1.0, 100)
        assert signals.ingest_rate == 0.0
        assert signals.deadline_share == 0.0
        assert signals.flush_latency_p99 == 0.0
        assert signals.avg_flush_duration == 0.0

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            derive_signals(ServiceMetrics(), ServiceMetrics(), 0.0, 100)


# ----------------------------------------------------------------------
# Policy modes (pure propose seam)
# ----------------------------------------------------------------------
class TestMetricsWindow:
    def test_primes_then_keeps_its_snapshot_through_a_zero_length_window(
            self):
        window, live = MetricsWindow(), ServiceMetrics()
        assert window.observe({"svc": live}, 1.0, 100) is None
        live.events_enqueued = 50  # the window holds a copy, not `live`
        assert window.observe({"svc": live}, 1.0, 100) is None
        signals = window.observe({"svc": live}, 2.0, 100)
        assert signals.interval == 1.0
        assert signals.ingest_rate == 50.0

    def test_new_gone_and_restarted_sources_add_nothing(self):
        window = MetricsWindow()
        a = ServiceMetrics(events_enqueued=100)
        b = ServiceMetrics(events_enqueued=1000, events_dropped=9)
        window.observe({"a": a, "b": b}, 0.0, 10)
        a.events_enqueued = 150
        b_again = ServiceMetrics(events_enqueued=400)  # counters went back
        c = ServiceMetrics(events_enqueued=7, queue_depth=3)  # new
        signals = window.observe({"a": a, "b": b_again, "c": c}, 1.0, 10)
        assert signals.ingest_rate == 50.0
        assert signals.drop_rate == 0.0
        assert signals.backlog == 3  # gauges read every current source
        b_again.events_enqueued, b_again.restarts = 500, 1
        signals = window.observe({"a": a, "b": b_again}, 2.0, 10)  # c gone
        assert signals.ingest_rate == 0.0
        assert signals.backlog == 0

    def test_zero_length_window_is_gauges_only_for_controller_and_watcher(
            self):
        async def body():
            service = _service()
            await service.start()
            ctl = _primed(service)
            watcher = ServiceWatcher(service, clock=lambda: 5.0)
            loop = asyncio.get_running_loop()
            with mock.patch.object(loop, "time", return_value=5.0):
                assert await ctl.step() is None  # priming tick
                assert await ctl.step() is None  # no time has passed
            watcher.sample()
            stalled = watcher.sample()
            assert not ctl.history
            assert "interval" not in stalled
            assert "ingest_rate" not in stalled
            assert stalled["queue_depth"] == 0.0
            await service.stop()
        run_async(body())


class TestPolicies:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown controller mode"):
            AdaptiveController(_service(), mode="yolo")
        assert len(CONTROLLER_MODES) == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(interval=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(grow_factor=1.0)
        with pytest.raises(ValueError):
            ControllerConfig(shrink_factor=1.0)
        with pytest.raises(ValueError):
            ControllerConfig(low_occupancy=0.9, high_occupancy=0.5)

    def test_balanced_grows_under_overload(self):
        ctl = _primed(_service())
        changes = ctl.propose(_signals(queue_occupancy=0.9))
        assert changes["batch_size"] == 64
        assert changes["max_latency"] == pytest.approx(0.1)
        assert changes["k"] == 32

    def test_balanced_overload_triggers(self):
        ctl = _primed(_service())
        for signals in (
            _signals(flush_latency_p99=0.2),  # SLO breach
            _signals(drop_rate=5.0),          # losing events
        ):
            assert ctl.propose(signals), signals

    def test_balanced_holds_in_neutral_zone(self):
        ctl = _primed(_service())
        assert ctl.propose(_signals(queue_occupancy=0.3)) == {}

    def test_balanced_relaxes_toward_baseline_when_calm(self):
        svc = _service()
        ctl = _primed(svc)
        # perturb away from baseline, as an overload would have
        svc.batch_size, svc.max_latency = 128, 0.2
        changes = ctl.propose(_signals(queue_occupancy=0.0, backlog=0,
                                       flush_latency_p99=0.0))
        assert changes["batch_size"] == 80   # halfway back to 32
        assert changes["max_latency"] == pytest.approx(0.125)
        assert "k" not in changes            # k already at baseline

    def test_high_load_jumps_to_extremes(self):
        svc = _service()
        ctl = _primed(svc, mode="high_load")
        changes = ctl.propose(_signals(queue_occupancy=0.9))
        assert changes["batch_size"] == svc.queue_size
        assert changes["k"] == ctl.config.min_k

    def test_error_triggered_raises_k_on_drops(self):
        ctl = _primed(_service(), mode="error_triggered")
        changes = ctl.propose(_signals(drop_rate=10.0))
        assert changes["k"] == ctl.config.max_k  # keep detail when lossy
        assert changes["batch_size"] == ctl.config.max_batch_size
        # overload *without* drops is not this mode's trigger
        assert ctl.propose(_signals(queue_occupancy=0.95)) == {}

    def test_surge_reacts_to_p99_only(self):
        svc = _service()
        ctl = _primed(svc, mode="surge")
        changes = ctl.propose(_signals(flush_latency_p99=0.2))
        assert changes["batch_size"] == 64
        assert changes["k"] == ctl.config.min_k
        assert ctl.propose(_signals(queue_occupancy=0.95)) == {}

    def test_low_noise_waits_for_calm_streak(self):
        svc = _service()
        ctl = _primed(svc, mode="low_noise")
        calm = _signals(queue_occupancy=0.0, flush_latency_p99=0.0)
        for _ in range(ctl.config.calm_windows - 1):
            assert ctl.propose(calm) == {}
        changes = ctl.propose(calm)  # streak reached: drift cheaper
        assert changes["batch_size"] == 64
        assert changes["k"] == 32

    def test_low_noise_snaps_back_on_disturbance(self):
        svc = _service()
        ctl = _primed(svc, mode="low_noise")
        svc.batch_size = 256  # drifted
        changes = ctl.propose(_signals(queue_occupancy=0.9))
        assert changes["batch_size"] == ctl.baseline["batch_size"]
        assert ctl._calm_streak == 0

    def test_proposals_respect_bounds(self):
        svc = _service(batch_size=900, queue_size=1024)
        ctl = _primed(svc)
        changes = ctl.propose(_signals(queue_occupancy=0.9))
        assert changes["batch_size"] <= svc.queue_size
        # shrink k repeatedly: never below min_k
        for _ in range(10):
            changes = ctl.propose(_signals(queue_occupancy=0.9))
            if "k" in changes:
                svc.sampler.resize(changes["k"])
        assert getattr(svc.sampler, "k") >= ctl.config.min_k


# ----------------------------------------------------------------------
# StreamService.retune mechanics
# ----------------------------------------------------------------------
class TestRetune:
    def test_batch_size_clamped_at_construction(self):
        # Bugfix pin: batch_size > queue_size used to be accepted as dead
        # config (size-triggered flushes could never fire).
        service = StreamService(SPEC, batch_size=4096, queue_size=256)
        assert service.batch_size == 256

    def test_retune_applies_all_knobs(self):
        async def body():
            service = _service()
            await service.start()
            try:
                changes = await service.retune(
                    batch_size=64, max_latency=0.2, k=32
                )
                assert changes == {
                    "batch_size": 64, "max_latency": 0.2, "k": 32
                }
                assert service.batch_size == 64
                assert service._batcher.batch_size == 64
                assert service.max_latency == 0.2
                assert service.sampler.k == 32
                assert service.metrics.retunes_applied == 1
            finally:
                await service.stop()
        run_async(body())

    def test_retune_clamps_batch_size_to_queue_size(self):
        # Bugfix pin: the same dead-config guard applies online.
        async def body():
            service = _service(queue_size=128)
            await service.start()
            try:
                changes = await service.retune(batch_size=4096)
                assert changes == {"batch_size": 128}
                assert service.batch_size == 128
            finally:
                await service.stop()
        run_async(body())

    def test_retune_k_requires_resizable(self):
        async def body():
            service = StreamService(
                SamplerSpec("varopt", {"k": 16, "rng": 1})
            )
            await service.start()
            try:
                with pytest.raises(ValueError, match="resiz"):
                    await service.retune(k=8)
            finally:
                await service.stop()
        run_async(body())

    def test_retune_validates_and_noops(self):
        async def body():
            service = _service()
            await service.start()
            try:
                assert await service.retune() == {}
                with pytest.raises(ValueError):
                    await service.retune(batch_size=0)
                with pytest.raises(ValueError):
                    await service.retune(max_latency=0.0)
                assert service.metrics.retunes_applied == 0
            finally:
                await service.stop()
        run_async(body())

    def test_retune_requires_running_service(self):
        async def body():
            service = _service()
            with pytest.raises(RuntimeError):
                await service.retune(batch_size=16)
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError):
                await service.retune(batch_size=16)
        run_async(body())

    def test_retune_is_wal_logged(self, tmp_path):
        async def body():
            service = StreamService(SPEC, dir=tmp_path, batch_size=32)
            await service.start()
            await service.ingest_many(KEYS[:100], weights=WEIGHTS[:100])
            await service.flush()
            before = service.metrics.wal_records
            await service.retune(batch_size=64, k=32)
            assert service.metrics.wal_records == before + 1
            await service.stop()
        run_async(body())

    def test_retune_applies_under_sustained_backlog(self, tmp_path):
        # Bugfix pin: the consumer's pull loop used to drain the queue to
        # empty before checking for pending retunes.  Under sustained
        # overload the queue never empties, so retunes starved exactly
        # when the control plane needed them.  The self-feeding hook
        # below keeps the queue non-empty across (up to) 50 flushes: the
        # retune must land at the first flush boundary after it is
        # queued, not after the feeding stops.
        state = {"flushes": 0, "svc": None}

        def hook(stage):
            # Feed only while the retune has not landed (batch still 8):
            # stops the backlog once the fix kicks in, and never ingests
            # into a stopping service during the final drain.
            if stage == "flush.before" and state["svc"].batch_size == 8:
                state["flushes"] += 1
                if state["flushes"] < 50:
                    state["svc"].try_ingest_many(KEYS[:8], weights=WEIGHTS[:8])

        async def body():
            service = StreamService(
                SPEC, dir=tmp_path, batch_size=8, fault_hook=hook
            )
            state["svc"] = service
            await service.start()
            pending = asyncio.ensure_future(service.retune(batch_size=512))
            await asyncio.sleep(0)  # let the retune enqueue itself
            service.try_ingest_many(KEYS[:8], weights=WEIGHTS[:8])
            await asyncio.wait_for(pending, 10)
            assert state["flushes"] < 50
            assert service.batch_size == 512
            await service.stop()
        run_async(body())

    def test_crash_fails_pending_retune(self, tmp_path):
        armed = {"on": False}

        def hook(stage):
            if armed["on"] and stage == "wal.append.before":
                raise OSError("injected")

        async def body():
            service = StreamService(
                SPEC, dir=tmp_path, batch_size=8, fault_hook=hook
            )
            await service.start()
            await service.ingest_many(KEYS[:8], weights=WEIGHTS[:8])
            await service.flush()
            armed["on"] = True  # the next WAL append is the admin record
            with pytest.raises(ServiceCrashed):
                await service.retune(batch_size=64)
            await service.abort()
        run_async(body())


# ----------------------------------------------------------------------
# Recovery through retunes (bit-exactness)
# ----------------------------------------------------------------------
class TestRetuneRecovery:
    def _run_with_retunes(self, tmp_path, checkpoint_every):
        async def body():
            service = StreamService(
                SPEC, dir=tmp_path, batch_size=16, max_latency=5.0,
                queue_size=2048, checkpoint_every_events=checkpoint_every,
            )
            await service.start()
            await service.ingest_many(KEYS[:200], weights=WEIGHTS[:200])
            await service.flush()
            await service.retune(batch_size=64, max_latency=0.5, k=32)
            await service.ingest_many(
                KEYS[200:400], weights=WEIGHTS[200:400]
            )
            await service.flush()
            await service.retune(k=128)
            await service.ingest_many(KEYS[400:], weights=WEIGHTS[400:])
            await service.stop()
            return signature(service.sampler)
        return run_async(body())

    @pytest.mark.parametrize(
        "checkpoint_every", [10_000, 64],
        ids=["no-checkpoint", "checkpoint-straddling"],
    )
    def test_recovery_is_bit_exact_through_retunes(
        self, tmp_path, checkpoint_every
    ):
        live = self._run_with_retunes(tmp_path, checkpoint_every)
        recovered = StreamService.recover(tmp_path)
        assert signature(recovered.sampler) == live
        # retuned config survives (WAL admin replay / checkpoint config)
        assert recovered.batch_size == 64
        assert recovered.max_latency == 0.5
        assert recovered.sampler.k == 128

    def test_recovered_service_resumes_bit_exact(self, tmp_path):
        self._run_with_retunes(tmp_path, 64)

        async def resume(service):
            await service.start()
            extra = np.arange(5000, 5200)
            await service.ingest_many(extra, weights=np.ones(extra.size))
            await service.stop()
            return signature(service.sampler)

        a = run_async(resume(StreamService.recover(tmp_path)))
        b = run_async(resume(StreamService.recover(tmp_path)))
        assert a == b

    def test_recovery_resets_phantom_queue_depth(self, tmp_path):
        # Bugfix pin: the checkpointed metrics snapshot can carry a
        # non-zero queue_depth / last-flush gauge, but a recovered
        # service starts with an empty buffer — a controller reading the
        # stale gauges would see phantom backlog and mis-retune.
        async def body():
            service = StreamService(
                SPEC, dir=tmp_path, batch_size=8,
                checkpoint_every_events=8,
            )
            await service.start()
            await service.ingest_many(KEYS[:64], weights=WEIGHTS[:64])
            await service.flush()
            # poison the volatile gauges, then force one more checkpoint
            service.metrics.record_depth(77)
            service.metrics.last_flush_latency = 9.9
            service.metrics.last_flush_duration = 9.9
            await service.ingest_many(KEYS[64:128], weights=WEIGHTS[64:128])
            await service.stop()
        run_async(body())
        recovered = StreamService.recover(tmp_path)
        assert recovered.metrics.queue_depth == 0
        assert recovered.metrics.last_flush_latency == 0.0
        assert recovered.metrics.last_flush_duration == 0.0
        # durable counters still restored
        assert recovered.metrics.events_applied == 128

    @pytest.mark.parametrize(
        "checkpoint_every", [10_000, 64],
        ids=["replayed-from-wal", "carried-by-checkpoint"],
    )
    def test_recover_overrides_win_over_replayed_retunes(
        self, tmp_path, checkpoint_every
    ):
        # The logged retunes moved batch_size to 64 and max_latency to
        # 0.5; explicit keyword overrides still have the last word, and
        # the replayed k (a sampler change, not config) stays replayed.
        live = self._run_with_retunes(tmp_path, checkpoint_every)
        recovered = StreamService.recover(
            tmp_path, batch_size=16, max_latency=2.0
        )
        assert recovered.batch_size == 16
        assert recovered.max_latency == 2.0
        assert recovered.sampler.k == 128
        assert signature(recovered.sampler) == live

    @pytest.mark.parametrize(
        "checkpoint_every", [10_000, 64],
        ids=["replayed-from-wal", "carried-by-checkpoint"],
    )
    def test_retunes_applied_counter_survives_recovery(
        self, tmp_path, checkpoint_every
    ):
        # Both persistence routes must agree: retunes the checkpoint
        # snapshot predates are counted during WAL replay, retunes the
        # snapshot covers ride in its metrics dict.
        self._run_with_retunes(tmp_path, checkpoint_every)
        recovered = StreamService.recover(tmp_path)
        assert recovered.metrics.retunes_applied == 2


# ----------------------------------------------------------------------
# Live controller loop
# ----------------------------------------------------------------------
class TestControllerLoop:
    def test_controller_retunes_overloaded_service(self):
        # Every flush pays a fixed 4ms commit cost through the documented
        # "flush.before" stall seam (as benchmarks/bench_adaptive.py
        # does), so the windowed p99 breaks the 2ms SLO on any host.
        def flush_cost(stage):
            return asyncio.sleep(0.004) if stage == "flush.before" else None

        async def body():
            service = _service(batch_size=4, max_latency=0.01,
                               queue_size=256, fault_hook=flush_cost)
            await service.start()
            ctl = AdaptiveController(
                service, mode="balanced",
                config=ControllerConfig(interval=0.02, slo_p99=0.002),
            )
            async with ctl:
                assert ctl.running
                for i in range(30):
                    await service.ingest_many(
                        [f"load-{i}-{j}" for j in range(300)]
                    )
                    await asyncio.sleep(0.005)
                await service.flush()
            assert service.metrics.retunes_applied > 0
            assert service.batch_size > 4  # grew under pressure
            assert len(ctl.history) > 0
            rows = ctl.trajectory()
            assert {"signals", "applied"} <= set(rows[0])
            await service.stop()
        run_async(body())

    def test_step_seam_primes_then_observes(self):
        async def body():
            service = _service()
            await service.start()
            ctl = _primed(service)
            assert await ctl.step() is None      # priming tick
            await service.ingest_many(KEYS[:50], weights=WEIGHTS[:50])
            await service.flush()
            signals = await ctl.step()
            assert signals is not None
            assert signals.ingest_rate > 0
            await service.stop()
        run_async(body())

    def test_loop_stops_when_service_stops(self):
        async def body():
            service = _service()
            await service.start()
            ctl = AdaptiveController(
                service, config=ControllerConfig(interval=0.01)
            )
            await ctl.start()
            with pytest.raises(RuntimeError):
                await ctl.start()  # double start rejected
            await asyncio.sleep(0.05)
            await service.stop()
            await asyncio.sleep(0.05)
            assert not ctl.running
            await ctl.stop()  # idempotent
        run_async(body())

    def test_controller_resizes_sharded_sampler(self):
        async def body():
            service = StreamService(
                SamplerSpec("sharded", {
                    "spec": {"name": "weighted_distinct",
                             "params": {"k": 64, "salt": 3}},
                    "n_shards": 2,
                }),
                batch_size=32,
            )
            await service.start()
            changes = await service.retune(k=16)
            assert changes == {"k": 16}
            assert service.sampler.spec.params["k"] == 16
            assert all(s.k == 16 for s in service.sampler.shards)
            await service.stop()
        run_async(body())


# ----------------------------------------------------------------------
# Cluster control
# ----------------------------------------------------------------------
class TestClusterControl:
    def test_retune_service_facade(self):
        async def body():
            async with Cluster(services=2, batch_size=8) as cluster:
                name = cluster.services[0]
                changes = await cluster.retune_service(name, batch_size=64)
                assert changes == {"batch_size": 64}
                assert cluster.service(name).batch_size == 64
                cluster.mark_service_down(name)
                with pytest.raises(RuntimeError, match="down"):
                    await cluster.retune_service(name, batch_size=16)
        run_async(body())

    def test_retune_quota_swaps_bucket_and_persists(self, tmp_path):
        async def body():
            async with Cluster(dir=tmp_path, services=2) as cluster:
                await cluster.create_tenant(
                    "t1", SPEC.as_dict(),
                    quota=TenantQuota(events_per_sec=100.0),
                )
                old_bucket = cluster.registry.bucket("t1")
                quota = cluster.retune_quota(
                    "t1", TenantQuota(events_per_sec=10.0, burst=5.0)
                )
                assert quota.events_per_sec == 10.0
                assert cluster.registry.bucket("t1") is not old_bucket
                # lifting limits entirely
                cluster.retune_quota("t1", None)
                assert cluster.registry.bucket("t1") is None
        run_async(body())
        # the retuned quota reached the meta file
        recovered = Cluster.recover(tmp_path)
        assert recovered.registry.get("t1").quota == TenantQuota()

    def test_quota_backoff_and_recovery(self):
        async def body():
            async with Cluster(services=2, batch_size=8) as cluster:
                await cluster.create_tenant(
                    "hot", SPEC.as_dict(),
                    quota=TenantQuota(events_per_sec=400.0, burst=50.0),
                )
                await cluster.create_tenant("free", SPEC.as_dict())
                ctl = ClusterController(
                    cluster, config=ControllerConfig(interval=0.02),
                    quota_backoff=0.5, quota_recovery=2.0,
                )
                await ctl.start()
                try:
                    worker = cluster.registry.get("hot").service
                    cluster.service(worker).metrics.record_drop(
                        5, label="hot"
                    )
                    actions = ctl.quota_step()
                    assert actions == [("hot", 400.0, 200.0)]
                    # drop-free windows: restore toward declared rate
                    assert ctl.quota_step() == [("hot", 200.0, 400.0)]
                    # at declared rate: hold
                    assert ctl.quota_step() == []
                    # unlimited tenants are never throttled
                    assert all(t == "hot" for t, _, _ in ctl.quota_history)
                    traj = ctl.trajectory()
                    assert len(traj["quotas"]) == 2
                    assert set(traj["workers"]) == set(cluster.services)
                finally:
                    await ctl.stop()
                assert not ctl.controllers
        run_async(body())

    def test_backoff_has_a_floor(self):
        async def body():
            async with Cluster(services=1, batch_size=8) as cluster:
                await cluster.create_tenant(
                    "t", SPEC.as_dict(),
                    quota=TenantQuota(events_per_sec=2.0),
                )
                ctl = ClusterController(
                    cluster, min_events_per_sec=1.0, quota_backoff=0.25
                )
                worker = cluster.registry.get("t").service
                for _ in range(5):
                    cluster.service(worker).metrics.record_drop(
                        1, label="t"
                    )
                    ctl.quota_step()
                assert (
                    cluster.registry.get("t").quota.events_per_sec == 1.0
                )
        run_async(body())

    def test_cluster_controller_validation(self):
        cluster = Cluster(services=1)
        with pytest.raises(ValueError):
            ClusterController(cluster, quota_backoff=1.5)
        with pytest.raises(ValueError):
            ClusterController(cluster, quota_recovery=0.5)
        with pytest.raises(ValueError):
            ClusterController(cluster, min_events_per_sec=0.0)
