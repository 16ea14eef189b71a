"""Load-adaptive control plane for the serving runtime.

A :class:`StreamService` exposes three tuning knobs — ``batch_size``,
``max_latency``, and (for resizable samplers) the sample budget ``k`` —
and a :class:`~repro.serve.metrics.ServiceMetrics` instance that says how
the current settings are doing.  This module closes the loop: an
:class:`AdaptiveController` runs on the service's own event loop,
periodically diffs metric snapshots (one :class:`MetricsWindow`, which
the alert watchers share) into windowed :class:`ControlSignals` (ingest
rate, queue occupancy, drop rate, deadline-flush share, windowed p99
flush latency), feeds them through one of five policy *modes*, and
actuates the resulting deltas via :meth:`StreamService.retune` — which
applies them at a flush boundary and WAL-logs them, so recovery replays
the exact same tuning trajectory and stays bit-exact.

The modes mirror the adaptive-sampling policies of production tracing
samplers (head-based samplers that retarget their rate from live QPS and
error signals), specialized to this runtime's knobs:

``balanced``
    Gradual multiplicative moves in both directions; the default.
``high_load``
    Bang-bang: on overload jump straight to the largest batches and the
    smallest sample budget, and step back only when calm.
``error_triggered``
    Drops are the only trigger; on drops, *raise* ``k`` to the ceiling
    (keep maximum detail about the stream while events are being lost)
    and open the batch knobs wide to drain the backlog.
``surge``
    Latency-SLO guard: reacts to windowed p99 alone, doubling batches
    and shedding ``k`` until the SLO holds again.
``low_noise``
    Hysteresis: never reacts to a single window; only after
    ``calm_windows`` consecutive calm windows does it drift toward
    cheaper settings, and any disturbance snaps it back to baseline.

Every policy is *unbiasedness-preserving by construction*: ``k`` moves
only through :meth:`StreamSampler.resize`, whose shrink-with-fold /
grow-with-cap semantics keep Horvitz–Thompson estimates unbiased across
the resize (see ``docs/architecture.md``, "Adaptive control").
"""

from __future__ import annotations

import asyncio
import math

from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

from .metrics import ServiceMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .service import StreamService

__all__ = [
    "ControlSignals",
    "ControllerConfig",
    "AdaptiveController",
    "CONTROLLER_MODES",
    "MetricsWindow",
    "derive_signals",
]

#: The five supported policy modes, in documentation order.
CONTROLLER_MODES = (
    "balanced",
    "high_load",
    "error_triggered",
    "surge",
    "low_noise",
)


@dataclass(frozen=True)
class ControlSignals:
    """One observation window, derived from two metric snapshots.

    All rates are per second over the window; shares and occupancy are
    in ``[0, 1]``.  ``flush_latency_p99`` is the windowed p99 queueing
    delay (how long the oldest event of each flushed batch waited), the
    quantity an ingestion SLO is written against.
    """

    interval: float
    ingest_rate: float
    drop_rate: float
    queue_occupancy: float
    deadline_share: float
    flush_latency_p99: float
    avg_flush_duration: float
    backlog: int

    def to_dict(self) -> dict:
        """JSON-friendly rendering for trajectories and dashboards."""
        return asdict(self)


def derive_signals(
    prev: ServiceMetrics,
    curr: ServiceMetrics,
    interval: float,
    queue_size: int,
) -> ControlSignals:
    """Diff two metric snapshots into windowed control signals.

    Pure: takes the *before* and *after* snapshots of one observation
    window plus the actual elapsed ``interval`` and the service's
    ``queue_size`` bound, and returns the window's rates and shares.
    Counters are monotone so every delta is non-negative; gauges
    (``queue_depth``) are read from ``curr`` directly.
    """
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    enqueued = curr.events_enqueued - prev.events_enqueued
    dropped = curr.events_dropped - prev.events_dropped
    flushes = (
        (curr.flushes_size + curr.flushes_deadline + curr.flushes_drain)
        - (prev.flushes_size + prev.flushes_deadline + prev.flushes_drain)
    )
    deadline = curr.flushes_deadline - prev.flushes_deadline
    duration = curr.flush_duration_sum - prev.flush_duration_sum
    delta_buckets = {
        bucket: count - prev.flush_latency_buckets.get(bucket, 0)
        for bucket, count in curr.flush_latency_buckets.items()
        if count - prev.flush_latency_buckets.get(bucket, 0) > 0
    }
    return ControlSignals(
        interval=float(interval),
        ingest_rate=enqueued / interval,
        drop_rate=dropped / interval,
        queue_occupancy=(
            curr.queue_depth / queue_size if queue_size > 0 else 0.0
        ),
        deadline_share=deadline / flushes if flushes > 0 else 0.0,
        flush_latency_p99=ServiceMetrics(
            flush_latency_buckets=delta_buckets
        ).flush_latency_quantile(0.99),
        avg_flush_duration=duration / flushes if flushes > 0 else 0.0,
        backlog=int(curr.queue_depth),
    )


#: The counters a window differences.  One going backwards means its
#: source restarted (or was replaced) since the previous snapshot.
_WINDOW_COUNTERS = (
    "events_enqueued", "events_dropped", "flushes_size",
    "flushes_deadline", "flushes_drain", "flush_duration_sum",
)


class MetricsWindow:
    """The one "before" snapshot behind every windowed metrics reader.

    :meth:`observe` diffs each source's live ``ServiceMetrics`` against
    that source's own snapshot from the previous call, so the adaptive
    controller (one service) and the alert watchers (one service, or one
    source per cluster worker) derive their windows the same way.  A
    source that is new, gone, or restarted since that call (its
    ``restarts`` moved or a counter went backwards) adds nothing to the
    window, so no rate can be negative; gauges read every current source.
    """

    def __init__(self) -> None:
        self._before: dict = {}
        self._at: float | None = None

    def observe(self, sources: dict, now: float,
                queue_size: int) -> ControlSignals | None:
        """The window since the previous call, as :class:`ControlSignals`.

        ``sources`` maps a stable source name to its live metrics and
        ``queue_size`` is their combined buffer bound.  Returns ``None``
        on the first call, and when no time has passed since the previous
        one (whose snapshot is then kept, so the next window still covers
        every event).
        """
        if self._at is not None and now <= self._at:
            return None
        before, after, snapshots = ServiceMetrics(), ServiceMetrics(), {}
        for name, metrics in sources.items():
            curr = snapshots[name] = ServiceMetrics().merge(metrics)
            prev = self._before.get(name, curr)  # new: diffs to nothing
            restarted = curr.restarts != prev.restarts or any(
                getattr(curr, counter) < getattr(prev, counter)
                for counter in _WINDOW_COUNTERS
            )
            before.merge(curr if restarted else prev)
            after.merge(curr)
        start, self._before, self._at = self._at, snapshots, now
        if start is None:
            return None
        return derive_signals(before, after, now - start, queue_size)


@dataclass(frozen=True)
class ControllerConfig:
    """Bounds, thresholds, and cadence for an :class:`AdaptiveController`.

    ``None`` bounds are resolved against the controlled service when the
    controller starts (see :meth:`resolve`): the batch ceiling defaults
    to the queue size (anything larger is dead config — the service
    clamps it), the latency bounds bracket the service's starting
    ``max_latency``, and the ``k`` bounds bracket the sampler's starting
    budget by 4x in each direction.
    """

    #: Seconds between observation windows.
    interval: float = 0.25
    #: The p99 flush-latency objective, in seconds.
    slo_p99: float = 0.05
    #: Occupancy above which the service counts as overloaded.
    high_occupancy: float = 0.5
    #: Occupancy below which (with a healthy p99 and no drops) the
    #: window counts as calm.
    low_occupancy: float = 0.1
    #: Multiplicative step when growing a knob under load.
    grow_factor: float = 2.0
    #: Multiplicative step when relaxing back toward baseline.
    shrink_factor: float = 0.5
    #: Consecutive calm windows ``low_noise`` waits before acting.
    calm_windows: int = 4
    min_batch_size: int = 1
    max_batch_size: int | None = None
    min_max_latency: float | None = None
    max_max_latency: float | None = None
    min_k: int | None = None
    max_k: int | None = None

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.slo_p99 <= 0:
            raise ValueError("slo_p99 must be positive")
        if not 0.0 <= self.low_occupancy <= self.high_occupancy <= 1.0:
            raise ValueError(
                "need 0 <= low_occupancy <= high_occupancy <= 1"
            )
        if self.grow_factor <= 1.0:
            raise ValueError("grow_factor must exceed 1")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink_factor must be in (0, 1)")
        if self.calm_windows < 1:
            raise ValueError("calm_windows must be at least 1")

    def resolve(self, service: "StreamService") -> "ControllerConfig":
        """Fill ``None`` bounds from the service's starting configuration."""
        k = _sampler_k(service)
        updates: dict = {}
        if self.max_batch_size is None:
            updates["max_batch_size"] = service.queue_size
        if self.min_max_latency is None:
            updates["min_max_latency"] = min(0.001, service.max_latency)
        if self.max_max_latency is None:
            updates["max_max_latency"] = max(1.0, service.max_latency)
        if k is not None:
            if self.min_k is None:
                updates["min_k"] = max(2, k // 4)
            if self.max_k is None:
                updates["max_k"] = max(k * 4, k)
        return replace(self, **updates) if updates else self


def _sampler_k(service: "StreamService") -> int | None:
    """The sampler's current budget, or ``None`` if it has no usable one.

    Resizable samplers expose ``k`` directly; a
    :class:`~repro.engine.ShardedSampler` keeps the per-shard budget in
    its spec params and mirrors ``resizable`` from the shard class.
    """
    sampler = service.sampler
    if not sampler.resizable:
        return None
    k = getattr(sampler, "k", None)
    if k is None:
        spec = getattr(sampler, "spec", None)
        if spec is not None:
            k = spec.params.get("k")
    return int(k) if k is not None else None


class AdaptiveController:
    """Periodic observe→decide→actuate loop over one :class:`StreamService`.

    The controller runs as a task on the service's event loop.  Each
    tick its :class:`MetricsWindow` turns ``service.metrics`` into the
    window's :class:`ControlSignals`; the controller asks the mode policy
    for a retune proposal (:meth:`propose` — pure, unit-testable) and
    applies any non-empty proposal with ``await service.retune(...)``.
    Applied retunes take effect at the service's next flush boundary and
    are WAL-logged, so a recovered service replays the controller's exact
    decisions without the controller being present.

    ``history`` keeps the last 256 ``(signals, applied)`` pairs for
    dashboards and the benchmark trajectory.  The loop stops itself if
    the service crashes or stops underneath it.
    """

    def __init__(
        self,
        service: "StreamService",
        mode: str = "balanced",
        config: ControllerConfig | None = None,
    ):
        if mode not in CONTROLLER_MODES:
            raise ValueError(
                f"unknown controller mode {mode!r}; expected one of "
                f"{CONTROLLER_MODES}"
            )
        self.service = service
        self.mode = mode
        self.config = config if config is not None else ControllerConfig()
        self.history: deque = deque(maxlen=256)
        self.baseline: dict | None = None
        self._task: asyncio.Task | None = None
        self._window = MetricsWindow()
        self._calm_streak = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AdaptiveController":
        """Resolve bounds, capture the baseline tuning, start the loop."""
        if self._task is not None:
            raise RuntimeError("controller already started")
        self.config = self.config.resolve(self.service)
        self.baseline = {
            "batch_size": self.service.batch_size,
            "max_latency": self.service.max_latency,
            "k": _sampler_k(self.service),
        }
        self._task = asyncio.get_running_loop().create_task(self._run())
        return self

    async def stop(self) -> None:
        """Cancel the loop (idempotent); pending retunes settle first."""
        task, self._task = self._task, None
        if task is None:
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    async def __aenter__(self) -> "AdaptiveController":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        """Whether the control loop task is alive."""
        return self._task is not None and not self._task.done()

    async def _run(self) -> None:
        from .service import ServiceCrashed

        while True:
            await asyncio.sleep(self.config.interval)
            svc = self.service
            if svc.crashed or not svc._started or svc._stopping:
                return  # nothing left to control
            try:
                await self.step()
            except (ServiceCrashed, RuntimeError):
                # Crashed or began stopping mid-step: stand down.
                return

    # ------------------------------------------------------------------
    # One control tick (the test seam)
    # ------------------------------------------------------------------
    async def step(self) -> ControlSignals | None:
        """Observe one window, decide, and actuate.  Returns the window's
        signals (``None`` on the priming call, and on a call that finds
        no time elapsed since the previous one)."""
        signals = self._window.observe(
            {"service": self.service.metrics},
            asyncio.get_running_loop().time(),
            self.service.queue_size,
        )
        if signals is None:
            return None
        changes = self.propose(signals)
        applied = await self.service.retune(**changes) if changes else {}
        self.history.append((signals, applied))
        return signals

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def _is_overloaded(self, s: ControlSignals) -> bool:
        return (
            s.queue_occupancy > self.config.high_occupancy
            or s.flush_latency_p99 > self.config.slo_p99
            or s.drop_rate > 0
        )

    def _is_calm(self, s: ControlSignals) -> bool:
        return (
            s.queue_occupancy < self.config.low_occupancy
            and s.flush_latency_p99 < 0.5 * self.config.slo_p99
            and s.drop_rate == 0
        )

    def _clamp_batch(self, batch_size: float) -> int:
        cfg = self.config
        return int(
            min(max(int(batch_size), cfg.min_batch_size), cfg.max_batch_size)
        )

    def _clamp_latency(self, latency: float) -> float:
        cfg = self.config
        return min(max(latency, cfg.min_max_latency), cfg.max_max_latency)

    def _clamp_k(self, k: float) -> int | None:
        cfg = self.config
        if cfg.min_k is None or cfg.max_k is None:
            return None
        return int(min(max(int(k), cfg.min_k), cfg.max_k))

    def _changes(self, batch_size=None, max_latency=None, k=None) -> dict:
        """Assemble a retune proposal, dropping knobs already at target."""
        svc = self.service
        changes: dict = {}
        if batch_size is not None and batch_size != svc.batch_size:
            changes["batch_size"] = batch_size
        if max_latency is not None and not math.isclose(
            max_latency, svc.max_latency, rel_tol=1e-9
        ):
            changes["max_latency"] = max_latency
        if k is not None and k != _sampler_k(svc):
            changes["k"] = k
        return changes

    def _toward_baseline(self) -> dict:
        """One multiplicative step of every knob back toward baseline."""
        svc, cfg, base = self.service, self.config, self.baseline
        step = cfg.shrink_factor

        def _approach(current: float, target: float) -> float:
            return target + (current - target) * step

        batch = self._clamp_batch(
            round(_approach(svc.batch_size, base["batch_size"]))
        )
        latency = self._clamp_latency(
            _approach(svc.max_latency, base["max_latency"])
        )
        k = None
        if base["k"] is not None:
            current_k = _sampler_k(svc)
            k = self._clamp_k(round(_approach(current_k, base["k"])))
        return self._changes(batch, latency, k)

    def propose(self, signals: ControlSignals) -> dict:
        """Map one window's signals to a retune proposal (pure policy).

        Returns a (possibly empty) kwargs dict for
        :meth:`StreamService.retune`; knobs already at their target are
        omitted, so an empty dict means "hold".
        """
        overloaded = self._is_overloaded(signals)
        calm = self._is_calm(signals)
        self._calm_streak = self._calm_streak + 1 if calm else 0
        handler = getattr(self, f"_propose_{self.mode}")
        return handler(signals, overloaded, calm)

    def _propose_balanced(self, s, overloaded, calm) -> dict:
        svc, cfg = self.service, self.config
        if overloaded:
            batch = self._clamp_batch(svc.batch_size * cfg.grow_factor)
            latency = self._clamp_latency(svc.max_latency * cfg.grow_factor)
            k = None
            current_k = _sampler_k(svc)
            if current_k is not None:
                k = self._clamp_k(current_k * cfg.shrink_factor)
            return self._changes(batch, latency, k)
        if calm:
            return self._toward_baseline()
        return {}

    def _propose_high_load(self, s, overloaded, calm) -> dict:
        cfg = self.config
        if overloaded:
            k = cfg.min_k if self.baseline["k"] is not None else None
            return self._changes(cfg.max_batch_size, cfg.max_max_latency, k)
        if calm:
            return self._toward_baseline()
        return {}

    def _propose_error_triggered(self, s, overloaded, calm) -> dict:
        cfg = self.config
        if s.drop_rate > 0:
            # Events are being lost: open the throughput knobs wide to
            # drain, but *raise* the sample budget — when the stream is
            # lossy, the retained sample is the only record of it.
            k = cfg.max_k if self.baseline["k"] is not None else None
            return self._changes(cfg.max_batch_size, cfg.max_max_latency, k)
        if calm:
            return self._toward_baseline()
        return {}

    def _propose_surge(self, s, overloaded, calm) -> dict:
        svc, cfg = self.service, self.config
        if s.flush_latency_p99 > cfg.slo_p99:
            batch = self._clamp_batch(svc.batch_size * cfg.grow_factor)
            k = cfg.min_k if self.baseline["k"] is not None else None
            return self._changes(batch, cfg.max_max_latency, k)
        if calm:
            return self._toward_baseline()
        return {}

    def _propose_low_noise(self, s, overloaded, calm) -> dict:
        svc, cfg = self.service, self.config
        if not calm:
            # Any disturbance: snap every knob straight back to baseline.
            base = self.baseline
            return self._changes(
                base["batch_size"], base["max_latency"], base["k"]
            )
        if self._calm_streak >= cfg.calm_windows:
            batch = self._clamp_batch(svc.batch_size * cfg.grow_factor)
            k = None
            current_k = _sampler_k(svc)
            if current_k is not None:
                k = self._clamp_k(current_k * cfg.shrink_factor)
            return self._changes(batch, None, k)
        return {}

    def trajectory(self) -> list[dict]:
        """The retained history as JSON-friendly rows (oldest first)."""
        return [
            {"signals": signals.to_dict(), "applied": dict(applied)}
            for signals, applied in self.history
        ]
