"""Lightweight operational metrics for the serving runtime.

Plain counters and gauges — no external dependencies, no background
threads — maintained inline by the service on its own event loop, and
snapshotted to a JSON-friendly dict for dashboards and the benchmark
trajectory.  The histogram buckets batch sizes by power of two, which is
the useful resolution for tuning ``batch_size``/``max_latency``: a serving
loop that mostly flushes tiny deadline-driven batches shows up immediately
as mass in the low buckets plus a high ``flushes_deadline`` share.

Instances are *mergeable*: :meth:`ServiceMetrics.merge` folds another
snapshot into this one (counters and histograms sum, gauges accumulate
conservatively), which is how the cluster layer
(:mod:`repro.serve.cluster`) aggregates a worker pool into one
cluster-wide view without re-deriving any counter.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field

__all__ = ["ServiceMetrics", "FLUSH_REASONS"]

#: Drop label used when the non-blocking ingest path is not told whom the
#: dropped events belonged to (plain single-tenant services).
UNLABELED_DROP = "_unlabeled"

#: The only flush triggers the runtime produces.  ``record_flush``
#: validates against this at the call boundary so a typo'd reason fails
#: with a clear ``ValueError`` instead of an ``AttributeError`` deep in
#: the consumer loop (which would be recorded as a service crash).
FLUSH_REASONS = ("size", "deadline", "drain")


def _pow2_ms_bucket(seconds: float) -> int:
    """Upper-bound-in-milliseconds pow2 bucket for a latency sample.

    Bucket ``2**i`` covers latencies in ``(2**(i-1), 2**i]`` milliseconds;
    everything at or under 1ms lands in bucket ``1``.
    """
    ms = max(0.0, float(seconds)) * 1000.0
    return 1 << max(0, (math.ceil(ms) - 1).bit_length())


@dataclass
class ServiceMetrics:
    """Counters/gauges describing a :class:`~repro.serve.StreamService`.

    ``events_enqueued`` counts admissions into the bounded buffer,
    ``events_logged`` WAL durability, ``events_applied`` sampler
    ingestion; at rest (after ``flush()``/``stop()``) all three agree.
    ``events_dropped`` counts events refused by the non-blocking
    ``try_ingest`` path when the buffer was full — the blocking path
    never drops, it backpressures.  Drops are additionally attributed to
    a label (the tenant, for cluster workers) in ``events_dropped_by``,
    so backpressure drops remain distinguishable per tenant from
    quota rejections counted upstream by the tenant registry.
    """

    events_enqueued: int = 0
    events_dropped: int = 0
    events_logged: int = 0
    events_applied: int = 0
    batches_applied: int = 0
    #: Flush-trigger counters: pending reached ``batch_size``, the oldest
    #: pending event hit ``max_latency``, or an explicit drain
    #: (``flush()``/``stop()``/column-signature change).
    flushes_size: int = 0
    flushes_deadline: int = 0
    flushes_drain: int = 0
    #: Current buffered (admitted, not yet batched) event count and its
    #: lifetime high-water mark, against the ``queue_size`` bound.
    queue_depth: int = 0
    queue_high_watermark: int = 0
    #: Batch-size histogram: bucket ``2**i`` counts flushes of size in
    #: ``(2**(i-1), 2**i]`` (see :meth:`batch_size_histogram` for the
    #: labeled rendering).
    batch_size_buckets: dict[int, int] = field(default_factory=dict)
    #: Per-label drop attribution for the ``try_ingest`` path (labels are
    #: tenants under the cluster layer; :data:`UNLABELED_DROP` otherwise).
    events_dropped_by: dict[str, int] = field(default_factory=dict)
    checkpoints_written: int = 0
    #: Stream offset of the newest checkpoint (0 before the first).
    last_checkpoint_offset: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    #: Supervised restart-in-place count.  Incremented by the failover
    #: machinery after ``StreamService.recover``, and persisted through
    #: checkpoints, so a flapping worker is visible across its lifetimes.
    restarts: int = 0
    #: Flush latency: how long the *oldest* event of a flushed batch sat
    #: buffered before it was applied (the queueing delay an SLO cares
    #: about).  ``last_flush_latency`` is a gauge; the sum plus
    #: ``flush_latency_buckets`` (pow2 milliseconds, see
    #: :meth:`flush_latency_quantile`) give averages and quantiles.
    last_flush_latency: float = 0.0
    flush_latency_sum: float = 0.0
    flush_latency_buckets: dict[int, int] = field(default_factory=dict)
    #: Per-flush wall-clock duration (WAL append + sampler apply): the
    #: service-side cost of a flush, as a gauge plus a running sum.
    last_flush_duration: float = 0.0
    flush_duration_sum: float = 0.0
    #: Online reconfigurations applied via ``StreamService.retune``.
    retunes_applied: int = 0

    def record_flush(self, n: int, reason: str,
                     latency: float = 0.0, duration: float = 0.0) -> None:
        """Account one applied micro-batch of ``n`` events.

        ``reason`` must be one of :data:`FLUSH_REASONS`; ``latency`` is
        the buffered age of the batch's oldest event at apply time and
        ``duration`` the wall-clock cost of the flush itself (both in
        seconds).
        """
        if reason not in FLUSH_REASONS:
            raise ValueError(
                f"unknown flush reason {reason!r}; expected one of "
                f"{FLUSH_REASONS}"
            )
        self.batches_applied += 1
        self.events_applied += n
        setattr(self, f"flushes_{reason}", getattr(self, f"flushes_{reason}") + 1)
        bucket = 1 << max(0, (n - 1).bit_length())
        self.batch_size_buckets[bucket] = (
            self.batch_size_buckets.get(bucket, 0) + 1
        )
        self.last_flush_latency = float(latency)
        self.flush_latency_sum += float(latency)
        ms_bucket = _pow2_ms_bucket(latency)
        self.flush_latency_buckets[ms_bucket] = (
            self.flush_latency_buckets.get(ms_bucket, 0) + 1
        )
        self.last_flush_duration = float(duration)
        self.flush_duration_sum += float(duration)

    def record_retune(self) -> None:
        """Account one applied online reconfiguration."""
        self.retunes_applied += 1

    def flush_latency_quantile(self, q: float) -> float:
        """The ``q``-quantile flush latency in **seconds**, from the pow2
        histogram (the bucket's upper bound, i.e. a conservative
        estimate).  Returns ``0.0`` before the first flush.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = sum(self.flush_latency_buckets.values())
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for upper_ms, count in sorted(self.flush_latency_buckets.items()):
            seen += count
            if seen >= rank:
                return upper_ms / 1000.0
        return upper_ms / 1000.0

    def reset_volatile(self) -> None:
        """Zero the gauges that describe in-memory state only.

        Called by ``StreamService.recover``: a recovered service starts
        with an empty buffer and no flush in flight, so the pre-crash
        ``queue_depth`` / ``last_flush_*`` gauges restored by
        :meth:`from_dict` would be phantoms (a controller reading them
        would see backlog that does not exist and mis-retune).  Durable
        counters and histograms are left untouched.
        """
        self.queue_depth = 0
        self.last_flush_latency = 0.0
        self.last_flush_duration = 0.0

    def record_drop(self, n: int, label: str | None = None) -> None:
        """Account ``n`` events dropped by the non-blocking ingest path.

        ``label`` attributes the drop (the tenant, for cluster workers);
        drops without a label land under :data:`UNLABELED_DROP` so the
        total always equals the sum over labels.
        """
        self.events_dropped += n
        label = label if label else UNLABELED_DROP
        self.events_dropped_by[label] = self.events_dropped_by.get(label, 0) + n

    def record_depth(self, depth: int) -> None:
        """Track the buffered-event gauge and its high-water mark."""
        self.queue_depth = depth
        if depth > self.queue_high_watermark:
            self.queue_high_watermark = depth

    @property
    def checkpoint_lag(self) -> int:
        """Events applied since the newest checkpoint (replay-on-crash
        cost, in events)."""
        return self.events_applied - self.last_checkpoint_offset

    def batch_size_histogram(self) -> list[dict]:
        """The pow2 histogram with real bucket bounds, smallest first.

        Each row carries the half-open bucket interval the raw
        ``batch_size_buckets`` key only implies: ``{"gt": 2**(i-1),
        "le": 2**i, "label": "(2**(i-1), 2**i]", "count": c}`` (the
        ``2**0`` bucket covers exactly size-1 batches and is labeled
        ``"[1, 1]"``).  This is what dashboards and the cluster
        aggregation render, instead of bare upper-bound keys.
        """
        rows = []
        for upper, count in sorted(self.batch_size_buckets.items()):
            lower = 0 if upper == 1 else upper // 2
            label = "[1, 1]" if upper == 1 else f"({lower}, {upper}]"
            rows.append(
                {"gt": lower, "le": upper, "label": label, "count": count}
            )
        return rows

    def flush_latency_histogram_seconds(self) -> dict[float, int]:
        """The pow2-millisecond latency histogram with upper bounds in
        **seconds**, smallest first — the form a Prometheus ``le``
        bucket wants (see :mod:`repro.obs.prometheus`).  Raw storage
        stays in integer milliseconds (:attr:`flush_latency_buckets`)
        so merges stay exact.
        """
        return {
            upper_ms / 1000.0: count
            for upper_ms, count in sorted(self.flush_latency_buckets.items())
        }

    def merge(self, other: "ServiceMetrics") -> "ServiceMetrics":
        """Fold ``other``'s counters into this instance (returns ``self``).

        ``ServiceMetrics().merge(m)`` is therefore a deep copy of ``m``:
        the snapshot idiom of the windowed readers and cluster metrics.
        Counters and histograms sum label-wise.  Gauges accumulate
        conservatively: ``queue_depth`` sums (total buffered events
        across the merged services) and ``queue_high_watermark`` sums,
        which upper-bounds the never-observed joint high-water mark.
        ``last_checkpoint_offset`` sums so the derived
        :attr:`checkpoint_lag` stays the total replay-on-crash cost.
        """
        self.events_enqueued += other.events_enqueued
        self.events_dropped += other.events_dropped
        self.events_logged += other.events_logged
        self.events_applied += other.events_applied
        self.batches_applied += other.batches_applied
        self.flushes_size += other.flushes_size
        self.flushes_deadline += other.flushes_deadline
        self.flushes_drain += other.flushes_drain
        self.queue_depth += other.queue_depth
        self.queue_high_watermark += other.queue_high_watermark
        self.checkpoints_written += other.checkpoints_written
        self.last_checkpoint_offset += other.last_checkpoint_offset
        self.wal_records += other.wal_records
        self.wal_bytes += other.wal_bytes
        self.restarts += other.restarts
        self.retunes_applied += other.retunes_applied
        self.flush_latency_sum += other.flush_latency_sum
        self.flush_duration_sum += other.flush_duration_sum
        self.last_flush_latency = max(
            self.last_flush_latency, other.last_flush_latency
        )
        self.last_flush_duration = max(
            self.last_flush_duration, other.last_flush_duration
        )
        for bucket, count in other.flush_latency_buckets.items():
            self.flush_latency_buckets[bucket] = (
                self.flush_latency_buckets.get(bucket, 0) + count
            )
        for bucket, count in other.batch_size_buckets.items():
            self.batch_size_buckets[bucket] = (
                self.batch_size_buckets.get(bucket, 0) + count
            )
        for label, count in other.events_dropped_by.items():
            self.events_dropped_by[label] = (
                self.events_dropped_by.get(label, 0) + count
            )
        return self

    @classmethod
    def from_dict(cls, snapshot: dict) -> "ServiceMetrics":
        """Rebuild from a :meth:`to_dict` snapshot (the inverse used by
        ``StreamService.recover`` so operational counters survive a
        crash instead of silently resetting)."""
        metrics = cls(
            events_enqueued=int(snapshot.get("events_enqueued", 0)),
            events_dropped=int(snapshot.get("events_dropped", 0)),
            events_logged=int(snapshot.get("events_logged", 0)),
            events_applied=int(snapshot.get("events_applied", 0)),
            batches_applied=int(snapshot.get("batches_applied", 0)),
            queue_high_watermark=int(snapshot.get("queue_high_watermark", 0)),
            checkpoints_written=int(snapshot.get("checkpoints_written", 0)),
            last_checkpoint_offset=int(
                snapshot.get("last_checkpoint_offset", 0)
            ),
            wal_records=int(snapshot.get("wal_records", 0)),
            wal_bytes=int(snapshot.get("wal_bytes", 0)),
            restarts=int(snapshot.get("restarts", 0)),
            retunes_applied=int(snapshot.get("retunes_applied", 0)),
        )
        metrics.queue_depth = int(snapshot.get("queue_depth", 0))
        flushes = snapshot.get("flushes", {})
        metrics.flushes_size = int(flushes.get("size", 0))
        metrics.flushes_deadline = int(flushes.get("deadline", 0))
        metrics.flushes_drain = int(flushes.get("drain", 0))
        latency = snapshot.get("flush_latency", {})
        metrics.last_flush_latency = float(latency.get("last", 0.0))
        metrics.flush_latency_sum = float(latency.get("sum", 0.0))
        metrics.flush_latency_buckets = {
            int(bucket): int(count)
            for bucket, count in latency.get("buckets", {}).items()
        }
        duration = snapshot.get("flush_duration", {})
        metrics.last_flush_duration = float(duration.get("last", 0.0))
        metrics.flush_duration_sum = float(duration.get("sum", 0.0))
        metrics.batch_size_buckets = {
            int(bucket): int(count)
            for bucket, count in snapshot.get("batch_size_buckets", {}).items()
        }
        metrics.events_dropped_by = {
            str(label): int(count)
            for label, count in snapshot.get("events_dropped_by", {}).items()
        }
        return metrics

    def to_dict(self) -> dict:
        """JSON-friendly snapshot.

        The raw pow2 histogram stays under ``batch_size_buckets`` (keyed
        by upper-bound strings, the round-trip form) and the labeled
        rendering rides along under ``batch_size_histogram``.
        """
        return {
            "events_enqueued": self.events_enqueued,
            "events_dropped": self.events_dropped,
            "events_dropped_by": dict(sorted(self.events_dropped_by.items())),
            "events_logged": self.events_logged,
            "events_applied": self.events_applied,
            "batches_applied": self.batches_applied,
            "flushes": {
                "size": self.flushes_size,
                "deadline": self.flushes_deadline,
                "drain": self.flushes_drain,
            },
            "queue_depth": self.queue_depth,
            "queue_high_watermark": self.queue_high_watermark,
            "flush_latency": {
                "last": self.last_flush_latency,
                "sum": self.flush_latency_sum,
                "buckets": {
                    str(k): v
                    for k, v in sorted(self.flush_latency_buckets.items())
                },
                "p99": self.flush_latency_quantile(0.99),
            },
            "flush_duration": {
                "last": self.last_flush_duration,
                "sum": self.flush_duration_sum,
            },
            "retunes_applied": self.retunes_applied,
            "batch_size_buckets": {
                str(k): v for k, v in sorted(self.batch_size_buckets.items())
            },
            "batch_size_histogram": self.batch_size_histogram(),
            "checkpoints_written": self.checkpoints_written,
            "last_checkpoint_offset": self.last_checkpoint_offset,
            "checkpoint_lag": self.checkpoint_lag,
            "wal_records": self.wal_records,
            "wal_bytes": self.wal_bytes,
            "restarts": self.restarts,
        }
