"""Concurrency stress: snapshot isolation, backpressure, cache freshness.

Three contracts of the serving runtime under concurrent ingest + query
load on one event loop:

* **Internal consistency** — every read group observes exactly one
  ``state_version``: ``estimate()``, ``sample()`` and ``query()`` inside
  a snapshot agree with each other (the query result is pinned to the
  snapshot's version, and the HT total recomputed from the raw sample
  arrays matches the facade answers bit-for-bit).
* **Backpressure** — with the consumer stalled, admissions stop exactly
  at ``queue_size`` buffered events and blocked producers resume once
  the consumer drains; the non-blocking path drops and counts instead.
* **Cache freshness** — repeated queries between mutations are cache
  hits (same object), but a query after any flush can never be served a
  pre-mutation answer: its ``state_version`` strictly advances.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.estimators import ht_total
from repro.serve import StreamService
from tests.serve.common import run_async, stream

pytestmark = pytest.mark.timeout(120)


def _service(**overrides) -> StreamService:
    opts = dict(queue_size=256, batch_size=64, max_latency=0.002)
    opts.update(overrides)
    return StreamService(
        {"name": "bottom_k", "params": {"k": 48, "rng": 9}}, **opts
    )


async def _reader(service, results, rounds: int):
    """Snapshot-read repeatedly, asserting intra-snapshot consistency."""
    last_version = -1
    for _ in range(rounds):
        async with service.snapshot() as snap:
            version = snap.state_version
            applied = snap.events_applied
            total = snap.estimate("total")
            sample = snap.sample()
            result = snap.query("sum")
            # All three surfaces answer from the same pinned state.
            assert result.state_version == version
            assert snap.state_version == version  # unchanged while held
            # The query layer sums over canonicalized (priority-sorted)
            # rows — same state, so equal to the facade up to summation
            # order (1 ulp), while recomputing in raw sample order from
            # the arrays reproduces the facade bit-for-bit.
            assert result.estimate == pytest.approx(total, rel=1e-12)
            recomputed = ht_total(
                np.asarray(sample.values), np.asarray(sample.probabilities)
            )
            assert recomputed == total
            # Time never runs backwards for a single reader.
            assert version >= last_version
            last_version = version
            results.append((version, applied, total))
        await asyncio.sleep(0)


def test_concurrent_ingest_and_snapshot_reads_are_consistent():
    async def go():
        service = _service()
        await service.start()
        keys, weights = stream(3000)

        async def produce():
            for lo in range(0, len(keys), 50):
                await service.ingest_many(
                    keys[lo:lo + 50], weights=weights[lo:lo + 50]
                )
                await asyncio.sleep(0)

        results: list[tuple[int, int, float]] = []
        readers = [
            asyncio.create_task(_reader(service, results, 40))
            for _ in range(4)
        ]
        await produce()
        await asyncio.gather(*readers)
        await service.flush()

        # Reads pinned to one version — across *all* readers — observed
        # one (applied-count, total) pair: a version names one state.
        by_version: dict[int, set[tuple[int, float]]] = {}
        for version, applied, total in results:
            by_version.setdefault(version, set()).add((applied, total))
        assert all(len(obs) == 1 for obs in by_version.values())

        final = await service.estimate("total")
        direct_total = float(np.sum(weights))
        assert final == pytest.approx(direct_total, rel=0.5)
        await service.stop()

    run_async(go())


def test_backpressure_engages_at_the_configured_bound():
    async def go():
        gate = asyncio.Event()
        stalled = asyncio.Event()

        def hook(stage):
            if stage == "flush.before":
                stalled.set()
                return gate.wait()  # awaited by the consumer: stalls it
            return None

        service = _service(
            queue_size=64, batch_size=16, max_latency=0.001, fault_hook=hook
        )
        await service.start()
        keys, weights = stream(400)

        async def produce():
            # Chunks of 8 divide both the buffer bound (64) and the
            # stream, so the blocked producer leaves exactly a full
            # buffer — making the bound assertion exact.
            for lo in range(0, len(keys), 8):
                await service.ingest_many(
                    keys[lo:lo + 8], weights=weights[lo:lo + 8]
                )

        producer = asyncio.create_task(produce())
        await asyncio.wait_for(stalled.wait(), 10)
        # Let the producer run until it parks on the full buffer.
        for _ in range(200):
            await asyncio.sleep(0)
        assert not producer.done(), "producer should be backpressured"
        assert service.metrics.queue_depth == 64  # exactly the bound
        assert service.metrics.queue_high_watermark <= 64
        before = service.events_applied

        # The non-blocking path refuses instead of blocking, and counts.
        assert service.try_ingest("overflow") is False
        assert service.metrics.events_dropped == 1

        gate.set()  # un-stall the consumer
        await asyncio.wait_for(producer, 10)
        await service.flush()
        assert service.events_applied == 400
        assert service.events_applied > before
        assert service.metrics.queue_high_watermark <= 64
        await service.stop()

    run_async(go())


def test_try_ingest_admits_when_room_and_drops_when_full():
    async def go():
        gate = asyncio.Event()
        service = _service(
            queue_size=8, batch_size=4, max_latency=0.001,
            fault_hook=lambda s: gate.wait() if s == "flush.before" else None,
        )
        await service.start()
        assert service.try_ingest_many(list(range(8)))  # fills the buffer
        assert not service.try_ingest_many([99, 100])   # all-or-nothing
        assert service.metrics.events_dropped == 2
        gate.set()
        await service.flush()
        assert service.events_applied == 8
        await service.stop()

    run_async(go())


def test_query_cache_is_version_pinned_and_never_stale():
    async def go():
        service = _service(max_latency=0.5)  # no surprise deadline flushes
        await service.start()
        keys, weights = stream(500)
        await service.ingest_many(keys[:250], weights=weights[:250])
        await service.flush()

        async with service.snapshot() as snap:
            first = snap.query("sum")
            again = snap.query("sum")
        assert again is first  # cache hit: same version, same fingerprint

        # Re-polling through the one-shot surface between mutations is
        # still the same cached object.
        repoll = await service.query("sum")
        assert repoll is first

        await service.ingest_many(keys[250:], weights=weights[250:])
        await service.flush()
        async with service.snapshot() as snap:
            fresh = snap.query("sum")
            assert snap.state_version > first.state_version
            assert fresh.state_version == snap.state_version
        assert fresh is not first
        assert fresh.state_version > first.state_version
        # More weight arrived, so a stale (pre-mutation) hit would show
        # as an unchanged estimate.
        assert fresh.estimate > first.estimate
        await service.stop()

    run_async(go())


def test_reads_refuse_a_crashed_service():
    """After a consumer crash the in-memory sampler may hold a
    half-applied batch (e.g. a sharded flush failing mid-shard), so
    every read path raises instead of serving torn state."""
    from repro.serve import ServiceCrashed

    async def go():
        def hook(stage):
            if stage == "apply.before":
                raise RuntimeError("mid-batch failure")

        service = _service(fault_hook=hook, max_latency=0.001)
        await service.start()
        with pytest.raises(ServiceCrashed):
            await service.ingest_many(list(range(100)))
            await service.flush()
        for read in (service.estimate("total"), service.sample(),
                     service.query("sum")):
            with pytest.raises(ServiceCrashed):
                await read
        with pytest.raises(ServiceCrashed):
            await service.stop()

    run_async(go())


def test_stop_drains_immediately_despite_a_long_deadline():
    """Shutdown latency is independent of max_latency: a pending
    sub-batch-size batch is drained, not waited out."""
    async def go():
        service = _service(batch_size=1000, max_latency=30.0)
        await service.start()
        await service.ingest_many(list(range(10)))
        loop = asyncio.get_running_loop()
        start = loop.time()
        await service.stop()
        assert loop.time() - start < 5.0
        assert service.events_applied == 10
        assert service.metrics.flushes_drain >= 1

    run_async(go())


def test_kill_racing_an_admission_still_kills_the_consumer():
    """A ``Task.cancel()`` landing in the same loop turn as the wake of
    an admission must still end the consumer (an ``asyncio.wait_for``
    park could answer such a cancel with the finished wake before Python
    3.12 and lose the kill; the consumer parks on a plain wait)."""
    async def go():
        service = _service(batch_size=1000, max_latency=30.0)
        await service.start()
        await service.ingest_many(list(range(10)))
        while service.pending_events != len(service._batcher):
            await asyncio.sleep(0)
        for _ in range(3):  # let it park on the 30s batch deadline
            await asyncio.sleep(0)
        assert service.try_ingest(10)
        service._task.cancel()
        await asyncio.wait({service._task}, timeout=5.0)
        assert service._task.done()
        await service.abort()

    run_async(go())


def test_snapshot_view_is_invalid_outside_its_block():
    async def go():
        service = _service()
        await service.start()
        await service.ingest_many(list(range(10)))
        await service.flush()
        async with service.snapshot() as snap:
            snap.estimate("total")
        with pytest.raises(RuntimeError, match="outside"):
            snap.estimate("total")
        await service.stop()

    run_async(go())


def test_sharded_engine_serves_through_the_runtime():
    """The service wraps a 4-shard engine transparently: reads reduce
    through the merge tree, queries stay version-pinned."""
    async def go():
        from repro import ShardedSampler

        engine = ShardedSampler(
            {"name": "weighted_distinct", "params": {"k": 32, "salt": 3}},
            n_shards=4, seed=11,
        )
        service = StreamService(
            engine, queue_size=256, batch_size=64, max_latency=0.002
        )
        await service.start()
        keys, weights = stream(2000)
        await service.ingest_many(keys, weights=weights)
        await service.flush()
        async with service.snapshot() as snap:
            result = snap.query("distinct")
            assert result.state_version == snap.state_version
            assert 0 < result.estimate < 4000
        await service.stop()

    run_async(go())


@pytest.mark.soak
def test_soak_sustained_concurrent_load():
    """Long-running variant (deselected by default; REPRO_SOAK=1 runs
    it): heavier stream, more readers, with durability on."""
    import tempfile

    async def go():
        with tempfile.TemporaryDirectory() as root:
            service = StreamService(
                {"name": "bottom_k", "params": {"k": 128, "rng": 9}},
                dir=root, queue_size=4096, batch_size=512,
                max_latency=0.002, checkpoint_every_events=8192,
            )
            await service.start()
            keys, weights = stream(200_000)

            async def produce():
                for lo in range(0, len(keys), 1000):
                    await service.ingest_many(
                        keys[lo:lo + 1000], weights=weights[lo:lo + 1000]
                    )
                    await asyncio.sleep(0)

            results: list[tuple[int, int, float]] = []
            readers = [
                asyncio.create_task(_reader(service, results, 200))
                for _ in range(8)
            ]
            await produce()
            await asyncio.gather(*readers)
            await service.flush()
            assert service.events_applied == 200_000
            assert service.metrics.checkpoints_written >= 10
            await service.stop()

    run_async(go(), timeout=300)


def test_admin_ops_need_a_sampler_that_applies_them():
    """``enqueue_admin`` refuses up front when the wrapped sampler has no
    ``apply_admin`` (rather than crashing the consumer later)."""
    async def go():
        service = _service()
        await service.start()
        service.enqueue_admin()  # nothing to queue
        with pytest.raises(TypeError, match="takes no admin ops"):
            service.enqueue_admin({"op": "create", "tenant": "t0"})
        await service.ingest_many(list(range(10)))
        await service.stop()
        assert service.events_applied == 10

    run_async(go())
