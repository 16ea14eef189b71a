"""Hypothesis property: any flush interleaving equals one scalar pass.

PR2 pinned chunking invariance for ``update_many`` — this suite extends
that contract through the *async* micro-batcher: arbitrary interleavings
of chunk sizes, batch-size thresholds (down to 1-event flushes), explicit
flush barriers, and deadline-vs-size flush mixes must leave the sampler
in a state seed-for-seed identical to feeding the events one ``update``
call at a time.  Both a randomized-RNG sampler (RNG stream continuation
across flush boundaries) and a hash-coordinated sketch (no RNG, pure
content) are exercised, plus the synchronous :class:`MicroBatcher` merge
logic on its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import make_sampler
from repro.serve import MicroBatcher, StreamService
from repro.serve.batcher import chunk_of
from tests.serve.common import run_async, signature

pytestmark = pytest.mark.timeout(300)

SAMPLER_CASES = {
    "bottom_k-rng": lambda: make_sampler("bottom_k", k=12, rng=7),
    "weighted_distinct-coord": lambda: make_sampler(
        "weighted_distinct", k=12, salt=3
    ),
}


@st.composite
def ingestion_plans(draw):
    """A stream plus an arbitrary way of pushing it through the service.

    Returns ``(events, chunk_sizes, flush_after, batch_size)``:
    ``chunk_sizes`` partitions the events into ``ingest_many`` calls
    (singletons go through scalar ``ingest``), ``flush_after`` marks the
    chunk indices followed by an explicit barrier, and ``batch_size``
    (down to 1) sets the size trigger.
    """
    n = draw(st.integers(min_value=1, max_value=120))
    keys = draw(st.lists(
        st.integers(min_value=0, max_value=40), min_size=n, max_size=n
    ))
    # Weights are a function of the key (drawn as a per-key table):
    # duplicate occurrences of a key must agree, which is the
    # distinct-sketch ingestion contract (same rule as the engine
    # checkpoint-fuzz battery and perfbench's ingest_engine stream).
    weight_table = draw(st.lists(
        st.floats(min_value=0.1, max_value=8.0, allow_nan=False,
                  allow_infinity=False),
        min_size=41, max_size=41,
    ))
    weights = [weight_table[key] for key in keys]
    chunk_sizes = []
    left = n
    while left:
        size = draw(st.integers(min_value=1, max_value=min(left, 25)))
        chunk_sizes.append(size)
        left -= size
    flush_after = draw(st.sets(
        st.integers(min_value=0, max_value=len(chunk_sizes) - 1)
    ))
    batch_size = draw(st.integers(min_value=1, max_value=17))
    return list(zip(keys, weights)), chunk_sizes, flush_after, batch_size


def _scalar_reference(build, events):
    """The ground truth: one event at a time through ``update``."""
    sampler = build()
    for key, weight in events:
        sampler.update(key, weight)
    return signature(sampler)


async def _through_service(build, events, chunk_sizes, flush_after,
                           batch_size, max_latency):
    service = StreamService(
        build(), queue_size=64, batch_size=batch_size,
        max_latency=max_latency,
    )
    await service.start()
    lo = 0
    for index, size in enumerate(chunk_sizes):
        chunk = events[lo:lo + size]
        lo += size
        if size == 1:  # scalar surface
            await service.ingest(chunk[0][0], chunk[0][1])
        else:
            await service.ingest_many(
                [key for key, _ in chunk],
                weights=[weight for _, weight in chunk],
            )
        if index in flush_after:
            await service.flush()
    await service.flush()
    state = signature(service._sampler)
    await service.stop()
    assert service.events_applied == len(events)
    return state


@pytest.mark.parametrize("case", sorted(SAMPLER_CASES), ids=str)
@given(plan=ingestion_plans())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_flush_interleaving_matches_the_scalar_pass(case, plan):
    build = SAMPLER_CASES[case]
    events, chunk_sizes, flush_after, batch_size = plan
    reference = _scalar_reference(build, events)
    # A generous deadline: only explicit barriers and size triggers fire.
    state = run_async(_through_service(
        build, events, chunk_sizes, flush_after, batch_size, max_latency=30.0
    ))
    assert state == reference


@given(plan=ingestion_plans())
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_deadline_driven_flushes_match_the_scalar_pass(plan):
    """With a near-zero latency bound, flush boundaries are timer-driven
    and nondeterministic — and must still not matter."""
    build = SAMPLER_CASES["bottom_k-rng"]
    events, chunk_sizes, flush_after, batch_size = plan
    reference = _scalar_reference(build, events)
    state = run_async(_through_service(
        build, events, chunk_sizes, flush_after, batch_size,
        max_latency=0.0005,
    ))
    assert state == reference


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                   max_size=12),
    batch_size=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=50, deadline=None)
def test_microbatcher_merge_preserves_event_order(sizes, batch_size):
    """The synchronous merge: drained columns are the admitted events,
    in admission order, for any chunk/threshold mix."""
    batcher = MicroBatcher(batch_size=batch_size, max_latency=1.0)
    expected_keys, expected_weights = [], []
    drained_keys, drained_weights = [], []
    counter = 0
    for size in sizes:
        keys = list(range(counter, counter + size))
        weights = [float(k % 5 + 1) for k in keys]
        counter += size
        expected_keys += keys
        expected_weights += weights
        batcher.add(chunk_of(keys, weights), now=0.0)
        if batcher.size_due():
            columns, n = batcher.drain()
            assert n == len(columns["keys"])
            drained_keys += list(columns["keys"])
            drained_weights += list(columns["weights"])
    if len(batcher):
        columns, _ = batcher.drain()
        drained_keys += list(columns["keys"])
        drained_weights += list(columns["weights"])
    assert drained_keys == expected_keys
    assert drained_weights == expected_weights


def test_microbatcher_signature_mismatch_is_refused():
    batcher = MicroBatcher(batch_size=10, max_latency=1.0)
    batcher.add(chunk_of([1, 2], [1.0, 2.0]), now=0.0)
    assert not batcher.accepts(chunk_of([3]))  # no weights column
    with pytest.raises(ValueError, match="signature"):
        batcher.add(chunk_of([3]), now=0.0)
    batcher.drain()
    batcher.add(chunk_of([3]), now=0.0)  # fine after the drain

@pytest.mark.parametrize("name, params", [
    ("bottom_k", {"k": 8, "rng": 3}),
    ("weighted_distinct", {"k": 8, "salt": 3}),
    ("kmv", {"k": 8, "salt": 3}),
], ids=["bottom_k", "weighted_distinct", "kmv"])
@pytest.mark.parametrize("later", [np.float64, np.uint64, np.str_],
                         ids=["float64", "uint64", "str"])
def test_key_dtype_change_drains_instead_of_promoting(name, params, later):
    """An int64 block followed by a float64, uint64 or str block before
    one flush must reach the sampler as two blocks, exactly as a bare
    sampler given the same two ``update_many`` calls: concatenating
    them would promote every key of the flush (``1`` -> ``1.0`` or
    ``'1'``)."""
    first = np.arange(1, 41, dtype=np.int64)
    second = np.arange(30, 70).astype(later)
    bare = make_sampler(name, **params)
    bare.update_many(first)
    bare.update_many(second)

    async def through_service():
        service = StreamService(make_sampler(name, **params),
                                batch_size=1000, max_latency=30.0)
        await service.start()
        await service.ingest_many(first)
        await service.ingest_many(second)
        await service.flush()
        await service.stop()
        return service

    service = run_async(through_service())
    assert signature(service.sampler) == signature(bare)
    assert service.metrics.batches_applied == 2


def test_microbatcher_keeps_list_keys_apart_from_arrays():
    """A list block never joins an array batch (or vice versa): numpy
    would coerce the list — tuple keys into extra array dimensions."""
    batcher = MicroBatcher(batch_size=10, max_latency=1.0)
    batcher.add(chunk_of(np.array([6.25])), now=0.0)
    assert not batcher.accepts(chunk_of([(25, 1)]))
    assert not batcher.accepts(chunk_of(np.array([7], dtype=np.int64)))
    assert batcher.accepts(chunk_of(np.array([7.5])))
