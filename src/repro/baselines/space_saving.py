"""Space-Saving and Unbiased Space-Saving baselines.

* :class:`SpaceSavingSketch` — Metwally et al.'s deterministic frequent-item
  sketch (cited as [22]): fixed capacity ``m``; a new key evicts the
  minimum-count entry and inherits ``min_count + 1`` with error bound
  ``min_count``.
* :class:`UnbiasedSpaceSavingSketch` — Ting (2018), cited as [30]: identical
  except the *label* of the minimum counter is handed to the new key only
  with probability ``1 / (min_count + 1)``.  This makes every counter an
  unbiased estimate of its labelled key's count, enabling the disaggregated
  subset sums that the paper's adaptive top-k sampler (Section 3.3)
  generalizes with thresholds.

Both serve as context baselines for Figure 3 and as comparison points in
the top-k tests.

Batch ingestion
---------------
The min-counter heap is *content addressed*: entries are
``(count, insertion_position, key)`` and an entry is current iff its count
matches the live counter (a key's count strictly increases while tracked,
and — because the minimum counter value never decreases — an evicted key
re-enters at a strictly higher count, so a count value is never revisited).
Eviction victims are therefore a pure function of the counter state —
smallest count, ties broken by earliest insertion — which frees the batch
path from replicating the scalar loop's per-increment heap pushes: it
bulk-counts runs of tracked keys at C speed (``Counter.update``) and lets
:meth:`_CounterStore.pop_min` lazily re-push a key's current entry whenever
it pops a stale one.  Equivalence with scalar ingestion is exact, including
eviction tie-breaks.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import rng_from_state, rng_to_state
from ..core.kernels import DrawBuffer, KeyScan, count_into
from ..core.priorities import Uniform01Priority
from ..core.rng import as_generator
from ..core.sample import Sample

__all__ = ["SpaceSavingSketch", "UnbiasedSpaceSavingSketch"]

class _CounterStore:
    """Capacity-bounded counter map with O(log m) min-counter access.

    Heap entries are ``(count, insertion_position, key)``: ties in count
    evict the earliest-inserted key (any min counter is a valid Space-Saving
    victim; insertion order is the batch-friendly deterministic choice).  A
    key's count strictly increases while tracked and can never return to a
    previously-held value after an eviction (the min counter is monotone),
    so an entry is current iff its count matches ``counts[key]`` —
    ``(count, insertion)`` pairs are unique and the key element of the
    tuple is never compared.  That element is the label as inserted
    (``labels`` maps any equal spelling to it), so an occurrence spelled
    ``1`` bumps the counter of ``1.0`` without respelling its label.

    Scalar ingestion pushes one entry per touch and lets ``pop_min`` skip
    stale ones (the textbook lazy heap).  Batch ingestion bulk-updates
    ``counts`` without pushing and calls ``pop_min(repair=True)``, which
    re-pushes the current entry of any live key it pops stale; at batch end
    every live key the batch bulk-counted gets a fresh current entry, so
    plain ``pop_min`` stays correct afterwards.  The heap is compacted once
    the stale fraction grows; compaction preserves exactly the current
    entries, so it never changes eviction order.
    """

    __slots__ = ("capacity", "counts", "errors", "ins", "labels", "_heap")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.counts: Counter = Counter()
        self.errors: dict[object, int] = {}
        self.ins: dict[object, int] = {}  # key -> insertion position
        self.labels: dict[object, object] = {}  # key -> label as inserted
        self._heap: list[tuple[int, int, object]] = []

    def increment(self, key: object, by: int = 1) -> None:
        """Bump a tracked key's counter (lazy-heap entry appended)."""
        self.counts[key] += by
        heapq.heappush(
            self._heap, (self.counts[key], self.ins[key], self.labels[key])
        )
        if len(self._heap) > 8 * self.capacity + 64:
            self.compact()

    def insert(self, key: object, count: int, error: int, position: int) -> None:
        """Track a key with the given counter, error bound and tiebreak."""
        self.counts[key] = count
        self.errors[key] = error
        self.ins[key] = position
        self.labels[key] = key
        heapq.heappush(self._heap, (count, position, key))

    def pop_min(self, repair: bool = False):
        """Remove and return the (key, count) minimizing (count, insertion).

        ``repair=True`` is the batch path's lazy-repair mode: popping a
        stale entry of a live key re-pushes its current entry (bulk count
        updates do not push) instead of discarding it.
        """
        heap = self._heap
        while heap:
            count, _, key = heapq.heappop(heap)
            current = self.counts.get(key)
            if current == count:
                del self.counts[key]
                del self.ins[key]
                del self.labels[key]
                self.errors.pop(key, None)
                return key, count
            if repair and current is not None:
                heapq.heappush(heap, (current, self.ins[key], key))
        raise KeyError("store is empty")

    def compact(self) -> None:
        """Drop stale heap entries (one current entry per live key)."""
        self._heap = [
            (count, self.ins[key], key) for key, count in self.counts.items()
        ]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self.counts)


def _batch_ingest(sketch, keys, handover_draw=None) -> list:
    """Shared exact batch driver for the two Space-Saving variants.

    Occurrences of *tracked* keys commute between evictions, so the runs
    between the events of a :class:`~repro.core.kernels.KeyScan` are
    bulk-added at C speed (``Counter``'s ``_count_elements``) with no heap
    pushes, while the events (occurrences of untracked keys) replay in
    stream order with the store's pop/insert logic inlined; an evicted
    key's later occurrences become events again.

    ``handover_draw`` is None for deterministic Space-Saving; the unbiased
    variant passes its uniform source and relabels the min counter with
    probability ``1 / new_count``.

    Returns the keys left for the caller's scalar loop: on a near-distinct
    stream (a later chunk still mostly untracked keys) the event
    machinery cannot beat the scalar loop, so the scan stops there and
    the driver restores the heap invariant first.
    """
    store = sketch._store
    counts = store.counts
    errors = store.errors
    ins = store.ins
    labels = store.labels
    heap = store._heap
    capacity = sketch.capacity
    base = sketch.items_seen  # stream position of batch item i is base + i + 1
    scan = KeyScan(keys, counts)
    if scan.n == 0:
        return []
    tracked, values = scan.tracked, scan.values

    heappush, heappop = heapq.heappush, heapq.heappop
    counts_get = counts.get
    run = 0  # first position of the run not yet counted
    for i, code in scan.events(bail=True):
        if i > run:
            count_into(counts, values[run:i])
        run = i + 1
        key = values[i]
        p1 = base + i + 1
        if len(counts) < capacity:
            counts[key] = 1
            errors[key] = 0
            ins[key] = p1
            labels[key] = key
            heappush(heap, (1, p1, key))
            tracked[code] = True
            continue
        # Inlined pop_min(repair=True): pop the current min entry, lazily
        # re-pushing current entries of bulk-counted keys.
        while True:
            min_count, _, min_key = heappop(heap)
            current = counts_get(min_key)
            if current == min_count:
                break
            if current is not None:
                heappush(heap, (current, ins[min_key], min_key))
        new_count = min_count + 1
        # Both outcomes re-insert a label, so the popped one leaves the
        # dicts first: a relabelled min counter moves to their end, as the
        # scalar pop_min + insert moves it.
        del counts[min_key]
        del ins[min_key]
        del labels[min_key]
        errors.pop(min_key, None)
        if handover_draw is None or handover_draw() < 1.0 / new_count:
            # Deterministic (or won handover): the newcomer replaces it.
            counts[key] = new_count
            errors[key] = min_count
            ins[key] = p1
            labels[key] = key
            heappush(heap, (new_count, p1, key))
            tracked[code] = True
            scan.untrack((min_key,), i)
        else:
            # Lost handover: the min counter keeps its label.
            counts[min_key] = new_count
            errors[min_key] = min_count
            ins[min_key] = p1
            labels[min_key] = min_key
            heappush(heap, (new_count, p1, min_key))
    stop = scan.stop
    if stop > run:
        count_into(counts, values[run:stop])

    # Restore the boundary invariant — every live key has a current heap
    # entry — for the keys bulk counting touched (it pushed none): the
    # batch's live keys when the batch is the smaller side, else all.
    if scan.n < len(counts):
        for key in counts.keys() & set(values):
            heappush(heap, (counts[key], ins[key], labels[key]))
    else:
        for key, count in counts.items():
            heappush(heap, (count, ins[key], key))
    if len(heap) > 8 * capacity + 64:
        store.compact()
    sketch.items_seen += stop
    return scan.rest()


@register_sampler("space_saving")
class SpaceSavingSketch(StreamSampler):
    """Deterministic Space-Saving: guaranteed error <= n / m."""

    default_estimate_kind = "count"
    _DETERMINISTIC_REASON = (
        "deterministic upper-bound counter (biased by design); no "
        "inclusion probabilities for HT estimation"
    )
    query_capabilities = query_support(
        sum=_DETERMINISTIC_REASON,
        count=_DETERMINISTIC_REASON,
        mean=_DETERMINISTIC_REASON,
        distinct=_DETERMINISTIC_REASON,
        topk=_DETERMINISTIC_REASON,
        quantile=_DETERMINISTIC_REASON,
    )
    query_variance = _DETERMINISTIC_REASON

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._store = _CounterStore(capacity)
        self.items_seen = 0

    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> None:
        """Count one occurrence, evicting the min counter when full."""
        self.items_seen += 1
        store = self._store
        if key in store.counts:
            store.increment(key)
            return
        if len(store) < self.capacity:
            store.insert(key, 1, 0, self.items_seen)
            return
        _, min_count = store.pop_min()
        store.insert(key, min_count + 1, min_count, self.items_seen)

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update` (see :func:`_batch_ingest`)."""
        for key in _batch_ingest(self, keys):
            self.update(key)

    def __len__(self) -> int:
        return len(self._store)

    def estimate_count(self, key: object) -> int:
        """Upper-bound count estimate (0 for untracked keys)."""
        return self._store.counts.get(key, 0)

    def guaranteed(self, key: object) -> int:
        """Lower bound: estimate minus the inherited error."""
        if key not in self._store.counts:
            return 0
        return self._store.counts[key] - self._store.errors.get(key, 0)

    def top(self, j: int) -> list[tuple[object, int]]:
        """The ``j`` keys with the largest counters."""
        ranked = sorted(
            self._store.counts.items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:j]

    def sample(self) -> Sample:
        """Tracked keys with counter values (deterministic, no thresholds)."""
        return _counter_sample(self._store, self.items_seen)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"capacity": self.capacity}

    def _get_state(self) -> dict:
        return _store_state(self._store, self.items_seen)

    def _set_state(self, state: dict) -> None:
        self._store = _store_from_state(state, self.capacity)
        self.items_seen = int(state["items_seen"])


@register_sampler("unbiased_space_saving")
class UnbiasedSpaceSavingSketch(StreamSampler):
    """Unbiased Space-Saving (Ting 2018): probabilistic label handover.

    On an untracked key the minimum counter is incremented and relabelled
    to the new key with probability ``1 / new_count`` — making each counter
    value an unbiased estimator of its label's true count and supporting
    unbiased subset sums over label predicates.
    """

    default_estimate_kind = "count"
    #: Counter values are unbiased per-label count estimates on
    #: probability-1 rows: sums over labels are unbiased (Ting 2018), but
    #: nothing probability-weighted survives.
    query_capabilities = query_support(
        "sum", "topk",
        count=(
            "rows carry probability-1 per-label estimates; sum(1/p) is "
            "just the counter-table size"
        ),
        mean=(
            "per-label count estimates expose no inclusion probabilities "
            "for ratio estimation"
        ),
        distinct=(
            "retains only the tracked labels; not a distinct-count sketch"
        ),
        quantile=(
            "per-label count estimates expose no inclusion probabilities "
            "for CDF estimation"
        ),
    )
    query_variance = (
        "counter values are unbiased estimates on probability-1 rows; the "
        "HT plug-in variance is identically zero"
    )

    def __init__(self, capacity: int, rng=None):
        self.capacity = int(capacity)
        self._store = _CounterStore(capacity)
        self.rng = as_generator(rng if rng is not None else 0)
        self.items_seen = 0

    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> None:
        """Count one occurrence with probabilistic label handover."""
        self.items_seen += 1
        store = self._store
        if key in store.counts:
            store.increment(key)
            return
        if len(store) < self.capacity:
            store.insert(key, 1, 0, self.items_seen)
            return
        min_key, min_count = store.pop_min()
        new_count = min_count + 1
        if self.rng.random() < 1.0 / new_count:
            store.insert(key, new_count, min_count, self.items_seen)
        else:
            store.insert(min_key, new_count, min_count, self.items_seen)

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update` (see :func:`_batch_ingest`).

        Handover draws are block-buffered with rewind
        (:class:`repro.core.kernels.DrawBuffer`), so the generator stream —
        and therefore every label decision — matches scalar ingestion.
        """
        with DrawBuffer(self.rng, expected=len(keys)) as draw:
            rest = _batch_ingest(self, keys, handover_draw=draw)
        # Any scalar remainder draws from the generator directly, after the
        # DrawBuffer context has rewound its unused block.
        for key in rest:
            self.update(key)

    def __len__(self) -> int:
        return len(self._store)

    def estimate_count(self, key: object) -> int:
        """Unbiased count estimate of ``key`` (0 when untracked)."""
        return self._store.counts.get(key, 0)

    def estimate_subset_sum(self, predicate: Callable[[object], bool]) -> float:
        """Unbiased estimate of total occurrences of keys in a subset."""
        return float(
            sum(c for key, c in self._store.counts.items() if predicate(key))
        )

    def top(self, j: int) -> list[tuple[object, int]]:
        """The ``j`` keys with the largest counters."""
        ranked = sorted(
            self._store.counts.items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:j]

    def sample(self) -> Sample:
        """Tracked keys with counter values (each an unbiased estimate)."""
        return _counter_sample(self._store, self.items_seen)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"capacity": self.capacity}

    def _get_state(self) -> dict:
        state = _store_state(self._store, self.items_seen)
        state["rng"] = rng_to_state(self.rng)
        return state

    def _set_state(self, state: dict) -> None:
        self._store = _store_from_state(state, self.capacity)
        self.items_seen = int(state["items_seen"])
        self.rng = rng_from_state(state["rng"])


def _counter_sample(store: _CounterStore, items_seen: int) -> Sample:
    """Counter-map contents as a deterministic Sample (thresholds +inf)."""
    keys = list(store.counts)
    return Sample(
        keys=keys,
        values=np.array([store.counts[k] for k in keys], dtype=float),
        weights=np.ones(len(keys)),
        priorities=np.zeros(len(keys)),
        thresholds=np.full(len(keys), np.inf),
        family=Uniform01Priority(),
        population_size=items_seen,
    )


def _store_state(store: _CounterStore, items_seen: int) -> dict:
    """Serializable view of a counter store."""
    return {
        "counts": list(store.counts.items()),
        "errors": list(store.errors.items()),
        "items_seen": items_seen,
    }


def _store_from_state(state: dict, capacity: int) -> _CounterStore:
    """Rebuild a counter store (heap included) from :func:`_store_state`.

    Insertion positions are not serialized, but ``counts`` lists its keys
    in insertion order (a dict appends new keys and drops evicted ones),
    so re-inserting them in stored order at positions ``1..m`` keeps every
    eviction tie-break of an uninterrupted run: later insertions take
    stream positions (``items_seen``), which exceed ``m``.
    """
    store = _CounterStore(capacity)
    errors = dict(state["errors"])
    for position, (key, count) in enumerate(state["counts"]):
        store.insert(key, count, errors.get(key, 0), position + 1)
    return store
