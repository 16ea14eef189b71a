"""Shared numpy batch kernels behind every sampler's ``update_many``.

The :class:`repro.api.StreamSampler` contract promises that batch ingestion
is *seed-for-seed equivalent* to the scalar ``update`` loop: feeding the
same stream through either path under the same seed must yield the same
sample.  That constraint rules out naive "vectorize everything" rewrites —
adaptive thresholds move *within* a batch, RNG draws may be conditional on
sampler state, and several samplers keep order-sensitive auxiliary state.
This module collects the reusable building blocks that make exact batch
kernels practical:

* :func:`bottomk_candidates` — the core bottom-k pruning step: of a batch
  of priorities, only those below the current threshold, and of *those*
  only the ``k + 1`` smallest, can possibly enter a bottom-k sketch.  One
  ``np.partition`` replaces ``n`` heap operations.  Batch order is kept
  for the tie rule of :class:`repro.core.bottomk_store.BottomKStore`.
* :func:`smallest_distinct` — the distinct-sketch variant: the ``m``
  smallest *unique* values of a hash batch (KMV/Theta ingestion).
* :func:`merge_into_sorted` — bulk merge of a pre-sorted batch into a
  sorted column set, replacing per-item ``bisect.insort`` (the budget and
  variance-target samplers keep their state in ascending priority order).
* :class:`DrawBuffer` — block-buffered ``rng.random()`` draws that consume
  the *exact* same generator stream as per-item scalar draws, even when the
  number of draws is data-dependent (PCG64's ``advance`` rewinds the unused
  tail; generators without ``advance`` transparently fall back to scalar
  draws).
* :func:`categorical_draw` — one weighted draw replicating
  ``Generator.choice(n, p=...)`` bit-for-bit with a single uniform
  (cumsum + searchsorted), so eviction sampling can stay equivalent while
  dropping ``choice``'s per-call overhead.
* :func:`varopt_tau` — vectorized solve of the VarOpt threshold equation
  ``sum_i min(1, w_i / tau) = k`` over ``k + 1`` weights.
* :func:`counter_segments` — segment boundaries for "threshold-run" loops:
  samplers whose threshold can only move at periodic counter values (every
  64th item, every 4096 updates, ...) process whole segments vectorized and
  touch python only at the boundaries.
* :func:`group_positions` — ``np.unique``-based dispatch of a batch into
  per-group position lists (stratified / grouped samplers).
* :func:`int_key_array` — the gate of the **chunked-scan** idiom used by
  the key-table sketches (adaptive top-k, Space-Saving, Misra–Gries,
  multi-stratified): for dense integer key batches, a numpy flag column
  indexed directly by key value replaces per-item hash lookups, so one
  vectorized mask scan per chunk finds the *events* (occurrences of
  untracked keys) and everything between them is bulk work — counter
  runs via ``Counter``'s C core or a deferred ``bincount``/``unique``
  span materialized exactly at the recomputation/purge boundaries the
  scalar loop would hit.

Every kernel is deliberately *state-free*: samplers own their state and
call kernels with plain arrays, which keeps the equivalence argument local
to each ``update_many`` implementation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bottomk_candidates",
    "smallest_distinct",
    "merge_into_sorted",
    "DrawBuffer",
    "categorical_draw",
    "varopt_tau",
    "counter_segments",
    "group_positions",
    "KeyedBatch",
    "int_key_array",
]

#: Largest key value (exclusive) the dense int-key fast paths will allocate
#: flag/touch columns for: 4M keys = a few tens of MB of scratch.
INT_KEY_LIMIT = 1 << 22


def int_key_array(keys) -> np.ndarray | None:
    """The batch as a dense-indexable integer array, or None.

    The key-table sketches carry an O(n)-scan batch path that indexes
    numpy flag columns directly by key value — valid only for 1-D
    non-negative integer key batches whose maximum stays under
    :data:`INT_KEY_LIMIT` (the scratch columns are allocated per value).
    Anything else returns None and the caller falls back to its generic
    (or scalar) path.
    """
    if not isinstance(keys, np.ndarray):
        return None
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        return None
    if keys.size and (int(keys.min()) < 0 or int(keys.max()) >= INT_KEY_LIMIT):
        return None
    return keys


def bottomk_candidates(
    priorities: np.ndarray, k: int, threshold: float
) -> np.ndarray:
    """Indices, in batch order, of the only items that can enter a bottom-k.

    An item enters a bottom-k sketch only if its priority is below the
    current threshold, and among the batch itself only the ``k + 1``
    smallest can survive to the end (the sketch stores ``k + 1`` entries).
    Ties at that cut keep the earliest items, as a scalar loop rejecting
    ``priority >= threshold`` does, so the candidates reproduce its state.
    """
    if np.isfinite(threshold):
        cand = np.flatnonzero(priorities < threshold)
    else:
        cand = np.arange(priorities.size)
    if cand.size > k + 1:
        pr = priorities[cand]
        cut = np.partition(pr, k)[k]
        keep = pr < cut
        ties = np.flatnonzero(pr == cut)
        keep[ties[: k + 1 - np.count_nonzero(keep)]] = True
        cand = cand[keep]
    return cand


def smallest_distinct(values: np.ndarray, m: int) -> np.ndarray:
    """The ``m`` smallest distinct values of a batch, ascending.

    Distinct-counting sketches (KMV, Theta) are insensitive to duplicate
    hashes, and only the smallest few can change the sketch; this is the
    shared pruning step of their batch paths.
    """
    return np.unique(values)[:m]


def merge_into_sorted(
    sorted_priorities: np.ndarray,
    new_priorities: np.ndarray,
    *columns: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Merge a batch into ascending-priority parallel columns.

    ``sorted_priorities`` is the existing ascending key column; each entry
    of ``columns`` is a pair ``(existing, new)`` flattened into the varargs
    as ``existing_0, new_0, existing_1, new_1, ...``.  Returns the merged
    priority column followed by each merged extra column.  Equivalent to
    repeated ``bisect.insort`` (``bisect_left`` semantics) but one
    ``O((s + m) log m)`` numpy pass instead of ``m`` list inserts.
    """
    if len(columns) % 2:
        raise ValueError("columns must come in (existing, new) pairs")
    order = np.argsort(new_priorities, kind="stable")
    new_sorted = new_priorities[order]
    # Position of each new element in the merged array: its index among the
    # existing elements (bisect_left) plus its rank within the batch.
    base = np.searchsorted(sorted_priorities, new_sorted, side="left")
    insert_at = base + np.arange(new_sorted.size)
    total = sorted_priorities.size + new_sorted.size
    out_pr = np.empty(total, dtype=sorted_priorities.dtype)
    mask = np.zeros(total, dtype=bool)
    mask[insert_at] = True
    out_pr[mask] = new_sorted
    out_pr[~mask] = sorted_priorities
    merged = [out_pr]
    for i in range(0, len(columns), 2):
        existing, new = columns[i], np.asarray(columns[i + 1])[order]
        out = np.empty(total, dtype=existing.dtype)
        out[mask] = new
        out[~mask] = existing
        merged.append(out)
    return tuple(merged)


class DrawBuffer:
    """Block-buffered uniforms consuming the generator stream exactly.

    Samplers that draw ``rng.random()`` only for *some* items (new keys,
    overflow events) cannot pre-draw a fixed block without desynchronizing
    the generator from the scalar path.  ``DrawBuffer`` pre-draws blocks
    anyway and, on :meth:`close`, rewinds the generator past the unused
    tail with ``bit_generator.advance`` — PCG64 (numpy's default) advances
    one state per ``random()`` double, so the net consumption equals the
    scalar loop's.  Generators without ``advance`` skip buffering entirely
    and fall back to per-call scalar draws, which is always exact.

    Use as a context manager so the rewind cannot be skipped::

        with DrawBuffer(rng, expected=n) as draws:
            ...
            u = draws()          # one Uniform(0, 1), exactly like rng.random()
    """

    def __init__(self, rng: np.random.Generator, expected: int, block: int = 4096):
        self._rng = rng
        self._buffered = hasattr(rng.bit_generator, "advance")
        self._block = max(1, min(int(expected) if expected > 0 else 1, block))
        self._buf: np.ndarray | None = None
        self._pos = 0

    def __call__(self) -> float:
        if not self._buffered:
            return float(self._rng.random())
        if self._buf is None or self._pos >= self._buf.size:
            self._buf = self._rng.random(self._block)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return float(u)

    def close(self) -> None:
        """Rewind the generator past any unused buffered draws."""
        if self._buffered and self._buf is not None:
            unused = self._buf.size - self._pos
            if unused:
                self._rng.bit_generator.advance(-unused)
            self._buf = None
            self._pos = 0

    def __enter__(self) -> "DrawBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def categorical_draw(rng: np.random.Generator, probs: np.ndarray) -> int:
    """One index drawn with the given probabilities.

    Bit-for-bit replica of ``rng.choice(len(probs), p=probs)`` (cumsum,
    renormalize, one uniform, right-searchsorted) at a fraction of the
    per-call overhead — ``Generator.choice`` revalidates and boxes its
    arguments on every call, which dominates small-``k`` eviction loops.
    """
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def varopt_tau(weights: np.ndarray) -> float:
    """Solve ``sum_i min(1, w_i / tau) = k`` for ``k + 1`` weights.

    Vectorized form of the VarOpt threshold equation: with the weights
    ascending and the ``t`` smallest "small" (``w <= tau``), the candidate
    is ``tau = (sum of t smallest) / (t - 1)``; the solution is the first
    ``t`` satisfying the bracket ``w_t <= tau < w_{t+1}``.
    """
    ws = np.sort(weights)
    n = ws.size
    prefix = np.cumsum(ws)
    t = np.arange(2, n + 1)
    taus = prefix[1:] / (t - 1)
    upper = np.append(ws[2:], np.inf)
    ok = (ws[1:] <= taus + 1e-12) & (taus < upper + 1e-12)
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        raise AssertionError("VarOpt threshold equation must have a solution")
    return float(taus[hits[0]])


def counter_segments(start: int, n: int, stride: int) -> list[tuple[int, int]]:
    """Split batch positions ``0..n`` at counter multiples of ``stride``.

    A sampler whose item counter sits at ``start`` and only acts when the
    counter is a multiple of ``stride`` can process each returned
    ``(begin, end)`` slice as one vectorized segment, running the periodic
    action exactly at every segment end that lands on a multiple.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    bounds = []
    begin = 0
    while begin < n:
        to_boundary = stride - (start + begin) % stride
        end = min(n, begin + to_boundary)
        bounds.append((begin, end))
        begin = end
    return bounds


class KeyedBatch:
    """Factorized occurrence index over a batch of keys.

    The key-table sketches (adaptive top-k, Space-Saving, Misra–Gries) are
    state machines whose transitions depend on whether each arriving key is
    currently *tracked*.  Their exact batch kernels split the stream into
    **events** (occurrences of untracked keys, which mutate the table and
    may consume randomness) and **runs of increments** (occurrences of
    tracked keys, which commute and can be counted in bulk).  ``KeyedBatch``
    provides the shared index: unique keys as python objects, the
    position-to-code mapping, and per-code occurrence lists for re-scheduling
    a key's remaining occurrences after it is evicted mid-batch.

    Uses one ``np.unique`` pass for homogeneous key arrays and falls back
    to a dict factorization for anything numpy cannot sort safely.
    """

    __slots__ = ("keys", "inv", "_order", "_starts")

    def __init__(self, keys: list):
        arr = None
        if isinstance(keys, np.ndarray):
            if keys.ndim == 1 and keys.dtype.kind in "iufSU":
                arr = keys
        elif all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in keys):
            arr = np.asarray(keys)
        if arr is not None:
            uniq, inv = np.unique(arr, return_inverse=True)
            self.keys = uniq.tolist()
            self.inv = np.asarray(inv)
        else:
            index: dict = {}
            codes = np.empty(len(keys), dtype=np.intp)
            for i, key in enumerate(keys):
                code = index.get(key)
                if code is None:
                    code = len(index)
                    index[key] = code
                codes[i] = code
            self.keys = list(index)
            self.inv = codes
        order = np.argsort(self.inv, kind="stable")
        counts = np.bincount(self.inv, minlength=len(self.keys))
        self._order = order
        self._starts = np.concatenate(([0], np.cumsum(counts)))

    def __len__(self) -> int:
        return len(self.keys)

    def occurrences(self, code: int) -> np.ndarray:
        """All batch positions of the given key code, ascending."""
        return self._order[self._starts[code]:self._starts[code + 1]]

    def next_occurrence_after(self, code: int, position: int) -> int:
        """First position of ``code`` strictly after ``position``, or -1."""
        occ = self.occurrences(code)
        j = int(np.searchsorted(occ, position, side="right"))
        return int(occ[j]) if j < occ.size else -1


def group_positions(labels) -> dict:
    """Batch positions per group label, preserving within-group order.

    ``np.unique``-based dispatch for stratified / grouped ingestion: one
    sort of the label column replaces a python dict lookup per item.  Falls
    back to a dict loop for label types numpy cannot sort (mixed types,
    tuples of unequal shape).
    """
    try:
        arr = np.asarray(labels)
        if arr.ndim != 1 or arr.dtype.kind == "O":
            raise TypeError
        uniques, inverse = np.unique(arr, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=uniques.size)
        splits = np.split(order, np.cumsum(counts)[:-1])
        return {uniques[i].item(): splits[i] for i in range(uniques.size)}
    except TypeError:
        out: dict = {}
        for i, label in enumerate(labels):
            out.setdefault(label, []).append(i)
        return {label: np.asarray(idx) for label, idx in out.items()}
