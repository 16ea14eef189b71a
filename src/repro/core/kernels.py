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
* :func:`key_codes` — the one factorization behind the **chunked scan**
  of the adaptive top-k and multi-stratified samplers: any key batch
  becomes small integer codes, two keys sharing a code exactly when a
  dict (the samplers' scalar state) treats them as one key.  A numpy flag
  column indexed by code then replaces per-item dict lookups, so one
  vectorized mask scan per chunk finds the *events* (occurrences of
  untracked keys) and everything between them is bulk work — counter
  runs deferred into one ``bincount``/``unique`` span materialized
  exactly at the recomputation/compaction boundaries the scalar loop
  would hit.  :func:`code_lookup` maps a table's own keys (tracked at
  batch start, discarded or compacted mid-batch) back to codes.
* :func:`int_key_array` — the gate of the identity codes: a bounded
  non-negative integer array is its own code array.  Space-Saving and
  Misra–Gries scan such arrays directly and take the scalar loop
  otherwise.

Every kernel is deliberately *state-free*: samplers own their state and
call kernels with plain arrays, which keeps the equivalence argument local
to each ``update_many`` implementation.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "bottomk_candidates",
    "smallest_distinct",
    "merge_into_sorted",
    "DrawBuffer",
    "categorical_draw",
    "varopt_tau",
    "key_codes",
    "code_lookup",
    "int_key_array",
]

#: Largest key value (exclusive) the dense int-key fast paths will allocate
#: flag/touch columns for: 4M keys = a few tens of MB of scratch.
INT_KEY_LIMIT = 1 << 22


def int_key_array(keys) -> np.ndarray | None:
    """The batch as a dense-indexable integer array, or None.

    The key-table sketches carry an O(n)-scan batch path that indexes
    numpy flag columns by key code; such an array is its own code array
    — valid only for 1-D non-negative integer key batches whose maximum
    stays under :data:`INT_KEY_LIMIT` (the scratch columns are allocated
    per value).  Anything else returns None.
    """
    if not isinstance(keys, np.ndarray):
        return None
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        return None
    if keys.size and (int(keys.min()) < 0 or int(keys.max()) >= INT_KEY_LIMIT):
        return None
    return keys


def key_codes(keys) -> tuple[np.ndarray, Sequence, list | None]:
    """Integer codes for a key batch: ``(codes, distinct, spelled)``.

    ``codes[i]`` is the code of the ``i``-th key and ``distinct[c]`` a key
    of code ``c`` (``len(distinct)`` codes in all).  Two keys share a code
    exactly when a dict treats them as one key — the scalar loop's notion
    — so NaNs stay apart and ``0.0`` meets ``-0.0``.

    * An integer array that passes :func:`int_key_array`, or a list of
      plain ``int`` that does once converted, is its own code array, and
      ``distinct`` is ``range(max + 1)``.
    * Any other 1-D integer array, or list of plain ``int`` within int64,
      is factorized by ``np.unique``; ``distinct`` holds its keys as
      Python ints.
    * Any other batch (strings, floats, bools, tuples, objects) is
      factorized by a dict over its ``.tolist()`` values (a list as
      given); ``distinct`` holds each code's first-seen key.

    ``spelled`` is None when every occurrence of code ``c`` *is* the key
    ``distinct[c]``.  After a dict factorization it is the batch's key
    list: equal keys can be spelled differently (``0.0`` and ``-0.0``,
    ``1`` and ``True``), and the scalar loop stores — and hashes — the
    spelling of the occurrence it acts on.
    """
    if not isinstance(keys, np.ndarray):
        keys = keys if isinstance(keys, list) else list(keys)
        if keys and set(map(type, keys)) == {int}:
            try:
                keys = np.fromiter(keys, dtype=np.int64, count=len(keys))
            except OverflowError:
                pass  # beyond int64: factorized as Python ints below
    if (isinstance(keys, np.ndarray) and keys.ndim == 1
            and keys.dtype.kind in "iu"):
        if int_key_array(keys) is not None:
            return keys, range(int(keys.max()) + 1 if keys.size else 0), None
        uniq, codes = np.unique(keys, return_inverse=True)
        return codes, uniq.tolist(), None
    values = keys.tolist() if isinstance(keys, np.ndarray) else keys
    index = dict.fromkeys(values)
    for code, key in enumerate(index):
        index[key] = code
    codes = np.fromiter(
        map(index.__getitem__, values), dtype=np.intp, count=len(values)
    )
    return codes, list(index), values


def code_lookup(distinct: Sequence) -> Callable[[Iterable], list[int]]:
    """``lookup(keys)``: the codes :func:`key_codes` gave those of ``keys``
    that occur in its batch, under the same dict equality.

    Built once per batch from its ``distinct``; the key-table samplers
    pass their table's keys at batch start and the keys they drop
    mid-batch.  Identity codes need no index: a key equal to the int
    ``c`` hashes like ``c``, and ``hash(c) == c`` for ``0 <= c < 2**61 - 1``.
    """
    if isinstance(distinct, range):
        size = len(distinct)

        def lookup(keys: Iterable) -> list[int]:
            found = []
            for key in keys:
                code = hash(key)
                if 0 <= code < size and key == code:
                    found.append(code)
            return found

        return lookup
    index = dict(zip(distinct, range(len(distinct))))
    return lambda keys: [c for c in map(index.get, keys) if c is not None]


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
