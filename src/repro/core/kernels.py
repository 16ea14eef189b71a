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
* :func:`key_codes` — the one factorization of a key batch into small
  integer codes, two keys sharing a code exactly when a dict (the
  key-table sketches' scalar state) treats them as one key.
* :class:`KeyScan` — the exact batch scan of the five key-table
  sketches (adaptive top-k, multi-stratified, FrequentItems and both
  Space-Saving variants), on those codes for every key type.  A numpy
  flag column indexed by code replaces per-item dict lookups, so one
  vectorized mask per chunk finds the *events* (occurrences of keys the
  table does not track) and everything between them is bulk work:
  counter runs deferred into one ``bincount``/``unique`` span, counted
  exactly at the purge/recomputation boundaries the scalar loop would
  hit.  The sketches keep only their per-event logic.

No kernel holds sampler state: samplers own their state and call kernels
with plain arrays and dicts (a :class:`KeyScan` or :class:`DrawBuffer`
lives for one batch), which keeps the equivalence argument local to each
``update_many`` implementation.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

import numpy as np

try:  # Counter.update's C core, without the method-wrapper overhead
    from _collections import _count_elements as count_into
except ImportError:  # pragma: no cover - non-CPython
    def count_into(mapping, iterable):
        """Add one to ``mapping[elem]`` for each element."""
        for elem in iterable:
            mapping[elem] = mapping.get(elem, 0) + 1

__all__ = [
    "bottomk_candidates",
    "smallest_distinct",
    "DrawBuffer",
    "categorical_draw",
    "varopt_tau",
    "key_codes",
    "KeyScan",
]

#: Largest key value (exclusive) that is its own code: the scan allocates
#: its flag columns per value, so 4M keys = a few MB of scratch.
INT_KEY_LIMIT = 1 << 22

#: Chunk length of :meth:`KeyScan.events`: bounds how stale a chunk's
#: event mask gets and how far an untracked key's occurrences are
#: rescanned.
SCAN_CHUNK = 4096

#: Sparse deferred spans up to this length are counted in Python, below
#: the per-call cost of ``np.unique``.
_SMALL_SPAN = 256


def key_codes(keys) -> tuple[np.ndarray, Sequence, list | None]:
    """Integer codes for a key batch: ``(codes, distinct, spelled)``.

    ``codes[i]`` is the code of the ``i``-th key and ``distinct[c]`` a key
    of code ``c`` (``len(distinct)`` codes in all).  Two keys share a code
    exactly when a dict treats them as one key — the scalar loop's notion
    — so NaNs stay apart and ``0.0`` meets ``-0.0``.

    * A 1-D integer array of non-negative keys under
      :data:`INT_KEY_LIMIT`, or a list of plain ``int`` that is one once
      converted, is its own code array, and ``distinct`` is
      ``range(max + 1)``.
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
        if not keys.size:
            return keys, range(0), None
        top = int(keys.max())
        if top < INT_KEY_LIMIT and int(keys.min()) >= 0:
            return keys.astype(np.intp, copy=False), range(top + 1), None
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


class KeyScan:
    """The exact batch scan of a key-table sketch over one key batch.

    A key-table sketch (adaptive top-k, multi-stratified, FrequentItems,
    Space-Saving) keeps a dict of tracked keys.  An occurrence of a
    tracked key is bulk work — a counter increment that commutes until
    the table next drops keys, or a no-op — while an occurrence of an
    untracked key is an *event* that the sketch replays in stream order.
    The scan holds what every such batch path derives:

    * ``codes``, ``distinct``, ``spelled`` — the :func:`key_codes`
      factorization, for every key type;
    * ``tracked`` — a flag per code, set for the keys the table holds at
      batch start, found from the smaller side: the table's keys looked
      up among the batch's codes, or the batch's keys looked up in the
      table.  The sketch sets a flag when it inserts a key and clears it
      through :meth:`untrack` when it drops one;
    * :meth:`events` — the walk over the events, chunk by chunk;
    * :meth:`counts` — the deferred span counts of the tracked keys'
      occurrences, less the events' own (recorded in ``skipped``).

    ``table`` is read only here, for the starting flags.  ``weights``
    (an int64 column) makes the span counts sum weights.
    """

    def __init__(self, keys, table, weights: np.ndarray | None = None):
        if not isinstance(keys, (list, np.ndarray)):
            keys = list(keys)
        self.keys = keys
        self.codes, self.distinct, self.spelled = key_codes(keys)
        self.n = n = self.codes.size
        self.weights = weights
        #: Events whose occurrence the sketch applied itself: code ->
        #: weight to leave out of the next :meth:`counts` span.
        self.skipped: dict[int, int] = {}
        #: Where :meth:`events` stopped: ``n``, or the start of the chunk
        #: it handed back to the scalar loop.
        self.stop = n
        self._flushed = 0
        self._index: dict | None = None
        self._values: list | None = None
        size = len(self.distinct)
        self.tracked = tracked = np.zeros(size, dtype=bool)
        if len(table) <= min(n, size):
            tracked[self.codes_of(table)] = True
        elif isinstance(self.distinct, range) and n < size:
            # Identity codes are the keys: look each occurrence up.
            tracked[self.codes] = np.fromiter(
                map(table.__contains__, self.codes.tolist()),
                dtype=bool, count=n,
            )
        else:
            tracked[:] = np.fromiter(
                map(table.__contains__, self.distinct), dtype=bool, count=size
            )

    def rest(self) -> list:
        """The keys from ``stop`` on, which the sketch's scalar loop takes."""
        return self.values[self.stop:] if self.stop < self.n else []

    @property
    def values(self) -> list:
        """The batch as a list of keys, each in its occurrence's spelling."""
        if self._values is None:
            if self.spelled is not None:
                self._values = self.spelled
            elif isinstance(self.keys, list):
                self._values = self.keys
            else:
                self._values = self.keys.tolist()
        return self._values

    def present(self) -> np.ndarray:
        """The codes that occur in the batch, ascending.  Only identity
        codes can skip values; every other code occurs."""
        size = len(self.distinct)
        if not isinstance(self.distinct, range):
            return np.arange(size)
        if 16 * self.n < size:
            return np.unique(self.codes)
        return np.flatnonzero(np.bincount(self.codes))

    def codes_of(self, keys: Iterable) -> list[int]:
        """The codes of those ``keys`` that occur in the batch, under the
        dict equality of :func:`key_codes`.

        Identity codes need no index: a key equal to the int ``c`` hashes
        like ``c``, and ``hash(c) == c`` for ``0 <= c < 2**61 - 1`` (a
        code in range may name a key the batch skipped).
        """
        distinct = self.distinct
        if isinstance(distinct, range):
            size = len(distinct)
            found = []
            for key in keys:
                code = hash(key)
                if 0 <= code < size and key == code:
                    found.append(code)
            return found
        index = self._index
        if index is None:
            index = self._index = dict(zip(distinct, range(len(distinct))))
        return [code for code in map(index.get, keys) if code is not None]

    def events(self, bail: bool = False) -> Iterator[tuple[int, int]]:
        """Yield ``(i, code)`` for each occurrence of an untracked key, in
        stream order.

        Each chunk's untracked positions come from one mask of the flags;
        a position whose key the sketch inserted since is skipped, and
        :meth:`untrack` adds the later occurrences of keys the sketch
        drops.  With ``bail``, a chunk after the first in which events
        are the majority ends the walk: the event machinery cannot beat
        the scalar loop there, so ``stop`` marks where the sketch's
        scalar loop takes over.
        """
        codes, tracked, n = self.codes, self.tracked, self.n
        heappop = heapq.heappop
        base = 0
        while base < n:
            end = min(n, base + SCAN_CHUNK)
            chunk = codes[base:end]
            cand = np.flatnonzero(~tracked[chunk])
            if not cand.size:
                base = end
                continue
            if bail and base and 2 * cand.size > end - base:
                self.stop = base
                return
            cand_codes = chunk[cand].tolist()
            self._base, self._chunk, self._cand = base, chunk, cand_codes
            self._occ = self._fresh = None
            extra = self._extra = []  # untracked later: a heap of positions
            # A sentinel past the chunk end drains the last untracked ones.
            cand = cand.tolist()
            cand.append(end - base)
            cand_codes.append(-1)
            for rel, code in zip(cand, cand_codes):
                while extra and extra[0] <= rel:
                    late = heappop(extra)
                    while extra and extra[0] == late:
                        heappop(extra)
                    if late < rel:
                        late_code = int(chunk[late])
                        if not tracked[late_code]:
                            yield base + late, late_code
                if code >= 0 and not tracked[code]:
                    yield base + rel, code
            base = end
        self.stop = n

    def untrack(self, keys: Iterable, after: int) -> None:
        """Clear the flags of ``keys``, which the table dropped at the
        event at position ``after``: their occurrences later in the chunk
        become events again (later chunks mask the flags afresh).

        A key untracked when the chunk began needs nothing more: the walk
        visits all its positions.  For the others, one key is found
        through an occurrence index of the chunk, built on the first such
        call; several — a purge, a compaction — through one mask pass.
        """
        dropped = self.codes_of(keys)
        if len(dropped) != 1:
            if dropped:
                self.tracked[dropped] = False
                first = after - self._base + 1
                flags = np.zeros(len(self.distinct), dtype=bool)
                flags[dropped] = True
                extra = self._extra
                for rel in np.flatnonzero(flags[self._chunk[first:]]).tolist():
                    heapq.heappush(extra, first + rel)
            return
        code = dropped[0]
        self.tracked[code] = False
        fresh = self._fresh
        if fresh is None:
            fresh = self._fresh = set(self._cand)
        if code in fresh:
            return
        if self._occ is None:
            order = np.argsort(self._chunk)
            self._occ = (self._chunk[order].tolist(), order.tolist())
        occ_codes, occ_pos = self._occ
        first = after - self._base + 1
        extra = self._extra
        j = bisect_left(occ_codes, code)
        while j < len(occ_codes) and occ_codes[j] == code:
            if occ_pos[j] >= first:
                heapq.heappush(extra, occ_pos[j])
            j += 1

    def counts(self, stop: int) -> list[tuple[int, int]]:
        """Nonzero ``(code, count)`` of the deferred span up to ``stop``.

        The span starts where the previous call stopped.  Every occurrence
        in it counts (its weight, with ``weights``) except what
        ``skipped`` records — the events, which the sketch applied
        itself — and ``skipped`` is cleared.  ``bincount`` counts a span
        when the codes are dense enough; otherwise spans of a few hundred
        events are counted in Python and longer ones by ``unique``.
        """
        start, self._flushed = self._flushed, stop
        skipped = self.skipped
        if stop <= start:
            skipped.clear()
            return []
        seg = self.codes[start:stop]
        w = None if self.weights is None else self.weights[start:stop]
        size = len(self.distinct)
        if size <= 4 * (stop - start):
            pending = np.bincount(seg, weights=w, minlength=size)
            if w is not None:
                pending = pending.astype(np.int64)
            hit = np.flatnonzero(pending)
            pairs = zip(hit.tolist(), pending[hit].tolist())
        elif stop - start <= _SMALL_SPAN:
            tally: dict = {}
            if w is None:
                count_into(tally, seg.tolist())
            else:
                for code, x in zip(seg.tolist(), w.tolist()):
                    tally[code] = tally.get(code, 0) + x
            pairs = tally.items()
        elif w is None:
            uniq, cnts = np.unique(seg, return_counts=True)
            pairs = zip(uniq.tolist(), cnts.tolist())
        else:
            uniq, inv = np.unique(seg, return_inverse=True)
            cnts = np.bincount(inv, weights=w).astype(np.int64)
            pairs = zip(uniq.tolist(), cnts.tolist())
        if not skipped:
            return list(pairs)
        get = skipped.get
        out = [(code, c) for code, x in pairs if (c := x - get(code, 0))]
        skipped.clear()
        return out


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
