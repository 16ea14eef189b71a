"""Threshold-sampling state in two shapes: sorted columns and a keyed heap.

Every threshold sampler here keeps its rows in ascending priority order
and cuts them at a threshold a rule picks (Theorem 8): the bottom-k
sketch of §2.5.1 at the ``(k+1)``-st priority, capped by the
1-substitutable cap of §3.5 (the cap alone while ``k`` rows or fewer are
held); the §3.1 budget and §3.9 variance-target rules at a cap their
stopping rule lowers.  The rows below the threshold are the sample.

:class:`BottomKStore` keeps the rows as ascending columns, for the
samplers that offer batches and read their sample as column slices.
With a ``k`` it keeps the ``k + 1`` smallest priorities offered —
``bottom_k`` (and the sketches of ``multi_objective``), ``time_decay``,
``weighted_distinct`` and the stream part of ``adaptive_distinct`` — and
an offer sorts in at once the batch rows below the threshold
(:func:`~repro.core.kernels.bottomk_candidates`: at most ``k + 1``);
**resize** cuts to ``k + 1`` rows or freezes the threshold as the cap,
and **union** takes the smaller cap and both row sets.  With ``k=None``
it keeps every row offered below the cap — ``budget`` and
``variance_target`` — and a write does not copy the stored columns:
queued rows wait in arrival order until :meth:`~BottomKStore.merge`
sorts them in, which ``budget`` does after each scalar admission and
each batch chunk, ``variance_target`` at its tightening triggers, and
both on reads and checkpoints.  Either way one stable merge sorts rows
in, so tied rows stay in arrival order, stored rows first (as in a
scalar loop rejecting ``priority >= threshold`` and in
:class:`~repro.core.thresholds.BudgetPrefix`'s stable sort) whatever the
merge schedule, and one row codec (:meth:`~BottomKStore.rows`,
:meth:`~BottomKStore.load_rows`) writes every checkpoint.

:class:`KeyedBottomK` keeps the rows as a dict in arrival order beside a
max-heap, for the per-row state machines: ``kmv`` and ``theta``, each
stratum of ``multi_stratified`` and each dedicated sketch of
``grouped_distinct``.  They offer one row at a time and read the
threshold after most offers.  On the columns each of those steps is a
numpy call: on a 2-core Xeon host an insert costs 9-12 µs there against
0.5-0.7 µs on the heap, and a move onto the columns cut grouped_distinct's
batch speedup on a 100k-event Zipf stream from 31x to 3.9x.  On the heap
the threshold and the eviction are one top lookup, and the dict's arrival
order is the row order these samplers' checkpoints record.

Both shapes take priorities already drawn or hashed (``bottom_k``,
``budget`` and ``variance_target`` draw their own through
:class:`~repro.api.protocol.PrioritySampler`) and leave duplicate keys
to the samplers.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .kernels import bottomk_candidates

__all__ = ["BottomKStore", "KeyedBottomK", "take_keys"]


def take_keys(keys, positions) -> list:
    """The keys at ``positions`` of a batch (an ndarray or a list), as
    Python values: an array slice goes through one ``.tolist()``."""
    if isinstance(keys, np.ndarray):
        return keys[positions].tolist()
    return [keys[i] for i in positions]


def _object_column(keys) -> np.ndarray:
    # Element by element, so a tuple key stays one key.
    return np.fromiter(keys, dtype=object, count=len(keys))


class BottomKStore:
    """Rows in ascending priority order, with the keys (Python objects)
    and the named float ``columns`` parallel to them; a column an offer
    leaves out is NaN for the new rows.  With ``k=None`` every row offered
    below :attr:`cap` is kept, and the readers merge the queued rows
    first, as code reading ``priorities``, ``keys`` or ``columns`` must."""

    __slots__ = ("k", "cap", "priorities", "keys", "columns", "_pending")

    def __init__(self, k: int | None, columns: tuple[str, ...] = (),
                 cap: float = math.inf):
        if k is not None and k < 1:
            raise ValueError("k must be a positive integer")
        self.k = None if k is None else int(k)
        self.cap = float(cap)
        self.priorities = np.empty(0)
        self.keys = np.empty(0, dtype=object)
        self.columns = {name: np.empty(0) for name in columns}
        # Chunks of (priorities, keys, {column: values}) queued on an
        # unbounded store: a batch as arrays, a run of single rows as lists.
        self._pending: list[tuple] = []

    @property
    def threshold(self) -> float:
        """The ``(k+1)``-st smallest priority capped by :attr:`cap`; the
        cap while the store holds ``k`` rows or fewer, and on an unbounded
        store."""
        if self.k is None or self.priorities.size <= self.k:
            return self.cap
        return min(float(self.priorities[self.k]), self.cap)

    def __len__(self) -> int:
        self.merge()
        return int(self.priorities.searchsorted(self.threshold))

    def holds(self, priorities):
        """Whether each priority is already a stored row's (one
        sorted-column lookup over the merged rows; a scalar gives a
        scalar)."""
        stored = self.priorities
        if not stored.size:
            return np.zeros(np.shape(priorities), dtype=bool)
        pos = np.minimum(stored.searchsorted(priorities), stored.size - 1)
        return stored[pos] == priorities

    def below(self, t: float | None = None) -> dict:
        """Copies of the rows below ``t`` (the threshold when None),
        ascending: ``keys`` as a list, ``priorities`` and each column as
        arrays."""
        self.merge()
        m = int(self.priorities.searchsorted(self.threshold if t is None
                                             else t))
        rows = {name: col[:m].copy() for name, col in self.columns.items()}
        rows["keys"] = self.keys[:m].tolist()
        rows["priorities"] = self.priorities[:m].copy()
        return rows

    def offer(self, priorities: np.ndarray, keys, *, at=None,
              **columns) -> None:
        """Offer a batch: ``priorities`` and each column are aligned
        arrays, ``keys`` an ndarray or a list.

        A bounded store sorts in the rows below its threshold, at most
        ``k + 1``; with ``at`` (ascending batch positions, one per
        priority) only those rows are offered, and ``keys`` and the
        columns stay whole-batch and are read there.  An unbounded store
        queues the batch as given: rows below the cap, ``keys`` a list,
        every column present; the arrays are kept, not copied."""
        if self.k is None:
            self._pending.append((priorities, keys, columns))
            return
        cand = bottomk_candidates(priorities, self.k, self.threshold)
        if cand.size:
            rows = cand if at is None else at[cand]
            self._sort_in(
                priorities[cand],
                _object_column(take_keys(keys, rows)),
                {name: None if col is None else col[rows]
                 for name, col in columns.items()},
            )

    def add(self, priority: float, key, **row: float) -> None:
        """Queue one row on an unbounded store; ``row`` gives every
        column's value."""
        pending = self._pending
        if not pending or type(pending[-1][0]) is not list:
            pending.append(([], [], {name: [] for name in self.columns}))
        priorities, keys, columns = pending[-1]
        priorities.append(priority)
        keys.append(key)
        for name, values in columns.items():
            values.append(row[name])

    def update(self, priority: float, key, **row: float) -> bool:
        """Offer one row to a bounded store; True when it is stored below
        the threshold."""
        if priority >= self.threshold:
            return False
        self._sort_in(np.array([priority]), _object_column([key]),
                      {name: np.array([value], dtype=float)
                       for name, value in row.items()})
        return True

    def merge(self) -> None:
        """Sort the queued rows in (an unbounded store's; a bounded store
        sorts each offer in as it comes)."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self._sort_in(
            np.concatenate([chunk[0] for chunk in pending]),
            _object_column([key for chunk in pending for key in chunk[1]]),
            {name: np.concatenate([chunk[2][name] for chunk in pending])
             for name in self.columns},
        )

    def _sort_in(self, priorities, keys, columns) -> None:
        # Stored rows come first and the sort is stable: tied rows keep
        # arrival order, and on a bounded store's cut the first stays.
        merged = np.concatenate((self.priorities, priorities))
        keep = merged.argsort(kind="stable")
        if self.k is not None:
            keep = keep[: self.k + 1]
        self.priorities = merged[keep]
        self.keys = np.concatenate((self.keys, keys))[keep]
        for name, col in self.columns.items():
            new = columns.get(name)
            if new is None:
                new = np.full(priorities.size, np.nan)
            self.columns[name] = np.concatenate((col, new))[keep]

    def cut(self, t: float) -> None:
        """Lower the cap to ``t`` and drop every row at or above it."""
        self.merge()
        self.cap = min(self.cap, float(t))
        m = int(self.priorities.searchsorted(self.cap))
        self.priorities = self.priorities[:m]
        self.keys = self.keys[:m]
        for name, col in self.columns.items():
            self.columns[name] = col[:m]

    def resize(self, k: int) -> None:
        """Shrink: cut to ``k + 1`` rows.  Grow: freeze the threshold as
        the cap (1-substitutable, §3.5), so HT stays unbiased while the
        larger store refills."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        if k < self.k:
            self.priorities = self.priorities[: k + 1]
            self.keys = self.keys[: k + 1]
            for name, col in self.columns.items():
                self.columns[name] = col[: k + 1]
        elif k > self.k:
            self.cap = self.threshold
        self.k = int(k)

    def union(self, other: "BottomKStore", rows=None) -> None:
        """Union with ``other`` (restricted to the mask ``rows`` when
        given): the smaller cap, both row sets, cut to ``k + 1``."""
        if other.k != self.k:
            raise ValueError(f"cannot merge bottom-k sketches with "
                             f"different k ({self.k} and {other.k})")
        self.cap = min(self.cap, other.cap)
        pick = slice(None) if rows is None else rows
        self._sort_in(
            other.priorities[pick], other.keys[pick],
            {name: col[pick] for name, col in other.columns.items()},
        )

    def rows(self, layout: tuple[str, ...]) -> list[tuple]:
        """The stored rows in ascending priority order, as checkpoint
        tuples of the fields named in ``layout`` (``"priorities"``,
        ``"keys"`` or a column); a NaN payload reads as None."""
        self.merge()
        stored = {"priorities": self.priorities, "keys": self.keys,
                  **self.columns}
        fields = []
        for name in layout:
            col = stored[name]
            if name in self.columns and np.isnan(col).any():
                col = col.astype(object)
                col[np.isnan(stored[name])] = None
            fields.append(col.tolist())
        return list(zip(*fields))

    def load_rows(self, rows, layout: tuple[str, ...]) -> None:
        """Replace the rows with checkpoint ``rows`` laid out as in
        :meth:`rows`, in any order: they are sorted by priority (ties keep
        the given order).  A field a short row lacks, or None, is NaN."""
        fields = {
            name: [row[i] if i < len(row) else None for row in rows]
            for i, name in enumerate(layout)
        }
        priorities = np.asarray(fields["priorities"], dtype=float)
        order = priorities.argsort(kind="stable")
        self._pending = []
        self.priorities = priorities[order]
        self.keys = _object_column(fields["keys"])[order]
        for name in self.columns:
            self.columns[name] = np.asarray(fields[name], dtype=float)[order]


class KeyedBottomK:
    """The ``k + 1`` smallest priorities offered below :attr:`cap`, one
    row per key: ``members`` maps each key to its priority in arrival
    order, and ``heap`` holds the same rows as ``(-priority, key)``, so
    its top is the largest priority held."""

    __slots__ = ("k", "cap", "members", "heap")

    def __init__(self, k: int, cap: float = math.inf):
        self.k = k
        self.cap = cap
        self.members: dict = {}
        self.heap: list[tuple[float, object]] = []

    @property
    def threshold(self) -> float:
        """The ``(k+1)``-st smallest priority capped by :attr:`cap`; the
        cap while ``k`` rows or fewer are held."""
        if len(self.members) <= self.k:
            return self.cap
        return min(-self.heap[0][0], self.cap)

    def offer(self, key, priority: float) -> int:
        """Offer one row: +1 when the key joins a set with room, -1 when
        it meets a full set (displacing the largest priority, or
        rejected), 0 for a held key or a priority at or above the cap."""
        members = self.members
        if key in members or priority >= self.cap:
            return 0
        if len(members) <= self.k:
            members[key] = priority
            heapq.heappush(self.heap, (-priority, key))
            return 1
        top, worst = self.heap[0]
        if priority < -top:
            heapq.heapreplace(self.heap, (-priority, key))
            del members[worst]
            members[key] = priority
        return -1

    def load(self, pairs) -> None:
        """Replace the rows with ``(key, priority)`` pairs, kept as given
        and in their order (a checkpoint, or a cut the caller made)."""
        self.members = dict(pairs)
        self.heap = [(-p, key) for key, p in self.members.items()]
        heapq.heapify(self.heap)

