"""The bottom-k store: the ``k + 1`` smallest priorities as sorted columns.

The bottom-k sketch of §2.5.1, with the 1-substitutable cap of §3.5: the
state of ``bottom_k`` (and the sketches of ``multi_objective``),
``time_decay``, ``weighted_distinct`` and the stream part of
``adaptive_distinct``.

* **offer** — :func:`~repro.core.kernels.bottomk_candidates` picks the
  batch rows below the threshold (at most ``k + 1``, in batch order);
  they merge into the sorted columns, which are cut back to ``k + 1``
  rows.  On a tie the row that arrived first stays (stored rows, then
  batch order), as in a scalar loop rejecting ``priority >= threshold``.
  :meth:`~BottomKStore.update` is a one-row offer.
* **threshold** — the ``(k+1)``-st priority, capped by the cap; the cap
  itself (``+inf`` when unset) while the store is underfull.  The rows
  below it are the sample, and their number is ``len(store)``.
* **shrink** cuts to ``k + 1`` rows; **grow** freezes the threshold as
  the cap; **merge** (equal ``k`` only) takes the smaller cap,
  concatenates the rows and cuts.

Drawing or hashing priorities and duplicate keys stay in the samplers.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import bottomk_candidates

__all__ = ["BottomKStore", "take_keys"]


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
    """The ``k + 1`` smallest priorities offered, ascending, with the keys
    (Python objects) and the named float ``columns`` parallel to them; a
    column an offer leaves out is NaN for the new rows."""

    __slots__ = ("k", "cap", "priorities", "keys", "columns")

    def __init__(self, k: int, columns: tuple[str, ...] = (),
                 cap: float = math.inf):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = int(k)
        self.cap = float(cap)
        self.priorities = np.empty(0)
        self.keys = np.empty(0, dtype=object)
        self.columns = {name: np.empty(0) for name in columns}

    @property
    def threshold(self) -> float:
        """The ``(k+1)``-st smallest priority capped by :attr:`cap`; the
        cap while the store holds ``k`` rows or fewer."""
        if self.priorities.size <= self.k:
            return self.cap
        return min(float(self.priorities[self.k]), self.cap)

    def __len__(self) -> int:
        return int(self.priorities.searchsorted(self.threshold))

    def holds(self, priorities):
        """Whether each priority is already a stored row's (one
        sorted-column lookup; a scalar gives a scalar)."""
        stored = self.priorities
        if not stored.size:
            return np.zeros(np.shape(priorities), dtype=bool)
        pos = np.minimum(stored.searchsorted(priorities), stored.size - 1)
        return stored[pos] == priorities

    def retained(self) -> dict:
        """Copies of the rows below the threshold, ascending: ``keys`` as
        a list, ``priorities`` and each payload column as arrays."""
        m = len(self)
        rows = {name: col[:m].copy() for name, col in self.columns.items()}
        rows["keys"] = self.keys[:m].tolist()
        rows["priorities"] = self.priorities[:m].copy()
        return rows

    def offer(self, priorities: np.ndarray, keys, *, at=None,
              **columns) -> None:
        """Offer a batch: ``priorities`` and each column are aligned
        arrays, ``keys`` an ndarray or a list.  With ``at`` (ascending
        batch positions, one per priority) only those rows are offered:
        ``keys`` and the columns stay whole-batch and are read there."""
        cand = bottomk_candidates(priorities, self.k, self.threshold)
        if cand.size:
            rows = cand if at is None else at[cand]
            self._insert(
                priorities[cand],
                _object_column(take_keys(keys, rows)),
                {name: None if col is None else col[rows]
                 for name, col in columns.items()},
            )

    def update(self, priority: float, key, **row: float) -> bool:
        """Offer one row; True when it is stored below the threshold."""
        if priority >= self.threshold:
            return False
        self._insert(np.array([priority]), _object_column([key]),
                     {name: np.array([value], dtype=float)
                      for name, value in row.items()})
        return True

    def _insert(self, priorities, keys, columns) -> None:
        # Stored rows come first and the sort is stable: on a tie the
        # row that arrived first stays.
        merged = np.concatenate((self.priorities, priorities))
        keep = merged.argsort(kind="stable")[: self.k + 1]
        self.priorities = merged[keep]
        self.keys = np.concatenate((self.keys, keys))[keep]
        for name, col in self.columns.items():
            new = columns.get(name)
            if new is None:
                new = np.full(priorities.size, np.nan)
            self.columns[name] = np.concatenate((col, new))[keep]

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

    def merge(self, other: "BottomKStore", rows=None) -> None:
        """Union with ``other`` (restricted to the mask ``rows`` when
        given): the smaller cap, both row sets, cut to ``k + 1``."""
        if other.k != self.k:
            raise ValueError(f"cannot merge bottom-k sketches with "
                             f"different k ({self.k} and {other.k})")
        self.cap = min(self.cap, other.cap)
        pick = slice(None) if rows is None else rows
        self._insert(
            other.priorities[pick], other.keys[pick],
            {name: col[pick] for name, col in other.columns.items()},
        )

    def rows(self, layout: tuple[str, ...]) -> list[tuple]:
        """The stored rows in ascending priority order, as checkpoint
        tuples of the fields named in ``layout`` (``"priorities"``,
        ``"keys"`` or a column); a NaN payload reads as None."""
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
        self.priorities = priorities[order]
        self.keys = _object_column(fields["keys"])[order]
        for name in self.columns:
            self.columns[name] = np.asarray(fields[name], dtype=float)[order]
