"""FrequentItems sketch — the Apache DataSketches baseline of Figure 3.

A Misra–Gries variant with lazy median purges (Anderson et al., IMC 2017,
cited as [1]): counts live in a hash map of capacity ``max_map_size``; when
the load factor passes 0.75 the sketch subtracts the median count from
every entry, drops non-positive entries, and remembers the cumulative
subtraction as the global error offset.  Estimates are ``count + offset``
(upper bound); the guarantee is ``offset <= n / (0.75 * max_map_size)``.

The paper reports the sketch "size" as 0.75x the allocated hash table
(:attr:`FrequentItemsSketch.nominal_size`), and queries the top-k by
estimate — both conventions are reproduced here and used by
``repro.experiments.figure3``.
"""

from __future__ import annotations

import heapq
import statistics

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_key_list, _as_optional_array
from ..core.kernels import code_lookup, int_key_array
from ..core.priorities import Uniform01Priority
from ..core.sample import Sample

#: Chunk length of the batch ingestion scan (see ``update_many``).
_CHUNK = 4096

__all__ = ["FrequentItemsSketch"]


@register_sampler("frequent_items")
class FrequentItemsSketch(StreamSampler):
    """Misra–Gries sketch with DataSketches-style median purges.

    Parameters
    ----------
    max_map_size:
        Allocated hash-map capacity; the sketch purges when the number of
        tracked keys would exceed ``0.75 * max_map_size``.
    """

    LOAD_FACTOR = 0.75
    default_estimate_kind = "count"
    _DETERMINISTIC_REASON = (
        "deterministic undercount sketch (biased by design); no inclusion "
        "probabilities for HT estimation"
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

    def __init__(self, max_map_size: int):
        if max_map_size < 2:
            raise ValueError("max_map_size must be at least 2")
        self.max_map_size = int(max_map_size)
        self.counts: dict[object, int] = {}
        self.offset = 0  # cumulative purge subtraction (max undercount)
        self.items_seen = 0

    @property
    def nominal_size(self) -> int:
        """The size the paper reports: 0.75x the allocated table."""
        return int(self.LOAD_FACTOR * self.max_map_size)

    def update(
        self,
        key: object,
        weight: float = 1.0,
        *,
        value=None,
        time=None,
        count: int | None = None,
    ) -> None:
        """Add occurrences of ``key``.

        ``count`` (equivalently a positional integer ``weight``, kept for
        the canonical protocol signature) is the number of occurrences.
        """
        count = int(weight) if count is None else int(count)
        if count <= 0:
            raise ValueError("count must be positive")
        self.items_seen += count
        if key in self.counts:
            self.counts[key] += count
            return
        if len(self.counts) >= self.nominal_size:
            self._purge()
        # After a purge the new key may still not fit only if every count
        # was identical; subtracting the median removes at least half the
        # entries otherwise.  Insert unconditionally, matching DataSketches.
        self.counts[key] = count

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Occurrences of tracked keys are pure counter additions and commute
        between purges; purges can only trigger on an *untracked* key's
        arrival, and purges are the only point where the exact counter
        values matter (the median).  The batch path therefore defers all
        increments: it scans the stream in chunks (one vectorized mask
        lookup per chunk finds the untracked-key positions), replays only
        the untracked-key events in stream order, and materializes the
        deferred span of increments in a single ``bincount``/``unique``
        pass right before each purge — whose dropped keys turn their
        remaining chunk occurrences back into events.  The sketch is
        deterministic, so the resulting state is identical to scalar
        ingestion.

        Key batches that are not bounded non-negative integer arrays fall
        back to the scalar loop.
        """
        raw = keys
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        if w is None:
            occ_counts = None
        else:
            occ_counts = w.astype(np.int64)
            if np.any(occ_counts <= 0):
                raise ValueError("count must be positive")
        arr = int_key_array(raw if isinstance(raw, np.ndarray) else None)
        if arr is None:
            key_list = _as_key_list(raw)
            if occ_counts is None:
                for key in key_list:
                    self.update(key)
            else:
                for key, count in zip(key_list, occ_counts.tolist()):
                    self.update(key, count=count)
            return

        counts = self.counts
        nominal = self.nominal_size
        total = n if occ_counts is None else int(occ_counts.sum())
        kmax = int(arr.max()) + 1
        lookup = code_lookup(range(kmax))
        tracked = np.zeros(kmax, dtype=bool)
        tracked[lookup(counts)] = True

        heappush, heappop = heapq.heappush, heapq.heappop
        flush_from = 0          # first position whose increment is deferred
        event_corr: dict = {}   # key -> deferred-span weight of its events

        def flush(bound: int) -> None:
            """Apply the deferred increments in [flush_from, bound).

            Every occurrence in the span is an increment of a tracked key
            except the event positions (an inserting event's own occurrence
            entered the map via the insert); their weights are recorded in
            ``event_corr`` and subtracted.
            """
            nonlocal flush_from
            if bound <= flush_from:
                event_corr.clear()
                return
            seg = arr[flush_from:bound]
            wseg = None if occ_counts is None else occ_counts[flush_from:bound]
            if kmax <= 4 * seg.size:
                if wseg is None:
                    pending = np.bincount(seg, minlength=kmax)
                else:
                    pending = np.bincount(seg, weights=wseg, minlength=kmax)
                for key, c in event_corr.items():
                    pending[key] -= c
                for key in np.flatnonzero(pending).tolist():
                    counts[key] += int(pending[key])
            else:
                if wseg is None:
                    uniq, cnts = np.unique(seg, return_counts=True)
                else:
                    uniq, inv = np.unique(seg, return_inverse=True)
                    cnts = np.bincount(inv, weights=wseg)
                corr_get = event_corr.get
                for key, c in zip(uniq.tolist(), cnts.tolist()):
                    c = int(c) - corr_get(key, 0)
                    if c:
                        counts[key] += c
            event_corr.clear()
            flush_from = bound

        pos = 0
        bailed = False
        while pos < n:
            ce = min(n, pos + _CHUNK)
            chunk = arr[pos:ce]
            cand = np.flatnonzero(~tracked[chunk]).tolist()
            if not cand:
                pos = ce
                continue
            if pos and 2 * len(cand) > ce - pos:
                bailed = True  # event-dominated past warm-up: go scalar
                break
            ci = 0
            n_cand = len(cand)
            chunk_len = ce - pos
            extra: list[int] = []  # re-dropped keys' remaining positions
            while True:
                nxt_c = cand[ci] if ci < n_cand else _CHUNK
                nxt_e = extra[0] if extra else _CHUNK
                rel = nxt_c if nxt_c <= nxt_e else nxt_e
                if rel >= chunk_len:
                    break
                while ci < n_cand and cand[ci] == rel:
                    ci += 1
                while extra and extra[0] == rel:
                    heappop(extra)
                key = int(chunk[rel])
                if tracked[key]:
                    continue  # tracked since the mask was built: deferred
                count = 1 if occ_counts is None else int(occ_counts[pos + rel])
                if len(counts) >= nominal:
                    flush(pos + rel)
                    dropped = self._purge()
                    counts = self.counts  # _purge rebinds the map
                    if dropped:
                        dflags = np.zeros(kmax, dtype=bool)
                        in_batch = lookup(dropped)
                        if in_batch:
                            dflags[in_batch] = True
                            tracked[in_batch] = False
                            for r2 in np.flatnonzero(
                                dflags[chunk[rel + 1:]]
                            ).tolist():
                                heappush(extra, rel + 1 + r2)
                counts[key] = count
                tracked[key] = True
                event_corr[key] = event_corr.get(key, 0) + count
            pos = ce
        flush(pos)
        self.items_seen += (
            pos if occ_counts is None else int(occ_counts[:pos].sum())
        )
        if bailed:
            rest = arr[pos:].tolist()
            if occ_counts is None:
                for key in rest:
                    self.update(key)
            else:
                for key, count in zip(rest, occ_counts[pos:].tolist()):
                    self.update(key, count=count)

    def _purge(self) -> list:
        """Subtract the median count, drop non-positive entries.

        Returns the dropped keys (the batch path turns their remaining
        occurrences back into events).
        """
        median = int(statistics.median(self.counts.values()))
        median = max(median, 1)
        self.offset += median
        survivors = {}
        dropped = []
        for key, c in self.counts.items():
            if c - median > 0:
                survivors[key] = c - median
            else:
                dropped.append(key)
        self.counts = survivors
        return dropped

    def __len__(self) -> int:
        return len(self.counts)

    def estimate_count(self, key: object) -> int:
        """Upper-bound estimate ``count + offset`` (0 for untracked keys)."""
        if key not in self.counts:
            return 0
        return self.counts[key] + self.offset

    def lower_bound(self, key: object) -> int:
        """Guaranteed lower bound on the true count."""
        return self.counts.get(key, 0)

    def top(self, j: int) -> list[tuple[object, int]]:
        """The ``j`` keys with the largest estimates."""
        ranked = sorted(self.counts.items(), key=lambda kv: kv[1], reverse=True)
        return [(key, c + self.offset) for key, c in ranked[:j]]

    @property
    def maximum_error(self) -> int:
        """Current worst-case undercount for any tracked key."""
        return self.offset

    def sample(self) -> Sample:
        """Tracked keys with their count estimates as values.

        The sketch is deterministic (no thresholds); values carry the
        upper-bound estimates, so ``sample().ht_total()`` bounds the
        tracked mass from above.
        """
        keys = list(self.counts)
        return Sample(
            keys=keys,
            values=np.array(
                [self.counts[k] + self.offset for k in keys], dtype=float
            ),
            weights=np.ones(len(keys)),
            priorities=np.zeros(len(keys)),
            thresholds=np.full(len(keys), np.inf),
            family=Uniform01Priority(),
            population_size=self.items_seen,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"max_map_size": self.max_map_size}

    def _get_state(self) -> dict:
        return {
            "counts": list(self.counts.items()),
            "offset": self.offset,
            "items_seen": self.items_seen,
        }

    def _set_state(self, state: dict) -> None:
        self.counts = dict(state["counts"])
        self.offset = int(state["offset"])
        self.items_seen = int(state["items_seen"])
