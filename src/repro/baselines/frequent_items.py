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

import statistics

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_optional_array
from ..core.kernels import KeyScan
from ..core.priorities import Uniform01Priority
from ..core.sample import Sample

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

    @classmethod
    def check_columns(cls, columns) -> None:
        """Also refuse a weight whose occurrence count (its integer part)
        is not positive."""
        super().check_columns(columns)
        weights = columns.get("weights")
        if weights is not None and \
                np.any(np.asarray(weights).astype(np.int64) <= 0):
            raise ValueError("count must be positive")

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
        values matter (the median).  So the batch path replays only the
        untracked-key events of a :class:`~repro.core.kernels.KeyScan`,
        for every key type, and adds the deferred span of increments
        right before each purge, whose dropped keys turn their remaining
        occurrences back into events.  The sketch is deterministic, so the
        resulting state is identical to scalar ingestion.  Where the scan
        stops (a later chunk made mostly of events), the scalar loop
        takes the rest of the call.
        """
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        self.check_columns({"weights": w})
        occ_counts = None if w is None else w.astype(np.int64)
        counts = self.counts
        scan = KeyScan(keys, counts, weights=occ_counts)
        distinct, spelled = scan.distinct, scan.spelled
        tracked, skipped = scan.tracked, scan.skipped
        nominal = self.nominal_size
        for i, code in scan.events(bail=True):
            count = 1 if occ_counts is None else int(occ_counts[i])
            if len(counts) >= nominal:
                for c, x in scan.counts(i):
                    counts[distinct[c]] += x
                dropped = self._purge()
                counts = self.counts  # _purge rebinds the map
                scan.untrack(dropped, i)
            counts[distinct[code] if spelled is None else spelled[i]] = count
            tracked[code] = True
            skipped[code] = skipped.get(code, 0) + count
        stop = scan.stop
        for c, x in scan.counts(stop):
            counts[distinct[c]] += x
        self.items_seen += (
            stop if occ_counts is None else int(occ_counts[:stop].sum())
        )
        rest = scan.rest()
        if occ_counts is None:
            for key in rest:
                self.update(key)
        else:
            for key, count in zip(rest, occ_counts[stop:].tolist()):
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
