"""Multi-stratified sampling under a budget (Section 3.7).

One sample that is *simultaneously* a stratified sample along several
attributes (e.g. by country and by age), fitting a total budget of ``B``
items.  Construction:

* each stratum of each dimension keeps a bottom-k threshold over the
  coordinated priorities of its members;
* an item's threshold is the **max** over its strata thresholds — included
  if any of its strata wants it.  The max of substitutable (disjoint,
  per-stratum bottom-k) rules is 1-substitutable by Theorem 9 and in fact
  fully substitutable by Theorem 6, so HT estimation applies;
* to hit the budget exactly, per-stratum sample sizes are chosen
  dynamically: repeatedly pick the stratum with the most members under its
  threshold and lower that threshold past its largest retained priority,
  until at most ``B`` items remain covered.

The streaming sampler keeps ``k0`` candidates per stratum (the per-stratum
cap also bounds how far the budget refinement can tighten), and the budget
refinement operates on retained candidates only — thresholds only ever
move down, so no discarded item could have been needed.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Sequence

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_optional_array
from ..core.bottomk_store import KeyedBottomK
from ..core.hashing import batch_hash_to_unit, hash_to_unit
from ..core.kernels import KeyScan
from ..core.priorities import Uniform01Priority
from ..core.sample import Sample

__all__ = ["MultiStratifiedSampler"]


@register_sampler("multi_stratified")
class MultiStratifiedSampler(StreamSampler):
    """Coordinated sample stratified along several attributes at once.

    Parameters
    ----------
    n_dims:
        Number of stratification attributes (2 in the paper's
        country-by-age example; any number works).
    k:
        Per-stratum candidate budget (upper bound on per-stratum sample
        size before budget refinement).
    salt:
        Hash salt for the coordinated Uniform(0, 1) priorities.
    """

    #: Per-key coordinated rows (duplicate offers are idempotent), so the
    #: HT aggregates — including distinct-key counts — all apply.
    query_capabilities = query_support(
        "sum", "count", "mean", "distinct", "topk", "quantile"
    )
    required_columns = ("strata",)

    def __init__(self, n_dims: int, k: int, salt: int = 0):
        if n_dims < 1:
            raise ValueError("need at least one stratification dimension")
        if k < 1:
            raise ValueError("k must be positive")
        self.n_dims = int(n_dims)
        self.k = int(k)
        self.salt = int(salt)
        self.family = Uniform01Priority()
        # One bottom-k set per (dimension, label), uncapped.
        self._strata: dict[tuple[int, Hashable], KeyedBottomK] = {}
        self._items: dict[object, tuple[tuple[Hashable, ...], float, float]] = {}
        self._n_members = 0  # members summed over the strata
        self.items_seen = 0

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def update(
        self,
        key: object,
        weight: float = 1.0,
        *,
        value=None,
        time=None,
        strata: Sequence[Hashable] | None = None,
    ) -> None:
        """Offer an item with one stratum label per dimension:
        ``update(key, strata=(...), value=...)``, with ``strata=``
        required."""
        if strata is None:
            raise TypeError("update() requires a strata= sequence")
        if len(strata) != self.n_dims:
            raise ValueError(f"expected {self.n_dims} stratum labels")
        self.items_seen += 1
        if key in self._items:
            return
        r = hash_to_unit(key, self.salt)
        self._items[key] = (
            tuple(strata), r, 1.0 if value is None else float(value)
        )
        for dim, label in enumerate(strata):
            state = self._strata.get((dim, label))
            if state is None:
                state = KeyedBottomK(self.k)
                self._strata[(dim, label)] = state
            if state.offer(key, r) > 0:
                self._n_members += 1
        # Items retained by no stratum can be dropped to bound memory.
        if len(self._items) > 4 * self._n_members:
            self._compact()

    def _compact(self) -> None:
        keep = set()
        for state in self._strata.values():
            keep.update(state.members)
        self._items = {k: v for k, v in self._items.items() if k in keep}

    def update_many(
        self, keys, weights=None, values=None, times=None, strata=None
    ) -> None:
        """Vectorized bulk :meth:`update` with a parallel ``strata`` column.

        The sampler deduplicates on key, so only *events* — the first
        occurrence of each unseen key, plus re-arrivals of keys dropped by
        a mid-batch compaction — touch the stratum machinery; every other
        occurrence is a complete no-op.  The batch path replays the events
        of a :class:`~repro.core.kernels.KeyScan` over the batch's key
        codes (the only positions python visits); integer keys get their
        coordinated hashes from one vectorized pass, other keys are hashed
        as their events are processed.  A compaction turns its dropped
        keys' remaining occurrences back into events.  State transitions
        match the scalar loop exactly (stratum labels are validated on
        processed events only; duplicate occurrences skip validation).
        """
        n = len(keys)
        self.check_columns({"strata": strata})
        strata = list(strata) if not isinstance(strata, list) else strata
        if len(strata) != n:
            raise ValueError("strata must have the same length as keys")
        if n == 0:
            return
        v = _as_optional_array(values, n, "values")
        items = self._items
        scan = KeyScan(keys, items)
        distinct, spelled, tracked = scan.distinct, scan.spelled, scan.tracked
        strata_map = self._strata
        n_dims, k, salt = self.n_dims, self.k, self.salt
        # Coordinated hashes of the batch's untracked integer keys in one
        # pass; keys that may be spelled differently hash per event.
        hashes: dict[int, float] = {}
        if spelled is None:
            new = scan.present()
            new = new[~tracked[new]]
            batch = (
                new if isinstance(distinct, range)
                else [distinct[code] for code in new.tolist()]
            )
            hashes = dict(
                zip(new.tolist(), batch_hash_to_unit(batch, salt).tolist())
            )
        strata_get = strata_map.get
        for i, code in scan.events():
            labels = strata[i]
            if len(labels) != n_dims:
                raise ValueError(f"expected {n_dims} stratum labels")
            key = distinct[code] if spelled is None else spelled[i]
            r = hashes.get(code)
            if r is None:
                r = hash_to_unit(key, salt)
            items[key] = (tuple(labels), r, 1.0 if v is None else float(v[i]))
            tracked[code] = True
            for dim, label in enumerate(labels):
                state = strata_get((dim, label))
                if state is None:
                    state = KeyedBottomK(k)
                    strata_map[(dim, label)] = state
                if state.offer(key, r) > 0:
                    self._n_members += 1
            if len(items) > 4 * self._n_members:
                before = items
                self._compact()
                items = self._items  # _compact rebinds the dict
                if len(items) != len(before):
                    scan.untrack([x for x in before if x not in items], i)
        self.items_seen += n

    # ------------------------------------------------------------------
    # Thresholds and samples
    # ------------------------------------------------------------------
    def thresholds(self) -> dict[tuple[int, Hashable], float]:
        """Current per-stratum bottom-k thresholds."""
        return {sk: st.threshold for sk, st in self._strata.items()}

    def _item_threshold(
        self, strata: tuple[Hashable, ...], taus: dict[tuple[int, Hashable], float]
    ) -> float:
        return max(taus[(dim, label)] for dim, label in enumerate(strata))

    def sample(self, budget: int | None = None) -> Sample:
        """Finalized sample, optionally refined to at most ``budget`` items.

        Budget refinement (the paper's dynamic-k rule): while more than
        ``budget`` items are covered, take the stratum with the most
        retained members under its threshold and lower its threshold just
        below its largest retained priority.  Because items belong to one
        stratum per dimension, a single decrement may not shrink the
        sample; the loop runs until it does.
        """
        taus = {sk: st.threshold for sk, st in self._strata.items()}
        # Retained members per stratum, sorted ascending by priority.
        retained: dict[tuple[int, Hashable], list[tuple[float, object]]] = {}
        for sk, st in self._strata.items():
            members = sorted(
                (p, key) for key, p in st.members.items() if p < taus[sk]
            )
            retained[sk] = members

        # Cover counts: in how many dimensions is each item under threshold?
        cover: dict[object, int] = {}
        for members in retained.values():
            for _, key in members:
                cover[key] = cover.get(key, 0) + 1
        sample_size = len(cover)

        if budget is not None and budget < 1:
            raise ValueError("budget must be at least 1")
        if budget is not None:
            heap = [(-len(members), sk) for sk, members in retained.items()]
            heapq.heapify(heap)
            while sample_size > budget and heap:
                neg_count, sk = heapq.heappop(heap)
                members = retained[sk]
                if -neg_count != len(members):
                    if members:
                        heapq.heappush(heap, (-len(members), sk))
                    continue
                if not members:
                    continue
                # Lower this stratum's threshold past its top member.
                top_priority, top_key = members.pop()
                taus[sk] = top_priority
                cover[top_key] -= 1
                if cover[top_key] == 0:
                    del cover[top_key]
                    sample_size -= 1
                if members:
                    heapq.heappush(heap, (-len(members), sk))

        keys = list(cover.keys())
        priorities = np.array([self._items[k][1] for k in keys])
        values = np.array([self._items[k][2] for k in keys])
        item_taus = np.array(
            [self._item_threshold(self._items[k][0], taus) for k in keys]
        )
        return Sample(
            keys=keys,
            values=values,
            weights=np.ones(len(keys)),
            priorities=priorities,
            thresholds=item_taus,
            family=self.family,
            population_size=self.items_seen,
        )

    def estimate_total(self, predicate=None, budget: int | None = None) -> float:
        """HT estimate of the (subset) sum of item values."""
        sample = self.sample(budget=budget)
        if predicate is not None:
            sample = sample.select(predicate)
        return sample.ht_total()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"n_dims": self.n_dims, "k": self.k, "salt": self.salt}

    def _get_state(self) -> dict:
        return {
            "items": [
                (key, list(strata), priority, value)
                for key, (strata, priority, value) in self._items.items()
            ],
            "strata": [
                (dim, label, list(state.members.items()))
                for (dim, label), state in self._strata.items()
            ],
            "items_seen": self.items_seen,
        }

    def _set_state(self, state: dict) -> None:
        self._items = {
            key: (tuple(strata), priority, value)
            for key, strata, priority, value in state["items"]
        }
        self._strata = {}
        for dim, label, members in state["strata"]:
            st = KeyedBottomK(self.k)
            st.load(members)
            self._strata[(dim, label)] = st
        self._n_members = sum(len(st.members) for st in self._strata.values())
        self.items_seen = int(state["items_seen"])

    def stratum_counts(self, sample: Sample) -> dict[tuple[int, Hashable], int]:
        """How many sampled items each stratum contributed (diagnostics)."""
        counts: dict[tuple[int, Hashable], int] = {}
        for key in sample.keys:
            strata = self._items[key][0]
            for dim, label in enumerate(strata):
                counts[(dim, label)] = counts.get((dim, label), 0) + 1
        return counts
