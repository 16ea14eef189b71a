"""Frequent groups for distinct counting (Section 3.6).

A GROUP BY over distinct counts ("distinct users per ad x demographic")
can create millions of groups, most tiny; per-group sketches waste memory.
The paper's scheme keeps full bottom-k sketches only for ``m`` heavy
groups plus one shared *general pool* sampled at

    ``T_max = max_g T_g``  over the m dedicated thresholds,

so small groups are sampled at the rate appropriate for the heavy hitters
(their tolerated error becomes a fraction of the *heavy* group sizes, the
trade the paper spells out).  Mechanics on a new item of group ``g``:

* ``g`` has a dedicated sketch → update it (possibly lowering ``T_g``;
  when ``g`` held the max that lowers ``T_max``, which prunes the pool);
* otherwise admit ``(key, g)`` to the pool iff its hash < ``T_max``; when
  a pooled group accumulates more than ``k`` retained items it is promoted
  to a dedicated sketch, demoting the dedicated group with the *largest*
  threshold back into the pool.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_key_list
from ..core.bottomk_store import KeyedBottomK
from ..core.hashing import hash_to_unit
from ..core.priorities import Uniform01Priority
from ..core.sample import Sample

__all__ = ["GroupedDistinctSketch"]


@register_sampler("grouped_distinct")
class GroupedDistinctSketch(StreamSampler):
    """Distinct counts per group with ``m`` sketches + one shared pool.

    Parameters
    ----------
    m:
        Number of dedicated per-group sketches.
    k:
        Bottom-k size of each dedicated sketch (and promotion trigger for
        pooled groups).
    """

    default_estimate_kind = "distinct"
    required_columns = ("groups",)
    #: Rows are retained ``(group, key)`` pairs under their governing
    #: threshold — group-by queries over ``gk[0]`` are the native shape.
    query_capabilities = query_support(
        "count", "distinct",
        sum="stores no payloads (all values are 1 — sum degenerates to distinct)",
        mean="stores no payloads (every value is 1; the mean is trivially 1)",
        topk="all per-key values are 1; there is no ranking signal",
        quantile="stores no payloads (the value distribution is degenerate)",
    )

    def __init__(self, m: int, k: int, salt: int = 0):
        if m < 1 or k < 1:
            raise ValueError("m and k must be positive")
        self.m = int(m)
        self.k = int(k)
        self.salt = int(salt)
        # group -> its bottom-k set of key -> hash, capped at 1.0 (the
        # threshold while underfull)
        self.dedicated: dict[Hashable, KeyedBottomK] = {}
        # pool: group -> {key: hash}, all below t_max
        self.pool: dict[Hashable, dict[object, float]] = {}
        self.items_seen = 0
        # t_max, cleared wherever a dedicated threshold or the dedicated
        # set changes (a threshold drop, a new dedicated group, a
        # promotion, a restore)
        self._t_max: float | None = None

    @property
    def t_max(self) -> float:
        """The pool's admission threshold: max over dedicated thresholds."""
        t = self._t_max
        if t is None:
            if len(self.dedicated) < self.m:
                t = 1.0
            else:
                t = max(s.threshold for s in self.dedicated.values())
            self._t_max = t
        return t

    def update(
        self,
        key: object,
        weight: float = 1.0,
        *,
        value=None,
        time=None,
        group: Hashable | None = None,
    ) -> None:
        """Offer one ``(group, key)`` observation: ``update(key,
        group=...)``, with ``group=`` required (the sketch is unweighted,
        so ``weight`` is accepted only for protocol uniformity)."""
        if group is None:
            raise TypeError("update() requires a group= keyword")
        self.items_seen += 1
        h = hash_to_unit((group, key), self.salt)
        sketch = self.dedicated.get(group)
        if sketch is not None:
            before = sketch.threshold
            sketch.offer(key, h)
            if sketch.threshold < before:
                self._after_drop(before)
            return
        if len(self.dedicated) < self.m:
            # Spare dedicated capacity: groups become dedicated on sight.
            sketch = KeyedBottomK(self.k, cap=1.0)
            sketch.offer(key, h)
            self.dedicated[group] = sketch
            self._t_max = None
            return
        if h >= self.t_max:
            return
        bucket = self.pool.setdefault(group, {})
        if key not in bucket:
            bucket[key] = h
            if len(bucket) > self.k:
                self._promote(group)

    def _promote(self, group: Hashable) -> None:
        """Swap a pool-heavy group with the loosest dedicated sketch."""
        loosest = max(self.dedicated, key=lambda g: self.dedicated[g].threshold)
        demoted = self.dedicated.pop(loosest)
        sketch = KeyedBottomK(self.k, cap=1.0)
        for key, h in self.pool.pop(group).items():
            sketch.offer(key, h)
        self.dedicated[group] = sketch
        self._t_max = None
        # Demoted entries drop into the pool (subject to the new t_max).
        t = self.t_max
        bucket = self.pool.setdefault(loosest, {})
        for key, h in demoted.members.items():
            if h < t:
                bucket[key] = h
        if not bucket:
            self.pool.pop(loosest, None)
        self._prune_pool(t)

    def _after_drop(self, before: float) -> None:
        """After a dedicated threshold fell from ``before``: prune the
        pool if ``t_max`` fell with it (only when that sketch held the
        max)."""
        self._t_max = None
        t = self.t_max
        if t < before:
            self._prune_pool(t)

    def _prune_pool(self, t: float) -> None:
        for group in list(self.pool):
            bucket = {k: h for k, h in self.pool[group].items() if h < t}
            if bucket:
                self.pool[group] = bucket
            else:
                del self.pool[group]

    def update_many(
        self, keys, weights=None, values=None, times=None, groups=None
    ) -> None:
        """Vectorized bulk :meth:`update` with a parallel ``groups`` column.

        The sketch is hash-coordinated and idempotent per ``(group, key)``
        pair, which the batch path exploits three ways: duplicate pairs
        whose key is already retained short-circuit before hashing (the
        scalar path BLAKE2b-hashes *every* occurrence), each distinct pair
        is hashed at most once per batch.  Both paths read the pool
        admission threshold ``t_max`` from the cache that drops, new
        dedicated groups and promotions clear.  State transitions are
        byte-identical to the scalar loop's.
        """
        keys = _as_key_list(keys)
        self.check_columns({"groups": groups})
        groups = _as_key_list(groups)
        n = len(keys)
        if len(groups) != n:
            raise ValueError("groups must have the same length as keys")
        dedicated = self.dedicated
        pool = self.pool
        m, k, salt = self.m, self.k, self.salt
        hash_cache: dict[tuple, float] = {}
        for group, key in zip(groups, keys):
            sketch = dedicated.get(group)
            if sketch is not None:
                if key in sketch.members:
                    continue  # retained: the scalar offer is a no-op
                pair = (group, key)
                h = hash_cache.get(pair)
                if h is None:
                    hash_cache[pair] = h = hash_to_unit(pair, salt)
                before = sketch.threshold
                sketch.offer(key, h)
                if sketch.threshold < before:
                    self._after_drop(before)
                continue
            if len(dedicated) < m:
                pair = (group, key)
                h = hash_cache.get(pair)
                if h is None:
                    hash_cache[pair] = h = hash_to_unit(pair, salt)
                sketch = KeyedBottomK(k, cap=1.0)
                sketch.offer(key, h)
                dedicated[group] = sketch
                self._t_max = None
                continue
            bucket = pool.get(group)
            if bucket is not None and key in bucket:
                continue  # pooled already: the scalar path changes nothing
            pair = (group, key)
            h = hash_cache.get(pair)
            if h is None:
                hash_cache[pair] = h = hash_to_unit(pair, salt)
            t_max = self._t_max
            if t_max is None:
                t_max = self.t_max
            if h >= t_max:
                continue
            if bucket is None:
                bucket = pool.setdefault(group, {})
            bucket[key] = h
            if len(bucket) > k:
                self._promote(group)
        self.items_seen += n

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate_distinct(self, group: Hashable) -> float:
        """Estimated distinct count of ``group`` (0 if never seen)."""
        sketch = self.dedicated.get(group)
        if sketch is not None:
            t = sketch.threshold
            if t >= 1.0:
                return float(len(sketch.members))
            return sum(1 for h in sketch.members.values() if h < t) / t
        bucket = self.pool.get(group)
        if not bucket:
            return 0.0
        t = self.t_max
        if t >= 1.0:
            return float(len(bucket))
        return len(bucket) / t

    def groups(self) -> set:
        """All groups with any retained state (dedicated or pooled)."""
        return set(self.dedicated) | set(self.pool)

    def memory_entries(self) -> int:
        """Total stored entries — the footprint §3.6 aims to bound."""
        dedicated = sum(len(s.members) for s in self.dedicated.values())
        pooled = sum(len(b) for b in self.pool.values())
        return dedicated + pooled

    def sample(self) -> Sample:
        """Every retained (group, key) entry with its governing threshold.

        ``sample().select(lambda gk: gk[0] == g).distinct_estimate()``
        approximates :meth:`estimate_distinct` for dedicated groups and
        matches it for pooled ones.
        """
        keys, priorities, thresholds = [], [], []
        for group, sketch in self.dedicated.items():
            t = sketch.threshold
            for key, h in sketch.members.items():
                if h < t:
                    keys.append((group, key))
                    priorities.append(h)
                    thresholds.append(t)
        t_max = self.t_max
        for group, bucket in self.pool.items():
            for key, h in bucket.items():
                keys.append((group, key))
                priorities.append(h)
                thresholds.append(t_max)
        return Sample(
            keys=keys,
            values=np.ones(len(keys)),
            weights=np.ones(len(keys)),
            priorities=np.asarray(priorities, dtype=float),
            thresholds=np.asarray(thresholds, dtype=float),
            family=Uniform01Priority(),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"m": self.m, "k": self.k, "salt": self.salt}

    def _get_state(self) -> dict:
        return {
            "dedicated": [
                (group, list(sketch.members.items()))
                for group, sketch in self.dedicated.items()
            ],
            "pool": [
                (group, list(bucket.items()))
                for group, bucket in self.pool.items()
            ],
            "items_seen": self.items_seen,
        }

    def _set_state(self, state: dict) -> None:
        self.dedicated = {}
        for group, entries in state["dedicated"]:
            sketch = KeyedBottomK(self.k, cap=1.0)
            sketch.load(entries)
            self.dedicated[group] = sketch
        self.pool = {group: dict(bucket) for group, bucket in state["pool"]}
        self.items_seen = int(state["items_seen"])
        self._t_max = None
