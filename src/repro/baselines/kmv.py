"""KMV (k minimum values) distinct counter — the "bottom-k sketch" of Fig 4.

Keeps the ``k`` smallest coordinated hashes; the classic unbiased estimator
is ``(k - 1) / h_(k)`` where ``h_(k)`` is the k-th smallest hash (Giroire;
Beyer et al., cited as [15], [3]): HT over a bottom-k set of ``k - 1``
sample rows, whose threshold is that k-th minimum.  Unions merge the
retained hash sets and re-sketch to the k smallest — the "basic bottom-k"
union whose error Figure 4 compares against Theta and the paper's
per-item-threshold merge.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..api import StreamSampler, merged, query_support, register_sampler
from ..api.protocol import _as_key_batch
from ..core.bottomk_store import KeyedBottomK
from ..core.hashing import batch_hash_to_unit, hash_to_unit
from ..core.kernels import smallest_distinct
from ..core.priorities import Uniform01Priority
from ..core.sample import Sample

__all__ = ["KMVSketch", "kmv_union"]


@register_sampler("kmv")
class KMVSketch(StreamSampler):
    """k-minimum-values sketch over coordinated Uniform(0, 1) hashes."""

    default_estimate_kind = "distinct"
    mergeable = True
    resizable = True
    #: Retains only hash values (no keys, weights, or payloads): the
    #: count-style aggregates apply and nothing else can.
    query_capabilities = query_support(
        "count", "distinct",
        sum="retains only hash values, no payloads (sum degenerates to distinct)",
        mean="retains only hash values, no payloads",
        topk="rows are anonymous hashes; there are no keys to rank",
        quantile="retains only hash values, no payload distribution",
    )

    def __init__(self, k: int, salt: int = 0):
        if k < 2:
            raise ValueError("k must be at least 2")
        self.k = int(k)
        self.salt = int(salt)
        # The k smallest hashes, keyed by themselves.  The cap is the
        # admission cap a grow-resize leaves behind: the threshold may
        # never exceed the k-th minimum at resize time, so ``|retained| /
        # threshold`` stays unbiased (1.0 = no cap; the capped estimator
        # reduces to the classic ``(k-1)/h_(k)`` then).
        self._rows = KeyedBottomK(self.k - 1, cap=1.0)
        self._exact = 0  # distinct count while underfull

    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> None:
        """Offer a key; duplicates are idempotent (same hash)."""
        h = hash_to_unit(key, self.salt)
        self._offer(h)

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Hashes the batch with numpy and offers only the ``k + 1`` smallest
        distinct hashes (the only values that can change the sketch),
        preserving the saturation flag exactly.
        """
        keys = _as_key_batch(keys)
        if not len(keys):
            return
        smallest = smallest_distinct(
            batch_hash_to_unit(keys, self.salt), self.k + 1
        )
        for hv in smallest:
            self._offer(float(hv))
        if smallest.size > self.k:
            self._exact = self.k + 1

    def _offer(self, h: float) -> None:
        change = self._rows.offer(h, h)
        if change > 0:
            self._exact += 1
        elif change < 0:
            self._exact = self.k + 1  # saturated: no longer exact

    @property
    def is_exact(self) -> bool:
        """True while fewer than k distinct keys have been offered."""
        return self._exact <= self.k

    @property
    def kth_minimum(self) -> float:
        """The k-th smallest retained hash (1.0 while underfull)."""
        if len(self._rows.members) < self.k:
            return 1.0
        return -self._rows.heap[0][0]

    @property
    def threshold(self) -> float:
        """Effective sampling threshold: the k-th minimum, capped by any
        grow-resize (equal to :attr:`kth_minimum` when never resized)."""
        return self._rows.threshold

    def __len__(self) -> int:
        return len(self._rows.members)

    def estimate_distinct(self) -> float:
        """``|{h < threshold}| / threshold``, or the exact count while
        underfull.

        With no resize cap this is exactly the classic ``(k - 1) /
        h_(k)`` (the witness hash equals the threshold and is excluded);
        after a grow-resize the capped threshold keeps it unbiased while
        the enlarged sketch refills.  Also reachable as ``estimate()``
        through the protocol facade (the sketch's default estimator kind
        is ``"distinct"``).
        """
        if self.is_exact:
            return float(len(self._rows.members))
        t = self.threshold
        return sum(1 for h in self._rows.members if h < t) / t

    def sample(self) -> Sample:
        """Retained hashes below the k-th minimum as a uniform Sample.

        ``sample().ht_total()`` reproduces :meth:`estimate_distinct` once
        the sketch is saturated.
        """
        t = self.threshold if not self.is_exact else 1.0
        hashes = sorted(h for h in self._rows.members if h < t)
        n = len(hashes)
        return Sample(
            keys=hashes,
            values=np.ones(n),
            weights=np.ones(n),
            priorities=np.asarray(hashes, dtype=float),
            thresholds=np.full(n, t),
            family=Uniform01Priority(),
        )

    @classmethod
    def from_hashes(cls, hashes, k: int, salt: int = 0) -> "KMVSketch":
        """Build a sketch from precomputed distinct hash values (vectorized)."""
        import numpy as np

        hashes = np.asarray(hashes, dtype=float)
        out = cls(k, salt=salt)
        keep = min(k + 1, hashes.size)
        if keep:
            smallest = np.partition(hashes, keep - 1)[:keep]
            for h in np.sort(smallest):
                out._offer(float(h))
        if hashes.size > k:
            out._exact = out.k + 1
        return out

    def resize(self, k: int) -> "KMVSketch":
        """Change the nominal size mid-stream, keeping the estimate unbiased.

        Shrinking keeps the ``k`` smallest hashes (what a fresh ``k``
        sketch of the same stream would hold); a shrunk exact sketch that
        overflows the new budget becomes a saturated one.  Growing
        freezes the current k-th minimum as an admission cap so the
        capped ``|retained| / threshold`` estimator stays unbiased while
        the enlarged sketch refills; a still-exact sketch just grows.
        """
        if k < 2:
            raise ValueError("k must be at least 2")
        k = int(k)
        if k == self.k:
            return self
        rows = self._rows
        if k < self.k:
            if len(rows.members) > k or not self.is_exact:
                rows.load((h, h) for h in sorted(rows.members)[:k])
                self._exact = k + 1
        elif not self.is_exact:
            rows.cap = self.threshold
            self._exact = k + 1
        self.k = k
        rows.k = k - 1
        return self

    def merge(self, other: "KMVSketch") -> "KMVSketch":
        """Absorb another sketch in place (returns self).

        Re-sketches the merged hash sets down to the k smallest.  A
        saturated input only retains its own k minima, so the merged
        nominal size is the *minimum* k over saturated inputs (the classic
        KMV union rule); while every input is still exact the union stays
        exact and adopts the larger k.
        """
        if other.salt != self.salt:
            raise ValueError("cannot merge sketches with different salts")
        limits = [s.k for s in (self, other) if not s.is_exact]
        pool = self._rows.members.keys() | other._rows.members.keys()
        self.k = min(limits) if limits else max(self.k, other.k)
        self._rows = KeyedBottomK(
            self.k - 1, cap=min(self._rows.cap, other._rows.cap)
        )
        self._exact = 0
        for h in sorted(pool):
            self._offer(h)
        if limits:
            self._exact = self.k + 1
        return self

    def union(self, other: "KMVSketch") -> "KMVSketch":
        """Pure union: a new sketch, leaving both inputs untouched
        (equivalent to ``self | other``)."""
        return merged(self, other)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "salt": self.salt}

    def _get_state(self) -> dict:
        return {
            "hashes": sorted(self._rows.members),
            "exact": self._exact,
            "cap": self._rows.cap,
        }

    def _set_state(self, state: dict) -> None:
        self._rows = KeyedBottomK(
            self.k - 1, cap=float(state.get("cap", 1.0))
        )
        self._rows.load((h, h) for h in state["hashes"])
        self._exact = int(state["exact"])


def kmv_union(sketches: Iterable[KMVSketch]) -> KMVSketch:
    """Union an iterable of KMV sketches left to right (pure)."""
    sketches = list(sketches)
    if not sketches:
        raise ValueError("need at least one sketch")
    out = sketches[0].copy()
    for sk in sketches[1:]:
        out.merge(sk)
    return out
