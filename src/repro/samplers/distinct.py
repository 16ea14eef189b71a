"""Distinct counting with weighted samples and per-item-threshold merges.

Covers three pieces of the paper:

* **Section 3.4** — a single coordinated *weighted* bottom-k sample answers
  both subset-sum and distinct-count queries: ``N_hat = sum_i Z_i /
  F_i(T_i)`` and ``S_hat(A) = sum_{i in A} w_i Z_i / F_i(T_i)``.
  (:class:`WeightedDistinctSketch`.)
* **Section 3.5** — improved merges: any new 1-substitutable threshold with
  ``T'_i <= max(T^A_i, T^B_i)`` yields a valid merged sketch.  Taking the
  per-item *max* keeps every retained hash usable (generalizing the LCS
  sketch of Cohen & Kaplan), instead of discarding down to the global
  min-theta as Theta sketches do.  (:class:`AdaptiveDistinctSketch` and
  :func:`lcs_union`.)  The key observation making chained merges sound:
  whenever membership of a retained hash in another set is ambiguous, that
  set's threshold is <= the hash < the retained tau, so the per-item max is
  unchanged either way.
* **Figure 4 / §3.5 claims** — the union estimators compared there are all
  here: :func:`lcs_union` (ours), plus bottom-k and Theta unions re-exported
  from the baselines for convenience.

Hash priorities are coordinated (stable per key, salted per replication),
so duplicate items across sketches collide exactly as the theory requires.
Both sketches follow the :class:`repro.api.StreamSampler` protocol:
``merge`` is in-place (returns self), ``a | b`` is the pure union, and
``update_many`` ingests batches through a vectorized select-then-insert
path.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_key_list, _as_optional_array
from ..core.hashing import batch_hash_to_unit, hash_to_unit
from ..core.priorities import InverseWeightPriority, Uniform01Priority
from ..core.sample import Sample

__all__ = [
    "WeightedDistinctSketch",
    "AdaptiveDistinctSketch",
    "lcs_union",
]


@register_sampler("weighted_distinct")
class WeightedDistinctSketch(StreamSampler):
    """Coordinated weighted bottom-k sketch for subset sums + distinct counts.

    Priorities are ``R = hash(key)/w``; the sketch keeps the ``k`` smallest
    and the threshold is the ``(k+1)``-st.  Duplicate occurrences of a key
    are idempotent (same hash), which is what makes the sketch a *distinct*
    counter.

    Parameters
    ----------
    k:
        Sketch size.
    salt:
        Hash salt (one per Monte-Carlo replication).
    """

    default_estimate_kind = "distinct"
    mergeable = True
    resizable = True
    #: Per-key coordinated rows: every HT aggregate applies.  The payload
    #: column is 1 per key (``sum`` defaults to the distinct count); pass
    #: ``value="weight"`` for weighted subset sums (§3.4's ``S_hat(A)``).
    query_capabilities = query_support(
        "sum", "count", "mean", "distinct", "topk", "quantile"
    )

    def __init__(self, k: int, salt: int = 0):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = int(k)
        self.salt = int(salt)
        self.family = InverseWeightPriority()
        # Max-heap of (-priority, key); _entries maps key -> (priority, weight).
        self._heap: list[tuple[float, object]] = []
        self._entries: dict[object, tuple[float, float]] = {}
        # Admission cap left behind by a grow-resize (1-substitutable,
        # §3.5): the threshold never exceeds its value at resize time.
        self._cap = float("inf")

    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> bool:
        """Offer (key, weight); duplicate keys are ignored after admission."""
        if weight <= 0:
            raise ValueError("weights must be positive")
        if key in self._entries:
            return True
        r = hash_to_unit(key, self.salt) / float(weight)
        return self._offer(key, r, float(weight))

    def _offer(self, key: object, r: float, weight: float) -> bool:
        if r >= self._cap:
            return False
        if len(self._entries) <= self.k:
            self._entries[key] = (r, weight)
            heapq.heappush(self._heap, (-r, key))
            return True
        worst = -self._heap[0][0]
        if r >= worst:
            return False
        _, evicted = heapq.heapreplace(self._heap, (-r, key))
        del self._entries[evicted]
        self._entries[key] = (r, weight)
        return True

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Hashes and threshold-tests the whole batch with numpy, then inserts
        only the ``k + 1`` smallest distinct priorities — the only items
        that can possibly be retained — through the scalar path.  Assumes
        each key maps to one weight (the distinct-counting contract).
        """
        keys = _as_key_list(keys)
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        if w is not None and np.any(w <= 0):
            raise ValueError("weights must be positive")
        h = batch_hash_to_unit(keys, self.salt)
        r = h if w is None else h / w
        # Distinct priorities, ascending; duplicates of a key collapse here
        # because identical (key, weight) pairs hash to identical r.
        r_unique, first_idx = np.unique(r, return_index=True)
        take = min(self.k + 1, r_unique.size)
        t = self.threshold
        for j in range(take):
            if r_unique[j] >= t:
                break
            i = int(first_idx[j])
            key = keys[i]
            if key in self._entries:
                continue
            self._offer(key, float(r[i]), 1.0 if w is None else float(w[i]))
            t = self.threshold

    @property
    def threshold(self) -> float:
        """The (k+1)-st smallest weighted priority, capped by any
        grow-resize (the cap / +inf while underfull)."""
        if len(self._entries) <= self.k:
            return self._cap
        return min(-self._heap[0][0], self._cap)

    def _retained(self) -> list[tuple[object, float, float]]:
        t = self.threshold
        return [
            (key, r, w) for key, (r, w) in self._entries.items() if r < t
        ]

    def __len__(self) -> int:
        return len(self._retained())

    def sample(self) -> Sample:
        """The retained entries as a :class:`Sample` (values all 1).

        ``sample().ht_total()`` equals :meth:`estimate_distinct`, and
        re-weighting the values recovers the subset-sum estimators.
        """
        entries = self._retained()
        t = self.threshold
        return Sample(
            keys=[key for key, _, _ in entries],
            values=np.ones(len(entries)),
            weights=np.array([w for _, _, w in entries], dtype=float),
            priorities=np.array([r for _, r, _ in entries], dtype=float),
            thresholds=np.full(len(entries), t),
            family=self.family,
        )

    def estimate_distinct(self) -> float:
        """``N_hat = sum_i 1 / min(1, w_i T)`` — Section 3.4's estimator."""
        t = self.threshold
        return float(
            sum(1.0 / min(1.0, w * t) for _, _, w in self._retained())
        )

    def estimate_subset_sum(
        self, predicate: Callable[[object], bool], values: dict | None = None
    ) -> float:
        """``S_hat(A) = sum_{i in A} x_i / min(1, w_i T)``.

        ``values`` maps keys to the summand; by default the weight itself is
        summed (PPS subset sums).
        """
        t = self.threshold
        total = 0.0
        for key, _, w in self._retained():
            if predicate(key):
                x = w if values is None else float(values[key])
                total += x / min(1.0, w * t)
        return total

    def resize(self, k: int) -> "WeightedDistinctSketch":
        """Change the sketch size mid-stream, keeping §3.4's estimators
        unbiased.

        Shrinking folds to the ``k+1`` smallest priorities (the state of
        a fresh ``k`` sketch over the same stream); growing freezes the
        current threshold as an admission cap — a 1-substitutable
        threshold per §3.5 — until the enlarged sketch fills past it.
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
        k = int(k)
        if k == self.k:
            return self
        if k < self.k:
            if len(self._entries) > k + 1:
                keep = heapq.nsmallest(
                    k + 1,
                    ((r, key) for key, (r, _) in self._entries.items()),
                )
                self._entries = {
                    key: self._entries[key] for _, key in keep
                }
                self._heap = [(-r, key) for r, key in keep]
                heapq.heapify(self._heap)
        else:
            self._cap = self.threshold
        self.k = k
        return self

    def merge(self, other: "WeightedDistinctSketch") -> "WeightedDistinctSketch":
        """Union with a sketch over the same salt (in-place, returns self).

        Valid for disjoint key sets (and idempotent on shared keys, which
        carry identical hashes): the union cut back to the ``k + 1``
        smallest priorities is the sketch of the combined stream.
        """
        if other.salt != self.salt:
            raise ValueError("cannot merge sketches with different salts")
        self._cap = min(self._cap, other._cap)
        for key, (r, w) in other._entries.items():
            if key not in self._entries:
                self._offer(key, r, w)
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "salt": self.salt}

    def _get_state(self) -> dict:
        cap = self._cap
        return {
            "entries": [
                (key, r, w) for key, (r, w) in self._entries.items()
            ],
            # None encodes "no cap" so the state stays JSON-friendly.
            "cap": None if cap == float("inf") else cap,
        }

    def _set_state(self, state: dict) -> None:
        self._entries = {key: (r, w) for key, r, w in state["entries"]}
        self._heap = [(-r, key) for key, (r, _) in self._entries.items()]
        heapq.heapify(self._heap)
        cap = state.get("cap")
        self._cap = float("inf") if cap is None else float(cap)


@register_sampler("adaptive_distinct")
class AdaptiveDistinctSketch(StreamSampler):
    """Uniform-priority distinct sketch with *per-entry* thresholds.

    Streaming behaviour is a plain KMV/bottom-k sketch (all entries share
    the global threshold).  Merging produces per-entry thresholds via the
    Section 3.5 rule ``tau'_h = max over input sketches containing h of
    tau(h)``, keeping every retained hash usable.  Merges chain: the result
    can be merged again (the generalization past Cohen–Kaplan's LCS that
    arbitrary 1-substitutable thresholds buy).

    ``admission_threshold`` is the threshold applied to *new* stream items
    (the min over merged inputs, which keeps the rule 1-substitutable).
    """

    default_estimate_kind = "distinct"
    mergeable = True
    resizable = True
    #: Unweighted hash rows (values and weights all 1): the count-style
    #: aggregates apply; the rest degenerate and are declared out.
    query_capabilities = query_support(
        "count", "distinct",
        sum="stores no payloads (all values are 1 — sum degenerates to distinct)",
        mean="stores no payloads (every value is 1; the mean is trivially 1)",
        topk="all per-key values are 1; there is no ranking signal",
        quantile="stores no payloads (the value distribution is degenerate)",
    )

    def __init__(self, k: int, salt: int = 0):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = int(k)
        self.salt = int(salt)
        self.family = Uniform01Priority()
        self._heap: list[float] = []  # max-heap (negated) of stream hashes
        self._stream_entries: dict[object, float] = {}  # key -> hash
        # Entries inherited from merges: key -> (hash, tau).
        self._merged_entries: dict[object, tuple[float, float]] = {}
        # Uniform hash priorities live in (0, 1): an underfull sketch keeps
        # everything, i.e. threshold 1 (exact counting), not +inf.
        self._admission_cap = 1.0

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> bool:
        """Offer a key; duplicates are idempotent (weights are ignored)."""
        if key in self._stream_entries or key in self._merged_entries:
            return True
        h = hash_to_unit(key, self.salt)
        if not h < self._admission_cap:
            return False
        if len(self._stream_entries) <= self.k:
            self._stream_entries[key] = h
            heapq.heappush(self._heap, -h)
            return True
        worst = -self._heap[0]
        if h >= worst:
            return False
        heapq.heapreplace(self._heap, -h)
        evicted = next(
            k_ for k_, v in self._stream_entries.items() if v == worst
        )
        del self._stream_entries[evicted]
        self._stream_entries[key] = h
        return True

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Hashes the whole batch with numpy and offers only the ``k + 1``
        smallest distinct hashes (all any bottom-k state can absorb)
        through the scalar path.
        """
        keys = _as_key_list(keys)
        n = len(keys)
        if n == 0:
            return
        h = batch_hash_to_unit(keys, self.salt)
        h_unique, first_idx = np.unique(h, return_index=True)
        take = min(self.k + 1, h_unique.size)
        for j in range(take):
            if h_unique[j] >= self.stream_threshold:
                break
            self.update(keys[int(first_idx[j])])

    @property
    def stream_threshold(self) -> float:
        """Threshold governing the stream-fed entries."""
        if len(self._stream_entries) <= self.k:
            return self._admission_cap
        return min(-self._heap[0], self._admission_cap)

    def entries(self) -> dict[object, tuple[float, float]]:
        """All usable entries as ``key -> (hash, tau)``."""
        t = self.stream_threshold
        out = {
            key: (h, t) for key, h in self._stream_entries.items() if h < t
        }
        for key, (h, tau) in self._merged_entries.items():
            if key in out:
                out[key] = (h, max(out[key][1], tau))
            else:
                out[key] = (h, tau)
        return out

    def __len__(self) -> int:
        return len(self.entries())

    def sample(self) -> Sample:
        """Usable entries as a :class:`Sample` with per-entry thresholds.

        ``sample().ht_total()`` equals :meth:`estimate_distinct`.
        """
        entries = self.entries()
        keys = list(entries)
        return Sample(
            keys=keys,
            values=np.ones(len(keys)),
            weights=np.ones(len(keys)),
            priorities=np.array([entries[k][0] for k in keys], dtype=float),
            thresholds=np.array([entries[k][1] for k in keys], dtype=float),
            family=self.family,
        )

    def estimate_distinct(self) -> float:
        """``N_hat = sum over entries of 1/tau_h``."""
        return float(sum(1.0 / tau for _, tau in self.entries().values()))

    @classmethod
    def from_hashes(cls, hashes, k: int, salt: int = 0) -> "AdaptiveDistinctSketch":
        """Build a sketch from precomputed distinct hash values.

        The hash doubles as the entry key, which is exactly what the merge
        logic needs: identical items across sketches collide on the same
        hash.  Only the ``k + 1`` smallest values can be retained, so the
        construction partitions instead of streaming (vectorized path for
        the Figure 4 / Section 3.5 Monte-Carlo sweeps).
        """
        hashes = np.asarray(hashes, dtype=float)
        out = cls(k, salt=salt)
        keep = min(k + 1, hashes.size)
        if keep:
            smallest = np.sort(np.partition(hashes, keep - 1)[:keep])
            out._stream_entries = {float(h): float(h) for h in smallest}
            out._heap = [-float(h) for h in smallest]
            heapq.heapify(out._heap)
        return out

    # ------------------------------------------------------------------
    # Merging (Section 3.5)
    # ------------------------------------------------------------------
    def merge(self, other: "AdaptiveDistinctSketch") -> "AdaptiveDistinctSketch":
        """In-place union with per-entry max thresholds (returns self).

        O(|other|); the workhorse for long merge chains.  Use ``a | b`` or
        :func:`repro.api.merged` when the inputs must stay intact.
        """
        if other.salt != self.salt:
            raise ValueError("cannot merge sketches with different salts")
        # Thresholds and the entry fold must use each sketch's *own* k —
        # enlarging k first would lift stream_threshold to the admission
        # cap and hand the folded entries inflated taus.
        own_threshold = self.stream_threshold
        other_threshold = other.stream_threshold
        if self._stream_entries:
            self._merged_entries = dict(self.entries())
            self._stream_entries = {}
            self._heap = []
        self.k = max(self.k, other.k)
        merged_entries = self._merged_entries
        for key, (h, tau) in other.entries().items():
            known = merged_entries.get(key)
            if known is None or known[1] < tau:
                merged_entries[key] = (h, tau)
        self._admission_cap = min(own_threshold, other_threshold)
        return self

    def resize(self, k: int) -> "AdaptiveDistinctSketch":
        """Change the budget mid-stream; the fold is :meth:`trim`'s.

        Shrinking lowers the budget and folds the retained set under the
        new ``(k+1)``-st-smallest cut via :meth:`trim` (per-entry taus
        capped at the cut, the admission cap lowered with them).  Growing
        freezes the current stream threshold as the admission cap before
        lifting ``k``, so new admissions keep honouring the threshold the
        existing entries were retained under.
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
        k = int(k)
        if k == self.k:
            return self
        if k < self.k:
            self.k = k
            self.trim(k)
        else:
            self._admission_cap = self.stream_threshold
            self.k = k
        return self

    def trim(self, max_entries: int) -> None:
        """Bound memory by lowering taus: keep the ``max_entries`` smallest
        hashes; the cut point becomes an upper bound on every tau."""
        entries = sorted(
            ((h, tau, key) for key, (h, tau) in self.entries().items())
        )
        if len(entries) <= max_entries:
            return
        cut = entries[max_entries][0]
        kept = {
            key: (h, min(tau, cut)) for h, tau, key in entries[:max_entries]
        }
        self._stream_entries = {}
        self._heap = []
        self._merged_entries = kept
        self._admission_cap = min(self._admission_cap, cut)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "salt": self.salt}

    def _get_state(self) -> dict:
        return {
            "stream_entries": list(self._stream_entries.items()),
            "merged_entries": [
                (key, h, tau) for key, (h, tau) in self._merged_entries.items()
            ],
            "admission_cap": self._admission_cap,
        }

    def _set_state(self, state: dict) -> None:
        self._stream_entries = dict(state["stream_entries"])
        self._heap = [-h for h in self._stream_entries.values()]
        heapq.heapify(self._heap)
        self._merged_entries = {
            key: (h, tau) for key, h, tau in state["merged_entries"]
        }
        self._admission_cap = float(state["admission_cap"])


def lcs_union(
    a: AdaptiveDistinctSketch | WeightedDistinctSketch,
    b: AdaptiveDistinctSketch,
) -> float:
    """Distinct-count estimate of ``|A u B|`` via the per-item-max merge.

    Convenience wrapper: ``(a | b).estimate_distinct()`` — pure, leaving
    both inputs untouched.
    """
    return (a | b).estimate_distinct()
