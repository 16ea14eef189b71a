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
``update_many`` is vectorized.

The stream-fed rows of both sketches live in a
:class:`~repro.core.bottomk_store.BottomKStore`, which owns the
threshold, the admission cap, resizing and the cut of a union.  What the
sketches add is duplicate handling, one rule on both ingest paths: under
the distinct-counting contract (one weight per key) a repeated key
repeats its priority, so a priority the store already holds is a
duplicate, and within a batch the first occurrence is the one offered.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_key_batch, _as_optional_array, _column_min
from ..core.bottomk_store import BottomKStore, take_keys
from ..core.hashing import batch_hash_bounds, hash_to_unit
from ..core.priorities import InverseWeightPriority, Uniform01Priority
from ..core.sample import Sample

__all__ = [
    "WeightedDistinctSketch",
    "AdaptiveDistinctSketch",
    "lcs_union",
]

#: Checkpoint row layouts of the weighted rows and of adaptive's stream.
_WEIGHTED_ROW = ("keys", "priorities", "weights")
_STREAM_ROW = ("keys", "priorities")


def _candidates(keys, salt: int, weights, store: BottomKStore):
    """The rows a distinct sketch offers its store, as ascending batch
    positions and their priorities (hash / weight): below the threshold,
    not held by the store yet, and the first occurrence of each priority
    in the batch.

    Only the rows whose :func:`~repro.core.hashing.batch_hash_bounds`
    bound (divided by the weight) is below the threshold get an exact
    priority; the bound is never above it, so no row that could enter is
    skipped.
    """
    threshold = store.threshold
    bound, exact = batch_hash_bounds(keys, salt)
    if weights is not None:
        bound /= weights
    pos = np.flatnonzero(bound < threshold)
    r = exact(pos) if weights is None else exact(pos) / weights[pos]
    keep = r < threshold
    keep[keep] = ~store.holds(r[keep])
    pos, r = pos[keep], r[keep]
    _, first = np.unique(r, return_index=True)
    first.sort()
    return pos[first], r[first]


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
        self.salt = int(salt)
        self.family = InverseWeightPriority()
        self._store = BottomKStore(k, ("weights",))

    @property
    def k(self) -> int:
        """Sketch size."""
        return self._store.k

    @classmethod
    def check_columns(cls, columns) -> None:
        """Also refuse a weight that is not positive (or NaN)."""
        super().check_columns(columns)
        if not _column_min(columns, "weights") > 0:
            raise ValueError("weights must be positive")

    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> bool:
        """Offer (key, weight); a repeated key (same priority) is ignored."""
        if not weight > 0:
            raise ValueError("weights must be positive")
        weight = float(weight)
        r = hash_to_unit(key, self.salt) / weight
        store = self._store
        if r >= store.threshold:
            return False
        if store.holds(r):
            return True
        return store.update(r, key, weights=weight)

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Hashes the whole batch with numpy and offers the store the first
        occurrence of each priority it does not hold yet.  Assumes each
        key maps to one weight (the distinct-counting contract).
        """
        keys = _as_key_batch(keys)
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        self.check_columns({"weights": w})
        pos, r = _candidates(keys, self.salt, w, self._store)
        self._store.offer(
            r, keys, at=pos, weights=np.ones(n) if w is None else w
        )

    @property
    def threshold(self) -> float:
        """The (k+1)-st smallest weighted priority, capped by any
        grow-resize (the cap / +inf while underfull)."""
        return self._store.threshold

    def __len__(self) -> int:
        return len(self._store)

    def sample(self) -> Sample:
        """The retained entries as a :class:`Sample` (values all 1).

        ``sample().ht_total()`` equals :meth:`estimate_distinct`, and
        re-weighting the values recovers the subset-sum estimators.
        """
        rows = self._store.below()
        m = len(rows["keys"])
        return Sample(
            **rows,
            values=np.ones(m),
            thresholds=np.full(m, self.threshold),
            family=self.family,
        )

    def estimate_distinct(self) -> float:
        """``N_hat = sum_i 1 / min(1, w_i T)`` — Section 3.4's estimator."""
        return self.sample().ht_total()

    def estimate_subset_sum(
        self, predicate: Callable[[object], bool], values: dict | None = None
    ) -> float:
        """``S_hat(A) = sum_{i in A} x_i / min(1, w_i T)``.

        ``values`` maps keys to the summand; by default the weight itself is
        summed (PPS subset sums).
        """
        sample = self.sample().select(predicate)
        if values is None:
            return sample.ht_total(sample.weights)
        return sample.ht_total([values[key] for key in sample.keys])

    def resize(self, k: int) -> "WeightedDistinctSketch":
        """Change the sketch size mid-stream, keeping §3.4's estimators
        unbiased.

        Shrinking folds to the ``k+1`` smallest priorities (the state of
        a fresh ``k`` sketch over the same stream); growing freezes the
        current threshold as an admission cap — a 1-substitutable
        threshold per §3.5 — until the enlarged sketch fills past it.
        """
        self._store.resize(int(k))
        return self

    def merge(self, other: "WeightedDistinctSketch") -> "WeightedDistinctSketch":
        """Union with a sketch of the same ``k`` and salt (in-place,
        returns self).

        Valid for disjoint key sets (and idempotent on shared keys, which
        carry identical hashes): the union cut back to the ``k + 1``
        smallest priorities is the sketch of the combined stream.  A
        different ``k`` raises ``ValueError``: the smaller sketch holds
        too few rows to fill the larger one's cut.
        """
        if other.salt != self.salt:
            raise ValueError("cannot merge sketches with different salts")
        theirs = other._store
        self._store.union(theirs, rows=~self._store.holds(theirs.priorities))
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "salt": self.salt}

    def _get_state(self) -> dict:
        cap = self._store.cap
        return {
            "entries": self._store.rows(_WEIGHTED_ROW),
            # None encodes "no cap" so the state stays JSON-friendly.
            "cap": None if cap == float("inf") else cap,
        }

    def _set_state(self, state: dict) -> None:
        self._store.load_rows(state["entries"], _WEIGHTED_ROW)
        cap = state.get("cap")
        self._store.cap = float("inf") if cap is None else float(cap)


@register_sampler("adaptive_distinct")
class AdaptiveDistinctSketch(StreamSampler):
    """Uniform-priority distinct sketch with *per-entry* thresholds.

    Streaming behaviour is a plain KMV/bottom-k sketch (all entries share
    the global threshold).  Merging produces per-entry thresholds via the
    Section 3.5 rule ``tau'_h = max over input sketches containing h of
    tau(h)``, keeping every retained hash usable.  Merges chain: the result
    can be merged again (the generalization past Cohen–Kaplan's LCS that
    arbitrary 1-substitutable thresholds buy).

    The admission threshold for *new* stream items is the stream store's
    threshold, capped by the min over merged inputs (which keeps the rule
    1-substitutable).  A key is either a stream row or a merged entry,
    never both: the stream skips merged keys, and a merge or :meth:`trim`
    folds the stream rows into the merged entries.
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
        self.salt = int(salt)
        self.family = Uniform01Priority()
        # Stream-fed hashes.  Uniform hash priorities live in (0, 1), so an
        # underfull sketch keeps everything under an admission cap of 1.
        self._store = BottomKStore(k, cap=1.0)
        # Entries inherited from merges: key -> (hash, tau).
        self._merged_entries: dict[object, tuple[float, float]] = {}

    @property
    def k(self) -> int:
        """Sketch size."""
        return self._store.k

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> bool:
        """Offer a key; duplicates are idempotent (weights are ignored)."""
        if key in self._merged_entries:
            return True
        h = hash_to_unit(key, self.salt)
        store = self._store
        if h >= store.threshold:
            return False
        if store.holds(h):
            return True
        return store.update(h, key)

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Hashes the whole batch with numpy and offers the store the first
        occurrence of each hash it does not hold yet, merged keys left out.
        """
        keys = _as_key_batch(keys)
        n = len(keys)
        if n == 0:
            return
        pos, h = _candidates(keys, self.salt, None, self._store)
        if self._merged_entries:
            merged = self._merged_entries
            unmerged = np.array(
                [key not in merged for key in take_keys(keys, pos)], dtype=bool
            )
            pos, h = pos[unmerged], h[unmerged]
        self._store.offer(h, keys, at=pos)

    @property
    def stream_threshold(self) -> float:
        """Threshold governing the stream-fed entries."""
        return self._store.threshold

    def entries(self) -> dict[object, tuple[float, float]]:
        """All usable entries as ``key -> (hash, tau)``."""
        sample = self.sample()
        return dict(zip(
            sample.keys,
            zip(sample.priorities.tolist(), sample.thresholds.tolist()),
        ))

    def __len__(self) -> int:
        return len(self._store) + len(self._merged_entries)

    def sample(self) -> Sample:
        """Usable entries as a :class:`Sample` with per-entry thresholds:
        the stream rows under the stream threshold, then the merged
        entries under their own taus.

        ``sample().ht_total()`` equals :meth:`estimate_distinct`.
        """
        rows = self._store.below()
        stream = np.full(len(rows["keys"]), self.stream_threshold)
        merged = np.array(list(self._merged_entries.values()), dtype=float)
        merged = merged.reshape(-1, 2)  # (hash, tau) rows
        n = stream.size + len(merged)
        return Sample(
            keys=rows["keys"] + list(self._merged_entries),
            values=np.ones(n),
            weights=np.ones(n),
            priorities=np.concatenate((rows["priorities"], merged[:, 0])),
            thresholds=np.concatenate((stream, merged[:, 1])),
            family=self.family,
        )

    def estimate_distinct(self) -> float:
        """``N_hat = sum over entries of 1/tau_h``."""
        return float(np.sum(1.0 / self.sample().thresholds))

    @classmethod
    def from_hashes(cls, hashes, k: int, salt: int = 0) -> "AdaptiveDistinctSketch":
        """Build a sketch from precomputed distinct hash values.

        The hash doubles as the entry key, which is exactly what the merge
        logic needs: identical items across sketches collide on the same
        hash.  The hashes go to the store as one batch, which keeps the
        ``k + 1`` smallest (the vectorized path for the Figure 4 /
        Section 3.5 Monte-Carlo sweeps).
        """
        hashes = np.asarray(hashes, dtype=float)
        out = cls(k, salt=salt)
        out._store.offer(hashes, hashes)
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
        cap = min(self.stream_threshold, other.stream_threshold)
        if self._store.priorities.size:
            self._merged_entries = self.entries()
        merged_entries = self._merged_entries
        for key, (h, tau) in other.entries().items():
            known = merged_entries.get(key)
            if known is None or known[1] < tau:
                merged_entries[key] = (h, tau)
        self._store = BottomKStore(max(self.k, other.k), cap=cap)
        return self

    def resize(self, k: int) -> "AdaptiveDistinctSketch":
        """Change the budget mid-stream; the fold is :meth:`trim`'s.

        Shrinking folds the retained set under the new
        ``(k+1)``-st-smallest cut via :meth:`trim` (per-entry taus capped
        at the cut, the admission cap lowered with them), then lowers the
        budget.  Growing freezes the current stream threshold as the
        admission cap before lifting ``k``, so new admissions keep
        honouring the threshold the existing entries were retained under.
        """
        if k < 1:
            raise ValueError("k must be a positive integer")
        k = int(k)
        if k < self.k:
            self.trim(k)
        self._store.resize(k)
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
        self._merged_entries = {
            key: (h, min(tau, cut)) for h, tau, key in entries[:max_entries]
        }
        self._store = BottomKStore(self.k, cap=min(self._store.cap, cut))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "salt": self.salt}

    def _get_state(self) -> dict:
        return {
            "stream_entries": self._store.rows(_STREAM_ROW),
            "merged_entries": [
                (key, h, tau) for key, (h, tau) in self._merged_entries.items()
            ],
            "admission_cap": self._store.cap,
        }

    def _set_state(self, state: dict) -> None:
        self._store.load_rows(state["stream_entries"], _STREAM_ROW)
        self._store.cap = float(state["admission_cap"])
        self._merged_entries = {
            key: (h, tau) for key, h, tau in state["merged_entries"]
        }


def lcs_union(
    a: AdaptiveDistinctSketch | WeightedDistinctSketch,
    b: AdaptiveDistinctSketch,
) -> float:
    """Distinct-count estimate of ``|A u B|`` via the per-item-max merge.

    Convenience wrapper: ``(a | b).estimate_distinct()`` — pure, leaving
    both inputs untouched.
    """
    return (a | b).estimate_distinct()
