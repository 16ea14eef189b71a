"""Streaming bottom-k / priority sampling (Section 2.5.1).

Keeps the ``k`` items with the smallest priorities; the threshold is the
``(k+1)``-st smallest priority seen.  With ``R = U/w`` priorities this is
Duffield–Lund–Thorup priority sampling; with exponential priorities it is
PPSWOR; with uniform priorities it is a plain reservoir-equivalent uniform
sample and simultaneously a KMV distinct counter.

Because the bottom-k threshold is fully substitutable (Section 2.5.1), the
fixed-threshold HT estimator and its variance estimator apply verbatim —
the :meth:`BottomKSampler.sample` output plugs straight into
:class:`repro.core.sample.Sample`'s methods.

The rows live in a :class:`~repro.core.bottomk_store.BottomKStore`, which
owns the threshold, the grow-resize cap and the merge: the union of two
sketches over disjoint streams, cut back to ``k + 1`` rows, is exactly
the sketch of the concatenated stream.
"""

from __future__ import annotations

import math

import numpy as np

from ..api import PrioritySampler, query_support, register_sampler
from ..api.protocol import (
    _as_key_batch,
    _as_optional_array,
    rng_from_state,
    rng_to_state,
)
from ..core.bottomk_store import BottomKStore
from ..core.priorities import PriorityFamily
from ..core.sample import Sample

__all__ = ["BottomKSampler"]

#: Checkpoint row layout (rows older than the time column have 4 fields).
_ROW = ("priorities", "keys", "weights", "values", "times")


@register_sampler("bottom_k")
class BottomKSampler(PrioritySampler):
    """Weighted bottom-k sampler with an adaptive, substitutable threshold.

    Parameters
    ----------
    k:
        Target sample size.  Memory is ``O(k)`` (the sketch stores ``k + 1``
        entries; the largest is the threshold witness).
    family:
        Priority family; ``InverseWeightPriority`` (default) gives priority
        sampling, ``ExponentialPriority`` gives PPSWOR, ``Uniform01Priority``
        gives uniform sampling / KMV.  Also accepts the config names
        ``"inverse_weight"``, ``"exponential"`` and ``"uniform"``.
    coordinated:
        Hash-based priorities (stable per key) instead of RNG draws.
    """

    mergeable = True
    resizable = True
    #: Full query surface: per-occurrence HT rows with genuine inclusion
    #: probabilities answer every aggregate (``distinct`` presumes the
    #: stream offers each key once — the coordinated/unique-feed use of
    #: §3.4; dedup-on-ingest is the distinct sketches' job).
    query_capabilities = query_support(
        "sum", "count", "mean", "distinct", "topk", "quantile"
    )
    #: Feeding ``time=`` values threads per-entry arrival times into the
    #: sample, and the windowed query pass scopes by them (untimed rows
    #: are excluded from time-scoped answers); a sketch fed no times at
    #: all raises a clear error instead.
    query_windowed = True

    def __init__(
        self,
        k: int,
        family: PriorityFamily | str | None = None,
        coordinated: bool = False,
        salt: int = 0,
        rng=None,
    ):
        super().__init__(family, coordinated, salt, rng)
        # The k+1 smallest priorities seen; an untimed row's time is NaN.
        self._store = BottomKStore(k, ("weights", "values", "times"))
        self.items_seen = 0

    @property
    def k(self) -> int:
        """Target sample size."""
        return self._store.k

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> bool:
        """Offer one item; returns True when it is currently retained."""
        r = self._priority(key, weight)
        self.items_seen += 1
        return self._store.update(
            r,
            key,
            weights=float(weight),
            values=float(weight if value is None else value),
            times=math.nan if time is None else float(time),
        )

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Draws all priorities at once and offers the batch to the store,
        which admits only the rows below the threshold (bottom-k state is
        order-independent, so this is exactly the state the scalar loop
        would reach — and with the same RNG consumption, bit-for-bit the
        same sample).
        """
        keys = _as_key_batch(keys)
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        v = _as_optional_array(values, n, "values")
        t = _as_optional_array(times, n, "times")
        self.check_columns({"weights": w})
        pr = self._batch_priorities(keys, w)
        self.items_seen += n
        w = np.ones(n) if w is None else w
        self._store.offer(pr, keys, weights=w, values=w if v is None else v,
                          times=t)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """The (k+1)-st smallest priority (capped by any grow-resize), or
        the cap / +inf while the sketch is underfull."""
        return self._store.threshold

    def __len__(self) -> int:
        return len(self._store)

    def sample(self) -> Sample:
        """Finalized sample; plugs into every Section 2 estimator.

        When any retained entry carries an arrival time, the sample
        attaches a ``times`` column (``NaN`` for entries fed without
        one) so windowed/decayed queries can scope by it; a sketch fed
        no times at all emits ``times=None``.
        """
        rows = self._store.below()
        if np.isnan(rows["times"]).all():
            rows["times"] = None
        return Sample(
            **rows,
            thresholds=np.full(len(rows["keys"]), self.threshold),
            family=self.family,
            population_size=self.items_seen,
        )

    # ------------------------------------------------------------------
    # Convenience estimators
    # ------------------------------------------------------------------
    def estimate_distinct(self) -> float:
        """HT population-size estimate ``sum 1/F_i(T)``.

        With uniform priorities this is the KMV-style ``k / R_(k+1)``
        estimator; Section 3.4 shows the same sketch answers both subset-sum
        and distinct-count queries when weighted.
        """
        return self.sample().distinct_estimate()

    # ------------------------------------------------------------------
    # Online resizing
    # ------------------------------------------------------------------
    def resize(self, k: int) -> "BottomKSampler":
        """Change the budget to ``k`` mid-stream, keeping HT unbiased.

        Shrinking folds the sketch to the ``k+1`` smallest priorities —
        exactly the state a fresh ``k``-budget sketch of the same stream
        would hold (priority draws are per-item, not per-budget).
        Growing freezes the current threshold as an admission cap until
        the enlarged store genuinely fills past it; the cap is a
        1-substitutable threshold, so the fixed-threshold estimators
        stay unbiased across the transition.
        """
        self._store.resize(int(k))
        return self

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "BottomKSampler") -> "BottomKSampler":
        """Absorb the sketch of a *disjoint* stream into this one (in-place).

        The merged sketch equals the sketch of the concatenated stream: the
        union of retained entries, cut back to the k+1 smallest priorities,
        under the smaller of the two grow-resize caps.  Returns ``self``;
        use ``a | b`` or :func:`repro.api.merged` for the pure form.  (For
        coordinated sketches over overlapping key sets, use the
        distinct-counting merges in :mod:`repro.samplers.distinct`, which
        handle duplicate keys.)
        """
        if type(other.family) is not type(self.family):
            raise ValueError("cannot merge sketches with different priority families")
        self._store.union(other._store)
        self.items_seen += other.items_seen
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, **self._priority_config()}

    def _get_state(self) -> dict:
        cap = self._store.cap
        return {
            "entries": self._store.rows(_ROW),
            "items_seen": self.items_seen,
            # None encodes "no cap" so the state stays JSON-friendly.
            "threshold_cap": None if cap == math.inf else cap,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        self._store.load_rows(state["entries"], _ROW)
        self.items_seen = int(state["items_seen"])
        cap = state.get("threshold_cap")
        self._store.cap = math.inf if cap is None else float(cap)
        self.rng = rng_from_state(state["rng"])
