"""Multi-objective coordinated samples (Section 3.8).

An analyst querying either profit or revenue wants a sample weighted by
whichever metric the query touches.  Cohen's approach keeps one bottom-k
sketch per objective over *coordinated* priorities ``R^j = U / w^j`` (the
same uniform ``U`` per item): the union sketch is never worse than any
single-objective sketch, and — the paper's point — when the objectives'
weights are correlated, the sketches overlap and the union occupies far
less than ``c * k``.  In the extreme of proportional weights the union is
exactly one sketch of size ``k``.

Each objective's :class:`~repro.samplers.bottomk.BottomKSampler` takes
the coordinated priorities straight into its bottom-k store.

``repro.experiments.ablation_multi_objective`` measures union size as a
function of weight correlation (design-choice ablation A2 in DESIGN.md).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_key_batch, _column_min
from ..core.hashing import batch_hash_to_unit, hash_to_unit
from ..core.priorities import InverseWeightPriority
from ..core.sample import Sample
from .bottomk import BottomKSampler

__all__ = ["MultiObjectiveSampler"]


@register_sampler("multi_objective")
class MultiObjectiveSampler(StreamSampler):
    """One coordinated bottom-k sketch per objective, sharing priorities.

    Parameters
    ----------
    k:
        Per-objective sample size.
    objectives:
        Objective names, e.g. ``("profit", "revenue")``.
    salt:
        Hash salt; the per-item uniform ``U`` is ``hash(key, salt)`` for
        every objective, which is what coordinates the sketches.
    """

    #: Queries execute over the *first* objective's sketch (the
    #: :meth:`sample` contract); per-key coordinated rows support every
    #: HT aggregate, including distinct-key counts.
    query_capabilities = query_support(
        "sum", "count", "mean", "distinct", "topk", "quantile"
    )
    required_columns = ("weights",)

    def __init__(self, k: int, objectives: Sequence[str], salt: int = 0):
        if not objectives:
            raise ValueError("need at least one objective")
        self.k = int(k)
        self.objectives = list(objectives)
        self.salt = int(salt)
        self.family = InverseWeightPriority()
        self._sketches = {
            name: BottomKSampler(k, family=self.family, coordinated=True, salt=salt)
            for name in self.objectives
        }
        self.items_seen = 0

    @classmethod
    def check_columns(cls, columns) -> None:
        """Also refuse ``weights`` that is not a mapping of objective ->
        per-item weights, or holds a weight that is not positive."""
        super().check_columns(columns)
        weights = columns["weights"]
        if not isinstance(weights, Mapping):
            raise TypeError(
                "update_many() requires weights= as a mapping of "
                "objective -> per-item weight sequence"
            )
        if not all(_column_min(weights, name) > 0 for name in weights):
            raise ValueError("objective weights must be positive")

    def update(
        self,
        key: object,
        weight: float = 1.0,
        *,
        value=None,
        time=None,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        """Offer an item with one weight per objective: ``update(key,
        weights={"profit": ..., ...})``, with ``weights=`` required."""
        if weights is None:
            raise TypeError("update() requires a weights= mapping")
        ws = [float(weights[name]) for name in self.objectives]
        if not all(w > 0 for w in ws):
            raise ValueError("objective weights must be positive")
        self.items_seen += 1
        u = hash_to_unit(key, self.salt)
        for name, w in zip(self.objectives, ws):
            sketch = self._sketches[name]
            sketch.items_seen += 1
            sketch._store.update(u / w, key, weights=w, values=w)

    def update_many(
        self, keys, weights=None, values=None, times=None
    ) -> None:
        """Vectorized bulk :meth:`update`.

        ``weights`` maps objective -> per-item weight column.  The
        coordinated uniforms are hashed for the whole batch at once and
        each objective's store takes the batch's priorities under that
        objective; the per-sketch state is the ``k + 1`` smallest
        priorities regardless of offer order, so this is exactly the scalar
        loop's result.
        """
        keys = _as_key_batch(keys)
        n = len(keys)
        self.check_columns({"weights": weights})
        if n == 0:
            return
        cols = {name: np.asarray(weights[name], dtype=float)
                for name in self.objectives}
        for name, col in cols.items():
            if col.size != n:
                raise ValueError(f"weights[{name!r}] must align with keys")
        u = batch_hash_to_unit(keys, self.salt)
        self.items_seen += n
        for name, col in cols.items():
            sketch = self._sketches[name]
            sketch.items_seen += n
            sketch._store.offer(u / col, keys, weights=col, values=col)

    def sketch(self, objective: str) -> BottomKSampler:
        """The bottom-k sketch optimized for one objective."""
        return self._sketches[objective]

    def sample(self) -> Sample:
        """The finalized sample for the *first* objective (see
        :meth:`sample_for` for the general form)."""
        return self.sample_for(self.objectives[0])

    def sample_for(self, objective: str) -> Sample:
        """The finalized sample to use for queries on ``objective``."""
        sample = self._sketches[objective].sample()
        sample.population_size = self.items_seen
        return sample

    def estimate_total(
        self, objective: str, predicate: Callable[[object], bool] | None = None
    ) -> float:
        """HT estimate of the (subset) total of ``objective``'s weight."""
        sample = self.sample_for(objective)
        if predicate is not None:
            sample = sample.select(predicate)
        return sample.ht_total()

    def union_keys(self) -> set:
        """Distinct keys stored across all sketches (the real footprint)."""
        keys: set = set()
        for sketch in self._sketches.values():
            keys.update(sketch.sample().keys)
        return keys

    def union_size(self) -> int:
        """Size of the combined sketch; between ``k`` and ``c * k``."""
        return len(self.union_keys())

    def footprint_ratio(self) -> float:
        """Union size relative to the worst case ``c * k``.

        Near ``1/c`` for perfectly correlated weights (sketches coincide),
        near 1 for independent weights.
        """
        return self.union_size() / (self.k * len(self.objectives))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {
            "k": self.k,
            "objectives": list(self.objectives),
            "salt": self.salt,
        }

    def _get_state(self) -> dict:
        return {
            "items_seen": self.items_seen,
            "sketches": {
                name: sketch.to_state()
                for name, sketch in self._sketches.items()
            },
        }

    def _set_state(self, state: dict) -> None:
        self.items_seen = int(state["items_seen"])
        self._sketches = {
            name: BottomKSampler.from_state(sub)
            for name, sub in state["sketches"].items()
        }
