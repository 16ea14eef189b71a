"""Fixed-threshold (Poisson) sampling — Section 2.1.

The baseline design every adaptive scheme is measured against: each item is
kept independently iff its priority falls below a *fixed* threshold.  The
sampler exists both as a practical tool (when good inclusion probabilities
are known in advance) and as the reference design whose estimators the
adaptive samplers reuse via threshold substitution.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..api import PrioritySampler, query_support, register_sampler
from ..api.protocol import (
    _as_key_list,
    _as_optional_array,
    rng_from_state,
    rng_to_state,
)
from ..core.priorities import PriorityFamily, Uniform01Priority
from ..core.sample import Sample

__all__ = ["PoissonSampler"]


@register_sampler("poisson")
class PoissonSampler(PrioritySampler):
    """Stream sampler with a fixed threshold per item.

    Parameters
    ----------
    threshold:
        Either a constant or a callable ``threshold(key, weight) -> float``.
    family:
        Priority family; default ``InverseWeightPriority`` makes the
        inclusion probability ``min(1, w * threshold)`` (PPS sampling).
        Also accepts config names (``"inverse_weight"``, ``"uniform"``, ...).
    coordinated:
        When True, priorities come from a salted hash of the key so that
        independent sketches sample the same keys; otherwise from ``rng``.
    """

    mergeable = True
    query_capabilities = query_support(
        "sum", "count", "mean", "topk", "quantile",
        distinct=(
            "samples stream occurrences independently, so repeated keys "
            "are double-counted by sum(1/p); use a distinct sketch or a "
            "coordinated bottom_k"
        ),
    )

    def __init__(
        self,
        threshold: float | Callable[[object, float], float],
        family: PriorityFamily | str | None = None,
        coordinated: bool = False,
        salt: int = 0,
        rng=None,
    ):
        super().__init__(family, coordinated, salt, rng)
        self._threshold = threshold
        self._keys: list = []
        self._values: list[float] = []
        self._weights: list[float] = []
        self._priorities: list[float] = []
        self._thresholds: list[float] = []
        self.items_seen = 0

    def threshold_for(self, key: object, weight: float) -> float:
        """The fixed threshold applied to ``key``."""
        if callable(self._threshold):
            return float(self._threshold(key, weight))
        return float(self._threshold)

    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> bool:
        """Offer one item; returns True when it was sampled."""
        r = self._priority(key, weight)
        self.items_seen += 1
        t = self.threshold_for(key, weight)
        if not r < t:
            return False
        self._keys.append(key)
        self._values.append(float(weight if value is None else value))
        self._weights.append(float(weight))
        self._priorities.append(r)
        self._thresholds.append(t)
        return True

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Priorities for the whole batch are drawn (or hashed) at once and
        threshold-tested with numpy; only the accepted minority is appended
        item by item.  RNG consumption matches the scalar loop, so the same
        seed produces the same sample.
        """
        keys = _as_key_list(keys)
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        v = _as_optional_array(values, n, "values")
        self.check_columns({"weights": w})
        pr = self._batch_priorities(keys, w)
        if callable(self._threshold):
            ts = np.fromiter(
                (
                    self.threshold_for(key, 1.0 if w is None else float(w[i]))
                    for i, key in enumerate(keys)
                ),
                dtype=float,
                count=n,
            )
        else:
            ts = np.full(n, float(self._threshold))
        self.items_seen += n
        taken = np.flatnonzero(pr < ts)
        self._keys.extend(keys[i] for i in taken)
        wt = np.ones(n) if w is None else w
        vals = wt if v is None else v
        self._values.extend(vals[taken].tolist())
        self._weights.extend(wt[taken].tolist())
        self._priorities.extend(pr[taken].tolist())
        self._thresholds.extend(ts[taken].tolist())

    def __len__(self) -> int:
        return len(self._keys)

    def sample(self) -> Sample:
        """The current sample with its (fixed) per-item thresholds."""
        return Sample(
            keys=list(self._keys),
            values=np.asarray(self._values, dtype=float),
            weights=np.asarray(self._weights, dtype=float),
            priorities=np.asarray(self._priorities, dtype=float),
            thresholds=np.asarray(self._thresholds, dtype=float),
            family=self.family,
            population_size=self.items_seen,
        )

    def merge(self, other: "PoissonSampler") -> "PoissonSampler":
        """Absorb a Poisson sample of a *disjoint* stream (in-place).

        Fixed per-item thresholds make the union of the two samples a valid
        sample of the concatenated stream verbatim.  Returns ``self``.
        """
        if type(other.family) is not type(self.family):
            raise ValueError("cannot merge samplers with different priority families")
        self._keys.extend(other._keys)
        self._values.extend(other._values)
        self._weights.extend(other._weights)
        self._priorities.extend(other._priorities)
        self._thresholds.extend(other._thresholds)
        self.items_seen += other.items_seen
        return self

    @classmethod
    def with_inclusion_probability(
        cls, probability: float, coordinated: bool = False, salt: int = 0, rng=None
    ) -> "PoissonSampler":
        """Uniform Poisson sampling at a given per-item probability.

        Uses the priority–threshold duality (Section 2.9): a Uniform(0, 1)
        priority against threshold ``p`` includes items with probability
        ``p`` regardless of weight.
        """
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        return cls(
            threshold=probability,
            family=Uniform01Priority(),
            coordinated=coordinated,
            salt=salt,
            rng=rng,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        if callable(self._threshold):
            raise ValueError(
                "PoissonSampler with a callable threshold cannot be serialized"
            )
        return {
            "threshold": float(self._threshold),
            **self._priority_config(),
        }

    def _get_state(self) -> dict:
        return {
            "keys": list(self._keys),
            "values": list(self._values),
            "weights": list(self._weights),
            "priorities": list(self._priorities),
            "thresholds": list(self._thresholds),
            "items_seen": self.items_seen,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        self._keys = list(state["keys"])
        self._values = list(state["values"])
        self._weights = list(state["weights"])
        self._priorities = list(state["priorities"])
        self._thresholds = list(state["thresholds"])
        self.items_seen = int(state["items_seen"])
        self.rng = rng_from_state(state["rng"])
