"""Memory-budget sampling for variable item sizes (Section 3.1).

A bottom-k sketch guarantees *count* but not *memory*: with items of varying
size, k must be set conservatively to ``B / L_max``.  The budget sampler
instead keeps the maximal ascending-priority prefix whose total size fits in
``B``; the threshold is the priority of the first item that would overflow.
The rule is substitutable (flooring sampled priorities only permutes the
prefix), so the plain HT estimator applies, and the whole budget is used:
on the paper's survey-like workload the usable sample is ~4x larger than
the conservative bottom-k (claim T1, reproduced in
``benchmarks/bench_section31_budget.py``).

Implementation note: after each insertion the stored prefix sums are
monotone, so "evict the largest priority while the total exceeds B" lands
exactly on the first-overflow boundary the offline rule defines.  Stored
rows tied with that boundary priority (a key repeated on a coordinated
feed) are evicted with it, since the sample is ``{R_i < T}``.  The
test-suite cross-checks the streaming sampler against
:class:`repro.core.thresholds.BudgetPrefix` on identical priorities.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..api import PrioritySampler, query_support, register_sampler
from ..api.protocol import (
    _as_key_list,
    _as_optional_array,
    rng_from_state,
    rng_to_state,
)
from ..core.priorities import PriorityFamily
from ..core.sample import Sample

__all__ = ["BudgetSampler"]


@register_sampler("budget")
class BudgetSampler(PrioritySampler):
    """Adaptive-threshold sampler honoring a hard memory budget.

    Parameters
    ----------
    budget:
        Total size the sample may occupy (same units as item sizes).
    family:
        Priority family for weighted sampling; default priority sampling.
        Also accepts config names (``"inverse_weight"``, ``"uniform"``, ...).
    """

    query_capabilities = query_support(
        "sum", "count", "mean", "topk", "quantile",
        distinct=(
            "samples stream occurrences, not distinct keys; use a distinct "
            "sketch"
        ),
    )

    def __init__(
        self,
        budget: float,
        family: PriorityFamily | str | None = None,
        coordinated: bool = False,
        salt: int = 0,
        rng=None,
    ):
        if budget <= 0:
            raise ValueError("budget must be positive")
        super().__init__(family, coordinated, salt, rng)
        self.budget = float(budget)
        # Ascending priority order: parallel lists managed with bisect.
        self._priorities: list[float] = []
        self._records: list[tuple[object, float, float, float]] = []  # key, w, v, size
        self._total_size = 0.0
        self._threshold = float("inf")
        self.items_seen = 0
        self.max_item_size_seen = 0.0

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    def update(
        self,
        key: object,
        weight: float = 1.0,
        *,
        value=None,
        time=None,
        size: float = 1.0,
    ) -> bool:
        """Offer one item of the given size; returns True if retained."""
        if size < 0:
            raise ValueError("item size must be non-negative")
        self.items_seen += 1
        self.max_item_size_seen = max(self.max_item_size_seen, float(size))
        r = self._priority(key, weight)
        if not r < self._threshold:
            return False
        idx = bisect.bisect_left(self._priorities, r)
        self._priorities.insert(idx, r)
        self._records.insert(
            idx, (key, float(weight), float(weight if value is None else value), float(size))
        )
        self._total_size += float(size)
        self._evict_overflow()
        # The offered item survives iff its priority is still stored below
        # the (possibly reduced) threshold.
        return r < self._threshold

    def _evict_overflow(self) -> None:
        """Drop the tail of the priority order until the budget holds.

        Because prefix sums of non-negative sizes are monotone, popping the
        largest priority until the total fits is identical to evicting
        everything at or after the first overflow position; the threshold
        becomes the smallest evicted priority.  Stored rows tied with it
        go too: the sample is the rows strictly below the threshold.
        """
        evicted_min = None
        while self._total_size > self.budget and self._priorities:
            evicted_min = self._priorities.pop()
            self._total_size -= self._records.pop()[3]
        if evicted_min is not None:
            self._threshold = min(self._threshold, evicted_min)
            while self._priorities and self._priorities[-1] >= self._threshold:
                self._priorities.pop()
                self._total_size -= self._records.pop()[3]

    def update_many(
        self, keys, weights=None, values=None, times=None, sizes=None
    ) -> None:
        """Vectorized bulk :meth:`update` with an optional ``sizes`` column.

        Draws/hashes the whole batch's priorities at once, then filters in
        chunks against the *current* threshold before falling into the
        insertion loop: the budget threshold only ever decreases, so each
        chunk's filter discards everything the threshold has already ruled
        out and only the (typically tiny) accepted minority pays
        python-level list costs.  RNG consumption matches the scalar loop
        exactly.
        """
        keys = _as_key_list(keys)
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        v = _as_optional_array(values, n, "values")
        s = _as_optional_array(sizes, n, "sizes")
        if s is not None and np.any(s < 0):
            raise ValueError("item size must be non-negative")
        pr = self._batch_priorities(keys, w)
        self.items_seen += n
        self.max_item_size_seen = max(
            self.max_item_size_seen, 1.0 if s is None else float(s.max())
        )
        priorities, records = self._priorities, self._records
        chunk = 8192
        for lo in range(0, n, chunk):
            block = pr[lo:lo + chunk]
            if np.isfinite(self._threshold):
                cand = lo + np.flatnonzero(block < self._threshold)
            else:
                cand = np.arange(lo, lo + block.size)
            for i in cand.tolist():
                r = float(pr[i])
                if not r < self._threshold:
                    continue
                wi = 1.0 if w is None else float(w[i])
                idx = bisect.bisect_left(priorities, r)
                priorities.insert(idx, r)
                records.insert(
                    idx,
                    (keys[i], wi, wi if v is None else float(v[i]),
                     1.0 if s is None else float(s[i])),
                )
                self._total_size += 1.0 if s is None else float(s[i])
                self._evict_overflow()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """Current adaptive threshold (+inf until the budget first binds)."""
        return self._threshold

    @property
    def used(self) -> float:
        """Total size currently stored; always <= budget."""
        return self._total_size

    def __len__(self) -> int:
        return len(self._priorities)

    def sample(self) -> Sample:
        """Finalized sample; HT estimators are valid since the rule is
        substitutable (and variance estimates need ``budget >= 2 L_max``,
        mirroring the paper's ``B >= 2 L_max`` remark)."""
        return Sample(
            keys=[rec[0] for rec in self._records],
            values=np.array([rec[2] for rec in self._records], dtype=float),
            weights=np.array([rec[1] for rec in self._records], dtype=float),
            priorities=np.array(self._priorities, dtype=float),
            thresholds=np.full(len(self._priorities), self._threshold),
            family=self.family,
            population_size=self.items_seen,
        )

    @staticmethod
    def conservative_bottomk_size(budget: float, max_item_size: float) -> int:
        """The k a bottom-k sketch must use to honor the same budget.

        ``k = floor(B / L_max)`` — the paper's baseline whose sample is
        ~4x smaller on survey-like size distributions.
        """
        if max_item_size <= 0:
            raise ValueError("max_item_size must be positive")
        return int(budget // max_item_size)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"budget": self.budget, **self._priority_config()}

    def _get_state(self) -> dict:
        return {
            "priorities": list(self._priorities),
            "records": [list(rec) for rec in self._records],
            "threshold": self._threshold,
            "items_seen": self.items_seen,
            "max_item_size_seen": self.max_item_size_seen,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        self._priorities = list(state["priorities"])
        self._records = [tuple(rec) for rec in state["records"]]
        self._total_size = float(sum(rec[3] for rec in self._records))
        self._threshold = float(state["threshold"])
        self.items_seen = int(state["items_seen"])
        self.max_item_size_seen = float(state["max_item_size_seen"])
        self.rng = rng_from_state(state["rng"])
