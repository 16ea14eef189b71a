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

The rows live in an unbounded
:class:`~repro.core.bottomk_store.BottomKStore`.  After each scalar
admission and each batch chunk the store is cut at the first
``np.cumsum`` overflow of its sizes column, in ascending priority order
with tied rows in arrival order: the sums and the order of
:class:`repro.core.thresholds.BudgetPrefix`, so the live path, the batch
path, a restored checkpoint and the offline rule land on the same
threshold bit for bit.  Stored rows tied with that boundary priority (a
key repeated on a coordinated feed) leave with it, since the sample is
``{R_i < T}``.
"""

from __future__ import annotations

import numpy as np

from ..api import PrioritySampler, query_support, register_sampler
from ..api.protocol import (
    _as_key_batch,
    _as_optional_array,
    _column_min,
    rng_from_state,
    rng_to_state,
)
from ..core.bottomk_store import BottomKStore, take_keys
from ..core.priorities import PriorityFamily
from ..core.sample import Sample

__all__ = ["BudgetSampler"]

#: A stored row; checkpoints write the priorities, then the rest as records.
_ROW = ("priorities", "keys", "weights", "values", "sizes")


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
        self._store = BottomKStore(None, _ROW[2:])
        self.items_seen = 0
        self.max_item_size_seen = 0.0

    @classmethod
    def check_columns(cls, columns) -> None:
        """Also refuse a negative or NaN item size."""
        super().check_columns(columns)
        if not _column_min(columns, "sizes") >= 0:
            raise ValueError("item size must be non-negative")

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
        if not size >= 0:
            raise ValueError("item size must be non-negative")
        r = self._priority(key, weight)
        self.items_seen += 1
        self.max_item_size_seen = max(self.max_item_size_seen, float(size))
        store = self._store
        if not r < store.cap:
            return False
        store.add(r, key, weights=float(weight),
                  values=float(weight if value is None else value),
                  sizes=float(size))
        self._cut_overflow()
        # The offered item survives iff its priority is still below the
        # (possibly reduced) threshold.
        return r < store.cap

    def _cut_overflow(self) -> None:
        """Cut the store at the priority of the first row whose running
        size passes the budget: the prefix sums ascend, so that row is
        the first past it in ``searchsorted`` order."""
        store = self._store
        store.merge()
        total = store.columns["sizes"].cumsum()
        if total.size and total[-1] > self.budget:
            first = total.searchsorted(self.budget, "right")
            store.cut(float(store.priorities[first]))

    def update_many(
        self, keys, weights=None, values=None, times=None, sizes=None
    ) -> None:
        """Vectorized bulk :meth:`update` with an optional ``sizes`` column.

        Draws/hashes the whole batch's priorities at once, then filters in
        chunks against the *current* threshold: the budget threshold only
        ever decreases, so each chunk's filter discards everything the
        threshold has already ruled out, and the rows left merge into the
        store and are cut once per chunk.  The cut lands where the scalar
        loop's would, and RNG consumption matches it exactly.
        """
        keys = _as_key_batch(keys)
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        v = _as_optional_array(values, n, "values")
        s = _as_optional_array(sizes, n, "sizes")
        self.check_columns({"weights": w, "sizes": s})
        pr = self._batch_priorities(keys, w)
        self.items_seen += n
        self.max_item_size_seen = max(
            self.max_item_size_seen, 1.0 if s is None else float(s.max())
        )
        store = self._store
        chunk = 8192
        for lo in range(0, n, chunk):
            cand = lo + (pr[lo:lo + chunk] < store.cap).nonzero()[0]
            if not cand.size:
                continue
            wc = np.ones(cand.size) if w is None else w[cand]
            store.offer(pr[cand], take_keys(keys, cand), weights=wc,
                        values=wc if v is None else v[cand],
                        sizes=np.ones(cand.size) if s is None else s[cand])
            self._cut_overflow()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """Current adaptive threshold (+inf until the budget first binds)."""
        return self._store.cap

    @property
    def used(self) -> float:
        """Total size currently stored, summed as the cut sums it; always
        <= budget."""
        total = self._store.columns["sizes"].cumsum()
        return float(total[-1]) if total.size else 0.0

    def __len__(self) -> int:
        return len(self._store)

    def sample(self) -> Sample:
        """Finalized sample; HT estimators are valid since the rule is
        substitutable (and variance estimates need ``budget >= 2 L_max``,
        mirroring the paper's ``B >= 2 L_max`` remark)."""
        rows = self._store.below()
        return Sample(
            keys=rows["keys"],
            values=rows["values"],
            weights=rows["weights"],
            priorities=rows["priorities"],
            thresholds=np.full(len(rows["keys"]), self._store.cap),
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
        rows = self._store.rows(_ROW)
        return {
            "priorities": [row[0] for row in rows],
            "records": [list(row[1:]) for row in rows],
            "threshold": self._store.cap,
            "items_seen": self.items_seen,
            "max_item_size_seen": self.max_item_size_seen,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        self._store = BottomKStore(None, _ROW[2:],
                                   cap=float(state["threshold"]))
        self._store.load_rows(
            [(p, *record) for p, record in
             zip(state["priorities"], state["records"])], _ROW)
        self.items_seen = int(state["items_seen"])
        self.max_item_size_seen = float(state["max_item_size_seen"])
        self.rng = rng_from_state(state["rng"])
