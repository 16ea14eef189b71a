"""Early-stopping approximate query processing (Section 3.10).

Instead of materializing samples, store *all* rows sorted by priority.  A
query with a user-specified standard-error target ``delta`` scans rows in
priority order and stops as soon as the running variance estimate of the
HT total drops to ``delta^2`` — every prefix of the layout is a valid
threshold sample, so the estimate is principled and the user trades
accuracy for rows read at query time.

Also implements the section's multi-objective physical layout: blocks that
alternate bottom-k samples by each metric's priorities, so that reading
``m`` blocks yields a weighted sample of size >= ``m_k`` for whichever
metric the query touches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api import query_support, register_sampler
from ..api.protocol import (
    STATE_VERSION,
    family_from_name,
    family_to_name,
    upgrade_state,
)
from ..core.hashing import hash_array_to_unit
from ..core.priorities import InverseWeightPriority, PriorityFamily

__all__ = [
    "PriorityLayoutTable",
    "ScanResult",
    "MultiObjectiveLayout",
]


@dataclass(frozen=True)
class ScanResult:
    """Outcome of an early-stopping scan."""

    estimate: float
    stderr: float
    rows_read: int
    rows_total: int
    threshold: float

    @property
    def fraction_read(self) -> float:
        """Fraction of the physical table the scan had to read."""
        return self.rows_read / max(self.rows_total, 1)


#: Shared capability-row reason for the offline physical layouts.
_LAYOUT_REASON = (
    "offline physical layout outside the StreamSampler protocol; query "
    "it through its own scan API, not the declarative query layer"
)
_LAYOUT_CAPABILITIES = query_support(
    sum=_LAYOUT_REASON,
    count=_LAYOUT_REASON,
    mean=_LAYOUT_REASON,
    distinct=_LAYOUT_REASON,
    topk=_LAYOUT_REASON,
    quantile=_LAYOUT_REASON,
)


@register_sampler("priority_layout")
class PriorityLayoutTable:
    """A table physically ordered by sampling priority.

    An *offline* physical layout rather than a stream sampler (it does not
    follow the :class:`repro.api.StreamSampler` protocol), but registered
    with the factory so AQP deployments can be config-constructed too.

    Parameters
    ----------
    values:
        The measure column queries aggregate.
    weights:
        Sampling weights (default: |values|, the PPS choice); priorities
        are ``hash(row)/w`` so repeated builds are reproducible per salt.
    """

    query_capabilities = _LAYOUT_CAPABILITIES
    query_variance = _LAYOUT_REASON

    def __init__(
        self,
        values=None,
        weights=None,
        family: PriorityFamily | str | None = None,
        salt: int = 0,
    ):
        family = family_from_name(family)
        self.family = family if family is not None else InverseWeightPriority()
        self._salt = int(salt)
        values = (
            np.empty(0, dtype=float)
            if values is None
            else np.asarray(values, dtype=float)
        )
        self._input_values = values.copy()
        self._input_weights = (
            None if weights is None else np.asarray(weights, dtype=float)
        )
        self._pending: list[tuple[float, float]] = []  # (value, weight)
        self._layout = None  # lazily (re)built physical order
        self._check_inputs()

    def _check_inputs(self) -> None:
        values, weights = self._input_values, self._input_weights
        if weights is None:
            if np.any(values == 0):
                raise ValueError(
                    "zero-valued rows need explicit positive weights"
                )
        else:
            if weights.shape != values.shape:
                raise ValueError("values and weights must align")
            if np.any(weights <= 0):
                raise ValueError("weights must be positive")

    # ------------------------------------------------------------------
    # Ingestion (row appends; the physical layout is derived state)
    # ------------------------------------------------------------------
    def update(self, key: object = None, weight: float = 1.0, *, value=None,
               time=None) -> None:
        """Append one row (measure ``value``, defaulting to ``weight``).

        Priorities are keyed on the row index, so existing rows keep their
        priorities; the physical sort is invalidated and rebuilt lazily at
        the next query, making row-at-a-time construction O(1) per row.
        """
        v = float(weight) if value is None else float(value)
        w = float(weight)
        if w <= 0:
            raise ValueError("weights must be positive")
        self._pending.append((v, w))
        self._layout = None

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Append a batch of rows in one vectorized pass.

        ``values`` is the measure column (defaulting to ``weights``);
        ``weights`` the sampling weights (defaulting to ``|values|``).
        One concatenation and one deferred re-sort regardless of batch
        size — seed-for-seed identical to the scalar append loop.
        """
        n = len(keys)
        if n == 0:
            return
        w = None if weights is None else np.asarray(weights, dtype=float)
        v = None if values is None else np.asarray(values, dtype=float)
        if v is None:
            if w is None:
                raise TypeError(
                    "update_many() requires a values= or weights= column"
                )
            v = w.copy()
        if w is None:
            w = np.abs(v)
        if v.shape != (n,) or w.shape != (n,):
            raise ValueError("values and weights must align with keys")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        self._flush_pending()  # earlier scalar appends come first
        self._absorb(v, w)
        self._layout = None

    def _absorb(self, v: np.ndarray, w: np.ndarray) -> None:
        """Concatenate appended rows into the input columns."""
        old_values = self._input_values
        self._input_values = np.concatenate([old_values, v])
        if self._input_weights is not None:
            self._input_weights = np.concatenate([self._input_weights, w])
        elif np.any(v == 0.0) or not np.array_equal(np.abs(v), w):
            # The default |value| weighting no longer holds: materialize.
            self._input_weights = np.concatenate([np.abs(old_values), w])

    def _flush_pending(self) -> None:
        if self._pending:
            pend = np.asarray(self._pending, dtype=float)
            self._pending.clear()
            self._absorb(pend[:, 0], pend[:, 1])

    def _ensure_built(self) -> None:
        self._flush_pending()
        if self._layout is not None:
            return
        values = self._input_values
        weights = (
            np.abs(values)
            if self._input_weights is None
            else self._input_weights
        )
        u = hash_array_to_unit(np.arange(values.size), self._salt)
        priorities = np.asarray(
            self.family.inverse_cdf(u, weights), dtype=float
        )
        order = np.argsort(priorities)
        self._layout = (
            values[order], weights[order], priorities[order], order
        )

    @property
    def values(self) -> np.ndarray:
        """Measure column in physical (priority) order."""
        self._ensure_built()
        return self._layout[0]

    @property
    def weights(self) -> np.ndarray:
        """Sampling weights in physical (priority) order."""
        self._ensure_built()
        return self._layout[1]

    @property
    def priorities(self) -> np.ndarray:
        """Row priorities in physical (ascending) order."""
        self._ensure_built()
        return self._layout[2]

    @property
    def row_ids(self) -> np.ndarray:
        """Original row index per physical position."""
        self._ensure_built()
        return self._layout[3]

    def __len__(self) -> int:
        return self._input_values.size + len(self._pending)

    def query_total(
        self,
        target_stderr: float,
        mask=None,
        max_rows: int | None = None,
        min_rows: int = 64,
        min_matches: int = 30,
    ) -> ScanResult:
        """Estimate ``sum(values[mask])`` reading as few rows as possible.

        Scans physical order; after reading row ``m`` the candidate
        threshold is the next row's priority and the variance estimate
        covers the rows read so far.  Stops at the first threshold whose
        estimated standard error is <= ``target_stderr`` (the Section 6
        heuristic, consistent by the paper's asymptotics).

        ``min_rows`` / ``min_matches`` guard the heuristic's known failure
        mode: before any matching row is read the variance estimate is
        trivially zero, so the scan must not stop until enough evidence has
        accumulated (or the table is exhausted).
        """
        if target_stderr <= 0:
            raise ValueError("target_stderr must be positive")
        n = len(self)
        if mask is None:
            mask = np.ones(n, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)[self.row_ids]
        limit = n if max_rows is None else min(n, int(max_rows))
        target = target_stderr**2
        # The earliest prefix the stopping rule may trust.
        match_positions = np.flatnonzero(mask)
        if match_positions.size >= min_matches:
            min_prefix = int(match_positions[min_matches - 1]) + 1
        else:
            min_prefix = n  # too few matches anywhere: read it all
        floor = min(limit, max(int(min_rows), min_prefix))

        def vhat_after(rows: int) -> float:
            """Variance estimate with the first ``rows`` rows read."""
            t = self.priorities[rows] if rows < n else np.inf
            vals = np.where(mask[:rows], self.values[:rows], 0.0)
            probs = np.asarray(
                self.family.pseudo_inclusion(t, self.weights[:rows]), dtype=float
            )
            return float(
                np.sum(
                    np.where(probs < 1.0, vals**2 * (1.0 - probs) / probs**2, 0.0)
                )
            )

        # Exponential probe, then binary search for the first prefix whose
        # estimated stderr meets the target (Vhat along prefixes is not
        # monotone in general, but the heuristic stop at the first passing
        # checkpoint is exactly the Section 6 rule).
        lo, hi = floor - 1, floor
        while hi < limit and vhat_after(hi) > target:
            lo, hi = hi, min(hi * 2, limit)
        if vhat_after(hi) <= target:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if vhat_after(mid) <= target:
                    hi = mid
                else:
                    lo = mid
        rows = hi
        t = self.priorities[rows] if rows < n else np.inf
        vals = np.where(mask[:rows], self.values[:rows], 0.0)
        probs = np.asarray(
            self.family.pseudo_inclusion(t, self.weights[:rows]), dtype=float
        )
        vhat = vhat_after(rows)
        return ScanResult(
            estimate=float(np.sum(vals / probs)),
            stderr=float(np.sqrt(max(vhat, 0.0))),
            rows_read=rows,
            rows_total=n,
            threshold=float(t),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Serialize the layout's construction inputs to a plain dict."""
        self._flush_pending()
        return {
            "sampler": "priority_layout",
            "version": STATE_VERSION,
            "params": {
                "values": self._input_values.tolist(),
                "weights": (
                    None
                    if self._input_weights is None
                    else self._input_weights.tolist()
                ),
                "family": family_to_name(self.family),
                "salt": self._salt,
            },
            "state": {},
        }

    @classmethod
    def from_state(cls, state: dict) -> "PriorityLayoutTable":
        """Rebuild the layout from :meth:`to_state` output."""
        return cls(**upgrade_state(state)["params"])


@register_sampler("multi_objective_layout")
class MultiObjectiveLayout:
    """Block layout serving weighted samples for several metrics (§3.10).

    Construction repeatedly peels, from the remaining rows, a bottom-k
    block by metric 1's priorities, then a bottom-k block by metric 2's,
    and so on round-robin.  Reading the first blocks of a metric gives a
    weighted bottom-k sample for it; rows sampled for *other* metrics come
    along for free and only help.
    """

    query_capabilities = _LAYOUT_CAPABILITIES
    query_variance = _LAYOUT_REASON

    def __init__(self, metrics: dict[str, np.ndarray], k: int, salt: int = 0):
        if k < 1:
            raise ValueError("k must be positive")
        self._salt = int(salt)
        names = list(metrics)
        if not names:
            raise ValueError("need at least one metric")
        self.k = int(k)
        self.names = names
        self._metrics = {m: np.asarray(v, dtype=float) for m, v in metrics.items()}
        sizes = {m: col.size for m, col in self._metrics.items()}
        if len(set(sizes.values())) > 1:
            raise ValueError("metric columns must align")
        self._pending: dict[str, list[float]] = {m: [] for m in names}
        self._derived = None  # lazily built (priorities, blocks)

    @property
    def metrics(self) -> dict:
        """Metric columns (pending scalar appends merged in)."""
        if any(self._pending.values()):
            for m in self.names:
                pend = self._pending[m]
                if pend:
                    self._metrics[m] = np.concatenate(
                        [self._metrics[m], np.asarray(pend, dtype=float)]
                    )
                    pend.clear()
        return self._metrics

    # ------------------------------------------------------------------
    # Ingestion (row appends; blocks are derived state)
    # ------------------------------------------------------------------
    def update(self, key: object = None, weight: float = 1.0, *, value=None,
               time=None, weights: dict | None = None) -> None:
        """Append one row with one value per metric (``weights=`` dict).

        Priorities are keyed on the row index, so existing rows keep
        theirs; the block layout is invalidated and rebuilt lazily at the
        next query.
        """
        if weights is None or set(weights) != set(self.names):
            raise ValueError("update() needs a weights= dict covering every metric")
        for m in self.names:
            self._pending[m].append(float(weights[m]))
        self._derived = None

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Append a batch of rows (``weights`` maps metric -> column).

        One concatenation per metric and one deferred layout rebuild
        regardless of batch size — identical to the scalar append loop.
        """
        n = len(keys)
        if n == 0:
            return
        if weights is None or set(weights) != set(self.names):
            raise ValueError("update_many() needs a weights= dict covering every metric")
        cols = {m: np.asarray(weights[m], dtype=float) for m in self.names}
        for m, col in cols.items():
            if col.shape != (n,):
                raise ValueError("metric columns must align with keys")
        merged = self.metrics  # merges pending scalar appends first
        for m in self.names:
            self._metrics[m] = np.concatenate([merged[m], cols[m]])
        self._derived = None

    def _ensure_built(self) -> None:
        metrics = self.metrics  # merges pending scalar appends first
        if self._derived is not None:
            return
        names = self.names
        n = metrics[names[0]].size
        u = hash_array_to_unit(np.arange(n), self._salt)
        priorities = {m: u / self.metrics[m] for m in names}

        remaining = np.arange(n)
        blocks: list[tuple[str, np.ndarray, float]] = []
        turn = 0
        while remaining.size:
            name = names[turn % len(names)]
            pr = priorities[name][remaining]
            take = min(self.k, remaining.size)
            idx = np.argpartition(pr, take - 1)[:take] if take < remaining.size else np.arange(remaining.size)
            chosen = remaining[idx]
            # Block threshold: smallest remaining priority *not* taken.
            if take < remaining.size:
                rest = np.delete(np.arange(remaining.size), idx)
                threshold = float(pr[rest].min())
            else:
                threshold = float("inf")
            blocks.append((name, chosen, threshold))
            remaining = np.setdiff1d(remaining, chosen, assume_unique=True)
            turn += 1
        self._derived = (priorities, blocks)

    @property
    def priorities(self) -> dict:
        """Per-metric priority columns (aligned with the input rows)."""
        self._ensure_built()
        return self._derived[0]

    @property
    def blocks(self) -> list:
        """The interleaved block layout: (metric, row indices) pairs."""
        self._ensure_built()
        return self._derived[1]

    def sample_for(self, metric: str, n_blocks: int) -> tuple[np.ndarray, float]:
        """Row indices + threshold for a weighted sample of ``metric``.

        Reads the first ``n_blocks`` blocks *dedicated to the metric* (plus
        everything physically before them); returns all read rows whose
        metric priority is below the last dedicated block's threshold —
        a valid bottom-(>= n_blocks * k) threshold sample for that metric.
        """
        taken: list[np.ndarray] = []
        dedicated = 0
        threshold = float("inf")
        for name, rows, block_threshold in self.blocks:
            taken.append(rows)
            if name == metric:
                dedicated += 1
                threshold = block_threshold
                if dedicated == n_blocks:
                    break
        if dedicated < n_blocks:
            threshold = float("inf")
        rows = np.concatenate(taken) if taken else np.empty(0, dtype=int)
        pr = self.priorities[metric][rows]
        chosen = rows[pr < threshold] if np.isfinite(threshold) else rows
        return chosen, threshold

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Serialize the layout's construction inputs to a plain dict."""
        return {
            "sampler": "multi_objective_layout",
            "version": STATE_VERSION,
            "params": {
                "metrics": {m: v.tolist() for m, v in self.metrics.items()},
                "k": self.k,
                "salt": self._salt,
            },
            "state": {},
        }

    @classmethod
    def from_state(cls, state: dict) -> "MultiObjectiveLayout":
        """Rebuild the layout from :meth:`to_state` output."""
        params = dict(upgrade_state(state)["params"])
        params["metrics"] = {
            m: np.asarray(v, dtype=float) for m, v in params["metrics"].items()
        }
        return cls(**params)
