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

from ..api.protocol import family_from_name
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


class PriorityLayoutTable:
    """A table physically ordered by sampling priority.

    An *offline* physical layout over a fixed table, not a stream sampler:
    the rows are given at construction and queried through
    :meth:`query_total`.

    Parameters
    ----------
    values:
        The measure column queries aggregate.
    weights:
        Sampling weights (default: |values|, the PPS choice); priorities
        are ``hash(row)/w`` so repeated builds are reproducible per salt.

    Attributes
    ----------
    values, weights, priorities:
        The measure, weight and priority columns in physical (ascending
        priority) order.
    row_ids:
        Original row index per physical position.
    """

    def __init__(
        self,
        values,
        weights=None,
        family: PriorityFamily | str | None = None,
        salt: int = 0,
    ):
        family = family_from_name(family)
        self.family = family if family is not None else InverseWeightPriority()
        values = np.asarray(values, dtype=float)
        if weights is None:
            if np.any(values == 0):
                raise ValueError(
                    "zero-valued rows need explicit positive weights"
                )
            weights = np.abs(values)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != values.shape:
                raise ValueError("values and weights must align")
            if np.any(weights <= 0):
                raise ValueError("weights must be positive")
        u = hash_array_to_unit(np.arange(values.size), int(salt))
        priorities = np.asarray(
            self.family.inverse_cdf(u, weights), dtype=float
        )
        order = np.argsort(priorities)
        self.values = values[order]
        self.weights = weights[order]
        self.priorities = priorities[order]
        self.row_ids = order

    def __len__(self) -> int:
        return self.values.size

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


class MultiObjectiveLayout:
    """Block layout serving weighted samples for several metrics (§3.10).

    Construction repeatedly peels, from the remaining rows, a bottom-k
    block by metric 1's priorities, then a bottom-k block by metric 2's,
    and so on round-robin.  Reading the first blocks of a metric gives a
    weighted bottom-k sample for it; rows sampled for *other* metrics come
    along for free and only help.  An offline layout over fixed metric
    columns, not a stream sampler.

    Attributes
    ----------
    metrics:
        The metric columns, by name.
    priorities:
        Per-metric priority columns (aligned with the input rows).
    blocks:
        The interleaved block layout: ``(metric, row indices, threshold)``
        triples.
    """

    def __init__(self, metrics: dict[str, np.ndarray], k: int, salt: int = 0):
        if k < 1:
            raise ValueError("k must be positive")
        names = list(metrics)
        if not names:
            raise ValueError("need at least one metric")
        self.k = int(k)
        self.names = names
        self.metrics = {m: np.asarray(v, dtype=float) for m, v in metrics.items()}
        sizes = {m: col.size for m, col in self.metrics.items()}
        if len(set(sizes.values())) > 1:
            raise ValueError("metric columns must align")
        n = sizes[names[0]]
        u = hash_array_to_unit(np.arange(n), int(salt))
        self.priorities = {m: u / self.metrics[m] for m in names}

        remaining = np.arange(n)
        blocks: list[tuple[str, np.ndarray, float]] = []
        turn = 0
        while remaining.size:
            name = names[turn % len(names)]
            pr = self.priorities[name][remaining]
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
        self.blocks = blocks

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
