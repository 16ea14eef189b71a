"""Adaptive top-k sampling for frequent items & disaggregated sums (§3.3).

The top-k problem must return the k most frequent items *whatever* their
frequencies — unlike the frequent-items problem, no minimum frequency is
guaranteed, so no fixed sketch size works for every distribution.  The
paper's sampler adapts both the sampling probability and the sketch size:

* every occurrence draws a fresh Uniform(0, 1) priority ``R_t``;
* an item not in the sample enters iff ``R_t < T`` (the current adaptive
  threshold), storing its entry priority ``R_i``, threshold ``T_i = T`` and
  a counter ``v_i`` of subsequent occurrences;
* the count estimate is ``c_hat_i = 1/T_i + v_i`` (HT: the entering
  occurrence had pseudo-inclusion probability ``T_i``, later ones are
  counted exactly);
* the adaptive threshold ``T(t)`` is the smallest priority in the sample
  such that at least ``k`` items have ``c_hat_i > 1/T(t)`` — splitting the
  sample into k "frequent" items and a downsampled "infrequent" tail;
* when ``T`` decreases, infrequent items with ``R_i >= T`` are discarded
  and the remaining infrequent entries are re-anchored (``T_i <- T``,
  ``v_i <- 0``) with their accumulated mass preserved Horvitz–Thompson
  style in a carry term (``carry <- (carry + v_i) * T_i / T``; survival
  has probability ``T / T_i``, so the scaling keeps ``E[c_hat_i]``
  invariant through re-anchoring); frequent items are never touched.  The
  adaptive process (threshold solve, discards, ranking) runs on the
  carry-free statistic, so unbiased estimation costs nothing in top-k
  identification accuracy.

Flooring the priorities of any sampled subset changes neither the sample
nor the thresholds, so the rule is substitutable and the HT estimates
support the disaggregated subset-sum queries of Ting (2018).

This is the "TopKSampler" compared against Apache DataSketches'
FrequentItems in Figure 3 (``repro.experiments.figure3``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import rng_from_state, rng_to_state
from ..core.kernels import KeyScan, count_into
from ..core.priorities import Uniform01Priority
from ..core.rng import as_generator
from ..core.sample import Sample

__all__ = ["AdaptiveTopKSampler", "TopKEntry"]

#: Chunk length of the key-code batch scan (see ``update_many``).
_CHUNK = 4096


@dataclass(slots=True)
class TopKEntry:
    """Sample-list entry: entry priority, anchor threshold, and counter."""

    priority: float
    threshold: float
    #: Occurrences counted exactly since the current anchor.
    count: float
    #: Horvitz–Thompson mass carried over from re-anchors: each threshold
    #: drop the entry survives scales its accumulated count by ``T_i / T``
    #: into this field, which keeps :attr:`estimate` unbiased without
    #: perturbing the adaptive process (see :attr:`score`).
    carry: float = 0.0

    @property
    def estimate(self) -> float:
        """Unbiased occurrence-count estimate ``1/T_i + v_i + carry_i``."""
        return 1.0 / self.threshold + self.count + self.carry

    @property
    def score(self) -> float:
        """The adaptive process's ranking statistic ``1/T_i + v_i``.

        Excludes the re-anchor carry: the threshold solve, the
        frequent/infrequent split, and top-k ranking all use this stable
        (low-variance) statistic, so the sampling process is identical to
        one without carry tracking — carry only feeds query estimates.
        """
        return 1.0 / self.threshold + self.count


@register_sampler("top_k")
class AdaptiveTopKSampler(StreamSampler):
    """Variable-size sampler that learns to keep only the top-k items.

    Parameters
    ----------
    k:
        Number of frequent slots the adaptive threshold protects.
    recompute_every:
        Threshold recomputation cadence, counted in *insertions* of new
        keys (recomputation is also forced every ``FORCED_RECOMPUTE``
        plain updates so long frequent-only streams stay tight).  1
        recomputes eagerly.
    """

    default_estimate_kind = "count"
    #: Sample rows are per-key *estimates* (values already unbiased, rows
    #: at probability 1), so only sum-style aggregates over those
    #: estimates make sense.
    query_capabilities = query_support(
        "sum", "topk",
        count=(
            "rows carry probability-1 per-key estimates; sum(1/p) is just "
            "the table size (use a distinct sketch for key counts)"
        ),
        mean=(
            "per-key count estimates expose no inclusion probabilities "
            "for ratio estimation"
        ),
        distinct=(
            "retains only frequent keys; sum(1/p) over probability-1 rows "
            "is the table size, not a distinct-count estimate"
        ),
        quantile=(
            "per-key count estimates expose no inclusion probabilities "
            "for CDF estimation"
        ),
    )
    query_variance = (
        "values are already per-key unbiased estimates on probability-1 "
        "rows; the HT plug-in variance is identically zero"
    )

    #: Forced recomputation cadence in plain updates: keeps the threshold
    #: tight on insert-free streams while amortizing the O(table) solve.
    FORCED_RECOMPUTE = 16384

    def __init__(self, k: int, recompute_every: int = 8, rng=None):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = int(k)
        self.recompute_every = max(1, int(recompute_every))
        self.rng = as_generator(rng if rng is not None else 0)
        self.table: dict[object, TopKEntry] = {}
        self.threshold = 1.0
        self.items_seen = 0
        self._inserts_since_recompute = 0
        self._updates_since_recompute = 0
        self.max_table_size = 0

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> None:
        """Process one occurrence of ``key`` (weights are ignored: the
        sampler counts occurrences, Section 3.3's unweighted setting)."""
        self.items_seen += 1
        self._updates_since_recompute += 1
        entry = self.table.get(key)
        if entry is not None:
            entry.count += 1
        else:
            r = float(self.rng.random())
            if r < self.threshold:
                self.table[key] = TopKEntry(priority=r, threshold=self.threshold, count=0)
                self._inserts_since_recompute += 1
                self.max_table_size = max(self.max_table_size, len(self.table))
        if (
            self._inserts_since_recompute >= self.recompute_every
            or self._updates_since_recompute >= self.FORCED_RECOMPUTE
        ):
            self.recompute_threshold()

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        The sampler is a key-table state machine: occurrences of *tracked*
        keys are pure counter increments (they commute until the next
        threshold recomputation), while occurrences of untracked keys are
        *events* that consume randomness and can mutate the table.  A
        :class:`~repro.core.kernels.KeyScan` gives the key codes, the
        tracked flags and the deferred span counts, added at the exact
        recomputation boundaries the scalar loop would hit.  The walk over
        each chunk's untracked-key positions is the sampler's own: because
        the threshold only moves at recomputations, whole runs of
        *rejected* draws are scored with one vectorized compare, so only
        acceptances (inserts) and recomputations touch python, and an
        insert drops its key's remaining candidates.  RNG draws are
        block-buffered with rewind, so generator consumption — and
        therefore the sample — is seed-for-seed identical to scalar
        ingestion.
        """
        table = self.table
        scan = KeyScan(keys, table)
        n = scan.n
        if n == 0:
            return
        codes, distinct, spelled = scan.codes, scan.distinct, scan.spelled
        tracked, skipped = scan.tracked, scan.skipped

        threshold = self.threshold
        isr = self._inserts_since_recompute
        usr = self._updates_since_recompute
        recompute_every = self.recompute_every
        cadence = self.FORCED_RECOMPUTE
        max_table = self.max_table_size
        heappush, heappop = heapq.heappush, heapq.heappop
        rng = self.rng

        def flush(bound: int) -> None:
            """Add the deferred increments up to ``bound``: every occurrence
            but the drawn events (an inserting event starts at count 0; a
            rejected one touches nothing)."""
            for code, c in scan.counts(bound):
                table[distinct[code]].count += c

        def recompute(bound: int) -> list:
            """Flush and recompute exactly where the scalar loop would."""
            nonlocal threshold, isr, usr
            flush(bound)
            discarded = self.recompute_threshold()
            isr = usr = 0
            threshold = self.threshold
            return discarded

        # Inline block-buffered draws (DrawBuffer semantics, no call cost).
        buffered = hasattr(rng.bit_generator, "advance")
        dbuf = rng.random(1024) if buffered else None
        dpos = 0

        pos = 0  # next unprocessed position
        while pos < n:
            ce = min(n, pos + _CHUNK)
            cbase = pos
            chunk = codes[pos:ce]
            chunk_len = ce - pos
            # Candidate events: untracked-key positions.  Inserts filter
            # their key's remaining candidates, and discards reschedule
            # through ``extra``, so the candidate list always holds drawn
            # events only.
            cand = np.flatnonzero(~tracked[chunk])
            ccodes = chunk[cand]
            ci = 0
            extra: list[int] = []  # rescheduled (chunk-relative) positions

            def reschedule(discarded: list, after_rel: int) -> None:
                """Turn discarded keys' later occurrences into events."""
                for dcode in scan.codes_of(discarded):
                    tracked[dcode] = False
                    for r2 in np.flatnonzero(
                        chunk[after_rel:] == dcode
                    ).tolist():
                        heappush(extra, after_rel + r2)

            while True:
                nxt_c = cand[ci] if ci < cand.size else _CHUNK
                nxt_e = extra[0] if extra else _CHUNK
                boundary = pos + cadence - usr  # forced-recompute position
                if nxt_e < nxt_c:
                    # Single rescheduled event (rare path).
                    ev = cbase + nxt_e
                    step = ev if ev <= boundary else boundary
                    if step > pos:
                        usr += step - pos
                        pos = step
                        if usr >= cadence:
                            reschedule(recompute(pos), pos - cbase)
                            continue
                    rel = nxt_e
                    while extra and extra[0] == rel:
                        heappop(extra)
                    code = int(chunk[rel])
                    usr += 1
                    pos += 1
                    if tracked[code]:
                        # Re-tracked meanwhile: a deferred increment, but it
                        # still counts toward the forced-recompute cadence.
                        if usr >= cadence:
                            reschedule(recompute(pos), rel + 1)
                        continue
                    if buffered:
                        if dpos >= 1024:
                            dbuf = rng.random(1024)
                            dpos = 0
                        r = dbuf[dpos]
                        dpos += 1
                    else:
                        r = float(rng.random())
                    skipped[code] = skipped.get(code, 0) + 1
                    if r < threshold:
                        key = (
                            distinct[code] if spelled is None
                            else spelled[cbase + rel]
                        )
                        table[key] = TopKEntry(
                            priority=float(r), threshold=threshold, count=0
                        )
                        tracked[code] = True
                        isr += 1
                        if len(table) > max_table:
                            max_table = len(table)
                        keep = ccodes[ci:] != code
                        cand = cand[ci:][keep]
                        ccodes = ccodes[ci:][keep]
                        ci = 0
                    if isr >= recompute_every or usr >= cadence:
                        reschedule(recompute(pos), rel + 1)
                    continue
                if nxt_c >= chunk_len:
                    # No candidates left: bulk-advance toward the chunk
                    # end.  A forced recomputation on the way may discard
                    # keys and reschedule their remaining occurrences, so
                    # re-enter the event loop whenever that happens.
                    rescheduled = False
                    while pos < ce:
                        step = ce if ce <= boundary else boundary
                        usr += step - pos
                        pos = step
                        if usr >= cadence:
                            reschedule(recompute(pos), pos - cbase)
                            boundary = pos + cadence - usr
                            if extra:
                                rescheduled = True
                                break
                    if rescheduled:
                        continue
                    break
                # Vectorized run of drawn candidate events: the threshold
                # is constant until the next recomputation, so score a
                # block of draws with one compare and jump to the first
                # acceptance.
                limit_rel = min(chunk_len, boundary - cbase)
                if extra:
                    limit_rel = min(limit_rel, extra[0])
                hi = int(np.searchsorted(cand, limit_rel, side="left"))
                if hi <= ci:
                    # Forced recomputation (or extra) before the next
                    # candidate: bulk-advance to it.
                    ev = cbase + nxt_c
                    step = ev if ev <= boundary else boundary
                    usr += step - pos
                    pos = step
                    if usr >= cadence:
                        reschedule(recompute(pos), pos - cbase)
                    continue
                if buffered and dpos >= 1024:
                    dbuf = rng.random(1024)
                    dpos = 0
                if buffered:
                    m = min(hi - ci, 1024 - dpos)
                    u = dbuf[dpos:dpos + m]
                else:
                    # No advance() support: draw one at a time so the
                    # generator consumption matches the scalar loop.
                    m = 1
                    u = np.array([rng.random()])
                hits = np.flatnonzero(u < threshold)
                if hits.size == 0:
                    # Every draw in the block rejected: consume and jump.
                    last_rel = int(cand[ci + m - 1])
                    count_into(skipped, ccodes[ci:ci + m].tolist())
                    if buffered:
                        dpos += m
                    ci += m
                    usr += cbase + last_rel + 1 - pos
                    pos = cbase + last_rel + 1
                    if usr >= cadence:
                        reschedule(recompute(pos), pos - cbase)
                    continue
                j = int(hits[0])
                rel = int(cand[ci + j])
                code = int(ccodes[ci + j])
                count_into(skipped, ccodes[ci:ci + j + 1].tolist())
                r = float(u[j])
                if buffered:
                    dpos += j + 1
                usr += cbase + rel + 1 - pos
                pos = cbase + rel + 1
                key = (
                    distinct[code] if spelled is None else spelled[cbase + rel]
                )
                table[key] = TopKEntry(priority=r, threshold=threshold, count=0)
                tracked[code] = True
                isr += 1
                if len(table) > max_table:
                    max_table = len(table)
                keep = ccodes[ci + j + 1:] != code
                cand = cand[ci + j + 1:][keep]
                ccodes = ccodes[ci + j + 1:][keep]
                ci = 0
                if isr >= recompute_every or usr >= cadence:
                    reschedule(recompute(pos), rel + 1)
        flush(n)
        if buffered and dpos < 1024:
            rng.bit_generator.advance(-(1024 - dpos))

        self.items_seen += n
        self.threshold = threshold
        self._inserts_since_recompute = isr
        self._updates_since_recompute = usr
        self.max_table_size = max_table

    # ------------------------------------------------------------------
    # The adaptive threshold
    # ------------------------------------------------------------------
    def recompute_threshold(self) -> list:
        """Lower ``T`` to the smallest sample priority keeping k frequent items.

        ``T_new = min{ R_j in sample : #{i : c_hat_i > 1/R_j} >= k }``; the
        count condition is monotone in ``R_j``, so it reduces to comparing
        against the k-th largest estimate.  Returns the discarded keys (the
        batch path reschedules their remaining occurrences as events).
        """
        self._inserts_since_recompute = 0
        self._updates_since_recompute = 0
        m = len(self.table)
        if m <= self.k:
            return []
        entries = self.table.values()
        priorities = np.fromiter(
            (e.priority for e in entries), dtype=float, count=m
        )
        thresholds = np.fromiter(
            (e.threshold for e in entries), dtype=float, count=m
        )
        counts = np.fromiter((e.count for e in entries), dtype=float, count=m)
        estimates = 1.0 / thresholds + counts
        kth_largest = float(
            np.partition(estimates, m - self.k)[m - self.k]
        )
        if kth_largest <= 0:
            return []
        cutoff = 1.0 / kth_largest
        above = priorities[priorities > cutoff]
        if above.size == 0:
            return []
        t_new = float(above.min())
        if t_new >= self.threshold:
            return []
        self.threshold = t_new
        return self._apply_threshold(t_new)

    def _apply_threshold(self, t_new: float) -> list:
        """Discard / re-anchor infrequent entries after a threshold drop."""
        boundary = 1.0 / t_new
        discard = []
        for key, entry in self.table.items():
            if entry.score > boundary:
                continue  # frequent: untouched
            if entry.priority >= t_new:
                discard.append(key)
            else:
                # HT re-anchor: the entry survives the drop to t_new with
                # probability t_new / T_i, so the accumulated mass is
                # scaled by T_i / t_new into the carry to keep
                # E[estimate] invariant (dropping it outright biased
                # subset sums ~20% low on churn-heavy uniform streams).
                entry.carry = (
                    (entry.carry + entry.count) * (entry.threshold / t_new)
                )
                entry.count = 0
                entry.threshold = t_new
        for key in discard:
            del self.table[key]
        return discard

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.table)

    def estimate_count(self, key: object) -> float:
        """Unbiased estimate of the number of occurrences of ``key``."""
        entry = self.table.get(key)
        return entry.estimate if entry is not None else 0.0

    def top(self, j: int | None = None) -> list[tuple[object, float]]:
        """The ``j`` (default k) keys with the largest estimated counts.

        Ranked by the stable process statistic (:attr:`TopKEntry.score`,
        which identification accuracy depends on); the reported values are
        the unbiased estimates.
        """
        j = self.k if j is None else int(j)
        ranked = sorted(
            self.table.items(), key=lambda kv: kv[1].score, reverse=True
        )
        return [(key, entry.estimate) for key, entry in ranked[:j]]

    def estimate_subset_sum(self, predicate: Callable[[object], bool]) -> float:
        """Disaggregated subset sum: total occurrences of keys in a subset.

        The substitutable threshold makes this unbiased for any subset fixed
        in advance — the "disaggregated subset sum" use case the paper
        motivates with pages-by-topic aggregation.
        """
        return sum(
            entry.estimate
            for key, entry in self.table.items()
            if predicate(key)
        )

    def frequent_keys(self) -> list[object]:
        """Keys currently classified as frequent (``c_hat > 1/T``)."""
        boundary = 1.0 / self.threshold if self.threshold > 0 else float("inf")
        return [
            key for key, entry in self.table.items() if entry.score > boundary
        ]

    def sample(self) -> Sample:
        """The retained keys with their unbiased count estimates as values.

        Thresholds are +inf (each value is already an unbiased per-key
        estimate), so ``sample().ht_total()`` is the estimated total stream
        length restricted to retained keys.
        """
        keys = list(self.table)
        return Sample(
            keys=keys,
            values=np.array([self.table[k].estimate for k in keys], dtype=float),
            weights=np.ones(len(keys)),
            priorities=np.array(
                [self.table[k].priority for k in keys], dtype=float
            ),
            thresholds=np.full(len(keys), np.inf),
            family=Uniform01Priority(),
            population_size=self.items_seen,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "recompute_every": self.recompute_every}

    def _get_state(self) -> dict:
        return {
            "table": [
                (key, e.priority, e.threshold, e.count, e.carry)
                for key, e in self.table.items()
            ],
            "threshold": self.threshold,
            "items_seen": self.items_seen,
            "inserts_since_recompute": self._inserts_since_recompute,
            "updates_since_recompute": self._updates_since_recompute,
            "max_table_size": self.max_table_size,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        self.table = {
            # Pre-carry checkpoints stored 4-tuples; their carry is 0.
            row[0]: TopKEntry(
                priority=row[1], threshold=row[2], count=row[3],
                carry=row[4] if len(row) > 4 else 0.0,
            )
            for row in state["table"]
        }
        self.threshold = float(state["threshold"])
        self.items_seen = int(state["items_seen"])
        self._inserts_since_recompute = int(state["inserts_since_recompute"])
        self._updates_since_recompute = int(state["updates_since_recompute"])
        self.max_table_size = int(state["max_table_size"])
        self.rng = rng_from_state(state["rng"])
