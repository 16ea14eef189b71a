"""Sliding-window sampling: Gemulla–Lehner and the paper's improvement (§3.2).

A sliding-window sampler must produce, at any time ``t``, a uniform sample
of the items that arrived in ``(t - window, t]`` using bounded space.  The
state of the art (Gemulla & Lehner 2008) keeps ``<= k`` *current* candidates
plus the candidates that aged into the *expired* window ``(t - 2w, t - w]``.

Section 3.2 recasts G&L as a two-stage adaptive thresholding scheme:

* a sequential per-arrival rule assigns each stored item a threshold — the
  k-th smallest of the current candidate priorities together with the new
  arrival's priority — and every overflow lowers all current thresholds by
  a running ``min`` (1-substitutable by Theorems 7 and 9);
* a final threshold turns candidates into a *uniform* sample.

G&L's final threshold is the bottom-k threshold over current **and expired**
candidates — conservative by roughly 2x, because the expired window doubles
the item count.  The paper's improvement uses instead the minimum of the
current candidates' per-item thresholds (constant over the window, hence
fully substitutable by Theorem 6), with *zero* change to the stored state.
Figures 1 and 2 quantify the ~2x usable-sample gain and the faster recovery
after arrival-rate spikes; ``repro.experiments.figure1/figure2`` reproduce
them on this implementation.

Implementation notes
--------------------
Thresholds shrink only through "apply min(T_i, T_n) to all current items"
events, so per-item thresholds are represented lazily: each candidate
keeps its initial threshold and sequence number, and a monotone stack of
``(seq, value)`` update events answers "min of all updates after seq" by
one bisect.  The stack's values rise with ``seq``, so the minimum over
the current candidates of ``min(initial_i, min_update_after(seq_i))`` is
exactly ``min(min_i initial_i, min_update_after(min_i seq_i))``: the
improved threshold is two column minima and one bisect.

The current candidates are columns in ascending priority order: the keys
in a list (``_cur_keys``) and ``array`` columns of priorities, ids,
values, times, seqs and initial thresholds (``_cur_pri``, ``_cur_ids``,
``_cur_values``, ``_cur_times``, ``_cur_seqs``, ``_cur_init``).  Both
samples are prefixes of these columns — ``bisect_left`` for the improved
sample's ``priority < T``, ``bisect_right`` for G&L's ``priority <= T``
— so a read is one bisect and a memcpy-speed slice per column, which
``np.frombuffer`` wraps without a copy.  A view of a live column must
not outlive the call: an ``array`` exporting its buffer cannot grow.
An arrival costs ``O(log k)`` plus the column inserts; threshold updates
are ``O(1)`` amortized.

Arrival ids are consecutive, so the arrival order is a deque of slots
for the ids ``_first_id, _first_id + 1, ...``: a stored arrival's slot
holds its ``(time, priority)``, and an evicted one's turns ``None`` and
is dropped once it reaches the head.
"""

from __future__ import annotations

import bisect
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_key_list, _as_optional_array, rng_from_state, rng_to_state
from ..core.priorities import Uniform01Priority
from ..core.rng import as_generator
from ..core.sample import Sample

__all__ = ["SlidingWindowSampler", "WindowSnapshot"]


@dataclass(frozen=True)
class WindowSnapshot:
    """State summary used by the Figure 1/2 experiments."""

    time: float
    gl_threshold: float
    improved_threshold: float
    gl_sample_size: int
    improved_sample_size: int
    stored_current: int
    stored_expired: int


@register_sampler("sliding_window")
class SlidingWindowSampler(StreamSampler):
    """Bounded-space uniform sampler over a sliding time window.

    Parameters
    ----------
    k:
        Maximum number of current candidates (the memory budget).
    window:
        Window length ``w``; queries at time ``t`` cover ``(t - w, t]``.
    rng:
        Source of the Uniform(0, 1) arrival priorities.
    """

    default_estimate_kind = "window_count"
    #: The window sample is a uniform per-arrival HT sample, so the
    #: total-style aggregates apply *to the current window* (``count`` is
    #: exactly ``estimate_window_count`` at the latest arrival).
    query_capabilities = query_support(
        "sum", "count", "mean", "topk", "quantile",
        distinct=(
            "window rows are stream arrivals, not distinct keys; repeated "
            "keys are double-counted by sum(1/p)"
        ),
    )
    #: Window rows carry arrival times and per-arrival uniform inclusion,
    #: so any sub-window of the retained window is answerable; the
    #: planner's retention gate (:attr:`retention_horizon`) refuses
    #: windows reaching past what the sampler still stores.
    query_windowed = True
    required_columns = ("times",)

    def __init__(self, k: int, window: float, rng=None):
        if k < 2:
            raise ValueError("k must be at least 2")
        if window <= 0:
            raise ValueError("window must be positive")
        self.k = int(k)
        self.window = float(window)
        self.rng = as_generator(rng if rng is not None else 0)
        self.family = Uniform01Priority()

        # The current candidates, as columns in ascending priority order.
        self._cur_pri = array("d")
        self._cur_ids = array("q")
        self._cur_keys: list = []
        self._cur_values = array("d")
        self._cur_times = array("d")
        self._cur_seqs = array("q")
        self._cur_init = array("d")  # initial thresholds
        # Arrival slots, oldest first: the slot of id ``_first_id + i`` is
        # ``_arrivals[i]``, a ``(time, priority)`` pair or None once evicted.
        self._arrivals: deque[tuple[float, float] | None] = deque()
        self._first_id = 0
        self._expired: deque[tuple[float, float]] = deque()  # (time, priority)
        # Monotone stack of threshold-update events (seq, value); values
        # increase from bottom to top, so the first entry with seq > s is
        # the minimum update after s.
        self._updates: list[tuple[int, float]] = []
        self._seq = 0
        self._next_id = 0
        self.items_seen = 0
        self.max_current = 0
        self.max_expired = 0
        self.last_time = 0.0

    # ------------------------------------------------------------------
    # Lazy per-item thresholds
    # ------------------------------------------------------------------
    def _push_update(self, value: float) -> None:
        while self._updates and self._updates[-1][1] >= value:
            self._updates.pop()
        self._updates.append((self._seq, value))

    def _min_update_after(self, seq: int) -> float:
        idx = bisect.bisect_right(self._updates, (seq, float("inf")))
        if idx >= len(self._updates):
            return float("inf")
        return self._updates[idx][1]

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Expire candidates that left the window; drop twice-expired ones.

        Bumps ``state_version`` only when something actually expires:
        every read path (thresholds, samples, queries) calls this
        defensively, and a no-op advance that still bumped the version
        would make the query-result cache miss on every poll.
        """
        cutoff_current = now - self.window
        cutoff_expired = now - 2.0 * self.window
        arrivals = self._arrivals
        mutated = False
        while arrivals:
            slot = arrivals[0]
            if slot is not None and slot[0] > cutoff_current:
                break
            arrivals.popleft()
            rid = self._first_id
            self._first_id = rid + 1
            if slot is None:  # evicted earlier; lazily discard
                continue
            idx = bisect.bisect_left(self._cur_pri, slot[1])
            while self._cur_ids[idx] != rid:  # ties: scan to the matching id
                idx += 1
            self._discard(idx)
            self._expired.append(slot)
            mutated = True
        while self._expired and self._expired[0][0] <= cutoff_expired:
            self._expired.popleft()
            mutated = True
        self.max_expired = max(self.max_expired, len(self._expired))
        if mutated:
            self.__dict__["_state_version"] = (
                self.__dict__.get("_state_version", 0) + 1
            )

    advance._bumps_state_version = True  # self-managed: bumps only on expiry

    def update(
        self, key, weight: float = 1.0, *, value=None, time=None
    ) -> bool:
        """Offer one arrival at ``time``; returns True when it was stored.

        ``time`` is required (the sampler is time-indexed).  ``weight`` is
        accepted for protocol uniformity and ignored: the window sample is
        uniform.
        """
        if time is None:
            raise TypeError(
                "time= is required: every SlidingWindowSampler arrival "
                "needs a time (update(key, value=..., time=...))"
            )
        time = float(time)
        value = 1.0 if value is None else float(value)
        self.advance(time)
        self.last_time = max(self.last_time, time)
        self.items_seen += 1
        self._seq += 1
        r = float(self.rng.random())

        if len(self._cur_pri) < self.k:
            # Budget not binding: admit with the trivial threshold 1.
            self._store(key, value, time, r, self._seq, 1.0)
            self.max_current = max(self.max_current, len(self._cur_pri))
            return True

        # Candidate threshold: k-th smallest of current priorities plus the
        # new priority, i.e. clamp(r, c_(k-1), c_k) for the sorted current.
        c_km1 = self._cur_pri[-2]
        c_k = self._cur_pri[-1]
        t_n = min(max(r, c_km1), c_k)
        accepted = r < t_n
        if accepted:
            # Conceptually k+1 current examples: drop the largest priority;
            # its arrival slot turns None.
            rid = self._discard(-1)
            self._arrivals[rid - self._first_id] = None
            self._store(key, value, time, r, self._seq, t_n)
        # Every overflow event lowers all current thresholds: T_i = min(T_i, t_n).
        self._push_update(t_n)
        self.max_current = max(self.max_current, len(self._cur_pri))
        return accepted

    def update_many(
        self, keys, weights=None, values=None, times=None
    ) -> None:
        """Bulk :meth:`update`, vectorized over inter-event runs.

        The admission test reduces to ``r < c_{k-1}`` (the second-largest
        current priority): the candidate threshold is ``clamp(r, c_{k-1},
        c_k)`` and ``r < clamp(...)`` iff ``r < c_{k-1}``.  Current-set
        state therefore changes only at *events* — expiries, underfull
        admissions, and threshold admissions — and between events the only
        per-item effect is a push onto the monotone threshold-update stack,
        which is write-only during ingestion.  The batch path pre-draws all
        uniforms (identical generator consumption), locates expiry
        boundaries by searchsorted on the time column (times must be
        non-decreasing; otherwise the protocol's per-item loop runs), scans
        runs with
        a plain-float comparison loop, and materializes the batch's stack
        effect at the end by walking the segments backwards under the
        running minimum — segments whose clamp floor is already at or
        above it are skipped whole.  Seed-for-seed identical to the scalar
        loop.
        """
        n = len(keys)
        if n == 0:
            return
        self.check_columns({"times": times})
        t_arr = _as_optional_array(times, n, "times")
        v = _as_optional_array(values, n, "values")
        if n > 1 and not bool(np.all(t_arr[1:] >= t_arr[:-1])):
            super().update_many(keys, weights, values, times)
            return

        u_arr = self.rng.random(n)
        u = u_arr.tolist()  # the admission scan compares plain floats
        # Python keys, values and times, read at the positions that need
        # them.
        key_at = (keys.item if isinstance(keys, np.ndarray)
                  else _as_key_list(keys).__getitem__)
        value_at = None if v is None else v.item
        time_at = t_arr.item
        tcut = t_arr - self.window
        tcut2 = t_arr - 2.0 * self.window
        searchsorted = np.searchsorted

        arrivals = self._arrivals
        expired = self._expired
        pri = self._cur_pri
        ids = self._cur_ids
        keys_col = self._cur_keys
        values_col = self._cur_values
        times_col = self._cur_times
        seqs_col = self._cur_seqs
        init_col = self._cur_init
        bisect_left = bisect.bisect_left
        k = self.k
        seq0 = self._seq
        next_id = self._next_id
        max_current = self.max_current

        # Full-mode segments: (start, end, c_{k-1}, c_k); every position
        # they cover pushes clamp(u, c_{k-1}, c_k) onto the update stack.
        segments: list[tuple[int, int, float, float]] = []

        pos = 0
        gate = -1  # cached; invalidated (-1) when heads may have changed
        while pos < n:
            # Event gate: the first position where the scalar loop's lazy
            # advance() would fire (stale head, due expiry, or due drop).
            # A store changes the heads only when it creates the first
            # one, so the gate is recomputed only after an advance(), a
            # head eviction, or a store into an empty arrival order.
            if gate < 0:
                if arrivals:
                    head = arrivals[0]
                    if head is None:
                        gate = pos  # stale head: popped at the next item
                    else:
                        gate = int(searchsorted(tcut, head[0]))
                else:
                    gate = n
                if expired:
                    drop = int(searchsorted(tcut2, expired[0][0]))
                    if drop < gate:
                        gate = drop
            if gate <= pos:
                self.advance(time_at(pos))
                gate = -1
                continue
            cur_len = len(pri)
            if cur_len < k:
                # Underfull: admit unconditionally (trivial threshold 1.0,
                # no update-stack push), exactly like the scalar branch.
                if not arrivals:
                    gate = -1  # this store creates the head: re-gate
                if cur_len + 1 > max_current:
                    max_current = cur_len + 1
                at, threshold = pos, 1.0
                pos += 1
            else:
                # Full mode: scan to the first admission before the gate.
                if cur_len > max_current:
                    max_current = cur_len
                c_km1 = pri[-2]
                c_k = pri[-1]
                i = pos
                found = -1
                while i < gate:
                    if u[i] < c_km1:
                        found = i
                        break
                    i += 1
                end = found + 1 if found >= 0 else gate
                segments.append((pos, end, c_km1, c_k))
                pos = end
                if found < 0:
                    continue
                # Admission: evict the largest-priority candidate
                # (``_discard(-1)``, inlined), store the arrival with
                # threshold t_n = c_{k-1}.
                rid = ids.pop()
                del (pri[-1], keys_col[-1], values_col[-1], times_col[-1],
                     seqs_col[-1], init_col[-1])
                arrivals[rid - self._first_id] = None
                if arrivals[0] is None:
                    gate = -1  # stale head: re-gate at the next item
                at, threshold = found, c_km1
            # Store arrival ``at`` under the next id (``_store``, inlined).
            r = u[at]
            t = time_at(at)
            idx = bisect_left(pri, r)
            pri.insert(idx, r)
            ids.insert(idx, next_id)
            keys_col.insert(idx, key_at(at))
            values_col.insert(idx, 1.0 if value_at is None else value_at(at))
            times_col.insert(idx, t)
            seqs_col.insert(idx, seq0 + at + 1)
            init_col.insert(idx, threshold)
            arrivals.append((t, r))
            next_id += 1

        # Materialize the batch's update-stack effect: an entry survives
        # iff it is strictly below every later pushed value (equal values
        # pop their elders), so walk the segments backwards under the
        # running minimum.  A segment clamps into [c_{k-1}, c_k], so once
        # the running minimum is at or below its floor the whole segment
        # is skipped without touching its values — only the few segments
        # that lower the minimum do vectorized work.
        kept_rev: list[tuple[int, float]] = []
        running = float("inf")
        for a, b, c1, ck in reversed(segments):
            if c1 >= running:
                continue
            vals = np.clip(u_arr[a:b], c1, ck)
            sm = np.minimum.accumulate(vals[::-1])[::-1]
            keep = (vals < np.concatenate((sm[1:], [np.inf]))) & (vals < running)
            for rel in np.flatnonzero(keep)[::-1].tolist():
                kept_rev.append((seq0 + 1 + a + rel, float(vals[rel])))
            running = min(running, float(sm[0]))
        if kept_rev:
            updates = self._updates
            while updates and updates[-1][1] >= running:
                updates.pop()
            updates.extend(reversed(kept_rev))

        self.items_seen += n
        self._seq = seq0 + n
        self._next_id = next_id
        self.max_current = max_current
        last = time_at(n - 1)
        if last > self.last_time:
            self.last_time = last

    def _store(self, key: object, value: float, time: float,
               priority: float, seq: int, threshold: float) -> None:
        """Insert an arrival into the columns under the next id, before
        any equal priority."""
        idx = bisect.bisect_left(self._cur_pri, priority)
        self._cur_pri.insert(idx, priority)
        self._cur_ids.insert(idx, self._next_id)
        self._cur_keys.insert(idx, key)
        self._cur_values.insert(idx, value)
        self._cur_times.insert(idx, time)
        self._cur_seqs.insert(idx, seq)
        self._cur_init.insert(idx, threshold)
        self._arrivals.append((time, priority))
        self._next_id += 1

    def _discard(self, idx: int) -> int:
        """Remove the candidate at column position ``idx``; returns its id."""
        rid = self._cur_ids.pop(idx)
        del (self._cur_pri[idx], self._cur_keys[idx], self._cur_values[idx],
             self._cur_times[idx], self._cur_seqs[idx], self._cur_init[idx])
        return rid

    # ------------------------------------------------------------------
    # Final thresholds and samples
    # ------------------------------------------------------------------
    def gl_threshold(self, now: float) -> float:
        """G&L final threshold: bottom-k over current + expired priorities."""
        self.advance(now)
        priorities = self._cur_pri.tolist()
        priorities.extend(p for _, p in self._expired)
        if len(priorities) < self.k:
            return 1.0
        priorities.sort()
        return priorities[self.k - 1]

    def improved_threshold(self, now: float) -> float:
        """The paper's threshold: min of current per-item thresholds.

        Constant over the window, hence fully substitutable (Theorem 6);
        needs no state beyond what G&L already stores.  The update stack
        rises with ``seq``, so the oldest candidate sees the smallest
        update (see the module notes).
        """
        self.advance(now)
        if not self._cur_pri:
            return 1.0
        initial = float(np.frombuffer(self._cur_init).min())
        oldest = int(np.frombuffer(self._cur_seqs, dtype=np.int64).min())
        return min(initial, self._min_update_after(oldest))

    def _prefix_sample(self, m: int, threshold: float) -> Sample:
        """The ``m`` smallest-priority candidates under ``threshold``."""
        return Sample(
            keys=self._cur_keys[:m],
            values=np.frombuffer(self._cur_values[:m]),
            weights=np.ones(m),
            priorities=np.frombuffer(self._cur_pri[:m]),
            thresholds=np.full(m, threshold),
            family=self.family,
            population_size=None,
            times=np.frombuffer(self._cur_times[:m]),
        )

    def gl_sample(self, now: float) -> Sample:
        """Uniform window sample under the G&L final threshold.

        The boundary item is included ("due to symmetry", as the paper
        notes), hence the non-strict comparison.
        """
        t = self.gl_threshold(now)
        return self._prefix_sample(bisect.bisect_right(self._cur_pri, t), t)

    def improved_sample(self, now: float) -> Sample:
        """Uniform window sample under the improved threshold."""
        t = self.improved_threshold(now)
        return self._prefix_sample(bisect.bisect_left(self._cur_pri, t), t)

    @property
    def retention_horizon(self) -> float | None:
        """Earliest time the sampler can still answer about.

        Arrivals at or before ``last_time - window`` have been (or are due
        to be) deterministically expired — gone, not down-weighted — so
        the query planner refuses windows reaching past this bound rather
        than return silently truncated estimates.  ``None`` before the
        first arrival.
        """
        if self.items_seen == 0:
            return None
        return self.last_time - self.window

    def sample(self) -> Sample:
        """The improved uniform window sample as of the latest arrival."""
        return self.improved_sample(self.last_time)

    def estimate_window_count(
        self, now: float | None = None, improved: bool = True
    ) -> float:
        """HT estimate of the number of arrivals in the current window.

        ``now`` defaults to the latest arrival time seen.
        """
        now = self.last_time if now is None else float(now)
        sample = self.improved_sample(now) if improved else self.gl_sample(now)
        return sample.distinct_estimate()

    def snapshot(self, now: float) -> WindowSnapshot:
        """All Figure 1/2 series in one call."""
        self.advance(now)
        gl_t = self.gl_threshold(now)
        imp_t = self.improved_threshold(now)
        return WindowSnapshot(
            time=float(now),
            gl_threshold=gl_t,
            improved_threshold=imp_t,
            gl_sample_size=bisect.bisect_right(self._cur_pri, gl_t),
            improved_sample_size=bisect.bisect_left(self._cur_pri, imp_t),
            stored_current=len(self._cur_pri),
            stored_expired=len(self._expired),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "window": self.window}

    def _rows(self) -> list[tuple]:
        """``(id, key, value, time, priority, seq, initial threshold)``
        per current candidate, in arrival (id) order."""
        order = np.argsort(np.frombuffer(self._cur_ids, dtype=np.int64))
        ids, values, times, pri, seqs, init = (
            np.frombuffer(column, dtype=column.typecode)[order].tolist()
            for column in (self._cur_ids, self._cur_values, self._cur_times,
                           self._cur_pri, self._cur_seqs, self._cur_init)
        )
        keys = [self._cur_keys[i] for i in order.tolist()]
        return list(zip(ids, keys, values, times, pri, seqs, init))

    def _get_state(self) -> dict:
        return {
            "records": self._rows(),
            "arrival_order": list(range(self._first_id, self._next_id)),
            "expired": list(self._expired),
            "updates": list(self._updates),
            "seq": self._seq,
            "next_id": self._next_id,
            "items_seen": self.items_seen,
            "max_current": self.max_current,
            "max_expired": self.max_expired,
            "last_time": self.last_time,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        records = state["records"]
        order = list(state["arrival_order"])
        self._next_id = int(state["next_id"])
        self._first_id = self._next_id - len(order)
        slots = {row[0]: (float(row[3]), float(row[4])) for row in records}
        if order != list(range(self._first_id, self._next_id)) or not (
            slots.keys() <= set(order)
        ):
            raise ValueError(
                "sliding_window state: arrival_order must be the ids up to "
                "next_id, consecutive, and hold every record's id"
            )
        self._arrivals = deque(slots.get(rid) for rid in order)
        rows = sorted(records, key=lambda row: (row[4], row[0]))
        ids, keys, values, times, pri, seqs, init = (
            zip(*rows) if rows else ((),) * 7
        )
        self._cur_ids = array("q", ids)
        self._cur_keys = list(keys)
        self._cur_values = array("d", values)
        self._cur_times = array("d", times)
        self._cur_pri = array("d", pri)
        self._cur_seqs = array("q", seqs)
        self._cur_init = array("d", init)
        self._expired = deque(tuple(pair) for pair in state["expired"])
        self._updates = [tuple(pair) for pair in state["updates"]]
        self._seq = int(state["seq"])
        self.items_seen = int(state["items_seen"])
        self.max_current = int(state["max_current"])
        self.max_expired = int(state["max_expired"])
        self.last_time = float(state["last_time"])
        self.rng = rng_from_state(state["rng"])
