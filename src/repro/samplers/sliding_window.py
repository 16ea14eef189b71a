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
events, so per-item thresholds are represented lazily: each record keeps its
insertion threshold and sequence number, and a monotone stack of
``(seq, value)`` update events answers "min of all updates after seq" in
``O(log)`` time.  Updates are O(1) amortized; arrivals cost ``O(log k)``
plus list maintenance.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_key_list, _as_optional_array, rng_from_state, rng_to_state
from ..core.priorities import Uniform01Priority
from ..core.rng import as_generator
from ..core.sample import Sample

__all__ = ["SlidingWindowSampler", "WindowSnapshot"]


@dataclass(slots=True)
class _Record:
    key: object
    value: float
    time: float
    priority: float
    seq: int
    initial_threshold: float


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

    def __init__(self, k: int, window: float, rng=None):
        if k < 2:
            raise ValueError("k must be at least 2")
        if window <= 0:
            raise ValueError("window must be positive")
        self.k = int(k)
        self.window = float(window)
        self.rng = as_generator(rng if rng is not None else 0)
        self.family = Uniform01Priority()

        self._records: dict[int, _Record] = {}
        self._arrival_order: deque[int] = deque()  # ids, oldest first
        # Current candidates in ascending priority order, as two parallel
        # lists (plain float compares beat tuple compares in the hot path).
        self._cur_pri: list[float] = []
        self._cur_ids: list[int] = []
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

    def threshold_of(self, record: _Record) -> float:
        """Current per-item threshold ``T_i(t)`` of a stored record."""
        return min(record.initial_threshold, self._min_update_after(record.seq))

    @property
    def _cur_sorted(self) -> list[tuple[float, int]]:
        """The legacy ``(priority, id)`` view of the current candidates."""
        return list(zip(self._cur_pri, self._cur_ids))

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
        mutated = False
        while self._arrival_order:
            rid = self._arrival_order[0]
            record = self._records.get(rid)
            if record is None:  # evicted earlier; lazily discard
                self._arrival_order.popleft()
                continue
            if record.time > cutoff_current:
                break
            self._arrival_order.popleft()
            del self._records[rid]
            idx = bisect.bisect_left(self._cur_pri, record.priority)
            while self._cur_ids[idx] != rid:  # ties: scan to the matching id
                idx += 1
            self._cur_pri.pop(idx)
            self._cur_ids.pop(idx)
            self._expired.append((record.time, record.priority))
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
            self._store(key, value, time, r, 1.0)
            self.max_current = max(self.max_current, len(self._cur_pri))
            return True

        # Candidate threshold: k-th smallest of current priorities plus the
        # new priority, i.e. clamp(r, c_(k-1), c_k) for the sorted current.
        c_km1 = self._cur_pri[-2]
        c_k = self._cur_pri[-1]
        t_n = min(max(r, c_km1), c_k)
        accepted = r < t_n
        if accepted:
            # Conceptually k+1 current examples: drop the largest priority.
            self._cur_pri.pop()
            evict_id = self._cur_ids.pop()
            del self._records[evict_id]
            self._store(key, value, time, r, t_n)
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
        if times is None:
            raise TypeError("SlidingWindowSampler.update_many() requires a times= column")
        t_arr = _as_optional_array(times, n, "times")
        v = _as_optional_array(values, n, "values")
        if n > 1 and not bool(np.all(t_arr[1:] >= t_arr[:-1])):
            super().update_many(keys, weights, values, times)
            return

        u_arr = self.rng.random(n)
        u = u_arr.tolist()  # the admission scan compares plain floats
        v_l = None if v is None else v.tolist()
        tcut = t_arr - self.window
        tcut2 = t_arr - 2.0 * self.window
        np_keys = isinstance(keys, np.ndarray)
        key_l = None if np_keys else _as_key_list(keys)
        searchsorted = np.searchsorted

        records = self._records
        order = self._arrival_order
        pri = self._cur_pri
        ids = self._cur_ids
        expired = self._expired
        k = self.k
        seq0 = self._seq
        next_id = self._next_id
        max_current = self.max_current
        bisect_left = bisect.bisect_left
        bisect_right = bisect.bisect_right
        records_get = records.get

        # Full-mode segments: (start, length, c_{k-1}, c_k); every position
        # they cover pushes clamp(u, c_{k-1}, c_k) onto the update stack.
        seg_start: list[int] = []
        seg_len: list[int] = []
        seg_c1: list[float] = []
        seg_ck: list[float] = []

        pos = 0
        gate = -1  # cached; invalidated (-1) when heads may have changed
        while pos < n:
            # Event gate: the first position where the scalar loop's lazy
            # advance() would fire (stale head, due expiry, or due drop).
            # A store changes the heads only when it creates the first
            # one, so the gate is recomputed only after an advance(), a
            # head eviction, or a store into an empty arrival order.
            if gate < 0:
                if order:
                    rec0 = records_get(order[0])
                    if rec0 is None:
                        gate = pos  # stale head: popped at the next item
                    else:
                        gate = int(searchsorted(tcut, rec0.time))
                else:
                    gate = n
                if expired:
                    drop = int(searchsorted(tcut2, expired[0][0]))
                    if drop < gate:
                        gate = drop
            if gate <= pos:
                self.advance(float(t_arr[pos]))
                gate = -1
                continue
            cur_len = len(pri)
            if cur_len < k:
                # Underfull: admit unconditionally (trivial threshold 1.0,
                # no update-stack push), exactly like the scalar branch.
                rid = next_id
                next_id += 1
                records[rid] = _Record(
                    keys[pos].item() if np_keys else key_l[pos],
                    1.0 if v_l is None else v_l[pos],
                    float(t_arr[pos]), u[pos], seq0 + pos + 1, 1.0,
                )
                if not order:
                    gate = -1  # this store creates the head: re-gate
                order.append(rid)
                idx = bisect_left(pri, u[pos])
                pri.insert(idx, u[pos])
                ids.insert(idx, rid)
                if cur_len + 1 > max_current:
                    max_current = cur_len + 1
                pos += 1
                continue
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
            seg_start.append(pos)
            seg_len.append(end - pos)
            seg_c1.append(c_km1)
            seg_ck.append(c_k)
            if found >= 0:
                # Admission: evict the largest-priority candidate, store
                # the arrival with threshold t_n = c_{k-1}.
                pri.pop()
                evict_id = ids.pop()
                del records[evict_id]
                if order and order[0] == evict_id:
                    gate = -1  # stale head: re-gate at the next item
                r = u[found]
                rid = next_id
                next_id += 1
                records[rid] = _Record(
                    keys[found].item() if np_keys else key_l[found],
                    1.0 if v_l is None else v_l[found],
                    float(t_arr[found]), r, seq0 + found + 1, c_km1,
                )
                order.append(rid)
                idx = bisect_left(pri, r)
                pri.insert(idx, r)
                ids.insert(idx, rid)
            pos = end

        # Materialize the batch's update-stack effect: an entry survives
        # iff it is strictly below every later pushed value (equal values
        # pop their elders), so walk the segments backwards under the
        # running minimum.  A segment clamps into [c_{k-1}, c_k], so once
        # the running minimum is at or below its floor the whole segment
        # is skipped without touching its values — only the few segments
        # that lower the minimum do vectorized work.
        kept_rev: list[tuple[int, float]] = []
        running = float("inf")
        for si in range(len(seg_len) - 1, -1, -1):
            c1 = seg_c1[si]
            if c1 >= running:
                continue
            a = seg_start[si]
            b = a + seg_len[si]
            vals = np.clip(u_arr[a:b], c1, seg_ck[si])
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
        last = float(t_arr[-1]) if n else self.last_time
        if last > self.last_time:
            self.last_time = last

    def _store(
        self, key: object, value: float, time: float, priority: float, threshold: float
    ) -> None:
        rid = self._next_id
        self._next_id += 1
        record = _Record(
            key=key,
            value=float(value),
            time=float(time),
            priority=priority,
            seq=self._seq,
            initial_threshold=float(threshold),
        )
        self._records[rid] = record
        self._arrival_order.append(rid)
        idx = bisect.bisect_left(self._cur_pri, priority)
        self._cur_pri.insert(idx, priority)
        self._cur_ids.insert(idx, rid)

    # ------------------------------------------------------------------
    # Final thresholds and samples
    # ------------------------------------------------------------------
    def _current_records(self) -> list[_Record]:
        return [self._records[rid] for rid in self._cur_ids]

    def gl_threshold(self, now: float) -> float:
        """G&L final threshold: bottom-k over current + expired priorities."""
        self.advance(now)
        priorities = list(self._cur_pri)
        priorities.extend(p for _, p in self._expired)
        if len(priorities) < self.k:
            return 1.0
        priorities.sort()
        return priorities[self.k - 1]

    def improved_threshold(self, now: float) -> float:
        """The paper's threshold: min of current per-item thresholds.

        Constant over the window, hence fully substitutable (Theorem 6);
        needs no state beyond what G&L already stores.
        """
        self.advance(now)
        records = self._current_records()
        if not records:
            return 1.0
        return min(self.threshold_of(rec) for rec in records)

    def _sample_from(self, records: list[_Record], threshold: float, strict: bool) -> Sample:
        if strict:
            chosen = [rec for rec in records if rec.priority < threshold]
        else:
            chosen = [rec for rec in records if rec.priority <= threshold]
        return Sample(
            keys=[rec.key for rec in chosen],
            values=np.array([rec.value for rec in chosen], dtype=float),
            weights=np.ones(len(chosen)),
            priorities=np.array([rec.priority for rec in chosen], dtype=float),
            thresholds=np.full(len(chosen), threshold),
            family=self.family,
            population_size=None,
            times=np.array([rec.time for rec in chosen], dtype=float),
        )

    def gl_sample(self, now: float) -> Sample:
        """Uniform window sample under the G&L final threshold.

        The boundary item is included ("due to symmetry", as the paper
        notes), hence the non-strict comparison.
        """
        t = self.gl_threshold(now)
        return self._sample_from(self._current_records(), t, strict=False)

    def improved_sample(self, now: float) -> Sample:
        """Uniform window sample under the improved threshold."""
        t = self.improved_threshold(now)
        return self._sample_from(self._current_records(), t, strict=True)

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
        records = self._current_records()
        gl_n = sum(1 for rec in records if rec.priority <= gl_t)
        imp_n = sum(1 for rec in records if rec.priority < imp_t)
        return WindowSnapshot(
            time=float(now),
            gl_threshold=gl_t,
            improved_threshold=imp_t,
            gl_sample_size=gl_n,
            improved_sample_size=imp_n,
            stored_current=len(self._cur_pri),
            stored_expired=len(self._expired),
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "window": self.window}

    def _get_state(self) -> dict:
        return {
            "records": [
                (
                    rid,
                    rec.key,
                    rec.value,
                    rec.time,
                    rec.priority,
                    rec.seq,
                    rec.initial_threshold,
                )
                for rid, rec in self._records.items()
            ],
            "arrival_order": list(self._arrival_order),
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
        self._records = {
            rid: _Record(
                key=key,
                value=value,
                time=time,
                priority=priority,
                seq=seq,
                initial_threshold=threshold,
            )
            for rid, key, value, time, priority, seq, threshold in state["records"]
        }
        self._arrival_order = deque(state["arrival_order"])
        cur = sorted((rec.priority, rid) for rid, rec in self._records.items())
        self._cur_pri = [p for p, _ in cur]
        self._cur_ids = [rid for _, rid in cur]
        self._expired = deque(tuple(pair) for pair in state["expired"])
        self._updates = [tuple(pair) for pair in state["updates"]]
        self._seq = int(state["seq"])
        self._next_id = int(state["next_id"])
        self.items_seen = int(state["items_seen"])
        self.max_current = int(state["max_current"])
        self.max_expired = int(state["max_expired"])
        self.last_time = float(state["last_time"])
        self.rng = rng_from_state(state["rng"])
