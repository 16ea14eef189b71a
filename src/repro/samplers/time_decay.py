"""Time-decayed sampling via the priority–threshold duality (Section 2.9).

With exponentially decaying weights ``w_i(t) = w_i exp(-lambda (t - t_i))``
the natural priority ``U_i / w_i(t)`` changes every instant.  The duality
observation: uniform exponential decay preserves the *order* of priorities,
so one static priority per item,

    ``P_i = U_i / (w_i exp(lambda t_i))``

(equivalently: let the threshold grow as ``exp(lambda t)`` instead of
shrinking every weight) supports a bottom-k sketch whose sample at any
query time is exactly the decayed-weight priority sample.  Log-domain
storage keeps the exponentials finite for arbitrarily long streams.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import _as_key_list, _as_optional_array, rng_from_state, rng_to_state
from ..core.kernels import bottomk_candidates
from ..core.priorities import InverseWeightPriority
from ..core.rng import as_generator
from ..core.sample import Sample

__all__ = ["ExponentialDecaySampler"]


class _DecayEntry:
    __slots__ = ("log_priority", "key", "weight", "time", "value")

    def __init__(self, log_priority, key, weight, time, value):
        self.log_priority = log_priority
        self.key = key
        self.weight = weight
        self.time = time
        self.value = value

    def __lt__(self, other):  # max-heap via inverted comparison
        return self.log_priority > other.log_priority


@register_sampler("time_decay")
class ExponentialDecaySampler(StreamSampler):
    """Bottom-k sample under exponentially time-decayed weights.

    Parameters
    ----------
    k:
        Sample size.
    decay_rate:
        Decay constant lambda; an item's effective weight halves every
        ``ln 2 / lambda`` time units.
    """

    default_estimate_kind = "decayed_total"
    #: Sample rows carry raw payloads with *genuine* decayed inclusion
    #: probabilities ``min(1, w_i exp(lambda t_i) T)`` (per-row effective
    #: thresholds under the inverse-weight family), so the full HT/Hajek
    #: estimator suite applies: plain aggregates answer over all retained
    #: history, and ``decay=``/``window=`` queries reproduce the decayed
    #: estimates at any ``now``.
    query_capabilities = query_support(
        "sum", "count", "mean", "topk", "quantile",
        distinct=(
            "samples stream occurrences under decayed weights, not "
            "distinct keys"
        ),
    )
    query_variance = True
    query_windowed = True

    def __init__(self, k: int, decay_rate: float, rng=None):
        if k < 1:
            raise ValueError("k must be a positive integer")
        if decay_rate < 0:
            raise ValueError("decay_rate must be non-negative")
        self.k = int(k)
        self.decay_rate = float(decay_rate)
        self.rng = as_generator(rng if rng is not None else 0)
        self._heap: list[_DecayEntry] = []  # k+1 smallest log-priorities
        self.items_seen = 0
        self._last_time = -math.inf

    def update(
        self, key, weight: float = 1.0, *, value=None, time=None
    ) -> bool:
        """Offer an item arriving at ``time`` (required, non-decreasing)."""
        if time is None:
            raise TypeError(
                "time= is required: every ExponentialDecaySampler item "
                "needs an arrival time (update(key, weight, value=..., "
                "time=...))"
            )
        time = float(time)
        weight = float(weight)
        if weight <= 0:
            raise ValueError("weight must be positive")
        if time < self._last_time:
            raise ValueError("arrival times must be non-decreasing")
        self._last_time = time
        self.items_seen += 1
        u = float(self.rng.random())
        # log P_i = log U - log w - lambda * t  (later arrivals favored)
        log_p = math.log(u) - math.log(weight) - self.decay_rate * time
        entry = _DecayEntry(log_p, key, float(weight), float(time),
                            float(weight if value is None else value))
        if len(self._heap) <= self.k:
            heapq.heappush(self._heap, entry)
            return True
        if entry.log_priority >= self._heap[0].log_priority:
            return False
        heapq.heapreplace(self._heap, entry)
        return True

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Draws the whole batch's uniforms at once (``rng.random(n)`` consumes
        the generator stream exactly like ``n`` scalar draws), computes the
        static log-priorities vectorized, and offers only the bottom-k
        candidates — the heap state is the ``k + 1`` smallest log-priorities
        regardless of arrival order, so the result is seed-for-seed
        identical to the scalar loop.
        """
        keys = _as_key_list(keys)
        n = len(keys)
        if n == 0:
            return
        if times is None:
            raise TypeError("ExponentialDecaySampler.update_many() requires a times= column")
        t = _as_optional_array(times, n, "times")
        w = _as_optional_array(weights, n, "weights")
        v = _as_optional_array(values, n, "values")
        if w is not None and np.any(w <= 0):
            raise ValueError("weight must be positive")
        if t[0] < self._last_time or np.any(np.diff(t) < 0):
            raise ValueError("arrival times must be non-decreasing")
        u = self.rng.random(n)
        log_w = 0.0 if w is None else np.log(w)
        log_p = np.log(u) - log_w - self.decay_rate * t
        self._last_time = float(t[-1])
        self.items_seen += n
        wcol = np.ones(n) if w is None else w
        vcol = wcol if v is None else v
        for i in bottomk_candidates(log_p, self.k, self.log_threshold):
            entry = _DecayEntry(
                float(log_p[i]), keys[i], float(wcol[i]), float(t[i]), float(vcol[i])
            )
            if len(self._heap) <= self.k:
                heapq.heappush(self._heap, entry)
            elif entry.log_priority < self._heap[0].log_priority:
                heapq.heapreplace(self._heap, entry)

    @property
    def log_threshold(self) -> float:
        """Log of the (k+1)-st smallest static priority."""
        if len(self._heap) <= self.k:
            return math.inf
        return self._heap[0].log_priority

    def _retained(self) -> list[_DecayEntry]:
        t = self.log_threshold
        return [e for e in self._heap if e.log_priority < t]

    def __len__(self) -> int:
        return len(self._retained())

    def inclusion_probability(self, entry: _DecayEntry) -> float:
        """``F_i(T) = min(1, w_i exp(lambda t_i) * T)`` in log domain."""
        log_t = self.log_threshold
        if math.isinf(log_t):
            return 1.0
        exponent = log_t + math.log(entry.weight) + self.decay_rate * entry.time
        return math.exp(min(0.0, exponent))

    def estimate_decayed_total(
        self, now: float | None = None, predicate: Callable[[object], bool] | None = None
    ) -> float:
        """HT estimate of ``sum_i w_i exp(-lambda (now - t_i))`` (subset).

        The decayed total is the time-discounted count/importance of the
        stream — e.g. recent-activity scores.  ``now`` defaults to the last
        arrival time.
        """
        now = self._last_time if now is None else float(now)
        total = 0.0
        for entry in self._retained():
            if predicate is not None and not predicate(entry.key):
                continue
            decayed = entry.weight * math.exp(
                -self.decay_rate * max(0.0, now - entry.time)
            )
            total += decayed / self.inclusion_probability(entry)
        return total

    def keys(self) -> list[object]:
        """Keys of the currently retained sample."""
        return [e.key for e in self._retained()]

    @property
    def last_time(self) -> float | None:
        """Latest arrival time observed (None before the first item).

        The query planner reads this to anchor ``last=`` windows and
        ``decay=`` ages when a query carries no explicit ``now=``.
        """
        return None if math.isinf(self._last_time) else self._last_time

    def sample(self) -> Sample:
        """Retained items with genuine decayed inclusion probabilities.

        Each row carries its raw payload, weight and arrival time; the
        per-row effective threshold ``exp(log T + lambda t_i)`` under the
        inverse-weight family makes the row's pseudo-inclusion probability
        exactly ``min(1, w_i exp(log T + lambda t_i))`` — the sampler's
        own :meth:`inclusion_probability`.  The exponent is capped at
        ``1 - log w_i`` (where the probability is already pinned at 1) so
        the thresholds stay finite for arbitrarily long streams.
        """
        entries = self._retained()
        n = len(entries)
        times = np.array([e.time for e in entries], dtype=float)
        weights = np.array([e.weight for e in entries], dtype=float)
        log_t = self.log_threshold
        with np.errstate(over="ignore"):
            exponents = log_t + self.decay_rate * times
        caps = 1.0 - np.log(weights) if n else np.empty(0)
        thresholds = np.exp(np.minimum(exponents, caps))
        return Sample(
            keys=[e.key for e in entries],
            values=np.array([e.value for e in entries], dtype=float),
            weights=weights,
            priorities=np.array([e.log_priority for e in entries], dtype=float),
            thresholds=thresholds,
            family=InverseWeightPriority(),
            population_size=self.items_seen,
            times=times,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "decay_rate": self.decay_rate}

    def _get_state(self) -> dict:
        return {
            "entries": [
                (e.log_priority, e.key, e.weight, e.time, e.value)
                for e in self._heap
            ],
            "items_seen": self.items_seen,
            "last_time": self._last_time,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        self._heap = [_DecayEntry(*row) for row in state["entries"]]
        heapq.heapify(self._heap)
        self.items_seen = int(state["items_seen"])
        self._last_time = float(state["last_time"])
        self.rng = rng_from_state(state["rng"])
