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

The k+1 smallest log-priorities live in a
:class:`~repro.core.bottomk_store.BottomKStore`; the sampler adds the
log-domain draw and, in ``sample()``, the per-row decayed thresholds.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import (
    _as_key_batch,
    _as_optional_array,
    _column_min,
    rng_from_state,
    rng_to_state,
)
from ..core.bottomk_store import BottomKStore
from ..core.priorities import InverseWeightPriority
from ..core.rng import as_generator
from ..core.sample import Sample

__all__ = ["ExponentialDecaySampler"]

_ROW = ("priorities", "keys", "weights", "times", "values")  # checkpoint rows


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
    required_columns = ("times",)

    def __init__(self, k: int, decay_rate: float, rng=None):
        # The k+1 smallest log-priorities.
        self._store = BottomKStore(k, ("weights", "times", "values"))
        if decay_rate < 0:
            raise ValueError("decay_rate must be non-negative")
        self.decay_rate = float(decay_rate)
        self.rng = as_generator(rng if rng is not None else 0)
        self.items_seen = 0
        self._last_time = -math.inf

    @property
    def k(self) -> int:
        """Sample size."""
        return self._store.k

    @classmethod
    def check_columns(cls, columns) -> None:
        """Also refuse a weight that is not positive (or NaN), and times
        out of order within the block."""
        super().check_columns(columns)
        if not _column_min(columns, "weights") > 0:
            raise ValueError("weight must be positive")
        if np.any(np.diff(columns["times"]) < 0):
            raise ValueError("arrival times must be non-decreasing")

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
        if not weight > 0:
            raise ValueError("weight must be positive")
        if time < self._last_time:
            raise ValueError("arrival times must be non-decreasing")
        self._last_time = time
        self.items_seen += 1
        u = float(self.rng.random())
        # log P_i = log U - log w - lambda * t  (later arrivals favored)
        log_p = math.log(u) - math.log(weight) - self.decay_rate * time
        return self._store.update(
            log_p, key, weights=weight, times=time,
            values=float(weight if value is None else value),
        )

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Draws the whole batch's uniforms at once (``rng.random(n)`` consumes
        the generator stream exactly like ``n`` scalar draws), computes the
        static log-priorities vectorized, and offers the batch to the store —
        its state is the ``k + 1`` smallest log-priorities regardless of
        arrival order, so the result is seed-for-seed identical to the
        scalar loop.
        """
        keys = _as_key_batch(keys)
        n = len(keys)
        if n == 0:
            return
        t = _as_optional_array(times, n, "times")
        w = _as_optional_array(weights, n, "weights")
        v = _as_optional_array(values, n, "values")
        self.check_columns({"weights": w, "times": t})
        if t[0] < self._last_time:
            raise ValueError("arrival times must be non-decreasing")
        w = np.ones(n) if w is None else w
        log_p = np.log(self.rng.random(n)) - np.log(w) - self.decay_rate * t
        self._last_time = float(t[-1])
        self.items_seen += n
        self._store.offer(log_p, keys, weights=w, times=t,
                          values=w if v is None else v)

    @property
    def log_threshold(self) -> float:
        """Log of the (k+1)-st smallest static priority."""
        return self._store.threshold

    def __len__(self) -> int:
        return len(self._store)

    def estimate_decayed_total(
        self, now: float | None = None, predicate: Callable[[object], bool] | None = None
    ) -> float:
        """HT estimate of ``sum_i w_i exp(-lambda (now - t_i))`` (subset).

        The decayed total is the time-discounted count/importance of the
        stream — e.g. recent-activity scores.  ``now`` defaults to the last
        arrival time.  The HT weights are :meth:`sample`'s decayed
        inclusion probabilities.
        """
        now = self._last_time if now is None else float(now)
        sample = self.sample()
        if predicate is not None:
            sample = sample.select(predicate)
        age = np.maximum(0.0, now - sample.times)
        return sample.ht_total(sample.weights * np.exp(-self.decay_rate * age))

    def keys(self) -> list[object]:
        """Keys of the currently retained sample."""
        return self._store.below()["keys"]

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
        exactly ``min(1, w_i exp(log T + lambda t_i))``, so
        ``sample().probabilities`` are the decayed inclusion probabilities.
        The exponent is capped at ``1 - log w_i`` (where the probability is
        already pinned at 1) so the thresholds stay finite for arbitrarily
        long streams.
        """
        rows = self._store.below()
        with np.errstate(over="ignore"):
            exponents = self.log_threshold + self.decay_rate * rows["times"]
        caps = 1.0 - np.log(rows["weights"])
        return Sample(
            **rows,
            thresholds=np.exp(np.minimum(exponents, caps)),
            family=InverseWeightPriority(),
            population_size=self.items_seen,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k, "decay_rate": self.decay_rate}

    def _get_state(self) -> dict:
        return {
            "entries": self._store.rows(_ROW),
            "items_seen": self.items_seen,
            "last_time": self._last_time,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        self._store.load_rows(state["entries"], _ROW)
        self.items_seen = int(state["items_seen"])
        self._last_time = float(state["last_time"])
        self.rng = rng_from_state(state["rng"])
