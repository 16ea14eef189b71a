"""Exact Conditional Poisson Sampling for small populations (Section 2.2).

The paper motivates adaptive thresholds partly by CPS's intractability: the
maximum-entropy fixed-size design "has no efficient sampling algorithm" in
the streaming sense.  For *small, offline* populations the design is
computable with the classical O(n k) dynamic program over the Poisson count
distribution (Tillé 2006), and having it available lets the test-suite and
the sampler-ablation bench compare adaptive threshold samplers against the
maximum-entropy gold standard.

Given working Bernoulli probabilities ``p_i`` and target size ``k``:

* ``P(i, j)`` = probability that items ``i..n`` contribute exactly ``j``
  inclusions under independent Bernoulli draws (backward DP);
* sequential sampling: item ``i`` is included with probability
  ``p_i * P(i+1, j-1) / P(i, j)`` given ``j`` slots remain;
* true inclusion probabilities follow from a forward/backward product.
"""

from __future__ import annotations

import numpy as np

from ..api import query_support, register_sampler
from ..api.protocol import STATE_VERSION, upgrade_state
from ..core.rng import as_generator

__all__ = ["ConditionalPoissonSampler"]


@register_sampler("cps")
class ConditionalPoissonSampler:
    """Maximum-entropy fixed-size sampling design (exact, O(n k)).

    Unlike the streaming samplers, CPS is an *offline* design over a fixed
    population, so it does not follow the :class:`repro.api.StreamSampler`
    stream protocol — it is registered with the factory for config-driven
    construction and supports the ``to_state``/``from_state`` round-trip
    only.
    """

    _OFFLINE_REASON = (
        "offline maximum-entropy design returning index draws, not a "
        "queryable Sample stream"
    )
    #: Capability row for the registry-wide table: the offline design
    #: answers no declarative queries, for the stated reason.
    query_capabilities = query_support(
        sum=_OFFLINE_REASON,
        count=_OFFLINE_REASON,
        mean=_OFFLINE_REASON,
        distinct=_OFFLINE_REASON,
        topk=_OFFLINE_REASON,
        quantile=_OFFLINE_REASON,
    )
    query_variance = _OFFLINE_REASON

    def __init__(self, working_probs=None, k: int = 1):
        p = (
            np.empty(0, dtype=float)
            if working_probs is None
            else np.asarray(working_probs, dtype=float)
        )
        if np.any((p <= 0) | (p >= 1)):
            raise ValueError("working probabilities must lie strictly in (0, 1)")
        if k < 1:
            raise ValueError("k must be positive")
        if working_probs is not None and k > p.size:
            # A population given up front must already cover k; streaming
            # construction defers this check to the first query.
            raise ValueError("k must satisfy 0 < k <= n")
        self._p = p
        self._p_pending: list[float] = []  # scalar appends, merged lazily
        self.k = int(k)
        self._backward_cache: np.ndarray | None = None

    @property
    def p(self) -> np.ndarray:
        """Working probabilities (pending scalar appends merged in)."""
        if self._p_pending:
            self._p = np.concatenate(
                [self._p, np.asarray(self._p_pending, dtype=float)]
            )
            self._p_pending.clear()
        return self._p

    @property
    def n(self) -> int:
        """Current population size (grows with :meth:`update_many`)."""
        return self._p.size + len(self._p_pending)

    @property
    def _backward(self) -> np.ndarray:
        """The backward DP table, rebuilt lazily after ingestion."""
        if self._backward_cache is None:
            if not 0 < self.k <= self.n:
                raise ValueError("k must satisfy 0 < k <= n before sampling")
            self._backward_cache = self._backward_table()
        return self._backward_cache

    # ------------------------------------------------------------------
    # Ingestion (population construction)
    # ------------------------------------------------------------------
    def update(self, key: object = None, weight: float = 1.0, **kwargs) -> None:
        """Append one population unit with working probability ``weight``.

        The O(n k) dynamic-programming tables are derived state, so they
        are only invalidated here and rebuilt lazily at the next query —
        appending the population one unit at a time costs O(1) per unit.
        """
        w = float(weight)
        if not 0.0 < w < 1.0:
            raise ValueError("working probabilities must lie strictly in (0, 1)")
        self._p_pending.append(w)
        self._backward_cache = None

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Append a batch of population units in one vectorized pass.

        ``weights`` carries the working probabilities (one per unit); the
        DP tables are invalidated once for the whole batch, so batch
        construction costs one array concatenation regardless of size.
        """
        n = len(keys)
        if n == 0:
            return
        if weights is None:
            raise TypeError("update_many() requires a weights= column of working probabilities")
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise ValueError("weights must have one working probability per unit")
        if np.any((w <= 0) | (w >= 1)):
            raise ValueError("working probabilities must lie strictly in (0, 1)")
        self._p = np.concatenate([self.p, w])  # merges pending first
        self._backward_cache = None

    def _backward_table(self) -> np.ndarray:
        """``B[i, j] = P(items i..n-1 contribute exactly j inclusions)``."""
        n, k = self.n, self.k
        p = self.p
        table = np.zeros((n + 1, k + 2))
        table[n, 0] = 1.0
        for i in range(n - 1, -1, -1):
            pi = p[i]
            table[i, 0] = (1 - pi) * table[i + 1, 0]
            for j in range(1, k + 2):
                table[i, j] = pi * table[i + 1, j - 1] + (1 - pi) * table[i + 1, j]
        return table

    def sample(self, rng=None) -> np.ndarray:
        """Draw one CPS sample; returns the sorted included indices."""
        rng = as_generator(rng)
        chosen: list[int] = []
        remaining = self.k
        for i in range(self.n):
            if remaining == 0:
                break
            denom = self._backward[i, remaining]
            take = self.p[i] * self._backward[i + 1, remaining - 1] / denom
            if rng.random() < take:
                chosen.append(i)
                remaining -= 1
        if remaining:
            raise AssertionError("CPS DP failed to allocate the full sample")
        return np.asarray(chosen, dtype=int)

    def inclusion_probabilities(self) -> np.ndarray:
        """Exact first-order inclusion probabilities of the CPS design.

        ``pi_i = P(Z_i = 1 | total = k)``, via forward DP over the first
        ``i`` items combined with the backward table.
        """
        n, k = self.n, self.k
        p = self.p
        # F[i, j] = P(items 0..i-1 contribute exactly j inclusions).
        forward = np.zeros((n + 1, k + 1))
        forward[0, 0] = 1.0
        for i in range(n):
            pi = p[i]
            for j in range(min(i + 1, k), -1, -1):
                forward[i + 1, j] = (1 - pi) * forward[i, j]
                if j > 0:
                    forward[i + 1, j] += pi * forward[i, j - 1]
        total = self._backward[0, k]
        backward = self._backward
        out = np.empty(n)
        for i in range(n):
            acc = 0.0
            for j in range(k):  # j inclusions before i, k-1-j after
                acc += forward[i, j] * backward[i + 1, k - 1 - j]
            out[i] = p[i] * acc / total
        return out

    def ht_total(self, values, sample_indices) -> float:
        """HT estimate of a total using exact CPS inclusion probabilities."""
        values = np.asarray(values, dtype=float)
        pi = self.inclusion_probabilities()
        idx = np.asarray(sample_indices, dtype=int)
        return float(np.sum(values[idx] / pi[idx]))

    # ------------------------------------------------------------------
    # Serialization (design parameters only; the DP tables are derived)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Serialize the design to a plain dict (params only)."""
        return {
            "sampler": "cps",
            "version": STATE_VERSION,
            "params": {"working_probs": self.p.tolist(), "k": self.k},
            "state": {},
        }

    @classmethod
    def from_state(cls, state: dict) -> "ConditionalPoissonSampler":
        """Rebuild the design from :meth:`to_state` output."""
        return cls(**upgrade_state(state)["params"])
