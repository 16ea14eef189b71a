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

from ..core.rng import as_generator

__all__ = ["ConditionalPoissonSampler"]


class ConditionalPoissonSampler:
    """Maximum-entropy fixed-size sampling design (exact, O(n k)).

    Unlike the streaming samplers, CPS is an *offline* design over a fixed
    population of working probabilities ``p``, given at construction; it
    is not a :class:`repro.api.StreamSampler`.
    """

    def __init__(self, working_probs, k: int):
        p = np.asarray(working_probs, dtype=float)
        if np.any((p <= 0) | (p >= 1)):
            raise ValueError("working probabilities must lie strictly in (0, 1)")
        if not 0 < k <= p.size:
            raise ValueError("k must satisfy 0 < k <= n")
        self.p = p
        self.n = p.size
        self.k = int(k)
        self._backward = self._backward_table()

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
