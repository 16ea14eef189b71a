"""VarOpt_k sampling (Cohen–Duffield–Kaplan–Lund–Thorup, cited as [7]).

The fixed-size, variance-optimal comparator from the paper's related work:
keeps exactly ``k`` items; on overflow it solves for the threshold ``tau``
with ``sum_i min(1, w_i / tau) = k``, evicts one item with probability
``1 - min(1, w_i / tau)`` (these sum to one), and assigns every surviving
"small" item the adjusted weight ``tau``.  Subset sums are estimated by
summing adjusted weights — unbiased, with variance optimal among fixed-size
unbiased schemes.

Included as a baseline for the sampler-ablation bench (A1 in DESIGN.md):
priority sampling's variance is within a factor of VarOpt's, which the
bench verifies empirically.
"""

from __future__ import annotations

import bisect
from typing import Callable

import numpy as np

from ..api import StreamSampler, query_support, register_sampler
from ..api.protocol import (
    _as_key_list,
    _as_optional_array,
    _column_min,
    rng_from_state,
    rng_to_state,
)
from ..core.kernels import categorical_draw, varopt_tau
from ..core.priorities import Uniform01Priority
from ..core.rng import as_generator
from ..core.sample import Sample

__all__ = ["VarOptSampler"]


@register_sampler("varopt")
class VarOptSampler(StreamSampler):
    """Fixed-size variance-optimal weighted sampler."""

    query_capabilities = query_support(
        "sum", "topk",
        count=(
            "rows carry pre-adjusted weights at probability 1; sum(1/p) "
            "is just the retained-row count k, not a population estimate"
        ),
        mean=(
            "values are pre-adjusted (tau-lifted) weights on "
            "probability-1 rows; the Hajek ratio degenerates to their "
            "plain average"
        ),
        distinct=(
            "samples stream occurrences, not distinct keys; use a distinct "
            "sketch"
        ),
        quantile=(
            "values are pre-adjusted weights, so the original value "
            "distribution is not recoverable"
        ),
    )
    #: VarOpt rows carry pre-adjusted weights with degenerate
    #: probability-1 inclusion, so the HT plug-in variance is identically
    #: zero; VarOpt variance needs its own estimator.
    query_variance = (
        "retained rows carry pre-adjusted VarOpt weights (probability-1 "
        "rows); the HT plug-in variance is identically zero"
    )

    def __init__(self, k: int, rng=None):
        if k < 1:
            raise ValueError("k must be a positive integer")
        self.k = int(k)
        self.rng = as_generator(rng if rng is not None else 0)
        self._keys: list[object] = []
        self._weights: list[float] = []  # adjusted weights
        self.threshold = 0.0  # largest tau used so far
        self.items_seen = 0

    @classmethod
    def check_columns(cls, columns) -> None:
        """Also refuse a weight that is not positive (or NaN)."""
        super().check_columns(columns)
        if not _column_min(columns, "weights") > 0:
            raise ValueError("weight must be positive")

    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> None:
        """Offer one weighted item."""
        if not weight > 0:
            raise ValueError("weight must be positive")
        self.items_seen += 1
        self._keys.append(key)
        self._weights.append(float(weight))
        if len(self._keys) > self.k:
            self._evict_one()

    def _pick_victim(self, weights: np.ndarray) -> tuple[int, float]:
        """The eviction threshold tau and the index (in insertion order) to drop.

        Shared by the scalar and batch paths so both consume the generator
        identically: :func:`repro.core.kernels.categorical_draw` replicates
        ``rng.choice(n, p=...)`` bit-for-bit with a single uniform.
        """
        tau = varopt_tau(weights)
        drop_probs = 1.0 - np.minimum(1.0, weights / tau)
        # Total is exactly 1 in exact arithmetic; normalize for safety.
        drop_probs = drop_probs / drop_probs.sum()
        return categorical_draw(self.rng, drop_probs), tau

    def _evict_one(self) -> None:
        """Drop one of the k+1 items per the VarOpt eviction distribution."""
        weights = np.asarray(self._weights, dtype=float)
        victim, tau = self._pick_victim(weights)
        del self._keys[victim]
        del self._weights[victim]
        # Survivors below tau take the adjusted weight tau.
        self._weights = [tau if w < tau else w for w in self._weights]
        self.threshold = max(self.threshold, tau)

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Bulk :meth:`update` on a compressed representation of the state.

        VarOpt's threshold moves on *every* overflow, so the eviction chain
        is inherently sequential — but after each eviction every "small"
        survivor carries the same adjusted weight ``tau``.  The batch path
        exploits that: the retained set is kept as a key list plus a list
        of *explicit* weights (entries above ``tau``; the rest are tagged
        as ``tau``-valued), so the per-item threshold solve and the victim
        draw walk only the handful of explicit entries instead of sorting
        all ``k + 1`` weights.  The per-eviction uniforms are pre-drawn in
        one generator call (identical stream consumption), and any
        numerically ambiguous step falls back to the scalar path's exact
        numpy computation for that item, so the resulting sample matches
        scalar ingestion (up to <=1e-13 relative rounding drift in the
        adjusted weights, far below the contract's 1e-9 comparison).
        """
        keys = _as_key_list(keys)
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        self.check_columns({"weights": w})
        if w is None:
            w = np.ones(n)
        self.items_seen += n
        k = self.k
        w_list = w.tolist()

        # Compressed state: wexp[i] is None for "small" entries (adjusted
        # weight == tau) and the explicit weight otherwise; expl holds the
        # explicit slots in ascending buffer order.
        tau = self.threshold
        keysb = list(self._keys)
        wexp: list = []
        expl: list[int] = []
        m = 0
        for i, wt in enumerate(self._weights):
            if wt == tau and tau > 0.0:
                wexp.append(None)
                m += 1
            else:
                wexp.append(float(wt))
                expl.append(i)
        cur_n = len(keysb)

        # One uniform per eviction, pre-drawn: consumption matches the
        # scalar loop's one ``rng.random()`` per ``categorical_draw``.
        n_evict = max(0, cur_n + n - k)
        draws = self.rng.random(n_evict) if n_evict else None
        dpos = 0
        eps = 1e-12

        def materialize() -> np.ndarray:
            return np.array(
                [tau if x is None else x for x in wexp], dtype=float
            )

        def exact_step(u: float) -> float:
            """Scalar-path numpy eviction (used when grouping is ambiguous).

            Returns the new tau; mutates keysb/wexp/expl/m like the fast
            path, replicating ``varopt_tau`` + ``categorical_draw`` exactly.
            """
            nonlocal m
            wbuf = materialize()
            tau_new = varopt_tau(wbuf)
            drop = 1.0 - np.minimum(1.0, wbuf / tau_new)
            drop = drop / drop.sum()
            cdf = np.cumsum(drop)
            cdf /= cdf[-1]
            victim = int(cdf.searchsorted(u, side="right"))
            victim = min(victim, cur_n - 1)
            _remove(victim)
            _adjust(tau_new)
            return tau_new

        def _remove(victim: int) -> None:
            nonlocal m
            if wexp[victim] is None:
                m -= 1
            else:
                expl.remove(victim)
            del keysb[victim]
            del wexp[victim]
            for idx in range(len(expl)):
                if expl[idx] > victim:
                    expl[idx] -= 1

        def _adjust(tau_new: float) -> None:
            """Raise survivors below the new tau (they all become small)."""
            nonlocal m
            keep = []
            for p in expl:
                if wexp[p] <= tau_new:
                    wexp[p] = None
                    m += 1
                else:
                    keep.append(p)
            expl[:] = keep

        for i in range(n):
            keysb.append(keys[i])
            wt = w_list[i]
            wexp.append(wt)
            expl.append(cur_n)
            cur_n += 1
            if cur_n <= k:
                continue
            u = float(draws[dpos])
            dpos += 1

            # --- threshold solve over {tau} x m plus the explicit values.
            evals = sorted(wexp[p] for p in expl)
            E = len(evals)
            a = bisect.bisect_left(evals, tau) if m else 0
            ambiguous = False
            tau_new = None
            pre = 0.0
            for j in range(a):  # explicit entries below the tau run
                pre += evals[j]
                t = j + 1
                if t >= 2:
                    cand = pre / (t - 1)
                    upper = evals[t] if t < a else (tau if m else (evals[t] if t < E else np.inf))
                    if evals[t - 1] <= cand + eps and cand < upper + eps:
                        tau_new = cand
                        break
            if tau_new is None and m:
                # Interior tau-run brackets exist only in an eps-margin
                # degeneracy; detect it and fall back for exactness.
                if abs(pre - tau * (a - 1)) <= 1e-9 * max(1.0, a + m):
                    ambiguous = a + m >= 2
                if not ambiguous:
                    pre_run = pre + m * tau
                    t = a + m
                    if t >= 2:
                        cand = pre_run / (t - 1)
                        upper = evals[a] if a < E else np.inf
                        if tau <= cand + eps and cand < upper + eps:
                            tau_new = cand
                    pre = pre_run
                else:
                    pre += m * tau
            if tau_new is None and not ambiguous:
                for j in range(a, E):  # explicit entries above the run
                    pre += evals[j]
                    t = m + j + 1
                    if t >= 2:
                        cand = pre / (t - 1)
                        upper = evals[j + 1] if j + 1 < E else np.inf
                        if evals[j] <= cand + eps and cand < upper + eps:
                            tau_new = cand
                            break
            if tau_new is None or ambiguous or tau_new < tau:
                tau = exact_step(u)
                cur_n -= 1
                continue

            # --- victim draw: replicate categorical_draw's double
            # normalization over the buffer-order drop probabilities.
            p_small = 1.0 - tau / tau_new if m else 0.0
            p_expl = [
                (p, 1.0 - wexp[p] / tau_new)
                for p in expl
                if wexp[p] < tau_new
            ]
            total = m * p_small + sum(pe for _, pe in p_expl)
            if not total > 0.0:
                tau = exact_step(u)
                cur_n -= 1
                continue
            target = u * total
            victim = -1
            cum = 0.0
            prev_end = 0  # buffer position after the last explicit slot seen
            ei = 0
            n_pe = len(p_expl)
            for p in expl:
                # run of smalls in [prev_end, p)
                run = p - prev_end
                if run and p_small > 0.0:
                    run_mass = run * p_small
                    if cum + run_mass > target:
                        j = int((target - cum) / p_small)
                        if j >= run:
                            j = run - 1
                        victim = prev_end + j
                        break
                    cum += run_mass
                if ei < n_pe and p_expl[ei][0] == p:
                    pe = p_expl[ei][1]
                    ei += 1
                    cum += pe
                    if cum > target:
                        victim = p
                        break
                prev_end = p + 1
            if victim < 0:
                # tail run of smalls (after the last explicit slot)
                run = cur_n - prev_end
                if run and p_small > 0.0:
                    j = int((target - cum) / p_small)
                    if j >= run:
                        j = run - 1
                    victim = prev_end + j
                else:
                    tau = exact_step(u)
                    cur_n -= 1
                    continue
            _remove(victim)
            _adjust(tau_new)
            tau = tau_new
            cur_n -= 1

        self._keys = keysb
        self._weights = [tau if x is None else x for x in wexp]
        if tau > self.threshold:
            self.threshold = tau

    def __len__(self) -> int:
        return len(self._keys)

    def estimate_total(self, predicate: Callable[[object], bool] | None = None) -> float:
        """Unbiased subset-sum estimate: sum of adjusted weights."""
        if predicate is None:
            return float(sum(self._weights))
        return float(
            sum(w for key, w in zip(self._keys, self._weights) if predicate(key))
        )

    def items(self) -> list[tuple[object, float]]:
        """The retained (key, adjusted_weight) pairs."""
        return list(zip(self._keys, self._weights))

    def sample(self) -> Sample:
        """Retained keys with adjusted weights as values.

        Thresholds are +inf (adjusted weights already carry the HT
        correction), so ``sample().ht_total()`` equals
        :meth:`estimate_total`.
        """
        return Sample(
            keys=list(self._keys),
            values=np.asarray(self._weights, dtype=float),
            weights=np.asarray(self._weights, dtype=float),
            priorities=np.zeros(len(self._keys)),
            thresholds=np.full(len(self._keys), np.inf),
            family=Uniform01Priority(),
            population_size=self.items_seen,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _config(self) -> dict:
        return {"k": self.k}

    def _get_state(self) -> dict:
        return {
            "keys": list(self._keys),
            "weights": list(self._weights),
            "threshold": self.threshold,
            "items_seen": self.items_seen,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        self._keys = list(state["keys"])
        self._weights = list(state["weights"])
        self.threshold = float(state["threshold"])
        self.items_seen = int(state["items_seen"])
        self.rng = rng_from_state(state["rng"])
