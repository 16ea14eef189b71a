"""Variance-sized samples (Section 3.9) and the Section 6 heuristic.

Priority sampling guarantees *relative* error given enough items; here the
goal is an *absolute* variance guarantee ``Var(error) <= delta^2``.  The
threshold is chosen where the unbiased variance estimate of the HT total
crosses the target::

    Vhat(S_t) = sum_{R_i < t} x_i^2 (1 - F_i(t)) / F_i(t)^2

``Vhat`` decreases continuously in ``t`` between priority jumps and jumps
*down* as ``t`` rises past each priority (a term leaves the sample), so the
crossing need not be unique.  Two rules, matching the paper's discussion:

* :func:`solve_stopping_threshold` — the **largest** crossing.  This is the
  true stopping time of Theorem 8 (``E Vhat(S_T) = delta^2``), but locating
  it requires looking *above* the threshold, i.e. oversampling: "the
  stopping time may be a larger threshold that includes additional points
  that are not in the sample" (§3.9).
* :func:`solve_first_crossing` — the **smallest** crossing, computable from
  the sample alone (everything below the candidate threshold is retained).
  This is the no-oversampling heuristic that Section 6 justifies
  asymptotically: the sawtooth fluctuations of ``Vhat`` around the
  increasing true variance curve are ``O_p(n^{-1/2})`` relatively, so both
  crossings converge to the same deterministic threshold.

:class:`VarianceTargetSampler` is the streaming form.  Mid-stream, the
final crossing cannot be known (``Vhat`` still grows as items arrive), so
bounding memory requires anticipating it: given a ``horizon`` (expected
stream length — known for file scans, configurable otherwise) the sampler
linearly extrapolates the variance curve (``E Vhat_i(t) = (i/N) Vhat_N(t)``
for i.i.d. arrivals), caps retention at ``oversample`` times the
extrapolated threshold, and reports at :meth:`finalize` whether the cap
ever bound (soundness flag).  Without a horizon it retains everything and
is always sound.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..api import PrioritySampler, query_support, register_sampler
from ..api.protocol import (
    _as_key_list,
    _as_optional_array,
    rng_from_state,
    rng_to_state,
)
from ..core.bottomk_store import BottomKStore, take_keys
from ..core.priorities import InverseWeightPriority, PriorityFamily
from ..core.sample import Sample

__all__ = [
    "solve_stopping_threshold",
    "solve_first_crossing",
    "VarianceTargetSampler",
]

#: A stored row; checkpoints write the priorities, then the rest as records.
_ROW = ("priorities", "keys", "weights", "values")


def _vhat(values, weights, t, family) -> float:
    """Variance estimate at threshold ``t`` over items with priority < t.

    Caller passes only the items below ``t``; terms with ``F = 1`` vanish.
    """
    probs = np.asarray(family.pseudo_inclusion(t, weights), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            probs < 1.0, values**2 * (1.0 - probs) / probs**2, 0.0
        )
    return float(np.sum(terms))


def _bisect(vhat, lo, hi, target, tol) -> float:
    """Bisect ``vhat(t) = target`` on (lo, hi) where ``vhat`` decreases."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if vhat(mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _upper_end(vhat, lo, target) -> float:
    """A finite upper end for the last interval ``(lo, inf)``: doubling
    from ``max(2 lo, 1)`` while ``vhat`` holds the target (to 1e300)."""
    hi = max(lo * 2.0, 1.0)
    while vhat(hi) >= target and hi < 1e300:
        hi *= 2.0
    return hi


def solve_stopping_threshold(
    values,
    weights,
    priorities,
    delta: float,
    family: PriorityFamily | None = None,
    tol: float = 1e-12,
) -> float:
    """The largest threshold ``T`` with ``Vhat(S_T) = delta^2`` (exact rule).

    Scans the intervals between descending order statistics; within an
    interval the sample is fixed and ``Vhat`` is continuous and decreasing,
    so bisection finds the crossing.  Returns ``+inf`` when even the
    smallest non-empty sample estimates a variance below the target (no
    downsampling needed).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    family = family if family is not None else InverseWeightPriority()
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    priorities = np.asarray(priorities, dtype=float)
    target = delta * delta
    n = priorities.size
    if n == 0:
        return float("inf")
    descending = np.sort(priorities)[::-1]

    # Interval m (m = 0..n-1) is (d_{m+1}, d_m) with d_0 := +inf; its sample
    # is "all but the m largest priorities".  Vhat only jumps *down* as t
    # rises through a boundary, so scanning from the top, the first interval
    # whose lower end reaches the target brackets the supremum crossing.
    for m in range(n):
        lo = descending[m]
        hi = descending[m - 1] if m >= 1 else np.inf
        mask = priorities <= lo  # the sample for t in (lo, hi)
        vhat = partial(_vhat, values[mask], weights[mask], family=family)
        if vhat(lo) < target:
            continue
        if not np.isfinite(hi):
            hi = _upper_end(vhat, lo, target)
        return _bisect(vhat, lo, hi, target, tol)
    return float("inf")


def _solve_first_crossing_invw(
    values: np.ndarray,
    weights: np.ndarray,
    priorities: np.ndarray,
    target: float,
    tol: float,
) -> float:
    """Vectorized first-crossing solve for priority sampling.

    For ``F(t | w) = min(1, w t)`` the variance estimate at boundary
    ``t = p_(m)`` over the sample ``{p_i <= p_(m)}`` decomposes into prefix
    sums: with ``a_i = v_i^2 / w_i^2`` and ``b_i = v_i^2 / w_i``,

        Vhat(t) = (A - A_sat) / t^2 - (B - B_sat) / t

    where the "saturated" terms cover items with ``w_i t >= 1``, i.e.
    ``s_i = 1/w_i <= t``.  Because ``p_i <= s_i`` always, saturation at a
    boundary implies membership in its sample, so the saturated sums are
    plain prefix sums along the ``s``-sorted order — every boundary value
    evaluates in one vectorized pass, and the in-interval bisection runs
    off the same prefix arrays in O(log n) per probe.  Ties in priorities
    are assumed absent (they are continuous draws); the generic scan
    remains the reference for exotic cases.
    """
    n = priorities.size
    order = np.argsort(priorities)
    p = priorities[order]
    a = values[order] ** 2 / weights[order] ** 2
    b = values[order] ** 2 / weights[order]
    PA = np.cumsum(a)
    PB = np.cumsum(b)
    s_all = 1.0 / weights[order]
    s_order = np.argsort(s_all)
    s_sorted = s_all[s_order]
    SA = np.concatenate(([0.0], np.cumsum(a[s_order])))
    SB = np.concatenate(([0.0], np.cumsum(b[s_order])))

    def vhat_at(t: float, m: int) -> float:
        """Vhat at threshold ``t`` over the first ``m + 1`` sample items.

        Valid whenever ``t < p[m + 1]`` (every saturated item then lies in
        the prefix automatically).
        """
        cut = int(np.searchsorted(s_sorted, t, side="right"))
        A = PA[m] - SA[cut]
        B = PB[m] - SB[cut]
        return A / (t * t) - B / t

    # Boundary values of every interval in one pass.
    cut_lo = np.searchsorted(s_sorted, p, side="right")
    v_lo = (PA - SA[cut_lo]) / p**2 - (PB - SB[cut_lo]) / p
    # Upper ends: the same sample evaluated at the next boundary; the only
    # saturation the global s-cut can overcount is item m+1 itself.
    if n > 1:
        t_hi = p[1:]
        cut_hi = np.searchsorted(s_sorted, t_hi, side="right")
        A_hi = PA[:-1] - SA[cut_hi]
        B_hi = PB[:-1] - SB[cut_hi]
        sat_next = s_all[1:] <= t_hi
        A_hi = A_hi + np.where(sat_next, a[1:], 0.0)
        B_hi = B_hi + np.where(sat_next, b[1:], 0.0)
        v_hi = A_hi / t_hi**2 - B_hi / t_hi
        crossing = (v_lo[:-1] >= target) & (v_hi < target)
        hits = np.flatnonzero(crossing)
        if hits.size:
            m = int(hits[0])
            return _bisect(partial(vhat_at, m=m), float(p[m]),
                           float(p[m + 1]), target, tol)
    # Last interval: (p[-1], inf) with the full sample.
    if v_lo[-1] < target:
        return float("inf")
    vhat = partial(vhat_at, m=n - 1)
    lo = float(p[-1])
    hi = _upper_end(vhat, lo, target)
    if vhat(hi) >= target:
        return float("inf")
    return _bisect(vhat, lo, hi, target, tol)


def solve_first_crossing(
    values,
    weights,
    priorities,
    delta: float,
    family: PriorityFamily | None = None,
    tol: float = 1e-12,
) -> float:
    """The smallest threshold with ``Vhat = delta^2`` (the §6 heuristic).

    Scans intervals from the bottom; the first interval whose *lower* end
    is above the target and whose upper end falls below it contains the
    first down-crossing.  Everything the computation touches lies below the
    returned threshold, which is what makes this rule implementable from
    the sample alone.

    For the default priority-sampling family the scan runs fully
    vectorized (:func:`_solve_first_crossing_invw`); other families use
    the generic interval walk.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    family = family if family is not None else InverseWeightPriority()
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    priorities = np.asarray(priorities, dtype=float)
    target = delta * delta
    n = priorities.size
    if n == 0:
        return float("inf")
    if type(family) is InverseWeightPriority and n > 1:
        return _solve_first_crossing_invw(
            values, weights, priorities, target, tol
        )
    ascending = np.sort(priorities)

    for m in range(n):  # interval (a_m, a_{m+1}): sample = first m+1 items
        lo = ascending[m]
        hi = ascending[m + 1] if m + 1 < n else np.inf
        mask = priorities <= lo
        vhat = partial(_vhat, values[mask], weights[mask], family=family)
        if vhat(lo) < target:
            continue  # crossed below this interval already — keep going up?
        if not np.isfinite(hi):
            hi = _upper_end(vhat, lo, target)
        if vhat(hi) >= target:
            continue  # still above target at the top; crossing is higher
        return _bisect(vhat, lo, hi, target, tol)
    return float("inf")


@register_sampler("variance_target")
class VarianceTargetSampler(PrioritySampler):
    """Streaming sampler that stops sampling once the variance target holds.

    Parameters
    ----------
    delta:
        Target standard error of the HT total.
    horizon:
        Expected number of stream items.  When given, retention is capped
        at ``oversample`` times the *extrapolated* final stopping threshold
        (memory-bounded); when None, everything is retained (always sound).
    oversample:
        Retention multiplier above the extrapolated threshold.
    """

    query_capabilities = query_support(
        "sum", "count", "mean", "topk", "quantile",
        distinct=(
            "samples stream occurrences, not distinct keys; use a distinct "
            "sketch"
        ),
    )

    def __init__(
        self,
        delta: float,
        horizon: int | None = None,
        oversample: float = 2.0,
        family: PriorityFamily | None = None,
        coordinated: bool = False,
        salt: int = 0,
        rng=None,
    ):
        if delta <= 0:
            raise ValueError("delta must be positive")
        if oversample < 1.0:
            raise ValueError("oversample must be >= 1")
        if horizon is not None and horizon < 1:
            raise ValueError("horizon must be positive when given")
        super().__init__(family, coordinated, salt, rng)
        self.delta = float(delta)
        self.horizon = None if horizon is None else int(horizon)
        self.oversample = float(oversample)
        self._store = BottomKStore(None, _ROW[2:])
        self._cap_ever_bound = False
        self.items_seen = 0
        # Geometric tightening cadence: first solve at 256 items, then
        # every ~12% of stream growth — the solver is O(sample^2) in the
        # worst case, so a fixed cadence would dominate ingestion.
        self._next_tighten = 256

    def update(
        self, key: object, weight: float = 1.0, *, value=None, time=None
    ) -> bool:
        """Offer one item; returns True if retained (possibly provisionally)."""
        r = self._priority(key, weight)
        return self.offer_with_priority(key, r, weight, value)

    def offer_with_priority(
        self,
        key: object,
        priority: float,
        weight: float = 1.0,
        value: float | None = None,
    ) -> bool:
        """Offer an item whose priority was drawn externally."""
        self.items_seen += 1
        store = self._store
        if not priority < store.cap:
            self._cap_ever_bound = True
            return False
        store.add(priority, key, weights=float(weight),
                  values=float(weight if value is None else value))
        # Don't cap before the extrapolated threshold has stabilized: the
        # early-stream estimate is noisy, and an over-tight cap can never be
        # undone (evicted items are gone).  The cadence backs off
        # geometrically so the solve cost amortizes to O(1) per item.
        if self.horizon is not None and self.items_seen >= self._next_tighten:
            self._tighten()
        return True

    def _tighten(self) -> None:
        """Cap retention at ``oversample`` times the extrapolated final
        stopping threshold, and schedule the next trigger.

        ``E Vhat_i(t) = (i / N) Vhat_N(t)`` for i.i.d. arrivals, so the
        final threshold is estimated by solving with a scaled-down target
        ``delta^2 * i / N`` over the rows merged so far.  The scalar and
        batch paths both tighten here, at the same items, on the same
        columns.
        """
        store = self._store
        store.merge()
        scale = min(1.0, self.items_seen / float(self.horizon))
        t_hat = solve_first_crossing(
            store.columns["values"], store.columns["weights"],
            store.priorities, self.delta * np.sqrt(scale), self.family,
        )
        if t_hat * self.oversample < store.cap:  # +inf: no crossing yet
            store.cut(t_hat * self.oversample)
        self._next_tighten = self.items_seen + max(64, self.items_seen // 8)

    def update_many(self, keys, weights=None, values=None, times=None) -> None:
        """Vectorized bulk :meth:`update`.

        Priorities for the whole batch are drawn (or hashed) at once.  The
        retention cap can only move at a tightening trigger — the first
        *accepted* item once ``items_seen`` reaches the cadence counter —
        so the batch splits into cap-constant segments: each segment is
        threshold-tested in one numpy pass and queued in the store, which
        merges only when the cap is re-solved, exactly where the scalar
        loop would re-solve it.  Seed-for-seed identical to scalar
        ingestion.
        """
        keys = _as_key_list(keys)
        n = len(keys)
        if n == 0:
            return
        w = _as_optional_array(weights, n, "weights")
        v = _as_optional_array(values, n, "values")
        self.check_columns({"weights": w})
        pr = self._batch_priorities(keys, w)
        wcol = np.ones(n) if w is None else w
        vcol = wcol if v is None else v
        store = self._store
        base = self.items_seen

        pos = 0
        while pos < n:
            acc = pr[pos:] < store.cap
            # The tightening trigger fires at the first accepted item from
            # batch index >= jmin (0-based; items_seen = base + j + 1).
            trigger = n
            if self.horizon is not None:
                jmin = max(pos, self._next_tighten - base - 1)
                if jmin < n:
                    rel = np.argmax(acc[jmin - pos:])
                    if acc[jmin - pos + rel]:
                        trigger = jmin + int(rel)
            end = min(n, trigger + 1)
            taken = pos + acc[: end - pos].nonzero()[0]
            if taken.size < end - pos:
                self._cap_ever_bound = True
                rows = take_keys(keys, taken)
            else:
                rows = keys[pos:end]
            if taken.size:
                store.offer(pr[taken], rows, weights=wcol[taken],
                            values=vcol[taken])
            self.items_seen = base + end
            if trigger < n:
                self._tighten()
            pos = end

    def provisional_threshold(self) -> float:
        """First-crossing stopping threshold over the retained items,
        solved once per :attr:`state_version` (every read — ``sample()``,
        ``estimate()``, a query — goes through here)."""
        version = self.state_version
        cached = self.__dict__.get("_threshold_cache")
        if cached is not None and cached[0] == version:
            return cached[1]
        store = self._store
        store.merge()
        threshold = solve_first_crossing(
            store.columns["values"], store.columns["weights"],
            store.priorities, self.delta, self.family,
        )
        self._threshold_cache = (version, threshold)
        return threshold

    def finalize(self) -> tuple[Sample, bool]:
        """Final sample plus a soundness flag.

        The flag is True when the chosen threshold lies strictly inside the
        retained region (the retention cap never truncated the information
        the stopping rule needed).
        """
        t_star = self.provisional_threshold()
        cap = self._store.cap
        sound = (not self._cap_ever_bound) or t_star < cap
        threshold = min(t_star, cap)
        rows = self._store.below(threshold)
        sample = Sample(
            keys=rows["keys"],
            values=rows["values"],
            weights=rows["weights"],
            priorities=rows["priorities"],
            thresholds=np.full(len(rows["keys"]), threshold),
            family=self.family,
            population_size=self.items_seen,
        )
        return sample, sound

    def sample(self) -> Sample:
        """The finalized sample (see :meth:`finalize` for the soundness flag)."""
        return self.finalize()[0]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support: the solved threshold goes with the query
        cache, since a revived copy restarts its ``state_version``."""
        state = super().__getstate__()
        state.pop("_threshold_cache", None)
        return state

    def _config(self) -> dict:
        return {
            "delta": self.delta,
            "horizon": self.horizon,
            "oversample": self.oversample,
            **self._priority_config(),
        }

    def _get_state(self) -> dict:
        rows = self._store.rows(_ROW)
        return {
            "priorities": [row[0] for row in rows],
            "records": [list(row[1:]) for row in rows],
            "cap": self._store.cap,
            "cap_ever_bound": self._cap_ever_bound,
            "items_seen": self.items_seen,
            "next_tighten": self._next_tighten,
            "rng": rng_to_state(self.rng),
        }

    def _set_state(self, state: dict) -> None:
        self._store = BottomKStore(None, _ROW[2:], cap=float(state["cap"]))
        self._store.load_rows(
            [(p, *record) for p, record in
             zip(state["priorities"], state["records"])], _ROW)
        self._cap_ever_bound = bool(state["cap_ever_bound"])
        self.items_seen = int(state["items_seen"])
        self._next_tighten = int(state.get("next_tighten", 256))
        self.rng = rng_from_state(state["rng"])
