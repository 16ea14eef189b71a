"""Horvitz–Thompson estimation for threshold samples (Sections 2.2, 2.6.1).

Under a fixed (or substitutable adaptive) threshold, item ``i`` is included
independently with pseudo-inclusion probability ``p_i = F_i(T_i)``, and the
classic estimators apply:

* total:            ``S_hat  = sum_i  x_i Z_i / p_i``
* its variance:     ``Var    = sum_i  x_i^2 (1 - p_i) / p_i``        (all items)
* variance estimate:``V_hat  = sum_i  x_i^2 (1 - p_i) / p_i^2 Z_i``  (sample only)

Threshold substitution (Theorem 4) is what licenses plugging *adaptive*
thresholds into these formulas; the tests verify unbiasedness both exactly
(fixed thresholds, exhaustive enumeration) and by Monte Carlo (bottom-k,
budget, stratified rules).

All functions take plain arrays so they compose with any sampler; the
:class:`repro.core.sample.Sample` container wraps them for convenience and
the query layer (:mod:`repro.query`) builds its aggregates, variances and
intervals on them.  ``docs/estimators.md`` is the narrative reference:
which estimator is unbiased when, and which variance formula backs which
aggregate.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ht_total",
    "ht_variance_true",
    "ht_variance_estimate",
    "ht_stderr",
    "ht_confidence_interval",
    "hajek_mean",
    "hajek_mean_variance_estimate",
    "ht_ratio_variance_estimate",
    "normal_interval",
    "weighted_quantile",
    "quantile_interval",
    "inclusion_probabilities",
    "canonical_times",
    "time_window_mask",
    "decay_factors",
]


def _validate_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if np.any(probs <= 0.0) or np.any(probs > 1.0):
        raise ValueError("pseudo-inclusion probabilities must lie in (0, 1]")
    return probs


def ht_total(values, probs) -> float:
    """HT estimate of a population total from sampled values and probs.

    ``values`` and ``probs`` cover only the *sampled* items (their Z_i = 1).
    """
    values = np.asarray(values, dtype=float)
    probs = _validate_probs(probs)
    if values.size == 0:
        return 0.0
    return float(np.sum(values / probs))


def ht_variance_true(values, probs) -> float:
    """Exact variance of the HT total under Poisson sampling.

    Requires values and probabilities for the *whole population*; used to
    validate the sample-based estimate and to size variance-target samplers.
    """
    values = np.asarray(values, dtype=float)
    probs = _validate_probs(probs)
    return float(np.sum(values**2 * (1.0 - probs) / probs))


def ht_variance_estimate(values, probs) -> float:
    """Unbiased estimate of the HT total's variance from the sample alone.

    This is the estimator whose unbiasedness under adaptive bottom-k
    thresholds the paper derives in one line from substitutability
    (Section 2.6.1) where the original priority-sampling paper needed a page
    and a half.
    """
    values = np.asarray(values, dtype=float)
    probs = _validate_probs(probs)
    if values.size == 0:
        return 0.0
    return float(np.sum(values**2 * (1.0 - probs) / probs**2))


def ht_stderr(values, probs) -> float:
    """Square root of :func:`ht_variance_estimate` (clipped at zero)."""
    return math.sqrt(max(ht_variance_estimate(values, probs), 0.0))


def ht_confidence_interval(
    values, probs, level: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation CI for the population total.

    Asymptotic normality of the HT total under threshold sampling is exactly
    what the paper's Donsker results (Section 5) deliver, so the usual
    Wald interval is the right default.
    """
    return normal_interval(
        ht_total(values, probs), ht_variance_estimate(values, probs), level
    )


def normal_interval(estimate: float, variance: float, level: float = 0.95) -> tuple[float, float]:
    """Wald interval ``estimate +- z_level * sqrt(variance)``.

    The shared CI primitive of the query layer: every aggregate whose
    variance has an HT plug-in estimate gets its interval from here, so the
    normal-approximation policy (licensed by the paper's Section 5 Donsker
    results) lives in exactly one place.

    Parameters
    ----------
    estimate:
        Point estimate (the interval's center).
    variance:
        Estimated variance of the point estimate; clipped at zero.
    level:
        Confidence level in (0, 1).

    Returns
    -------
    tuple of float
        ``(lower, upper)`` bounds.
    """
    half = _normal_quantile(level) * math.sqrt(max(variance, 0.0))
    return estimate - half, estimate + half


def _normal_quantile(level: float) -> float:
    """Two-sided standard-normal quantile ``z`` for a confidence ``level``.

    ``scipy.special.ndtri`` gives the same bits as ``scipy.stats.norm.ppf``
    at a fraction of the cost, and without importing ``scipy.stats``.
    """
    from scipy.special import ndtri

    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    return float(ndtri(0.5 + level / 2.0))


def ht_ratio_variance_estimate(numerators, denominators, probs) -> float:
    """Linearized variance estimate of the ratio ``sum(y/p) / sum(x/p)``.

    Taylor-linearizing the ratio ``R_hat = Y_hat / X_hat`` around the true
    ratio turns it into an HT total of the residuals ``e_i = (y_i - R_hat
    x_i) / X_hat``, whose plug-in variance estimate is the standard
    ``sum e_i^2 (1 - p_i) / p_i^2`` over the sample.  This is the classic
    survey-sampling ratio variance; it is consistent (not exactly unbiased,
    matching the Hajek estimator it serves).

    Parameters
    ----------
    numerators, denominators:
        Sampled ``y_i`` and ``x_i`` columns (``x_i = 1`` recovers the mean).
    probs:
        Pseudo-inclusion probabilities of the sampled items.
    """
    y = np.asarray(numerators, dtype=float)
    x = np.asarray(denominators, dtype=float)
    probs = _validate_probs(probs)
    if y.size == 0:
        return 0.0
    x_hat = float(np.sum(x / probs))
    if x_hat == 0.0:
        raise ValueError("denominator HT total is zero; ratio is undefined")
    ratio = float(np.sum(y / probs)) / x_hat
    residuals = (y - ratio * x) / x_hat
    return ht_variance_estimate(residuals, probs)


def hajek_mean_variance_estimate(values, probs) -> float:
    """Linearized variance estimate of :func:`hajek_mean`.

    Specializes :func:`ht_ratio_variance_estimate` to the denominator
    ``x_i = 1`` (the HT population-size estimate) — the form the query
    layer's ``mean`` aggregate plugs into its normal intervals.
    """
    values = np.asarray(values, dtype=float)
    return ht_ratio_variance_estimate(values, np.ones_like(values), probs)


def weighted_quantile(values, probs, q: float) -> float:
    """HT-weighted ``q``-quantile of the population value distribution.

    Each sampled value represents ``1 / p_i`` population items, so the
    estimated CDF is ``F_hat(t) = sum_{v_i <= t} (1/p_i) / N_hat``; the
    quantile is the smallest sampled value where ``F_hat`` reaches ``q``.

    Parameters
    ----------
    values:
        Sampled values.
    probs:
        Pseudo-inclusion probabilities of the sampled items.
    q:
        Quantile level in (0, 1).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    values = np.asarray(values, dtype=float)
    probs = _validate_probs(probs)
    if values.size == 0:
        raise ValueError("cannot estimate a quantile from an empty sample")
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(1.0 / probs[order])
    target = q * cum[-1]
    idx = int(np.searchsorted(cum, target, side="left"))
    return float(values[order][min(idx, values.size - 1)])


def quantile_interval(values, probs, q: float, level: float = 0.95) -> tuple[float, float]:
    """Woodruff confidence interval for :func:`weighted_quantile`.

    Inverts a normal interval on the estimated CDF: the variance of
    ``F_hat(t_q)`` at the point estimate follows from the HT plug-in on the
    membership indicators, and the interval endpoints are the quantiles at
    the perturbed levels ``q -+ z * se(F_hat)`` (clipped into (0, 1)).
    Density-free, hence preferred over delta-method intervals that would
    need a kernel estimate of ``f(t_q)``.
    """
    values = np.asarray(values, dtype=float)
    probs = _validate_probs(probs)
    point = weighted_quantile(values, probs, q)
    n_hat = float(np.sum(1.0 / probs))
    indicator = (values <= point).astype(float)
    var_f = ht_ratio_variance_estimate(indicator, np.ones_like(indicator), probs)
    se_f = math.sqrt(max(var_f, 0.0))
    z = _normal_quantile(level)
    eps = 1.0 / max(n_hat, 2.0)
    q_lo = min(max(q - z * se_f, eps), 1.0 - eps)
    q_hi = min(max(q + z * se_f, eps), 1.0 - eps)
    return (
        weighted_quantile(values, probs, q_lo),
        weighted_quantile(values, probs, q_hi),
    )


def hajek_mean(values, probs) -> float:
    """Hájek (ratio) estimate of the population mean.

    ``sum(x/p) / sum(1/p)`` — consistent though not exactly unbiased; the
    denominator is the HT estimate of the population size.  This is the
    M-estimator route of Section 4 applied to the squared-loss objective.
    """
    values = np.asarray(values, dtype=float)
    probs = _validate_probs(probs)
    if values.size == 0:
        raise ValueError("cannot estimate a mean from an empty sample")
    return float(np.sum(values / probs) / np.sum(1.0 / probs))


def inclusion_probabilities(family, thresholds, weights=1.0) -> np.ndarray:
    """Vector of pseudo-inclusion probabilities ``F_i(T_i)``."""
    thresholds = np.asarray(thresholds, dtype=float)
    weights = np.broadcast_to(np.asarray(weights, dtype=float), thresholds.shape)
    return np.asarray(family.pseudo_inclusion(thresholds, weights), dtype=float)


# ----------------------------------------------------------------------
# Time-column canonicalization (shared by the windowed query path)
# ----------------------------------------------------------------------
def canonical_times(times, size: int) -> np.ndarray:
    """Canonicalize a sampler's time column to a float array of ``size``.

    ``None`` (sampler recorded no times) becomes an all-``NaN`` column so
    the windowed masks below uniformly exclude untimed rows instead of
    every call site special-casing the missing column.
    """
    if times is None:
        return np.full(size, np.nan)
    arr = np.asarray(times, dtype=float)
    if arr.size != size:
        raise ValueError("time column length must match the sample")
    return arr


def time_window_mask(times, lo: float | None, hi: float | None) -> np.ndarray:
    """Boolean mask for arrival times in the half-open window ``(lo, hi]``.

    The half-open convention matches the sliding-window sampler's
    ``(now - w, now]`` retention contract, so a query window aligned with
    the sampler's own window selects exactly the retained items.  ``NaN``
    times (rows with no recorded arrival) are always excluded.

    Parameters
    ----------
    times:
        Arrival-time column (may contain NaN).
    lo, hi:
        Window bounds; ``None`` leaves that side unbounded.
    """
    times = np.asarray(times, dtype=float)
    mask = ~np.isnan(times)
    if lo is not None:
        mask &= times > lo
    if hi is not None:
        mask &= times <= hi
    return mask


def decay_factors(times, decay: float, now: float) -> np.ndarray:
    """Exponential decay multipliers ``exp(-decay * (now - t_i))``.

    The duality of Section 2.9: a decayed total is just the HT total of
    decay-discounted values, so the query layer multiplies the value
    column by these factors and reuses the ordinary estimators.  Ages are
    clipped at zero so items stamped (slightly) ahead of ``now`` — e.g.
    merge skew across shards — are never *inflated*; NaN times propagate
    NaN (the windowed mask has already excluded them).
    """
    times = np.asarray(times, dtype=float)
    if decay < 0.0:
        raise ValueError("decay rate must be >= 0")
    ages = now - times
    with np.errstate(invalid="ignore"):
        ages = np.where(ages < 0.0, 0.0, ages)
    return np.exp(-decay * ages)
