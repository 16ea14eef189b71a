"""HT-weighted M-estimation (Section 4.2, Theorem 10).

The paper's asymptotic theory covers estimators defined as maximizers of an
objective ``J_n(theta) = E_n f_theta(X)``: under an adaptive threshold that
converges to a fixed one, the HT-weighted objective

    ``J_hat_n(theta; t) = E_n f_theta(X_i) * 1(R_i < t(X_i)) / F_i(t(X_i))``

converges to the same Gaussian-process limit as the fixed-threshold
objective, so consistency transfers (Theorem 10).  This module implements
the weighted M-estimators the tests and benches use to *demonstrate* that
transfer numerically: weighted means, quantiles, and least-squares
regression, all consuming a :class:`repro.core.sample.Sample`.
"""

from __future__ import annotations

import numpy as np

from ..core import estimators
from ..core.sample import Sample

__all__ = [
    "weighted_mean",
    "weighted_quantile",
    "weighted_least_squares",
    "mestimate_from_sample",
]


def weighted_mean(values, ht_weights) -> float:
    """Minimizer of the HT-weighted squared loss (the Hájek mean)."""
    return estimators.hajek_mean(values, 1.0 / np.asarray(ht_weights, dtype=float))


def weighted_quantile(values, ht_weights, q: float) -> float:
    """Minimizer of the HT-weighted pinball loss (weighted quantile).

    Quantiles are the paper's canonical example of a consistent-but-biased
    M-estimator that the substitution theory alone cannot license but the
    Donsker results do.
    """
    return estimators.weighted_quantile(
        values, 1.0 / np.asarray(ht_weights, dtype=float), q
    )


def weighted_least_squares(X, y, ht_weights) -> np.ndarray:
    """HT-weighted OLS coefficients (regression M-estimator).

    Solves ``min_b sum_i w_i (y_i - X_i b)^2`` via the normal equations
    with ridge jitter for degenerate designs.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(ht_weights, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    Xw = X * w[:, None]
    gram = X.T @ Xw
    gram += 1e-12 * np.eye(gram.shape[0])
    return np.linalg.solve(gram, Xw.T @ y)


def mestimate_from_sample(sample: Sample, kind: str = "mean", **kwargs) -> float:
    """Convenience dispatcher: run an M-estimator on a threshold sample."""
    weights = 1.0 / sample.probabilities
    if kind == "mean":
        return weighted_mean(sample.values, weights)
    if kind == "quantile":
        return weighted_quantile(sample.values, weights, kwargs.get("q", 0.5))
    raise ValueError(f"unknown M-estimator kind: {kind}")
