"""Tests for the asymptotic-theory reproductions (repro.asymptotics, §4–6)."""

import numpy as np
import pytest

from repro.asymptotics.empirical_process import (
    analytic_covariance,
    gaussianity_diagnostics,
    simulate_process,
)
from repro.asymptotics.equivalence import (
    inclusion_disagreement,
    linearization_weights,
    uniformizing_transform,
)
from repro.asymptotics.heuristics import (
    deterministic_threshold,
    heuristic_vs_exact,
)
from repro.asymptotics.mestimators import (
    weighted_least_squares,
    weighted_mean,
    weighted_quantile,
)
from repro.core.priorities import ExponentialPriority, InverseWeightPriority
from repro.core.thresholds import BottomK


class TestMEstimators:
    def test_full_sample_mean(self):
        values = np.array([1.0, 5.0, 3.0])
        assert weighted_mean(values, np.ones(3)) == pytest.approx(3.0)

    def test_full_sample_quantile(self, rng):
        values = rng.normal(size=1001)
        med = weighted_quantile(values, np.ones(1001), 0.5)
        assert med == pytest.approx(np.median(values), abs=0.02)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            weighted_quantile(np.array([1.0]), np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            weighted_quantile(np.array([]), np.array([]), 0.5)

    def test_ht_weighted_definitions(self, rng):
        """At HT weights ``w = 1/p`` the mean is ``sum(w x) / sum(w)`` and
        the quantile the smallest value whose cumulative weight reaches
        ``q`` of the total, ties in the values included."""
        values = rng.integers(0, 20, 200).astype(float)
        weights = 1.0 / rng.uniform(0.05, 1.0, 200)
        assert weighted_mean(values, weights) == pytest.approx(
            np.sum(values * weights) / np.sum(weights)
        )
        order = np.argsort(values, kind="stable")
        cum = np.cumsum(weights[order])
        for q in (0.1, 0.25, 0.5, 0.9):
            expected = values[order][np.searchsorted(cum, q * cum[-1])]
            assert weighted_quantile(values, weights, q) == expected
        with pytest.raises(ValueError):
            weighted_mean(np.array([]), np.array([]))

    def test_wls_recovers_coefficients(self, rng):
        n = 2000
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        beta = np.array([2.0, -1.5])
        y = X @ beta + 0.1 * rng.normal(size=n)
        est = weighted_least_squares(X, y, np.ones(n))
        np.testing.assert_allclose(est, beta, atol=0.02)

    def test_consistency_under_adaptive_threshold(self):
        """Theorem 10, measured: quantile M-estimates under bottom-k
        converge to the population quantile as n grows."""
        errors = {}
        for n in (200, 3200):
            rng = np.random.default_rng(n)
            values = rng.lognormal(0.0, 1.0, n)
            truth = np.quantile(values, 0.5)
            acc = []
            for trial in range(40):
                trial_rng = np.random.default_rng((n, trial))
                u = trial_rng.random(n)
                t = BottomK(max(20, n // 10)).thresholds(u)[0]
                mask = u < t
                weights = 1.0 / np.full(mask.sum(), min(t, 1.0))
                acc.append(abs(weighted_quantile(values[mask], weights, 0.5) - truth))
            errors[n] = np.mean(acc)
        assert errors[3200] < 0.6 * errors[200]


class TestEquivalence:
    def test_linearization_weights_exponential(self):
        fam = ExponentialPriority()
        w = np.array([0.5, 1.0, 4.0])
        np.testing.assert_allclose(linearization_weights(fam, w), w, rtol=1e-4)

    def test_linearization_weights_inverse(self):
        fam = InverseWeightPriority()
        w = np.array([0.5, 2.0])
        np.testing.assert_allclose(linearization_weights(fam, w), w, rtol=1e-6)

    def test_uniformizing_transform_makes_reference_uniform(self, rng):
        from scipy import stats

        fam = ExponentialPriority()
        transform = uniformizing_transform(fam, reference_weight=1.0)
        u = rng.random(20_000)
        transformed = np.asarray(transform.inverse_cdf(u, 1.0))
        assert stats.kstest(transformed, "uniform").pvalue > 1e-4

    def test_disagreement_vanishes_faster_than_t(self):
        """Lemma 13: P(disagree) = o(t), so the ratio must fall with t."""
        fam = ExponentialPriority()
        weights = np.array([0.5, 1.0, 2.0, 4.0])
        ratios = []
        for t in (0.2, 0.02, 0.002):
            p = inclusion_disagreement(
                fam, weights, t, n_trials=400_000, rng=np.random.default_rng(1)
            )
            ratios.append(p / t)
        assert ratios[2] < ratios[1] < ratios[0]
        assert ratios[2] < 0.15 * ratios[0]


class TestEmpiricalProcess:
    @pytest.fixture
    def setup(self, rng):
        n = 400
        weights = rng.lognormal(0, 0.4, n)
        thresholds = np.array([0.05, 0.1, 0.2])
        return weights.copy(), weights, thresholds

    def test_process_mean_near_zero(self, setup):
        values, weights, thresholds = setup
        reps = simulate_process(values, weights, thresholds, 400,
                                rng=np.random.default_rng(2))
        diag = gaussianity_diagnostics(reps)
        scale = np.sqrt(np.diag(diag["covariance"]).max() / 400)
        assert diag["max_abs_mean"] < 5 * scale

    def test_covariance_matches_analytic(self, setup):
        values, weights, thresholds = setup
        reps = simulate_process(values, weights, thresholds, 1500,
                                rng=np.random.default_rng(3))
        empirical = np.cov(reps.T)
        analytic = analytic_covariance(values, weights, thresholds)
        np.testing.assert_allclose(empirical, analytic, rtol=0.25)

    def test_marginals_gaussian(self, setup):
        values, weights, thresholds = setup
        reps = simulate_process(values, weights, thresholds, 800,
                                rng=np.random.default_rng(4))
        diag = gaussianity_diagnostics(reps)
        assert np.all(diag["normality_pvalues"] > 1e-5)

    def test_nested_thresholds_positively_correlated(self, setup):
        values, weights, thresholds = setup
        analytic = analytic_covariance(values, weights, thresholds)
        assert np.all(analytic > 0)
        # Covariance with the smaller threshold dominates (nesting).
        assert analytic[0, 0] >= analytic[0, 2]


class TestHeuristics:
    def test_deterministic_threshold_solves_equation(self, rng):
        weights = rng.lognormal(0, 0.5, 500)
        delta = 0.05 * weights.sum()
        t = deterministic_threshold(weights, weights, delta)
        probs = np.minimum(1.0, weights * t)
        true_var = np.sum(weights**2 * (1 - probs) / probs)
        assert true_var == pytest.approx(delta**2, rel=1e-4)

    def test_comparison_runs_and_reports(self, rng):
        weights = rng.lognormal(0, 0.5, 800)
        comp = heuristic_vs_exact(weights, weights, 0.08 * weights.sum(),
                                  rng=np.random.default_rng(5))
        assert comp.n == 800
        assert comp.heuristic_threshold <= comp.exact_threshold + 1e-9
        assert np.isfinite(comp.exact_error)

    def test_gap_shrinks_with_n(self):
        gaps = {}
        for n in (300, 4800):
            rng = np.random.default_rng(n)
            weights = rng.lognormal(0, 0.5, n)
            probs = np.minimum(1.0, weights * 0.05)
            delta = float(np.sqrt(np.sum(weights**2 * (1 - probs) / probs)))
            acc = []
            for trial in range(30):
                comp = heuristic_vs_exact(
                    weights, weights, delta, rng=np.random.default_rng((n, trial))
                )
                acc.append(
                    abs(comp.heuristic_threshold - comp.exact_threshold)
                )
            gaps[n] = np.mean(acc)
        assert gaps[4800] < 0.6 * gaps[300]
