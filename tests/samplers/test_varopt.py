"""Tests for the VarOpt_k baseline (repro.samplers.varopt)."""

import numpy as np
import pytest

from repro.core.kernels import varopt_tau
from repro.samplers.varopt import VarOptSampler

from tests.helpers import assert_within_se


class TestMechanics:
    def test_exactly_k_retained(self, rng):
        s = VarOptSampler(10, rng=rng)
        for i in range(200):
            s.update(i, float(1 + i % 7))
        assert len(s) == 10

    def test_underfull_exact(self, rng):
        s = VarOptSampler(10, rng=rng)
        for i in range(5):
            s.update(i, 2.0)
        assert s.estimate_total() == pytest.approx(10.0)

    def test_tau_equation(self):
        # sum min(1, w / tau) over the k+1 candidates must equal k.
        weights = np.array([1.0, 2.0, 3.0, 10.0, 0.5])
        tau = varopt_tau(weights)
        assert np.sum(np.minimum(1.0, weights / tau)) == pytest.approx(4.0)

    def test_tau_equation_heavy_tail(self):
        weights = np.array([100.0, 1.0, 1.0, 1.0])
        tau = varopt_tau(weights)
        assert np.sum(np.minimum(1.0, weights / tau)) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VarOptSampler(0)
        with pytest.raises(ValueError):
            VarOptSampler(3).update("x", 0.0)

    def test_large_items_kept_exactly(self, rng):
        s = VarOptSampler(5, rng=rng)
        s.update("whale", 1000.0)
        for i in range(100):
            s.update(i, 1.0)
        items = dict(s.items())
        assert items.get("whale") == pytest.approx(1000.0)


class TestEstimation:
    def test_total_unbiased(self):
        weights = np.random.default_rng(0).lognormal(0, 0.8, 80)
        truth = weights.sum()
        estimates = []
        for seed in range(500):
            s = VarOptSampler(12, rng=np.random.default_rng(seed))
            for i, w in enumerate(weights):
                s.update(i, float(w))
            estimates.append(s.estimate_total())
        assert_within_se(estimates, truth)

    def test_subset_sum_unbiased(self):
        weights = np.random.default_rng(1).lognormal(0, 0.6, 60)
        subset = set(range(0, 60, 3))
        truth = float(sum(w for i, w in enumerate(weights) if i in subset))
        estimates = []
        for seed in range(500):
            s = VarOptSampler(12, rng=np.random.default_rng(seed))
            for i, w in enumerate(weights):
                s.update(i, float(w))
            estimates.append(s.estimate_total(lambda key: key in subset))
        assert_within_se(estimates, truth)

    def test_total_variance_below_priority_sampling(self):
        """VarOpt is variance-optimal: its total estimate beats priority
        sampling's at the same k (the A1 ablation's expected ordering)."""
        from repro.samplers.bottomk import BottomKSampler

        weights = np.random.default_rng(2).lognormal(0, 1.0, 100)
        varopt_est, priority_est = [], []
        for seed in range(300):
            vo = VarOptSampler(15, rng=np.random.default_rng(seed))
            bk = BottomKSampler(15, rng=np.random.default_rng(seed + 1000))
            for i, w in enumerate(weights):
                vo.update(i, float(w))
                bk.update(i, weight=float(w))
            varopt_est.append(vo.estimate_total())
            priority_est.append(bk.estimate_total())
        assert np.var(varopt_est) < np.var(priority_est)
