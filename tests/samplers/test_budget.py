"""Tests for the memory-budget sampler (repro.samplers.budget, Section 3.1)."""

import numpy as np
import pytest

from repro.core.priorities import Uniform01Priority
from repro.core.thresholds import BudgetPrefix
from repro.samplers.budget import BudgetSampler
from repro.workloads.sizes import SURVEY_MAX_SIZE, survey_sizes

from tests.helpers import assert_within_se


class TestBudgetInvariant:
    @pytest.mark.parametrize("seed", range(5))
    def test_never_exceeds_budget(self, seed):
        rng = np.random.default_rng(seed)
        s = BudgetSampler(100.0, rng=rng)
        for i in range(300):
            s.update(i, size=float(rng.integers(1, 30)))
            assert s.used <= 100.0

    def test_oversized_item_never_retained(self, rng):
        s = BudgetSampler(10.0, rng=rng)
        s.update("huge", size=50.0)
        for i in range(50):
            s.update(i, size=1.0)
        assert "huge" not in s.sample().keys
        assert s.used <= 10.0

    def test_negative_size_rejected(self, rng):
        s = BudgetSampler(10.0, rng=rng)
        with pytest.raises(ValueError):
            s.update("x", size=-1.0)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            BudgetSampler(0.0)


class TestOfflineEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_streaming_matches_offline_rule(self, seed):
        """The streaming eviction must land exactly on the prefix rule."""
        rng = np.random.default_rng(seed)
        n = 60
        sizes = rng.integers(1, 12, n).astype(float)
        s = BudgetSampler(40.0, family=Uniform01Priority(), coordinated=True, salt=seed)
        from repro.core.hashing import hash_to_unit

        priorities = np.array([hash_to_unit(i, seed) for i in range(n)])
        for i in range(n):
            s.update(i, size=float(sizes[i]))
        offline = BudgetPrefix(sizes, budget=40.0)
        expected_t = offline.thresholds(priorities)[0]
        expected_keys = set(np.flatnonzero(priorities < expected_t).tolist())
        assert s.threshold == pytest.approx(expected_t)
        assert set(s.sample().keys) == expected_keys

    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
    def test_repeated_keys_match_offline_rule(self, seed, batch):
        """On a coordinated feed a repeated key draws the same priority
        each time; copies tied with the threshold leave the sample, since
        the rule keeps only ``R_i < T``."""
        from repro.core.hashing import hash_to_unit

        if seed is None:
            keys, sizes, budget = [0, 1, 0, 2, 1, 3], np.ones(6), 3.0
        else:
            rng = np.random.default_rng(seed)
            keys = rng.integers(0, 15, 60).tolist()
            sizes, budget = rng.integers(1, 6, 60).astype(float), 20.0
        salt = 0 if seed is None else seed
        s = BudgetSampler(budget, family=Uniform01Priority(), coordinated=True,
                          salt=salt)
        if batch:
            s.update_many(keys, sizes=sizes)
        else:
            for key, size in zip(keys, sizes):
                s.update(key, size=float(size))
        priorities = np.array([hash_to_unit(key, salt) for key in keys])
        expected_t = BudgetPrefix(sizes, budget=budget).thresholds(priorities)[0]
        expected_keys = sorted(np.asarray(keys)[priorities < expected_t].tolist())
        assert s.threshold == expected_t
        assert sorted(s.sample().keys) == expected_keys

    def test_threshold_monotone_decreasing(self, rng):
        s = BudgetSampler(50.0, rng=rng)
        last = float("inf")
        for i in range(400):
            s.update(i, size=float(rng.integers(1, 10)))
            assert s.threshold <= last
            last = s.threshold


class TestEstimation:
    def test_count_estimate_unbiased(self):
        n = 150
        sizes = np.random.default_rng(0).integers(1, 8, n).astype(float)
        estimates = []
        for trial in range(500):
            s = BudgetSampler(80.0, rng=np.random.default_rng(trial))
            for i in range(n):
                s.update(i, size=float(sizes[i]))
            estimates.append(s.sample().distinct_estimate())
        assert_within_se(estimates, float(n))

    def test_subset_sum_unbiased(self):
        n = 100
        rng0 = np.random.default_rng(3)
        sizes = rng0.integers(1, 6, n).astype(float)
        values = rng0.lognormal(0, 0.4, n)
        subset = set(range(0, n, 4))
        truth = sum(values[i] for i in subset)
        estimates = []
        for trial in range(500):
            s = BudgetSampler(70.0, rng=np.random.default_rng(trial))
            for i in range(n):
                s.update(i, size=float(sizes[i]), weight=1.0, value=float(values[i]))
            estimates.append(s.estimate_total(lambda key: key in subset))
        assert_within_se(estimates, truth)


class TestSurveyScenario:
    def test_conservative_k_formula(self):
        assert BudgetSampler.conservative_bottomk_size(10_000, 100) == 100
        with pytest.raises(ValueError):
            BudgetSampler.conservative_bottomk_size(100.0, 0.0)

    def test_utilization_ratio_near_four(self):
        """The paper's §3.1 headline on survey-like sizes."""
        rng = np.random.default_rng(1)
        sizes = survey_sizes(3000, rng)
        budget = 40 * sizes.mean()
        k_cons = BudgetSampler.conservative_bottomk_size(budget, SURVEY_MAX_SIZE)
        adaptive = []
        for trial in range(10):
            s = BudgetSampler(budget, rng=np.random.default_rng(trial))
            for i, size in enumerate(sizes):
                s.update(i, size=float(size))
            adaptive.append(len(s))
        ratio = np.mean(adaptive) / k_cons
        assert 2.5 < ratio < 6.0  # paper: ~4.04
