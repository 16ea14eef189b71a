"""Tests for the memory-budget sampler (repro.samplers.budget, Section 3.1)."""

import os

import numpy as np
import pytest

from repro.core.hashing import hash_to_unit
from repro.core.priorities import Uniform01Priority
from repro.core.thresholds import BudgetPrefix
from repro.samplers.budget import BudgetSampler
from repro.workloads.sizes import SURVEY_MAX_SIZE, survey_sizes

from tests.helpers import assert_within_se

#: Trials per seeded battery: a few hundred by default, 3000 under
#: ``REPRO_SOAK=1``.
TRIALS = 3000 if os.environ.get("REPRO_SOAK") else 300


def _fractional_feed(trial):
    """Trial ``trial``'s feed: 4-40 distinct keys with sizes in tenths
    from 0.1 to 1.0 and a budget from 1.0 to 6.0, so running totals are
    inexact in binary and their summation order shows; plus a cut point
    for a checkpoint."""
    rng = np.random.default_rng(trial)
    n = int(rng.integers(4, 41))
    sizes = rng.integers(1, 11, n) / 10.0
    budget = float(rng.integers(10, 61)) / 10.0
    return list(range(n)), sizes, budget, int(rng.integers(1, n)), rng


def _feed_scalar(sampler, keys, sizes):
    for key, size in zip(keys, sizes):
        sampler.update(key, size=float(size))


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


class TestSeededBatteries:
    """The live path, the batch path, a restored checkpoint and
    :class:`BudgetPrefix` sum the same sizes in the same (priority)
    order, so they agree bit for bit on fractional sizes."""

    def test_fractional_sizes_resume_bit_exactly(self):
        """Running totals summed in arrival order once kept keys
        ``[0, 2, 3]`` at threshold 0.914 live and all four at +inf after
        a restore."""
        sizes = [0.4, 0.2, 0.3, 0.4]
        live = BudgetSampler(1.3, coordinated=True, salt=1)
        _feed_scalar(live, range(3), sizes[:3])
        restored = BudgetSampler.from_state(live.to_state())
        for s in (live, restored):
            s.update(3, size=sizes[3])
        priorities = np.array([hash_to_unit(key, 1) for key in range(4)])
        expected_t = BudgetPrefix(sizes, budget=1.3).thresholds(priorities)[0]
        assert live.threshold == restored.threshold == expected_t
        assert sorted(live.sample().keys) == sorted(restored.sample().keys) \
            == np.flatnonzero(priorities < expected_t).tolist()

    def test_resume_matches_the_live_sampler(self):
        diverged = []
        for trial in range(TRIALS):
            keys, sizes, budget, cut, _ = _fractional_feed(trial)
            live = BudgetSampler(budget, coordinated=True, salt=trial)
            _feed_scalar(live, keys[:cut], sizes[:cut])
            restored = BudgetSampler.from_state(live.to_state())
            for s in (live, restored):
                _feed_scalar(s, keys[cut:], sizes[cut:])
            if restored.threshold != live.threshold or \
                    repr(restored.to_state()) != repr(live.to_state()):
                diverged.append(trial)
        assert diverged == []

    @pytest.mark.parametrize("batch", [False, True],
                             ids=["scalar", "update_many"])
    def test_matches_budget_prefix(self, batch):
        diverged = []
        for trial in range(TRIALS):
            keys, sizes, budget, _, rng = _fractional_feed(trial)
            s = BudgetSampler(budget, coordinated=True, salt=trial)
            if batch:
                lo = 0
                while lo < len(keys):
                    hi = lo + int(rng.integers(1, len(keys) + 1))
                    s.update_many(keys[lo:hi], sizes=sizes[lo:hi])
                    lo = hi
            else:
                _feed_scalar(s, keys, sizes)
            priorities = np.array([hash_to_unit(key, trial) for key in keys])
            expected_t = BudgetPrefix(sizes, budget).thresholds(priorities)[0]
            if s.threshold != expected_t or sorted(s.sample().keys) != \
                    np.flatnonzero(priorities < expected_t).tolist():
                diverged.append(trial)
        assert diverged == []
