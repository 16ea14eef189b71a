"""Tests for variance-sized sampling (repro.samplers.variance_sized, §3.9/§6)."""

import os

import numpy as np
import pytest

from repro.api.protocol import family_from_name
from repro.core.priorities import InverseWeightPriority
from repro.samplers.variance_sized import (
    VarianceTargetSampler,
    solve_first_crossing,
    solve_stopping_threshold,
)


def vhat_at(values, weights, priorities, t):
    fam = InverseWeightPriority()
    mask = priorities < t
    probs = np.asarray(fam.pseudo_inclusion(t, weights[mask]), dtype=float)
    return float(
        np.sum(
            np.where(probs < 1.0, values[mask] ** 2 * (1 - probs) / probs**2, 0.0)
        )
    )


#: Trials of the seeded battery: a few hundred by default, 3000 under
#: ``REPRO_SOAK=1``.
TRIALS = 3000 if os.environ.get("REPRO_SOAK") else 300

#: ``(solve_first_crossing, solve_stopping_threshold)`` on
#: :func:`_pinned_population` at ``delta = fraction * values.sum()``, as
#: the solvers computed them before their bisections shared one helper.
PINNED_THRESHOLDS = {
    ("inverse_weight", 1.0): (0.006269728387543928, 0.022880506193607833),
    ("inverse_weight", 0.1): (0.39102026816675006, 0.40144830382124275),
    ("inverse_weight", 0.003): (3.285775442376111, 4.379294016177517),
    ("inverse_weight", 0.001): (6.71730071412993, 6.71730071412993),
    ("exponential", 1.0): (0.006286194234545029, 0.023259780601683846),
    ("exponential", 0.1): (0.6760476001428788, 0.6760476001428788),
    ("exponential", 0.003): (11.16009718700122, 11.16009718700122),
    ("exponential", 0.001): (19.18547131113651, 19.18547131113651),
    ("uniform", 1.0): (0.005234155079712279, 0.03359471946906539),
    ("uniform", 0.1): (0.606518583475156, 0.7625769166395443),
    ("uniform", 0.003): (0.9996842719360768, 0.9996842719360768),
    ("uniform", 0.001): (0.9999648994056116, 0.9999648994056116),
}


def _pinned_population():
    rng = np.random.default_rng(20240531)
    weights = rng.lognormal(0.0, 0.7, 60)
    values = weights * rng.uniform(0.5, 2.0, 60)
    return values, weights, rng.random(60)


@pytest.fixture
def population(rng):
    n = 120
    weights = rng.lognormal(0, 0.6, n)
    return weights.copy(), weights, rng.random(n) / weights


class TestSolvers:
    def test_crossings_hit_target_exactly(self, population):
        values, weights, priorities = population
        delta = 0.08 * values.sum()
        for solver in (solve_stopping_threshold, solve_first_crossing):
            t = solver(values, weights, priorities, delta)
            assert np.isfinite(t)
            assert vhat_at(values, weights, priorities, t) == pytest.approx(
                delta**2, rel=1e-6
            )

    def test_first_crossing_not_above_largest(self, population):
        values, weights, priorities = population
        delta = 0.08 * values.sum()
        first = solve_first_crossing(values, weights, priorities, delta)
        largest = solve_stopping_threshold(values, weights, priorities, delta)
        assert first <= largest + 1e-12

    def test_unreachable_target_returns_inf(self, population):
        values, weights, priorities = population
        # Absurdly loose target: no downsampling needed.
        t = solve_stopping_threshold(values, weights, priorities, 1e9)
        assert np.isinf(t)

    def test_delta_validation(self, population):
        values, weights, priorities = population
        with pytest.raises(ValueError):
            solve_stopping_threshold(values, weights, priorities, 0.0)

    def test_empty_population(self):
        t = solve_stopping_threshold(
            np.array([]), np.array([]), np.array([]), 1.0
        )
        assert np.isinf(t)

    def test_expected_vhat_equals_target(self):
        """The §3.9 claim E[Vhat(S_T)] = delta^2 (holds by construction
        whenever the crossing is interior, which it is a.s.)."""
        rng = np.random.default_rng(0)
        n = 150
        weights = rng.lognormal(0, 0.5, n)
        values = weights.copy()
        delta = 0.06 * values.sum()
        measured = []
        for _ in range(50):
            priorities = rng.random(n) / weights
            t = solve_stopping_threshold(values, weights, priorities, delta)
            measured.append(vhat_at(values, weights, priorities, t))
        assert np.mean(measured) == pytest.approx(delta**2, rel=1e-6)

    def test_realized_mse_tracks_target(self):
        rng = np.random.default_rng(1)
        n = 400
        weights = rng.lognormal(0, 0.5, n)
        values = weights.copy()
        truth = values.sum()
        delta = 0.05 * truth
        fam = InverseWeightPriority()
        sq = []
        for _ in range(400):
            priorities = rng.random(n) / weights
            t = solve_stopping_threshold(values, weights, priorities, delta)
            mask = priorities < t
            probs = np.asarray(fam.pseudo_inclusion(t, weights[mask]))
            sq.append((float(np.sum(values[mask] / probs)) - truth) ** 2)
        assert np.mean(sq) == pytest.approx(delta**2, rel=0.35)


class TestPinnedThresholds:
    @pytest.mark.parametrize("family,fraction", list(PINNED_THRESHOLDS))
    def test_solvers_reproduce_the_pinned_thresholds(self, family, fraction):
        """Interior crossings and crossings above the largest priority
        (the doubling search) under each family, compared exactly."""
        values, weights, u = _pinned_population()
        fam = family_from_name(family)
        priorities = np.asarray(fam.inverse_cdf(u, weights), dtype=float)
        delta = fraction * values.sum()
        got = (solve_first_crossing(values, weights, priorities, delta, fam),
               solve_stopping_threshold(values, weights, priorities, delta,
                                        fam))
        assert got == PINNED_THRESHOLDS[family, fraction]


class TestStreamingSampler:
    def test_no_horizon_retains_and_is_sound(self, rng):
        weights = rng.lognormal(0, 0.5, 200)
        s = VarianceTargetSampler(delta=weights.sum() * 0.1, rng=rng)
        for i, w in enumerate(weights):
            s.update(i, weight=float(w))
        sample, sound = s.finalize()
        assert sound
        assert len(s._store) == 200  # nothing evicted

    def test_horizon_bounds_memory(self, rng):
        n = 2000
        weights = rng.lognormal(0, 0.5, n)
        s = VarianceTargetSampler(
            delta=weights.sum() * 0.05, horizon=n, oversample=2.0, rng=rng
        )
        for i, w in enumerate(weights):
            s.update(i, weight=float(w))
        assert len(s._store) < n / 2  # retention cap engaged
        sample, sound = s.finalize()
        if sound:
            # A sound run must agree with the offline first-crossing rule.
            assert float(sample.thresholds[0]) == pytest.approx(
                s.provisional_threshold()
            )

    def test_horizon_runs_usually_sound_and_accurate(self):
        n = 1500
        rng0 = np.random.default_rng(5)
        weights = rng0.lognormal(0, 0.5, n)
        truth = weights.sum()
        delta = 0.05 * truth
        sound_count = 0
        errors = []
        trials = 40
        for seed in range(trials):
            s = VarianceTargetSampler(
                delta, horizon=n, oversample=2.0, rng=np.random.default_rng(seed)
            )
            for i, w in enumerate(weights):
                s.update(i, weight=float(w))
            sample, sound = s.finalize()
            sound_count += int(sound)
            errors.append(abs(sample.ht_total() - truth) / truth)
        assert sound_count >= 0.9 * trials
        assert np.median(errors) < 0.15

    def test_an_infinite_priority_is_refused_on_both_paths(self):
        """A zero weight draws priority +inf: the scalar loop refuses it
        even below an infinite cap, and so does ``update_many``."""
        keys, weights = [1, 2, 3], [1.0, 0.0, 2.0]
        scalar = VarianceTargetSampler(delta=5.0, rng=1)
        batch = VarianceTargetSampler(delta=5.0, rng=1)
        with np.errstate(divide="ignore"):
            for key, w in zip(keys, weights):
                scalar.update(key, w)
            batch.update_many(keys, weights)
        assert repr(batch.to_state()) == repr(scalar.to_state())
        assert len(batch._store) == 2

    @pytest.mark.parametrize(
        "family", ["inverse_weight", "exponential", "uniform"])
    def test_a_tightened_cap_checkpoints_as_its_restore_does(self, family):
        """After a horizon-triggered tighten, ``cap`` is a Python float,
        so the live checkpoint and its restored copy's read the same."""
        weights = np.random.default_rng(1).lognormal(0.0, 0.6, 600)
        s = VarianceTargetSampler(delta=20.0, horizon=600, family=family,
                                  rng=1)
        s.update_many(np.arange(600), weights)
        state = s.to_state()
        assert type(state["state"]["cap"]) is float
        assert state["state"]["cap"] < np.inf
        restored = VarianceTargetSampler.from_state(state)
        assert repr(restored.to_state()) == repr(state)

    def test_validation(self):
        with pytest.raises(ValueError):
            VarianceTargetSampler(delta=0.0)
        with pytest.raises(ValueError):
            VarianceTargetSampler(delta=1.0, oversample=0.5)
        with pytest.raises(ValueError):
            VarianceTargetSampler(delta=1.0, horizon=0)

    def test_stopping_threshold_is_solved_once_per_state_version(
        self, monkeypatch
    ):
        """Reads share one solve of the stopping threshold; an update,
        a direct offer, an in-place restore and a pickled copy each
        solve afresh, and every read still gets fresh sample arrays."""
        import pickle

        from repro.samplers import variance_sized

        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return solve_first_crossing(*args, **kwargs)

        monkeypatch.setattr(variance_sized, "solve_first_crossing", counting)
        rng = np.random.default_rng(3)
        s = VarianceTargetSampler(delta=20.0, family="exponential", rng=4)
        s.update_many(np.arange(300), rng.lognormal(0.0, 1.0, 300))
        solves.clear()

        total = s.estimate_total()
        first, second = s.sample(), s.sample()
        assert s.estimate_total() == total
        assert len(solves) == 1
        assert first.values is not second.values
        assert first.keys is not second.keys

        s.update(10**6, weight=2.0)
        s.sample()
        s.sample()
        assert len(solves) == 2
        s.offer_with_priority(10**6 + 1, 0.0, weight=2.0)
        s.sample()
        assert len(solves) == 3

        s._set_state(s.to_state()["state"])
        s.sample()
        assert len(solves) == 4
        VarianceTargetSampler.from_state(s.to_state()).sample()
        assert len(solves) == 5

        copy = pickle.loads(pickle.dumps(s))
        assert "_threshold_cache" not in copy.__dict__
        assert copy.estimate_total() == s.estimate_total()
        assert len(solves) == 6


def _tied_feed(trial):
    """Trial ``trial``'s coordinated feed: 20-340 events over a small key
    pool with one weight per key, so repeated keys tie; each event's
    value is its arrival number."""
    rng = np.random.default_rng(trial)
    n = int(rng.integers(20, 341))
    pool = int(rng.integers(2, max(3, n // 4)))
    ids = rng.integers(0, pool, n)
    weights = rng.lognormal(0.0, 0.6, pool)[ids]
    values = np.arange(1.0, n + 1)
    family = ("inverse_weight", "exponential", "uniform")[trial % 3]
    params = {"delta": 0.05 * values.sum(), "horizon": n, "family": family,
              "coordinated": True, "salt": trial}
    return ids.tolist(), weights, values, params, rng


class TestSeededBattery:
    def test_scalar_batch_and_restore_agree_with_ties_in_arrival_order(self):
        """The scalar loop, random ``update_many`` chunks and a restore
        at a random cut hold the same rows in the same order, and rows
        tied on a repeated key stay in arrival order."""
        diverged = []
        for trial in range(TRIALS):
            keys, weights, values, params, rng = _tied_feed(trial)
            n = len(keys)
            scalar = VarianceTargetSampler(**params)
            for i, key in enumerate(keys):
                scalar.update(key, float(weights[i]), value=float(values[i]))
            batch = VarianceTargetSampler(**params)
            lo = 0
            while lo < n:
                hi = lo + int(rng.integers(1, n + 1))
                batch.update_many(keys[lo:hi], weights[lo:hi], values[lo:hi])
                lo = hi
            cut = int(rng.integers(1, n))
            resumed = VarianceTargetSampler(**params)
            resumed.update_many(keys[:cut], weights[:cut], values[:cut])
            resumed = VarianceTargetSampler.from_state(resumed.to_state())
            resumed.update_many(keys[cut:], weights[cut:], values[cut:])
            state = scalar.to_state()
            rows = state["state"]
            arrivals = [row[2] for row in rows["records"]]
            ties_in_order = all(
                arrivals[i] < arrivals[i + 1]
                for i in range(len(arrivals) - 1)
                if rows["priorities"][i] == rows["priorities"][i + 1]
            )
            if repr(batch.to_state()) != repr(state) or \
                    repr(resumed.to_state()) != repr(state) or \
                    not ties_in_order:
                diverged.append(trial)
        assert diverged == []
