"""Tests for HT estimation (repro.core.estimators).

Fixed-threshold designs admit exact enumeration of all inclusion patterns,
so unbiasedness here is checked to numerical precision, not statistically.
"""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core import estimators
from repro.core.estimators import (
    hajek_mean,
    ht_confidence_interval,
    ht_stderr,
    ht_total,
    ht_variance_estimate,
    ht_variance_true,
    inclusion_probabilities,
    normal_interval,
    quantile_interval,
)
from repro.core.priorities import InverseWeightPriority, Uniform01Priority

from tests.helpers import enumerate_poisson, exact_expectation


@pytest.fixture
def design():
    values = np.array([1.0, 4.0, 2.5, 7.0, 0.5])
    probs = np.array([0.2, 0.9, 0.5, 0.7, 0.35])
    return values, probs


class TestHTTotal:
    def test_exactly_unbiased(self, design):
        values, probs = design
        expected = exact_expectation(
            probs, lambda mask: ht_total(values[mask], probs[mask])
        )
        assert expected == pytest.approx(values.sum(), abs=1e-10)

    def test_empty_sample_is_zero(self):
        assert ht_total(np.array([]), np.array([])) == 0.0

    def test_rejects_invalid_probs(self):
        with pytest.raises(ValueError):
            ht_total([1.0], [0.0])
        with pytest.raises(ValueError):
            ht_total([1.0], [1.5])

    def test_probability_one_is_identity(self):
        assert ht_total([3.0, 4.0], [1.0, 1.0]) == 7.0


class TestHTVariance:
    def test_true_variance_matches_enumeration(self, design):
        values, probs = design
        total = values.sum()
        second_moment = exact_expectation(
            probs,
            lambda mask: (ht_total(values[mask], probs[mask]) - total) ** 2,
        )
        assert ht_variance_true(values, probs) == pytest.approx(
            second_moment, abs=1e-9
        )

    def test_variance_estimate_exactly_unbiased(self, design):
        values, probs = design
        expected = exact_expectation(
            probs, lambda mask: ht_variance_estimate(values[mask], probs[mask])
        )
        assert expected == pytest.approx(ht_variance_true(values, probs), abs=1e-9)

    def test_stderr_is_sqrt(self, design):
        values, probs = design
        assert ht_stderr(values, probs) == pytest.approx(
            np.sqrt(ht_variance_estimate(values, probs))
        )

    def test_certain_items_contribute_no_variance(self):
        assert ht_variance_estimate([5.0], [1.0]) == 0.0
        assert ht_variance_true([5.0], [1.0]) == 0.0


class TestConfidenceInterval:
    def test_interval_brackets_estimate(self, design):
        values, probs = design
        lo, hi = ht_confidence_interval(values, probs, level=0.95)
        assert lo < ht_total(values, probs) < hi

    def test_coverage_monte_carlo(self, rng):
        # Wald interval coverage should be near nominal for a moderate
        # Poisson design (CLT regime).
        n = 120
        values = rng.lognormal(0, 0.4, n)
        probs = np.clip(rng.random(n), 0.3, 0.95)
        truth = values.sum()
        hits = 0
        trials = 600
        for _ in range(trials):
            mask = rng.random(n) < probs
            lo, hi = ht_confidence_interval(values[mask], probs[mask], 0.9)
            hits += int(lo <= truth <= hi)
        assert 0.84 <= hits / trials <= 0.95

    def test_level_validation(self, design):
        values, probs = design
        with pytest.raises(ValueError):
            ht_confidence_interval(values, probs, level=1.5)


LEVELS = (0.8, 0.9, 0.95, 0.99)


class TestNormalQuantiles:
    """The intervals' z is ``scipy.stats.norm.ppf``'s, bit for bit."""

    @staticmethod
    def _z(level):
        from scipy.stats import norm

        return float(norm.ppf(0.5 + level / 2.0))

    @pytest.mark.parametrize("level", LEVELS)
    def test_normal_interval_half_width(self, level):
        for variance in (1.0, 2.25, 7.0):
            half = self._z(level) * math.sqrt(variance)
            assert normal_interval(10.0, variance, level) == (
                10.0 - half, 10.0 + half)

    @pytest.mark.parametrize("level", LEVELS)
    def test_quantile_interval_half_width(self, level, monkeypatch):
        """The interval ends are the quantiles at ``q -+ z * se(F_hat)``."""
        rng = np.random.default_rng(4)
        values = rng.lognormal(0.0, 1.0, 200)
        probs = rng.uniform(0.2, 1.0, 200)
        q = 0.5
        point = estimators.weighted_quantile(values, probs, q)
        indicator = (values <= point).astype(float)
        se = math.sqrt(estimators.hajek_mean_variance_estimate(indicator,
                                                               probs))
        half = self._z(level) * se
        levels = []
        quantile = estimators.weighted_quantile

        def recording(values, probs, at):
            levels.append(at)
            return quantile(values, probs, at)

        monkeypatch.setattr(estimators, "weighted_quantile", recording)
        quantile_interval(values, probs, q, level)
        assert levels == [q, q - half, q + half]

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
    def test_level_validation(self, level):
        with pytest.raises(ValueError, match="level"):
            normal_interval(0.0, 1.0, level)
        with pytest.raises(ValueError, match="level"):
            quantile_interval([1.0, 2.0], [0.5, 0.5], 0.5, level)

    def test_ci_queries_do_not_import_scipy_stats(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import repro\n"
            "from repro.query import Query\n"
            "s = repro.make_sampler('bottom_k', k=64, rng=0)\n"
            "s.update_many(np.arange(500), np.ones(500),\n"
            "              values=np.arange(500) * 1.0)\n"
            "for query in (Query('sum', ci=0.95),\n"
            "              Query('quantile', q=0.5, ci=0.9)):\n"
            "    assert s.query(query).ci is not None\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, env=env,
                                timeout=300)
        assert result.returncode == 0, result.stderr


class TestHajek:
    def test_full_sample_is_plain_mean(self):
        values = np.array([2.0, 4.0, 9.0])
        assert hajek_mean(values, np.ones(3)) == pytest.approx(values.mean())

    def test_consistency_monte_carlo(self, rng):
        n = 4000
        values = rng.normal(10.0, 2.0, n)
        probs = np.full(n, 0.25)
        mask = rng.random(n) < probs
        est = hajek_mean(values[mask], probs[mask])
        assert est == pytest.approx(values.mean(), abs=0.2)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            hajek_mean(np.array([]), np.array([]))


class TestInclusionProbabilities:
    def test_weighted_family(self):
        fam = InverseWeightPriority()
        p = inclusion_probabilities(fam, np.array([0.1, np.inf]), np.array([5.0, 2.0]))
        np.testing.assert_allclose(p, [0.5, 1.0])

    def test_uniform_family(self):
        fam = Uniform01Priority()
        p = inclusion_probabilities(fam, np.array([0.3, 0.7]))
        np.testing.assert_allclose(p, [0.3, 0.7])


class TestEnumerationHelper:
    def test_probabilities_sum_to_one(self):
        probs = np.array([0.3, 0.6, 0.2])
        total = sum(p for _, p in enumerate_poisson(probs))
        assert total == pytest.approx(1.0, abs=1e-12)
