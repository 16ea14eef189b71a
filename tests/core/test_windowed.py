"""The shared time helpers in repro.core.estimators behind windowed
and decayed queries."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import canonical_times, decay_factors, time_window_mask


# ----------------------------------------------------------------------
# Time helpers
# ----------------------------------------------------------------------
class TestTimeHelpers:
    def test_canonical_times_none_is_all_nan(self):
        t = canonical_times(None, 5)
        assert t.shape == (5,) and np.isnan(t).all()

    def test_canonical_times_validates_length(self):
        with pytest.raises(ValueError):
            canonical_times([1.0, 2.0], 3)

    def test_window_mask_half_open_and_nan_excluded(self):
        t = np.array([1.0, 2.0, 3.0, np.nan])
        mask = time_window_mask(t, 1.0, 3.0)
        assert mask.tolist() == [False, True, True, False]

    def test_window_mask_unbounded_sides(self):
        t = np.array([1.0, 2.0, np.nan])
        assert time_window_mask(t, None, None).tolist() == [True, True, False]
        assert time_window_mask(t, 1.5, None).tolist() == [False, True, False]
        assert time_window_mask(t, None, 1.5).tolist() == [True, False, False]

    def test_decay_factors_clip_future_ages_at_zero(self):
        d = decay_factors(np.array([1.0, 2.0, 5.0]), 0.5, 2.0)
        assert d[0] == pytest.approx(math.exp(-0.5))
        assert d[1] == pytest.approx(1.0)
        assert d[2] == pytest.approx(1.0)  # t > now: no up-weighting

    def test_decay_factors_reject_negative_rate(self):
        with pytest.raises(ValueError):
            decay_factors(np.array([1.0]), -0.5, 2.0)
