"""Property-based tests for the sliding-window sampler invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.samplers.sliding_window import SlidingWindowSampler

arrival_batches = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=300,
)


class TestWindowInvariants:
    @given(arrival_batches, st.integers(min_value=2, max_value=20), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_memory_and_threshold_ranges(self, times, k, seed):
        times = sorted(times)
        sampler = SlidingWindowSampler(k=k, window=1.0,
                                       rng=np.random.default_rng(seed))
        for i, t in enumerate(times):
            sampler.update(i, time=float(t))
            assert sampler.snapshot(float(t)).stored_current <= k
        now = times[-1]
        snap = sampler.snapshot(now)
        assert 0.0 < snap.improved_threshold <= 1.0
        assert 0.0 < snap.gl_threshold <= 1.0
        # Dominance (improved >= G&L) is a *saturated-regime* property: in
        # sparse windows a rejected arrival's clamp update can pull per-item
        # thresholds below the underfull G&L order statistic (a hypothesis-
        # discovered counterexample).  Assert it only when the last window
        # saw plenty of traffic relative to k AND the expired pool is
        # saturated — with few expired candidates the G&L statistic
        # degenerates to the largest current priority (another hypothesis-
        # discovered counterexample: a burst, a silent window, a burst).
        recent = sum(1 for t in times if t > now - 1.0)
        if recent >= 3 * k and snap.stored_expired >= k:
            assert snap.improved_threshold >= snap.gl_threshold - 1e-12

    @given(arrival_batches, st.integers(min_value=2, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_samples_subset_of_window(self, times, k):
        times = sorted(times)
        sampler = SlidingWindowSampler(k=k, window=1.0,
                                       rng=np.random.default_rng(1))
        for i, t in enumerate(times):
            sampler.update(i, time=float(t))
        now = times[-1] + 0.5
        improved = sampler.improved_sample(now)
        gl = sampler.gl_sample(now)
        for sample in (improved, gl):
            for item in sample:
                assert times[item.key] > now - 1.0
        # Improved-sample keys are current candidates below the threshold,
        # which are also below the (smaller) GL threshold's candidate pool.
        assert set(gl.keys) <= {
            row[1] for row in sampler.to_state()["state"]["records"]
        }

    @given(st.integers(min_value=2, max_value=15), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_underfull_window_keeps_everything(self, k, seed):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(5.0, 6.0, k - 1))
        sampler = SlidingWindowSampler(k=k, window=1.0, rng=rng)
        for i, t in enumerate(times):
            sampler.update(i, time=float(t))
        sample = sampler.improved_sample(float(times[-1]))
        assert len(sample) == k - 1  # threshold 1: exhaustive sample
        assert sampler.improved_threshold(float(times[-1])) == 1.0


class TestWeightedDistinctValues:
    def test_subset_sum_with_values_mapping(self):
        from repro.samplers.distinct import WeightedDistinctSketch

        s = WeightedDistinctSketch(100, salt=3)
        values = {}
        for i in range(50):
            s.update(i, weight=1.0 + i % 3)
            values[i] = float(i)
        est = s.estimate_subset_sum(lambda key: key < 10, values=values)
        assert est == pytest.approx(sum(range(10)))  # underfull: exact


# Inter-arrival gaps for window=1.0: mostly dense, with some longer than
# two windows, so a batch also empties its arrival order (and its expired
# pool) midway.
arrival_gaps = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
        st.floats(min_value=2.1, max_value=5.0, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)


#: Key columns as numpy and pandas callers pass them (pandas gives an
#: object array for a string column).
KEY_COLUMNS = {
    "int64": lambda n: np.arange(n, dtype=np.int64),
    "float64": lambda n: np.arange(n) * 0.5,
    "str": lambda n: np.array([f"k{i}" for i in range(n)]),
    "object": lambda n: np.array([f"k{i}" for i in range(n)], dtype=object),
}


@pytest.mark.parametrize("key_dtype", sorted(KEY_COLUMNS))
@given(arrival_gaps, st.integers(min_value=2, max_value=8),
       st.integers(0, 3), st.lists(st.integers(0, 200), max_size=5))
@settings(max_examples=60, deadline=None)
@example(gaps=[0.0, 0.1, 3.0], k=2, seed=0, cuts=[])
def test_batch_per_item_and_chunked_states_agree(key_dtype, gaps, k, seed,
                                                 cuts):
    """One ``update_many`` call, the per-item loop over the ``.tolist()``
    keys and arbitrary chunk splits end in the same state, starting from
    a fresh sampler, whatever the key array's dtype."""
    times = np.cumsum(gaps)
    keys = KEY_COLUMNS[key_dtype](len(times))

    def fresh():
        return SlidingWindowSampler(k=k, window=1.0, rng=seed)

    per_item = fresh()
    for key, t in zip(keys.tolist(), times.tolist()):
        per_item.update(key, time=t)
    batch = fresh()
    batch.update_many(keys, times=times)
    chunked = fresh()
    bounds = sorted({0, len(times), *(c for c in cuts if c < len(times))})
    for lo, hi in zip(bounds, bounds[1:]):
        chunked.update_many(keys[lo:hi], times=times[lo:hi])
    assert batch.to_state() == per_item.to_state()
    assert chunked.to_state() == per_item.to_state()


@given(arrival_batches, st.integers(min_value=2, max_value=8),
       st.integers(0, 3))
@settings(max_examples=40, deadline=None)
@example([0.5, 0.2, 3.0, 0.1], 2, 0)
def test_unsorted_batch_matches_per_item_loop(times, k, seed):
    """A batch whose times are not sorted takes the per-item path: it ends
    in the per-item loop's state, values column included."""
    keys = np.arange(len(times))
    values = keys * 0.5

    def fresh():
        return SlidingWindowSampler(k=k, window=1.0, rng=seed)

    per_item = fresh()
    for key, value, t in zip(keys.tolist(), values.tolist(), times):
        per_item.update(key, value=value, time=t)
    batch = fresh()
    batch.update_many(keys, values=values, times=np.asarray(times))
    assert batch.to_state() == per_item.to_state()


def _reference_threshold(state: dict) -> float:
    """The per-record rule: the minimum over the current records of
    ``min(initial threshold, every update pushed after the record)``."""
    updates = state["updates"]
    return min(
        (min([initial, *(value for s, value in updates if s > seq)])
         for *_, seq, initial in state["records"]),
        default=1.0,
    )


def _rows_below(records: list, threshold: float, strict: bool) -> list:
    """``(key, value, time, priority)`` of the records under the
    threshold, in ascending priority order."""
    chosen = [row for row in records
              if (row[4] < threshold if strict else row[4] <= threshold)]
    return [(row[1], row[2], row[3], row[4])
            for row in sorted(chosen, key=lambda row: row[4])]


def _sample_rows(sample) -> list:
    return list(zip(sample.keys, sample.values.tolist(),
                    sample.times.tolist(), sample.priorities.tolist()))


def _key(i: int):
    return (i, i + 0.5, f"s{i}")[i % 3]


window_ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.floats(0.0, 0.4)),
        st.tuples(st.just("update_many"),
                  st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=30),
                  st.booleans(), st.booleans()),
        st.tuples(st.just("advance"), st.floats(0.0, 2.5)),
        st.tuples(st.just("restore")),
    ),
    min_size=1,
    max_size=25,
)


@given(window_ops, st.integers(min_value=2, max_value=8), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
# The oldest candidate's initial threshold is below every later update,
# so the threshold needs the initial-threshold column.
@example(ops=[("update", 0.0), ("update", 0.0),
              ("update_many", [0.0] * 6 + [0.5], False, False),
              ("update_many", [0.0, 0.0, 0.0, 0.5], False, False)],
         k=2, seed=0)
def test_threshold_and_samples_match_the_per_record_rule(ops, k, seed):
    """Through scalar and batch arrivals (sorted times or not, keys in a
    list or an object array), advances and checkpoint round trips, the
    improved threshold is the per-record rule over the checkpoint rows,
    and both samples are the rows under their thresholds, in priority
    order."""
    sampler = SlidingWindowSampler(k=k, window=1.0, rng=seed)
    n = 0
    now = 0.0
    for op in ops:
        if op[0] == "update":
            now += op[1]
            sampler.update(_key(n), value=n * 0.25, time=now)
            n += 1
        elif op[0] == "update_many":
            offsets = sorted(op[1]) if op[2] else op[1]
            times = now + np.asarray(offsets)
            keys = [_key(n + i) for i in range(len(times))]
            if op[3]:
                keys = np.array(keys, dtype=object)
            sampler.update_many(keys, values=np.arange(len(times)) * 0.5,
                                times=times)
            n += len(times)
            now = max(now, float(times.max()))
        elif op[0] == "advance":
            now += op[1]
            sampler.advance(now)
        else:
            sampler = SlidingWindowSampler.from_state(sampler.to_state())
        sampler.advance(now)
        state = sampler.to_state()["state"]
        records = state["records"]
        improved = sampler.improved_threshold(now)
        assert improved == _reference_threshold(state)
        priorities = sorted(
            [row[4] for row in records] + [p for _, p in state["expired"]]
        )
        gl = priorities[k - 1] if len(priorities) >= k else 1.0
        assert sampler.gl_threshold(now) == gl
        for sample, threshold, strict in (
            (sampler.improved_sample(now), improved, True),
            (sampler.gl_sample(now), gl, False),
        ):
            assert _sample_rows(sample) == _rows_below(records, threshold,
                                                       strict)
            assert sample.thresholds.tolist() == [threshold] * len(sample)
        snap = sampler.snapshot(now)
        assert snap.improved_sample_size == len(
            _rows_below(records, improved, True))
        assert snap.gl_sample_size == len(_rows_below(records, gl, False))
        assert snap.stored_current == len(records)
        assert sampler.to_state()["state"] == state
