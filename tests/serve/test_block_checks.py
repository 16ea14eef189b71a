"""Service admission: a block the sampler would refuse is refused at the
call, before anything is logged or applied."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import StreamService
from repro.serve.wal import replay_records
from tests.serve.common import run_async

KEYS = np.arange(2)

#: Blocks each sampler refuses whatever its state, with the error the
#: call raises.  Before admission ran ``check_columns`` on every block,
#: each was logged and then crashed the service's consumer on apply, and
#: every replay of the directory.
REFUSED = {
    "weighted_distinct_negative_weight": (
        {"name": "weighted_distinct", "params": {"k": 8}},
        {"weights": np.array([1.0, -1.0])}, ValueError, "positive"),
    "varopt_zero_weight": (
        {"name": "varopt", "params": {"k": 8, "rng": 1}},
        {"weights": np.array([1.0, 0.0])}, ValueError, "positive"),
    "time_decay_times_out_of_order": (
        {"name": "time_decay", "params": {"k": 8, "decay_rate": 0.1}},
        {"times": np.array([5.0, 1.0])}, ValueError, "non-decreasing"),
    "multi_objective_array_weights": (
        {"name": "multi_objective", "params": {"k": 8, "objectives": ["a"]}},
        {"weights": np.array([1.0, 2.0])}, TypeError, "mapping"),
    "bottom_k_negative_weight": (
        {"name": "bottom_k", "params": {"k": 8, "rng": 1}},
        {"weights": np.array([1.0, -1.0])}, ValueError, "non-negative"),
    "bottom_k_nan_weight": (
        {"name": "bottom_k", "params": {"k": 8, "rng": 1}},
        {"weights": np.array([1.0, np.nan])}, ValueError, "non-negative"),
    "sharded_weighted_distinct_negative_weight": (
        {"name": "sharded", "params": {
            "spec": {"name": "weighted_distinct", "params": {"k": 8}},
            "n_shards": 2}},
        {"weights": np.array([1.0, -1.0])}, ValueError, "positive"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_a_refused_block_is_refused_at_the_call_and_never_logged(
    tmp_path, case
):
    """``ingest_many`` and ``try_ingest_many`` raise at the call (a
    ``sharded`` engine with its shard class's check); no WAL record is
    written, the consumer keeps running, and the directory recovers."""
    spec, columns, error, match = REFUSED[case]

    async def body():
        service = StreamService(spec, dir=tmp_path)
        await service.start()
        with pytest.raises(error, match=match):
            await service.ingest_many(KEYS, **columns)
        with pytest.raises(error, match=match):
            service.try_ingest_many(KEYS, **columns)
        await service.flush()
        assert not service.crashed
        await service.stop(checkpoint=False)

    run_async(body())
    assert [r.n for r in replay_records(tmp_path) if r.n] == []
    assert StreamService.recover(tmp_path).events_applied == 0
