"""Fault-injection battery: recovery is bit-exact from any crash point.

The contract under test (the PR5 tentpole's acceptance criterion): kill
the service at randomized points — mid-batch, mid-checkpoint, mid-log-
append, via injected exceptions and truncated files — and
``StreamService.recover(dir)`` must reach a state *bit-identical* to an
uninterrupted run over the first ``events_durable`` events, for every
mergeable registered sampler and a 4-shard engine; resuming the stream
from that offset must then land on the uninterrupted full-stream state,
RNG continuation included.

Mechanics: the service's ``fault_hook`` seam raises at a seeded-random
stage/occurrence (exactly what a crash between those two instructions
would do — e.g. ``wal.append.mid`` is a torn record on disk), and the
truncation tests corrupt the on-disk files directly.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro import mergeable_samplers
from repro.serve import (
    CheckpointStore,
    ServiceCrashed,
    StreamService,
    WriteAheadLog,
    replay_records,
)
from tests.serve.common import (
    CONFIG_IDS,
    MERGEABLE_CONFIGS,
    N,
    build_engine,
    build_sampler,
    feed_service,
    reference_state,
    run_async,
    signature,
    stream,
)

pytestmark = pytest.mark.timeout(120)

#: Every stage the runtime can die at, exercised by the randomized trials.
FAULT_STAGES = (
    "flush.before",       # mid-batch: drained from the queue, nothing durable
    "wal.append.before",  # batch about to be logged
    "wal.append.mid",     # torn record: header written, payload missing
    "apply.before",       # logged but not applied (replay must cover it)
    "apply.after",        # applied but possibly never checkpointed
    "checkpoint.before",
    "checkpoint.mid",     # torn temp file, rename never happened
    "checkpoint.after",   # renamed, retention pruning skipped
)

SERVICE_OPTS = dict(
    queue_size=500,
    batch_size=48,
    max_latency=0.005,
    checkpoint_every_events=120,
    segment_max_bytes=1500,
    retain_checkpoints=2,
)


class InjectedFault(Exception):
    """The simulated crash."""


def _fault_hook(stage: str, occurrence: int):
    """Raise :class:`InjectedFault` the ``occurrence``-th time ``stage``
    fires (a later-than-last occurrence means the run completes)."""
    seen = {"n": 0}

    def hook(s: str) -> None:
        if s == stage:
            seen["n"] += 1
            if seen["n"] == occurrence:
                raise InjectedFault(f"{stage}#{occurrence}")

    return hook


async def _crash_recover_resume(build, tmp_path, keys, weights, weighted,
                                stage, occurrence):
    """One trial: run with an injected fault, recover, verify the prefix
    bit-exactly, resume, verify the full stream bit-exactly."""
    first = StreamService(
        build(), dir=tmp_path / "svc",
        fault_hook=_fault_hook(stage, occurrence), **SERVICE_OPTS,
    )
    await first.start()
    crashed = False
    try:
        await feed_service(first, keys, weights, weighted)
        await first.flush()
        await first.stop()
    except ServiceCrashed:
        crashed = True
        assert isinstance(first.error, InjectedFault)

    recovered = StreamService.recover(tmp_path / "svc")
    durable = recovered.events_durable
    if not crashed:
        assert durable == N
    assert signature(recovered._sampler) == reference_state(
        build, keys, weights, weighted, durable
    ), f"recovery at {stage}#{occurrence} (durable={durable}) not bit-exact"

    # Resume the lost tail from the durable frontier: the producer's
    # replay contract.  The final state must equal the uninterrupted run.
    await recovered.start()
    if durable < N:
        await feed_service(recovered, keys, weights, weighted, start=durable)
    await recovered.flush()
    await recovered.stop()
    final = StreamService.recover(tmp_path / "svc")
    assert final.events_durable == N
    assert signature(final._sampler) == reference_state(
        build, keys, weights, weighted, N
    ), f"resumed run after {stage}#{occurrence} diverged"
    return crashed


def _trial_plan(trial: int) -> tuple[str, int]:
    """Seeded-random (stage, occurrence) for one trial."""
    rng = np.random.default_rng(7000 + trial)
    stage = FAULT_STAGES[int(rng.integers(len(FAULT_STAGES)))]
    return stage, int(rng.integers(1, 5))


def test_battery_covers_every_mergeable_name():
    assert {name for name, _, _ in MERGEABLE_CONFIGS} == (
        set(mergeable_samplers()) - {"sharded"}
    )


@pytest.mark.parametrize("trial", range(3))
@pytest.mark.parametrize("name,params,weighted", MERGEABLE_CONFIGS,
                         ids=CONFIG_IDS)
def test_randomized_crash_recovery_is_bit_exact(
    tmp_path, name, params, weighted, trial
):
    keys, weights = stream()
    # crc32, not hash(): string hashing is salted per process, and the
    # trial plan must reproduce across runs.
    stage, occurrence = _trial_plan(
        trial * 131 + zlib.crc32(name.encode()) % 97
    )
    run_async(_crash_recover_resume(
        lambda: build_sampler(name, params), tmp_path,
        keys, weights, weighted, stage, occurrence,
    ))


@pytest.mark.parametrize("trial", range(2))
@pytest.mark.parametrize("name,params,weighted", MERGEABLE_CONFIGS,
                         ids=CONFIG_IDS)
def test_sharded_engine_crash_recovery_is_bit_exact(
    tmp_path, name, params, weighted, trial
):
    """The 4-shard engine checkpoint (all shard RNG streams) survives
    randomized crashes too."""
    keys, weights = stream()
    stage, occurrence = _trial_plan(
        5000 + trial * 17 + zlib.crc32(name.encode()) % 89
    )
    run_async(_crash_recover_resume(
        lambda: build_engine(name, params), tmp_path,
        keys, weights, weighted, stage, occurrence,
    ))


@pytest.mark.parametrize("stage", FAULT_STAGES)
def test_every_stage_is_reachable_and_recoverable(tmp_path, stage):
    """Deterministic sweep: each stage, first occurrence, one sampler —
    guarantees the randomized trials can't silently rotate away from a
    stage that regressed."""
    keys, weights = stream()
    crashed = run_async(_crash_recover_resume(
        lambda: build_sampler("bottom_k", {"k": 24, "rng": 5}),
        tmp_path, keys, weights, True, stage, 1,
    ))
    assert crashed, f"stage {stage} never fired"


# ----------------------------------------------------------------------
# Truncated / corrupted files
# ----------------------------------------------------------------------
async def _clean_run(build, root, keys, weights, weighted,
                     checkpoint_on_stop=True, **overrides):
    service = StreamService(build(), dir=root, **{**SERVICE_OPTS, **overrides})
    await service.start()
    await feed_service(service, keys, weights, weighted)
    await service.flush()
    await service.stop(checkpoint=checkpoint_on_stop)


@pytest.mark.parametrize("cut", [1, 7, 40, 200])
def test_truncated_wal_tail_recovers_a_bit_exact_prefix(tmp_path, cut):
    """Chopping bytes off the newest WAL segment loses whole tail
    batches, never corrupts the recovered prefix."""
    keys, weights = stream()
    build = lambda: build_sampler("bottom_k", {"k": 24, "rng": 5})  # noqa: E731
    root = tmp_path / "svc"
    # Disable checkpoints entirely so recovery genuinely replays the log
    # (any checkpoint at N would make the truncated tail irrelevant).
    run_async(_clean_run(build, root, keys, weights, True,
                         checkpoint_on_stop=False,
                         checkpoint_every_events=10 * N))

    segments = sorted((root / "wal").glob("wal-*.log"))
    assert len(segments) > 1, "battery config must rotate segments"
    last = segments[-1]
    size = last.stat().st_size
    with open(last, "r+b") as fh:
        fh.truncate(max(0, size - cut))

    recovered = StreamService.recover(root)
    durable = recovered.events_durable
    assert durable < N  # the cut really lost events
    assert signature(recovered._sampler) == reference_state(
        build, keys, weights, True, durable
    )


def test_corrupt_newest_checkpoint_falls_back_and_replays(tmp_path):
    """A truncated newest checkpoint fails its CRC and recovery lands on
    the older retained checkpoint plus a longer WAL replay — still
    bit-exact at the full durable count."""
    keys, weights = stream()
    build = lambda: build_sampler("weighted_distinct", {"k": 24, "salt": 3})  # noqa: E731
    root = tmp_path / "svc"
    run_async(_clean_run(build, root, keys, weights, True))

    ckpts = sorted((root / "ckpt").glob("ckpt-*.pkl"))
    assert len(ckpts) == 2, "retention must keep a fallback checkpoint"
    with open(ckpts[-1], "r+b") as fh:
        fh.truncate(ckpts[-1].stat().st_size // 2)

    recovered = StreamService.recover(root)
    assert recovered.events_durable == N
    assert recovered.metrics.last_checkpoint_offset < N
    assert signature(recovered._sampler) == reference_state(
        build, keys, weights, True, N
    )


def test_all_checkpoints_corrupt_recovers_from_initial_state(tmp_path):
    """With every checkpoint destroyed, recovery replays the whole log
    from the meta file's initial state — unless pruning already dropped
    early segments, in which case recovery must refuse silently wrong
    answers by yielding only the contiguous tail (here: segments are
    retained because the oldest checkpoint pins them)."""
    keys, weights = stream()
    build = lambda: build_sampler("bottom_k", {"k": 24, "rng": 5})  # noqa: E731
    root = tmp_path / "svc"
    opts = dict(SERVICE_OPTS)
    opts["checkpoint_every_events"] = 10 * N  # no periodic checkpoints

    async def go():
        service = StreamService(build(), dir=root, **opts)
        await service.start()
        await feed_service(service, keys, weights, True)
        await service.flush()
        await service.stop(checkpoint=False)

    run_async(go())
    assert not list((root / "ckpt").glob("ckpt-*.pkl"))
    recovered = StreamService.recover(root)
    assert recovered.events_durable == N
    assert signature(recovered._sampler) == reference_state(
        build, keys, weights, True, N
    )


# ----------------------------------------------------------------------
# Durability-layer unit behavior the battery relies on
# ----------------------------------------------------------------------
def test_wal_reopen_truncates_torn_tail_and_appends_cleanly(tmp_path):
    wal = WriteAheadLog(tmp_path, segment_max_bytes=10_000)
    wal.append(0, 2, {"keys": [1, 2]})
    wal.append(2, 2, {"keys": [3, 4]})
    wal.close()
    segment = sorted((tmp_path / "wal").glob("wal-*.log"))[0]
    with open(segment, "r+b") as fh:  # tear the second record
        fh.truncate(segment.stat().st_size - 3)
    assert [r.offset for r in replay_records(tmp_path)] == [0]

    wal = WriteAheadLog(tmp_path, segment_max_bytes=10_000)
    wal.append(2, 2, {"keys": [30, 40]})  # re-log the lost batch
    wal.close()
    records = list(replay_records(tmp_path))
    assert [(r.offset, r.columns["keys"]) for r in records] == [
        (0, [1, 2]), (2, [30, 40]),
    ]


def test_wal_prune_keeps_segments_needed_by_offset(tmp_path):
    wal = WriteAheadLog(tmp_path, segment_max_bytes=1)  # rotate every record
    for i in range(5):
        wal.append(i * 10, 10, {"keys": list(range(10))})
    assert wal.segment_count == 5
    wal.prune(before_offset=30)
    kept = [r.offset for r in replay_records(tmp_path)]
    # Everything below the checkpoint offset is droppable; the segment
    # holding the record at 30 (the replay start) must survive.
    assert kept == [30, 40]
    wal.close()


def test_wal_prune_keeps_a_segment_ending_in_a_zero_event_record(tmp_path):
    """A zero-event admin record at offset 10 ending its segment is part
    of a replay from 10, so pruning at 10 must keep that segment — also
    when the next segment was opened by a re-opened writer."""
    wal = WriteAheadLog(tmp_path, segment_max_bytes=1)  # rotate every record
    wal.append(0, 10, {"keys": list(range(10))})
    wal.append(10, 0, {"admin": {"seq": 1, "retune": {"batch_size": 4}}})
    wal.append(10, 10, {"keys": list(range(10, 20))})
    wal.append(20, 0, {"admin": {"seq": 2, "retune": {"batch_size": 8}}})
    wal.close()
    wal = WriteAheadLog(tmp_path, segment_max_bytes=1)
    wal.append(20, 10, {"keys": list(range(20, 30))})
    for before in (10, 20):
        wal.prune(before_offset=before)
        replayed = [(r.offset, r.n)
                    for r in replay_records(tmp_path, from_offset=before)]
        assert replayed[0] == (before, 0), before
    wal.close()


def test_checkpoint_store_skips_invalid_and_retains(tmp_path):
    store = CheckpointStore(tmp_path, retain=2)
    for offset in (10, 20, 30):
        store.write(offset, {"offset": offset, "state": {"x": offset}})
    assert store.offsets() == (20, 30)
    newest = sorted((tmp_path / "ckpt").glob("ckpt-*.pkl"))[-1]
    newest.write_bytes(b"garbage")
    offset, payload = store.load_latest()
    assert offset == 20 and payload["state"] == {"x": 20}


def test_checkpoint_store_recycles_the_retired_file(tmp_path):
    """The checkpoint falling out of ``retain`` is renamed to one spare
    file, which the next write overwrites in place instead of creating
    (and later unlinking) a fresh one.  A smaller body written over a
    larger spare keeps the spare's length; the length-framed read
    ignores the stale tail."""
    ckpt = tmp_path / "ckpt"
    store = CheckpointStore(tmp_path, retain=1)
    store.write(10, {"offset": 10, "state": "x" * 20_000})
    store.write(20, {"offset": 20, "state": "small"})
    spare = ckpt / "spare.ckpt"
    assert store.offsets() == (20,) and spare.exists()
    inode, size = spare.stat().st_ino, spare.stat().st_size
    final = store.write(30, {"offset": 30, "state": "smaller"})
    assert (final.stat().st_ino, final.stat().st_size) == (inode, size)
    assert store.load_latest() == (30, {"offset": 30, "state": "smaller"})
    assert sorted(p.name for p in ckpt.iterdir()) == [
        final.name, "spare.ckpt",
    ]


def test_checkpoint_torn_into_the_spare_leaves_the_store_valid(tmp_path):
    """A crash mid-write into the recycled spare is a stray ``.tmp``:
    the visible checkpoints are untouched and the next write cleans
    up."""
    fail = {"armed": False}

    def hook(stage):
        if stage == "checkpoint.mid" and fail["armed"]:
            fail["armed"] = False
            raise RuntimeError("crash mid-checkpoint")

    store = CheckpointStore(tmp_path, retain=1, fault_hook=hook)
    for offset in (10, 20):
        store.write(offset, {"offset": offset, "state": offset})
    fail["armed"] = True
    with pytest.raises(RuntimeError, match="mid-checkpoint"):
        store.write(30, {"offset": 30, "state": 30})
    assert store.load_latest() == (20, {"offset": 20, "state": 20})
    store.write(40, {"offset": 40, "state": 40})
    assert store.load_latest() == (40, {"offset": 40, "state": 40})
    assert not list((tmp_path / "ckpt").glob("*.tmp"))


def test_recovery_restores_operational_metrics(tmp_path):
    """Counters the checkpoint persisted (drops, histograms, flush
    splits) survive recovery instead of silently resetting; the event
    counters advance to the replayed frontier."""
    keys, weights = stream()
    build = lambda: build_sampler("bottom_k", {"k": 24, "rng": 5})  # noqa: E731
    root = tmp_path / "svc"
    run_async(_clean_run(build, root, keys, weights, True))

    recovered = StreamService.recover(root)
    m = recovered.metrics
    assert m.events_applied == m.events_logged == N
    assert m.batches_applied > 0
    assert m.batch_size_buckets  # histogram restored, not reset
    assert m.flushes_size + m.flushes_deadline + m.flushes_drain > 0
    assert m.checkpoints_written > 0
    assert m.checkpoint_lag == N - m.last_checkpoint_offset


@pytest.mark.parametrize("spec,error,match", [
    ("cps", ValueError, "unknown sampler 'cps'"),
    ({"name": "priority_layout"}, ValueError,
     "unknown sampler 'priority_layout'"),
    ({}, ValueError, "'name'"),
    ({"name": "bottom_k", "params": None}, TypeError, "'params'"),
    (3, TypeError, "got int"),
], ids=["cps", "priority_layout", "no_name", "params_none", "int"])
def test_service_refuses_a_spec_it_cannot_build(tmp_path, spec, error, match):
    """An offline design's name is an unknown sampler, and a malformed
    spec is refused by name; both at construction, before the service
    touches its directory."""
    root = tmp_path / "svc"
    with pytest.raises(error, match=match):
        StreamService(spec, dir=root, **SERVICE_OPTS)
    assert not root.exists()


def test_fresh_service_refuses_an_existing_directory(tmp_path):
    keys, weights = stream(50)
    build = lambda: build_sampler("bottom_k", {"k": 8, "rng": 1})  # noqa: E731
    root = tmp_path / "svc"
    run_async(_clean_run(build, root, keys, weights, True))

    async def misuse():
        service = StreamService(build(), dir=root, **SERVICE_OPTS)
        with pytest.raises(ValueError, match="recover"):
            await service.start()

    run_async(misuse())
    with pytest.raises(FileNotFoundError):
        StreamService.recover(tmp_path / "nowhere")
