"""The asyncio streaming serving runtime: :class:`StreamService`.

This is the layer that turns the library into a long-running system: one
continuously-maintained adaptive sample (any registered sampler, or a
:class:`~repro.engine.ShardedSampler` fanning out to many) ingesting an
async event stream *while* being queried, surviving crashes, and bounding
memory under bursty load.

The runtime loop
----------------
Producers ``await service.ingest(...)`` / ``ingest_many(...)``, which
admits events into a bounded buffer — when ``queue_size`` events are
buffered, producers suspend until the consumer catches up
(**backpressure**; the non-blocking ``try_ingest`` variants drop instead
and count it).  A single consumer task drains the buffer into a
:class:`~repro.serve.batcher.MicroBatcher`, flushing whenever the batch
reaches ``batch_size`` *or* the oldest pending event is ``max_latency``
seconds old.  Each flush appends one record to the write-ahead log
(:mod:`repro.serve.wal`), then applies the batch through the sampler's
vectorized ``update_many`` kernel — for a sharded engine that single call
reuses the engine's hash-partitioned (optionally pooled) shard dispatch.

Reads are **snapshot-isolated**: mutation happens only inside the
consumer's flush, under the service state lock, so ``async with
service.snapshot() as snap:`` pins a ``state_version`` and every
``snap.sample()`` / ``snap.estimate()`` / ``snap.query()`` observes the
same fully-applied state — never a half-applied batch.  Query results are
version-pinned (``QueryResult.state_version``) and cached per version, so
repeated polls between flushes are O(1) and a post-mutation read can
never be served a stale cached answer.

Durability and recovery
-----------------------
With a service directory, every batch is logged before it is applied, and
checkpoints (atomic ``to_state()`` snapshots, written temp-file-then-
rename) are taken every ``checkpoint_every_events`` applied events.
:meth:`StreamService.recover` loads the newest valid checkpoint and
replays the log tail after it; because batch ingestion is
chunking-invariant (the PR2 contract), the recovered sampler is
bit-identical to an uninterrupted run over the first ``events_durable``
events — RNG continuation included.  Events that were admitted but not
yet logged at the crash are the only loss, and ``events_durable`` tells
the producer exactly where to resume.

Admin ops
---------
A sampler that changes shape through explicit operations — the cluster's
tenant multiplexer creating, installing and dropping tenants — exposes
``apply_admin(op)``, and :meth:`StreamService.enqueue_admin` queues such
ops behind the data already admitted.  The consumer drains the pending
batch, logs the ops as one zero-event WAL *admin record* and applies
them, so they keep their stream position; :meth:`StreamService.recover`
replays them the same way, with no sampler-specific recovery code.
Online retunes are admin records too.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import os
import pathlib
import pickle
from collections import deque
from typing import Callable

from ..api import SamplerSpec, StreamSampler
from ..api.registry import sampler_from_state
from .batcher import MicroBatcher, _slice_chunk, chunk_of
from .checkpoints import CheckpointStore
from .metrics import ServiceMetrics
from .wal import WriteAheadLog, replay_records

__all__ = ["StreamService", "ServiceSnapshot", "ServiceCrashed"]

_META_NAME = "service.pkl"

#: Constructor keywords persisted in the service meta file so
#: :meth:`StreamService.recover` rebuilds the same configuration.
_CONFIG_KEYS = (
    "queue_size",
    "batch_size",
    "max_latency",
    "checkpoint_every_events",
    "segment_max_bytes",
    "retain_checkpoints",
    "fsync",
)


def _update_kwargs(columns: dict) -> dict:
    """A batch's (or WAL record's) ``update_many`` keywords: its keys
    plus every optional column that is not ``None``."""
    return {
        name: column for name, column in columns.items()
        if name == "keys" or column is not None
    }


class ServiceCrashed(RuntimeError):
    """The consumer task died; the original error is ``__cause__``.

    Raised by ingestion/flush/stop once the service has crashed.  The
    on-disk log and checkpoints are exactly as durable as they were at
    the failure point — :meth:`StreamService.recover` picks up from
    there.
    """


class ServiceSnapshot:
    """A pinned read view handed out by :meth:`StreamService.snapshot`.

    All reads through one snapshot observe the same ``state_version``
    (no flush can interleave while the snapshot is held).  The view is
    only valid inside its ``async with`` block.
    """

    def __init__(self, sampler: StreamSampler, state_version: int,
                 events_applied: int):
        self._sampler = sampler
        self._state_version = state_version
        self._events_applied = events_applied
        self._live = True

    @property
    def state_version(self) -> int:
        """The sampler mutation counter this snapshot is pinned to."""
        return self._state_version

    @property
    def events_applied(self) -> int:
        """Events applied to the sampler as of this snapshot."""
        return self._events_applied

    def _check(self) -> StreamSampler:
        if not self._live:
            raise RuntimeError(
                "snapshot used outside its `async with service.snapshot()` "
                "block"
            )
        return self._sampler

    def sample(self):
        """The pinned state's finalized :class:`~repro.core.sample.Sample`."""
        return self._check().sample()

    def estimate(self, kind: str | None = None, predicate=None, **kw):
        """The sampler's estimator facade against the pinned state."""
        return self._check().estimate(kind, predicate=predicate, **kw)

    def query(self, query=None, /, **kw):
        """A declarative query against the pinned state.

        Delegates to :meth:`repro.api.StreamSampler.query`, so results
        are cached keyed by ``(state_version, fingerprint)`` and carry
        ``QueryResult.state_version == snapshot.state_version``.
        """
        return self._check().query(query, **kw)


class StreamService:
    """Async serving runtime over any registered sampler or engine.

    Parameters
    ----------
    sampler:
        A live :class:`~repro.api.StreamSampler` (including a
        :class:`~repro.engine.ShardedSampler`), a
        :class:`~repro.api.SamplerSpec`, its ``{"name", "params"}`` dict
        form, or a bare registry name.
    dir:
        Service directory for durability (WAL segments + checkpoints +
        meta).  ``None`` (default) serves in memory only and cannot
        recover.
    queue_size:
        Backpressure bound: maximum admitted-but-unbatched events.
    batch_size / max_latency:
        Micro-batch flush thresholds (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    checkpoint_every_events:
        Checkpoint cadence in applied events (default ``16 *
        batch_size``).
    segment_max_bytes / retain_checkpoints / fsync:
        Durability tuning, forwarded to the WAL and checkpoint store.
    fault_hook:
        Test seam: ``fault_hook(stage)`` fires at the documented flush /
        WAL / checkpoint stages.  Raising simulates a crash at that
        point; at the service-level ``"flush.before"`` stage the hook may
        return an awaitable to stall the consumer (for
        backpressure/isolation tests).
    trace:
        Ingest-path tracing: ``True`` for a default bounded
        :class:`~repro.obs.trace.TraceLog`, or a preconfigured one.
        Spans are stamped per admitted chunk and completed at flush
        with queued/WAL/apply stage durations (``None`` — the default —
        traces nothing and costs nothing).

    Examples
    --------
    >>> import asyncio, repro.serve
    >>> async def demo():
    ...     service = repro.serve.StreamService(
    ...         {"name": "bottom_k", "params": {"k": 64, "rng": 7}})
    ...     await service.start()
    ...     await service.ingest_many(range(1000))
    ...     await service.flush()
    ...     total = await service.estimate("total")
    ...     await service.stop()
    ...     return total
    >>> 500 < asyncio.run(demo()) < 2000  # HT estimate of the true 1000
    True
    """

    def __init__(
        self,
        sampler: StreamSampler | SamplerSpec | dict | str,
        *,
        dir: str | os.PathLike | None = None,
        queue_size: int = 65536,
        batch_size: int = 8192,
        max_latency: float = 0.05,
        checkpoint_every_events: int | None = None,
        segment_max_bytes: int = 4 * 1024 * 1024,
        retain_checkpoints: int = 2,
        fsync: bool = False,
        fault_hook: Callable[[str], object] | None = None,
        trace=None,
    ):
        if not isinstance(sampler, StreamSampler):
            sampler = SamplerSpec.of(sampler).build()
        self._sampler = sampler
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_latency <= 0:
            raise ValueError("max_latency must be positive")
        self.dir = pathlib.Path(dir) if dir is not None else None
        self.queue_size = int(queue_size)
        # batch_size > queue_size is a dead config: admission caps the
        # buffer below batch_size, so a size-triggered flush could never
        # fire and every batch would wait out max_latency.  Clamp here
        # and in retune() so no caller (human or controller) can steer
        # into it.
        self.batch_size = min(int(batch_size), self.queue_size)
        self.max_latency = float(max_latency)
        self.checkpoint_every_events = int(
            checkpoint_every_events
            if checkpoint_every_events is not None
            else 16 * self.batch_size
        )
        self.segment_max_bytes = int(segment_max_bytes)
        self.retain_checkpoints = int(retain_checkpoints)
        self.fsync = bool(fsync)
        self.fault_hook = fault_hook
        # Ingest-path tracing (observability, PR 9): ``True`` builds a
        # default bounded TraceLog, or pass one preconfigured.  Runtime-
        # only — deliberately not persisted in _CONFIG_KEYS, so recovery
        # re-enables it via an explicit override (``recover(trace=...)``).
        if trace is True:
            from ..obs.trace import TraceLog
            trace = TraceLog()
        # ``isinstance`` rather than truthiness: an empty TraceLog is
        # falsy (``__len__`` counts ring records) but very much enabled.
        self.trace_log = None if isinstance(trace, bool) else trace

        self.metrics = ServiceMetrics()
        self._batcher = MicroBatcher(self.batch_size, self.max_latency)
        self._queue: deque[dict] = deque()
        self._buffered = 0
        self._enqueued = 0  # events admitted to the buffer, ever
        self._durable = 0   # events appended to the WAL
        self._applied = 0   # events ingested by the sampler
        self._recovered = False
        self._started = False
        self._closed = False
        self._stopping = False
        self._force_flush = False
        # Pending online reconfigurations: (changes, future) pairs the
        # consumer applies at the next flush boundary (see retune()).
        self._retunes: deque[tuple[dict, asyncio.Future]] = deque()
        self._admin_seq = 0  # WAL admin records applied, ever
        self._ops_enqueued = 0  # admin ops admitted, ever (this process)
        self._ops_applied = 0   # admin ops applied, ever (this process)
        self._error: BaseException | None = None
        self._heartbeat = 0.0  # loop.time() of the consumer's last turn
        self._task: asyncio.Task | None = None
        self._wal: WriteAheadLog | None = None
        self._ckpts: CheckpointStore | None = None
        # Loop-bound primitives, created in start().
        self._wake: asyncio.Event | None = None
        self._not_full: asyncio.Condition | None = None
        self._applied_cond: asyncio.Condition | None = None
        self._state_lock: asyncio.Lock | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sampler_name(self) -> str:
        """Registry name (or class name) of the wrapped sampler."""
        return self._sampler.sampler_name or type(self._sampler).__name__

    @property
    def sampler(self) -> StreamSampler:
        """The live wrapped sampler (read-only access).

        Mutate only through ingestion.  For consistent reads hold a
        :meth:`snapshot` block while touching it — the cluster layer
        reads tenant-scoped children this way; bare reads between
        flushes are unsynchronized.
        """
        return self._sampler

    @property
    def events_enqueued(self) -> int:
        """Events admitted into the buffer since construction/recovery."""
        return self._enqueued

    @property
    def events_durable(self) -> int:
        """Events safely in the write-ahead log (the recovery frontier)."""
        return self._durable

    @property
    def events_applied(self) -> int:
        """Events the sampler has ingested."""
        return self._applied

    @property
    def pending_events(self) -> int:
        """Admitted events not yet applied (buffered plus micro-batched).

        The liveness probe's companion to :attr:`last_heartbeat`: a
        stale heartbeat is only suspicious while there is pending work —
        an idle consumer parked on its wake event is healthy.
        """
        return self._buffered + len(self._batcher)

    @property
    def last_heartbeat(self) -> float:
        """``loop.time()`` at the consumer's most recent loop turn.

        Stamped once per consumer iteration (before pulling and again
        after waking), so a consumer wedged inside a flush — a stalled
        fault hook, a blocking kernel — stops advancing it while
        :attr:`pending_events` stays positive.  ``0.0`` before start.
        """
        return self._heartbeat

    @property
    def consumer_alive(self) -> bool:
        """Whether the consumer task exists and has not finished."""
        return self._task is not None and not self._task.done()

    @property
    def crashed(self) -> bool:
        """Whether the consumer task has died (see :attr:`error`)."""
        return self._error is not None

    @property
    def error(self) -> BaseException | None:
        """The consumer task's fatal error, if it crashed."""
        return self._error

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "StreamService":
        """Open durability (when configured) and launch the consumer."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._wake = asyncio.Event()
        self._not_full = asyncio.Condition()
        self._applied_cond = asyncio.Condition()
        self._state_lock = asyncio.Lock()
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)
            meta_path = self.dir / _META_NAME
            if meta_path.exists():
                if not self._recovered:
                    raise ValueError(
                        f"{self.dir} already holds a service; use "
                        "StreamService.recover(dir) to resume it"
                    )
            else:
                tmp = meta_path.with_suffix(".pkl.tmp")
                tmp.write_bytes(pickle.dumps({
                    "version": 1,
                    "initial_state": self._sampler.to_state(),
                    "config": {key: getattr(self, key) for key in _CONFIG_KEYS},
                }, protocol=pickle.HIGHEST_PROTOCOL))
                os.replace(tmp, meta_path)
            self._wal = WriteAheadLog(
                self.dir,
                segment_max_bytes=self.segment_max_bytes,
                fsync=self.fsync,
                fault_hook=self.fault_hook,
            )
            self._ckpts = CheckpointStore(
                self.dir,
                retain=self.retain_checkpoints,
                fault_hook=self.fault_hook,
            )
        loop = asyncio.get_running_loop()
        self._heartbeat = loop.time()  # probes must not flag a fresh start
        self._task = loop.create_task(
            self._run(), name=f"repro-serve-{self.sampler_name}"
        )
        return self

    async def __aenter__(self) -> "StreamService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.stop()
        else:  # don't mask the body's exception with drain errors
            await self.abort()

    async def stop(self, *, checkpoint: bool = True) -> None:
        """Drain the buffer, flush, take a final checkpoint, and close.

        Raises :class:`ServiceCrashed` if the consumer died (after
        closing files) — the directory remains recoverable either way.
        """
        if self._closed:
            return
        self._check_started()
        self._stopping = True
        self._wake.set()
        if self._task is not None:  # start() may have failed before spawn
            # ``asyncio.wait`` raises only on *our* cancellation; a
            # consumer someone killed externally is a crash, reported as
            # ServiceCrashed below, not a CancelledError leaking out of
            # an orderly shutdown.
            await asyncio.wait({self._task})
            if self._task.cancelled() and self._error is None:
                await self._crash(
                    ServiceCrashed("service consumer was killed")
                )
        # A retune enqueued after the consumer's final loop turn would
        # otherwise strand its caller on a future nobody resolves.
        self._fail_pending_retunes(
            RuntimeError("service stopped before the retune was applied")
        )
        if (
            not self.crashed
            and checkpoint
            and self._ckpts is not None
            and self._applied > self.metrics.last_checkpoint_offset
        ):
            try:
                await self._checkpoint()
            except BaseException as err:  # noqa: BLE001 - fault-injectable
                await self._crash(err)
        if self._wal is not None:
            self._wal.close()
        self._closed = True
        if self.crashed:
            raise ServiceCrashed(
                "service consumer crashed; recover from the service "
                "directory"
            ) from self._error

    async def abort(self) -> None:
        """Hard-kill the consumer without draining (a simulated crash).

        Admitted-but-unflushed events are lost, exactly as in a real
        crash; the WAL retains everything up to :attr:`events_durable`.
        Callers suspended in :meth:`flush` barriers or backpressure
        waits are woken (and see :class:`ServiceCrashed`) — a kill must
        never strand a waiter on a condition nobody will ever notify.
        """
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
        if self._error is None and self._applied_cond is not None:
            await self._crash(ServiceCrashed("service aborted"))
        if self._wal is not None:
            self._wal.close()
        self._closed = True

    def _check_started(self) -> None:
        if not self._started or self._wake is None:
            raise RuntimeError("service not started; call `await start()`")
        if self._closed:
            raise RuntimeError("service already stopped")

    def _check_ingest(self) -> None:
        self._check_started()
        if self.crashed:
            raise ServiceCrashed(
                "service consumer crashed; no further events are accepted"
            ) from self._error
        if self._stopping:
            raise RuntimeError("service is stopping; no further events")

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    async def ingest(self, key, weight: float = 1.0, *, value=None,
                     time=None) -> None:
        """Admit one event (suspends under backpressure)."""
        # A default weight stays an absent column: interleaving scalar
        # ingest() with unweighted ingest_many() must share one batch
        # signature, not force a drain flush per alternation.
        await self.ingest_many(
            [key],
            weights=None if weight == 1.0 else [weight],
            values=None if value is None else [value],
            times=None if time is None else [time],
        )

    async def ingest_many(self, keys, weights=None, values=None,
                          times=None, *, route=None) -> None:
        """Admit a batch of events (suspends under backpressure).

        Batches larger than the buffer bound are split so admission
        never needs more than ``queue_size`` free slots at once.
        ``route`` tags the block with the tenant it belongs to: flushes
        then apply as ``update_many(..., routes=[(tenant, n), ...])``
        (see :mod:`repro.serve.batcher`), which the wrapped sampler must
        accept.  A block the sampler's
        :meth:`~repro.api.StreamSampler.check_columns` refuses (a required
        column missing, a weight out of range) raises ``TypeError`` or
        ``ValueError`` here, before anything is queued or logged.
        """
        self._check_ingest()
        chunk = chunk_of(keys, weights, values, times, route)
        if chunk["n"] == 0:  # same no-op contract as update_many
            return
        self._sampler.check_columns(chunk)
        limit = min(self.queue_size, self.batch_size)
        for lo in range(0, chunk["n"], limit):
            sub = (
                chunk
                if chunk["n"] <= limit
                else _slice_chunk(chunk, lo, min(lo + limit, chunk["n"]))
            )
            async with self._not_full:
                while (
                    self._buffered + sub["n"] > self.queue_size
                    and not self.crashed
                ):
                    await self._not_full.wait()
                self._check_ingest()
                self._admit(sub)

    def try_ingest(self, key, weight: float = 1.0, *, value=None,
                   time=None) -> bool:
        """Non-blocking scalar admit; drops (and counts) when full."""
        return self.try_ingest_many(
            [key],
            weights=None if weight == 1.0 else [weight],
            values=None if value is None else [value],
            times=None if time is None else [time],
        )

    def try_ingest_many(self, keys, weights=None, values=None,
                        times=None, *, route=None) -> bool:
        """Non-blocking batch admit: all-or-nothing, dropped events are
        counted in ``metrics.events_dropped`` and attributed to the
        block's ``route`` (as in :meth:`ingest_many`) in
        ``metrics.events_dropped_by`` — the tenant, when a cluster
        worker drops; unlabeled otherwise — so per-tenant backpressure
        drops stay distinguishable from quota rejections.  A block the
        sampler refuses raises, as in :meth:`ingest_many`.

        Synchronous — call it from the event-loop thread (e.g. inside a
        protocol callback); it never suspends.
        """
        self._check_ingest()
        chunk = chunk_of(keys, weights, values, times, route)
        if chunk["n"] == 0:
            return True
        self._sampler.check_columns(chunk)
        if self._buffered + chunk["n"] > self.queue_size:
            self.metrics.record_drop(chunk["n"], route)
            return False
        self._admit(chunk)
        return True

    def enqueue_admin(self, *ops) -> None:
        """Queue admin ops for the wrapped sampler's ``apply_admin``.

        The ops take their place in the queue behind every event admitted
        so far and ahead of every later one; the consumer logs them as a
        zero-event WAL admin record and applies them between batches.
        They occupy no event slots, so this never suspends; a
        :meth:`flush` barrier covers them.
        """
        if not ops:
            return
        self._check_ingest()
        if not callable(getattr(self._sampler, "apply_admin", None)):
            raise TypeError(
                f"sampler {self.sampler_name!r} takes no admin ops"
            )
        self._queue.append({"n": 0, "ops": list(ops)})
        self._ops_enqueued += len(ops)
        self._wake.set()

    def _admit(self, chunk: dict) -> None:
        if self.trace_log is not None:
            chunk["span"] = self.trace_log.begin(chunk["n"])
        self._queue.append(chunk)
        self._buffered += chunk["n"]
        self._enqueued += chunk["n"]
        self.metrics.events_enqueued += chunk["n"]
        self.metrics.record_depth(self._buffered)
        self._wake.set()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @contextlib.asynccontextmanager
    async def snapshot(self):
        """Pin the current state for a group of consistent reads.

        While the snapshot is held no flush can apply, so every read
        inside the block observes one ``state_version``::

            async with service.snapshot() as snap:
                total = snap.estimate("total")
                by_region = snap.query("sum", group_by=region_of)
                assert by_region.state_version == snap.state_version

        Raises :class:`ServiceCrashed` after a consumer crash: a failure
        mid-``update_many`` can leave the live sampler partially
        applied, and serving that torn state would break the isolation
        guarantee — recover from the service directory instead.
        """
        self._check_started()
        if self.crashed:
            raise ServiceCrashed(
                "service consumer crashed; the in-memory state may hold a "
                "half-applied batch — use StreamService.recover(dir)"
            ) from self._error
        async with self._state_lock:
            snap = ServiceSnapshot(
                self._sampler, self._sampler.state_version, self._applied
            )
            try:
                yield snap
            finally:
                snap._live = False

    async def sample(self):
        """One-off snapshot-isolated :meth:`~ServiceSnapshot.sample`."""
        async with self.snapshot() as snap:
            return snap.sample()

    async def estimate(self, kind: str | None = None, predicate=None, **kw):
        """One-off snapshot-isolated :meth:`~ServiceSnapshot.estimate`."""
        async with self.snapshot() as snap:
            return snap.estimate(kind, predicate=predicate, **kw)

    async def query(self, query=None, /, **kw):
        """One-off snapshot-isolated :meth:`~ServiceSnapshot.query`."""
        async with self.snapshot() as snap:
            return snap.query(query, **kw)

    async def flush(self) -> None:
        """Barrier: wait until everything admitted so far — events and
        admin ops — is applied."""
        self._check_started()
        target, ops = self._enqueued, self._ops_enqueued

        def behind() -> bool:
            return self._applied < target or self._ops_applied < ops

        async with self._applied_cond:
            while behind() and not self.crashed:
                self._force_flush = True
                self._wake.set()
                await self._applied_cond.wait()
        if behind() and self.crashed:
            raise ServiceCrashed(
                "service consumer crashed before the flush barrier"
            ) from self._error

    # ------------------------------------------------------------------
    # Online reconfiguration
    # ------------------------------------------------------------------
    async def retune(self, *, batch_size: int | None = None,
                     max_latency: float | None = None,
                     k: int | None = None) -> dict:
        """Reconfigure the running service without a restart.

        The change takes effect at the next flush boundary: the consumer
        drains the pending micro-batch under the old configuration, logs
        one WAL *admin record* (so :meth:`recover` replays the retune at
        the exact same stream position and stays bit-exact), then applies
        the new ``batch_size`` / ``max_latency`` to the batcher and — for
        ``resizable`` samplers — ``resize(k)`` to the sampler.

        ``batch_size`` is clamped to ``queue_size`` (the same dead-config
        guard as construction).  Returns the dict of changes actually
        applied, after the consumer has applied them; raises
        :class:`ServiceCrashed` if the consumer dies first.
        """
        self._check_started()
        if self.crashed:
            raise ServiceCrashed(
                "service consumer crashed; cannot retune"
            ) from self._error
        if self._stopping:
            raise RuntimeError("service is stopping; cannot retune")
        changes: dict = {}
        if batch_size is not None:
            batch_size = int(batch_size)
            if batch_size < 1:
                raise ValueError("batch_size must be >= 1")
            changes["batch_size"] = min(batch_size, self.queue_size)
        if max_latency is not None:
            max_latency = float(max_latency)
            if max_latency <= 0:
                raise ValueError("max_latency must be positive")
            changes["max_latency"] = max_latency
        if k is not None:
            if not self._sampler.resizable:
                raise ValueError(
                    f"sampler {self.sampler_name!r} is not resizable; "
                    "cannot retune k"
                )
            k = int(k)
            if k < 1:
                raise ValueError("k must be a positive integer")
            changes["k"] = k
        if not changes:
            return changes
        future = asyncio.get_running_loop().create_future()
        self._retunes.append((changes, future))
        self._wake.set()
        await future
        return changes

    def _apply_retune(self, changes: dict) -> None:
        """Apply validated retune changes to the live config + sampler
        (a logged or replayed retune, or :meth:`recover`'s keyword
        overrides)."""
        if "batch_size" in changes:
            self.batch_size = min(int(changes["batch_size"]), self.queue_size)
            self._batcher.batch_size = self.batch_size
        if "max_latency" in changes:
            self.max_latency = float(changes["max_latency"])
            self._batcher.max_latency = self.max_latency
        if "k" in changes:
            self._sampler.resize(int(changes["k"]))

    def _apply_admin(self, admin: dict) -> None:
        """Apply one admin record's effect: a retune, or sampler ops.

        Shared by the consumer (live path) and :meth:`recover` (replay)
        so both walk the exact same code.
        """
        if "retune" in admin:
            self._apply_retune(admin["retune"])
            self.metrics.record_retune()
        for op in admin.get("ops", ()):
            self._sampler.apply_admin(op)

    async def _log_admin(self, admin: dict) -> None:
        """Log ``admin`` as one zero-event WAL record, then apply it.

        The admin sequence number lets recovery skip records a later
        checkpoint already covers (replay from a checkpoint taken at the
        same offset re-yields the record).
        """
        async with self._state_lock:
            self._admin_seq += 1
            if self._wal is not None:
                frame = self._wal.append(
                    self._durable, 0,
                    {"admin": {"seq": self._admin_seq, **admin}},
                )
                self.metrics.wal_records += 1
                self.metrics.wal_bytes += frame
            self._apply_admin(admin)

    def _fail_pending_retunes(self, error: BaseException) -> None:
        while self._retunes:
            _, future = self._retunes.popleft()
            if not future.done():
                future.set_exception(error)

    # ------------------------------------------------------------------
    # The consumer task
    # ------------------------------------------------------------------
    async def _hook(self, stage: str) -> None:
        if self.fault_hook is not None:
            result = self.fault_hook(stage)
            if inspect.isawaitable(result):
                await result

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                self._heartbeat = loop.time()
                await self._pull(loop.time())
                reason = self._batcher.due(loop.time())
                if reason is not None:
                    await self._flush_batch(reason)
                if self._force_flush:
                    if len(self._batcher):
                        await self._flush_batch("drain")
                    if not self._queue:
                        self._force_flush = False
                if self._retunes:
                    await self._apply_retunes()
                if self._stopping and not self._queue:
                    # Drain the pending partial batch immediately: shutdown
                    # latency must not depend on max_latency.
                    if len(self._batcher):
                        await self._flush_batch("drain")
                    if not self._queue:
                        break
                if self._queue:
                    continue  # more work arrived while flushing
                # Park until woken, or until the pending batch's deadline
                # (a timer sets the same wake event).  A plain wait, so an
                # external ``Task.cancel()`` always lands as a
                # CancelledError here.
                deadline = self._batcher.deadline()
                timer = (
                    None if deadline is None
                    else loop.call_at(deadline, self._wake.set)
                )
                try:
                    await self._wake.wait()
                finally:
                    if timer is not None:
                        timer.cancel()
                self._wake.clear()
        except asyncio.CancelledError:
            raise
        except BaseException as err:  # noqa: BLE001 - crash containment
            await self._crash(err)

    async def _pull(self, now: float) -> None:
        """Move admitted chunks into the batcher, flushing as triggered;
        admin ops apply between batches, after draining the pending one."""
        while self._queue:
            chunk = self._queue[0]
            if "ops" in chunk:
                await self._flush_batch("drain")
                # Consecutive op entries share one admin record.
                ops = []
                while self._queue and "ops" in self._queue[0]:
                    ops.extend(self._queue.popleft()["ops"])
                await self._log_admin({"ops": ops})
                self._ops_applied += len(ops)
                async with self._applied_cond:
                    self._applied_cond.notify_all()
                continue
            if not self._batcher.accepts(chunk):
                await self._flush_batch("drain")
                continue
            self._queue.popleft()
            self._batcher.add(chunk, now)
            async with self._not_full:
                self._buffered -= chunk["n"]
                self._not_full.notify_all()
            self.metrics.record_depth(self._buffered)
            if self._batcher.size_due():
                await self._flush_batch("size")
                if self._retunes:
                    # Under sustained overload the queue never empties, so
                    # waiting for it to drain would starve pending retunes
                    # exactly when the control plane needs them.  We just
                    # crossed a flush boundary — hand control back to the
                    # consumer loop, which applies retunes before pulling
                    # again.
                    return

    async def _apply_retunes(self) -> None:
        """Apply queued retunes at a flush boundary (consumer-side).

        Drains the pending micro-batch first so the reconfiguration sits
        *between* batches, then logs and applies one admin record per
        retune.
        """
        if len(self._batcher):
            await self._flush_batch("drain")
        while self._retunes:
            changes, future = self._retunes.popleft()
            try:
                await self._log_admin({"retune": dict(changes)})
            except BaseException as err:  # noqa: BLE001 - crash containment
                if not future.done():
                    wrapped = ServiceCrashed(
                        "service consumer crashed while applying the retune"
                    )
                    wrapped.__cause__ = err
                    future.set_exception(wrapped)
                raise
            if not future.done():
                future.set_result(dict(changes))

    async def _flush_batch(self, reason: str) -> None:
        """Log then apply the pending micro-batch, atomically for readers."""
        if not len(self._batcher):
            return
        await self._hook("flush.before")
        loop = asyncio.get_running_loop()
        start = loop.time()
        oldest = self._batcher.deadline()
        # deadline() is oldest-arrival + max_latency; undo the offset to
        # get the queueing delay of the batch's oldest event.
        latency = (
            0.0 if oldest is None
            else max(0.0, start - (oldest - self._batcher.max_latency))
        )
        columns, n = self._batcher.drain()
        trace = self.trace_log
        spans = self._batcher.pop_spans() if trace is not None else ()
        t_flush = trace.clock() if trace is not None else 0.0
        async with self._state_lock:
            if self._wal is not None:
                frame = self._wal.append(self._durable, n, columns)
                self.metrics.events_logged += n
                self.metrics.wal_records += 1
                self.metrics.wal_bytes += frame
            self._durable += n
            t_wal = trace.clock() if trace is not None else 0.0
            await self._hook("apply.before")
            self._sampler.update_many(**_update_kwargs(columns))
            self._applied += n
            if trace is not None:
                t_apply = trace.clock()
                for span in spans:
                    trace.complete(
                        span, reason=reason, flush_start=t_flush,
                        wal_done=t_wal, apply_done=t_apply,
                    )
            self.metrics.record_flush(
                n, reason, latency=latency, duration=loop.time() - start
            )
            await self._hook("apply.after")
        async with self._applied_cond:
            self._applied_cond.notify_all()
        if (
            self._ckpts is not None
            and self._applied - self.metrics.last_checkpoint_offset
            >= self.checkpoint_every_events
        ):
            await self._checkpoint()

    async def _checkpoint(self) -> None:
        """Write an atomic checkpoint and prune fully-covered log
        segments."""
        trace = self.trace_log
        t_start = trace.clock() if trace is not None else 0.0
        async with self._state_lock:
            version, state = self._sampler.snapshot_state()
            offset = self._applied
            # Count this checkpoint *before* snapshotting the metrics,
            # so the persisted counters describe the state a recovery
            # from this very checkpoint resumes into.
            self.metrics.checkpoints_written += 1
            self.metrics.last_checkpoint_offset = offset
            self._ckpts.write(offset, {
                "offset": offset,
                "state": state,
                "state_version": version,
                "metrics": self.metrics.to_dict(),
                # Retune bookkeeping: the live config at checkpoint time
                # (admin records before the checkpoint may be pruned with
                # their segments) and the admin sequence already folded
                # into the state, so replay can skip re-yielded records.
                "admin_seq": self._admin_seq,
                "config": {key: getattr(self, key) for key in _CONFIG_KEYS},
            })
        if self._wal is not None:
            self._wal.prune(self._ckpts.oldest_retained_offset())
        if trace is not None:
            trace.record_checkpoint(trace.clock() - t_start, offset)

    async def _crash(self, error: BaseException) -> None:
        """Record the fatal error and wake every suspended caller."""
        self._error = error
        if self._wal is not None:
            self._wal.close()
        failure = ServiceCrashed(
            "service consumer crashed before applying the retune"
        )
        failure.__cause__ = error
        self._fail_pending_retunes(failure)
        async with self._not_full:
            self._not_full.notify_all()
        async with self._applied_cond:
            self._applied_cond.notify_all()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, dir: str | os.PathLike, **overrides) -> "StreamService":
        """Rebuild a service from its directory, bit-exactly.

        Loads the newest *valid* checkpoint (corrupt/truncated ones are
        skipped in favor of older ones), revives the sampler from it via
        the registry, and replays the write-ahead-log tail after the
        checkpoint the way the consumer applied it: batches through
        ``update_many``, admin records (retunes, sampler admin ops)
        through the live admin step.  The result equals — to the bit,
        RNG streams included — an uninterrupted run over the first
        :attr:`events_durable` events; events admitted but never logged
        at the crash are the producer's to re-send from that offset.

        Keyword overrides replace persisted config values (e.g. a larger
        ``queue_size``) and win over replayed retunes; the returned
        service is not started.
        """
        root = pathlib.Path(dir)
        meta_path = root / _META_NAME
        if not meta_path.exists():
            raise FileNotFoundError(
                f"{root} does not contain a service meta file ({_META_NAME})"
            )
        meta = pickle.loads(meta_path.read_bytes())
        config = dict(meta["config"])

        store = CheckpointStore(
            root,
            retain=int(
                overrides.get(
                    "retain_checkpoints",
                    config.get("retain_checkpoints", 2),
                )
            ),
        )
        latest = store.load_latest()
        if latest is not None:
            offset, payload = latest
            sampler = sampler_from_state(payload["state"])
            # Retunes before the checkpoint live on in its config
            # snapshot (their admin records may be pruned with their
            # segments).
            config.update(payload.get("config", {}))
        else:
            offset, payload = 0, None
            sampler = sampler_from_state(meta["initial_state"])
        admin_seq = int(payload.get("admin_seq", 0)) if payload else 0

        config.update(overrides)
        service = cls(sampler, dir=root, **config)
        # Operational counters survive the crash: restore the snapshot
        # the checkpoint carried, then count the records appended after
        # it into the WAL and retune counters as the consumer did (their
        # batches are not re-counted in the histograms — they were
        # counted when first applied).
        if payload is not None and "metrics" in payload:
            service.metrics = ServiceMetrics.from_dict(payload["metrics"])
        metrics = service.metrics
        durable = offset
        for record in replay_records(root, from_offset=offset):
            if record.offset != durable:
                break  # non-contiguous tail: not durable
            admin = record.columns.get("admin")
            if admin is None:
                sampler.update_many(**_update_kwargs(record.columns))
                durable += record.n
            elif int(admin.get("seq", 0)) <= admin_seq:
                continue  # the checkpoint's snapshots hold its effect
            else:
                # A zero-event admin record: re-apply it at the exact
                # stream position it originally took effect, so the
                # replayed sampler walks the same path (resize/fold,
                # tenant create/install/drop).
                admin_seq = int(admin["seq"])
                service._apply_admin(admin)
            metrics.wal_records += 1
            metrics.wal_bytes += record.nbytes
        service._apply_retune(overrides)  # overrides beat replayed retunes
        service._recovered = True
        service._admin_seq = admin_seq
        service._enqueued = service._durable = service._applied = durable
        metrics.events_enqueued = durable
        metrics.events_logged = durable
        metrics.events_applied = durable
        # The buffer is empty and no flush is in flight right after
        # recovery: zero the volatile gauges (queue_depth, last_flush_*)
        # the snapshot restored, or a controller would read a phantom
        # backlog and mis-retune.
        metrics.reset_volatile()
        metrics.last_checkpoint_offset = offset
        return service
