"""Spans recorded around calls into each layer's public entry points.

The benchmark does not rely on spans inside the program: ``instrumented``
temporarily wraps the entry points listed in ``ENTRY_POINTS`` (cluster,
service, tenant mux, samplers, WAL, wire frames, client, planner, engine)
so every call records a :class:`Span`.  A span's parent is the innermost
span open *in the same asyncio task* (a ``ContextVar``), so a consumer
task's flush is never attributed to the producer awaiting it.  Children
of one span run sequentially in its task, so a span's self time is its
duration minus the sum of its children's durations.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import time

from repro.api.protocol import StreamSampler
from repro.engine.sharded import ShardedSampler
from repro.query import planner
from repro.samplers.bottomk import BottomKSampler
from repro.samplers.distinct import WeightedDistinctSketch
from repro.samplers.sliding_window import SlidingWindowSampler
from repro.samplers.time_decay import ExponentialDecaySampler
from repro.serve.cluster import frontend
from repro.serve.cluster.cluster import Cluster
from repro.serve.cluster.mux import TenantMuxSampler
from repro.serve.service import StreamService
from repro.serve.wal import WriteAheadLog

__all__ = ["Span", "Tracer", "instrumented", "ENTRY_POINTS"]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Tenant sampler classes whose kernels the workloads drive.
SAMPLER_CLASSES = {
    BottomKSampler: "bottom_k",
    WeightedDistinctSketch: "weighted_distinct",
    ExponentialDecaySampler: "time_decay",
    SlidingWindowSampler: "sliding_window",
}


class Span:
    """One timed call: name, parent span, start/end, and a size.

    ``size`` is what the call carried: events for ingest entry points,
    bytes for socket reads.  ``label`` tells spans of one name apart (the
    sampler class for sampler calls).
    """

    __slots__ = ("name", "label", "parent", "t0", "t1", "children",
                 "child_seconds", "size")

    def __init__(self, name: str, label: str, parent, t0: float, size: int):
        self.name = name
        self.label = label
        self.parent = parent
        self.t0 = t0
        self.t1 = t0
        self.children = 0
        self.child_seconds = 0.0
        self.size = size

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """Keeps every finished span in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Record nothing while the benchmark does its own work (control
        samplers, answer checks) with the entry points still wrapped."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextlib.contextmanager
    def span(self, name: str, label: str = "", size: int = 0):
        if self._paused:
            yield Span(name, label, None, 0.0, size)
            return
        parent = _CURRENT.get()
        span = Span(name, label, parent, time.perf_counter(), size)
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            _CURRENT.reset(token)
            if parent is not None:
                parent.children += 1
                parent.child_seconds += span.seconds
            self.spans.append(span)

    def named(self, name: str, parent: str | None = None) -> list[Span]:
        """Spans called ``name``, optionally only those under ``parent``."""
        return [
            span for span in self.spans
            if span.name == name and (
                parent is None
                or (span.parent is not None and span.parent.name == parent)
            )
        ]


def _keys_at(index: int):
    """Size function: the length of the ``keys`` argument at ``index``."""
    def size(args, kwargs, result) -> int:
        keys = args[index] if len(args) > index else kwargs.get("keys")
        return len(keys) if keys is not None else 0
    return size


# (owner, attribute, span name, size(args, kwargs, result)).  Sizes are
# events carried, except ``wire.recv`` (bytes read off the socket).
ENTRY_POINTS = [
    (Cluster, "ingest_many", "cluster.ingest_many", _keys_at(2)),
    (Cluster, "query", "cluster.query", None),
    (StreamService, "ingest_many", "service.ingest_many", _keys_at(1)),
    (StreamService, "snapshot", "service.snapshot", None),
    (TenantMuxSampler, "update_many", "mux.update_many", _keys_at(1)),
    (WriteAheadLog, "append", "wal.append", lambda a, k, r: int(a[2])),
    (frontend, "write_frame", "wire.write_frame",
     lambda a, k, r: len(a[1].get("keys") or ())),
    (frontend, "read_frame", "wire.read_frame",
     lambda a, k, r: len((r or {}).get("keys") or ())),
    (frontend, "_read_exactly", "wire.recv", lambda a, k, r: int(a[1])),
    (frontend.ClusterClient, "call", "client.call", None),
    (frontend.ClusterClient, "ingest_many", "client.ingest_many",
     _keys_at(2)),
    (StreamSampler, "query", "sampler.query", None),
    (planner, "execute", "query.execute", None),
    (planner, "run_aggregate", "query.run_aggregate", None),
    (ShardedSampler, "update_many", "engine.update_many", _keys_at(1)),
    (ShardedSampler, "partition_batch", "engine.partition", _keys_at(1)),
    (ShardedSampler, "reduced", "engine.reduce", None),
] + [
    entry
    for cls in SAMPLER_CLASSES
    for entry in (
        (cls, "update_many", "sampler.update_many", _keys_at(1)),
        (cls, "sample", "sampler.sample", None),
    )
]


def _label(name: str, args) -> str:
    """The sampler class a sampler-level call ran on."""
    if name.startswith(("sampler.", "query.execute")) and args:
        return SAMPLER_CLASSES.get(type(args[0]), type(args[0]).__name__)
    return ""


def _wrap(tracer: Tracer, fn, name: str, size):
    size = size or (lambda a, k, r: 0)
    if inspect.iscoroutinefunction(fn):
        async def wrapper(*args, **kwargs):
            with tracer.span(name, _label(name, args)) as span:
                result = await fn(*args, **kwargs)
                span.size = size(args, kwargs, result)
                return result
    elif name == "service.snapshot":
        # An async context manager: the span covers acquiring it (the
        # state lock), not the reads done while it is held.
        def wrapper(*args, **kwargs):
            return _TimedEnter(tracer, name, fn(*args, **kwargs))
    else:
        def wrapper(*args, **kwargs):
            with tracer.span(name, _label(name, args)) as span:
                result = fn(*args, **kwargs)
                span.size = size(args, kwargs, result)
                return result
    return functools.wraps(fn)(wrapper)


class _TimedEnter:
    def __init__(self, tracer: Tracer, name: str, cm):
        self._tracer = tracer
        self._name = name
        self._cm = cm

    async def __aenter__(self):
        with self._tracer.span(self._name):
            return await self._cm.__aenter__()

    async def __aexit__(self, *exc):
        return await self._cm.__aexit__(*exc)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every entry point in ``ENTRY_POINTS`` while the block runs."""
    saved = []
    try:
        for owner, attr, name, size in ENTRY_POINTS:
            # Wrap what the owner defines itself; an inherited method is
            # wrapped on the owner and the override removed afterwards.
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            saved.append((owner, attr, original if own else None))
            setattr(owner, attr, _wrap(tracer, original, name, size))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
