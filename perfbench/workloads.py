"""The four workloads: inputs made from a seed, closed-loop drivers, checks.

Every driver is a closed loop with one caller (the next request is sent
only after the previous reply), so nothing queues in the benchmark
itself.  Each driver returns a :class:`RunResult` holding the raw timings
the metrics are computed from, the operations attempted and failed, and
the correctness verdicts.  The drivers build the system under test
``setups`` times and keep the last build for the measured loop, so the
set-up time is a median too.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import pathlib
import shutil
import statistics
import time

import numpy as np

from repro import Query, ShardedSampler
from repro.api.registry import SamplerSpec, get_sampler_class
from repro.query.planner import execute
from repro.serve.cluster import Cluster, ClusterClient, ClusterFrontend
from repro.workloads.zipf import zipf_stream

from . import hostspeed
from .tracing import Tracer, instrumented

__all__ = [
    "WORKLOADS", "RunResult", "make_inputs", "drive", "sizes_for",
]

WORKLOADS = ("ingest_cluster", "ingest_wire", "query_dashboard",
             "ingest_engine")

#: Full-scale input sizes; tests pass ``scale`` to shrink them.
SIZES = {
    "ingest_cluster": {"tenants": 8, "events_per_tenant": 1_000_000,
                       "chunk": 4096, "k": 256, "zipf": 1.3},
    "ingest_wire": {"tenants": 8, "events_per_tenant": 1_000_000,
                    "chunk": 4096, "k": 256, "zipf": 1.3},
    "query_dashboard": {"preload_per_tenant": 50_000, "round_events": 64,
                        "rounds_per_cycle": 2048, "hits_per_cold": 3,
                        "check_every": 8, "zipf": 1.3},
    "ingest_engine": {"events": 4_000_000, "batch": 65536, "k": 256,
                      "shards": 2, "zipf": 1.5},
}

#: Set-up repetitions per run (the reported set-up time is their median).
SETUPS = {"ingest_cluster": 41, "ingest_wire": 41, "query_dashboard": 15,
          "ingest_engine": 501}

#: Length of one measurement window.  Each window's time is converted to
#: reference seconds with the host speed measured at its two ends, and
#: the reported figures are medians over the windows (``RunResult.rate``).
WINDOW_SECONDS = 0.25


def sizes_for(workload: str, scale: float = 1.0) -> dict:
    """The workload's input sizes, with event counts multiplied by
    ``scale`` (chunk, batch and sample sizes stay fixed)."""
    sizes = dict(SIZES[workload])
    for name in ("events_per_tenant", "preload_per_tenant", "events",
                 "rounds_per_cycle"):
        if name in sizes:
            sizes[name] = max(int(sizes[name] * scale), 1)
    return sizes


@dataclasses.dataclass
class RunResult:
    """Raw outcome of one measured loop."""

    events: int = 0
    seconds: float = 0.0
    calls: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    setup_seconds: list = dataclasses.field(default_factory=list)
    kernel_seconds: float = 0.0
    kernel_events: int = 0
    checks: dict = dataclasses.field(default_factory=dict)
    extra: dict = dataclasses.field(default_factory=dict)
    #: Closed windows: (units of work, seconds, call latencies, host
    #: speed).
    windows: list = dataclasses.field(default_factory=list)
    _open: list = dataclasses.field(default_factory=lambda: [0, 0.0, []])
    _speed: float | None = None

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def record(self, units: int, seconds: float, calls=()) -> None:
        """Add work to the open window; close it once it spans
        ``WINDOW_SECONDS``."""
        if self._speed is None:
            self._speed = hostspeed.speed()
        window = self._open
        window[0] += units
        window[1] += seconds
        window[2].extend(calls)
        if window[1] >= WINDOW_SECONDS:
            self.close_window()

    def close_window(self) -> None:
        units, seconds, calls = self._open
        if units:
            now = hostspeed.speed()
            self.windows.append((units, seconds, calls,
                                 (self._speed + now) / 2))
            self._speed = now
        self._open = [0, 0.0, []]

    @property
    def rate(self) -> float:
        """Units of work per reference second, median over the windows."""
        return statistics.median(u / (s * f) for u, s, _, f in self.windows)

    @property
    def call_p50(self) -> float:
        """Median call latency in reference seconds: the median over the
        windows of each window's median call."""
        return statistics.median(
            statistics.median(calls) * f
            for _, _, calls, f in self.windows if calls
        )


def _traced(tracer, context, *args):
    """``context(tracer, *args)`` when tracing, a no-op context otherwise."""
    if tracer is None:
        return contextlib.nullcontext()
    return context(tracer, *args)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def make_inputs(workload: str, seed: int, scale: float = 1.0) -> dict:
    """Everything the workload sends, generated from ``seed`` alone."""
    seed = int(seed) % 2**32  # numpy seeds must be non-negative
    sizes = sizes_for(workload, scale)
    rng = _rng(seed, workload)
    if workload in ("ingest_cluster", "ingest_wire"):
        return _tenant_streams(sizes, rng, seed)
    if workload == "query_dashboard":
        return _dashboard_inputs(sizes, rng, seed)
    return _engine_inputs(sizes, rng)


def _tenant_streams(sizes: dict, rng, seed: int) -> dict:
    n = sizes["events_per_tenant"]
    n = max(n // sizes["chunk"], 1) * sizes["chunk"]  # whole chunks only
    universe = max(n // 50, 1000)
    tenants = {}
    for i in range(sizes["tenants"]):
        weighted = i % 2 == 1
        name = f"{'wd' if weighted else 'bk'}-{i}"
        keys = zipf_stream(n, universe, sizes["zipf"], rng=rng)
        if weighted:
            spec = {"name": "weighted_distinct",
                    "params": {"k": sizes["k"], "salt": int(seed) % 1000}}
            weights = rng.lognormal(0.0, 0.6, universe)[keys]
        else:
            spec = {"name": "bottom_k",
                    "params": {"k": sizes["k"], "rng": int(seed) * 16 + i}}
            weights = None
        tenants[name] = {"spec": spec, "keys": keys.astype(np.int64),
                         "weights": weights}
    return {"sizes": sizes, "tenants": tenants}


def _engine_inputs(sizes: dict, rng) -> dict:
    n = sizes["events"]
    n = max(n // sizes["batch"], 1) * sizes["batch"]
    universe = max(n // 100, 1000)
    keys = zipf_stream(n, universe, sizes["zipf"], rng=rng).astype(np.int64)
    # Per-key weights: every occurrence of a key carries the same weight,
    # which is the distinct-sketch contract.
    weights = rng.lognormal(0.0, 0.6, universe)[keys]
    spec = {"name": "weighted_distinct", "params": {"k": sizes["k"]}}
    return {"sizes": sizes, "keys": keys, "weights": weights, "spec": spec}


#: The dashboard's tenants: sampler, k, and the columns its events carry.
DASHBOARD_TENANTS = {
    "bottom_k": ({"k": 4096}, ("values", "times")),
    "weighted_distinct": ({"k": 4096}, ("weights",)),
    "time_decay": ({"k": 4096, "decay_rate": 0.01}, ("weights", "times")),
    "sliding_window": ({"k": 1024, "window": 400.0}, ("weights", "times")),
}

#: The panel every round refreshes; each tenant answers what it supports.
DASHBOARD_QUERIES = (
    ("sum_ci", Query("sum", ci=0.95)),
    ("count_ci", Query("count", ci=0.95)),
    ("median", Query("quantile", q=0.5)),
    ("distinct", Query("distinct")),
    ("decayed_sum", Query("sum", decay=0.01)),
    ("last_sum", Query("sum", last=100.0)),
)

#: Preloaded events span stream time [0, PRELOAD_SPAN); round r writes
#: its events inside [PRELOAD_SPAN + r, PRELOAD_SPAN + r + 1).
PRELOAD_SPAN = 600.0


def _dashboard_inputs(sizes: dict, rng, seed: int) -> dict:
    universe = 100_000
    per_key = rng.lognormal(0.0, 0.6, universe)
    preload = sizes["preload_per_tenant"]
    cycle = sizes["rounds_per_cycle"] * sizes["round_events"]
    tenants = {}
    for i, (name, (params, columns)) in enumerate(DASHBOARD_TENANTS.items()):
        params = dict(params)
        if name != "weighted_distinct":
            params["rng"] = int(seed) * 16 + i
        keys = zipf_stream(preload + cycle, universe, sizes["zipf"], rng=rng)
        data = {"keys": keys.astype(np.int64)}
        if "weights" in columns:
            data["weights"] = per_key[keys]
        if "values" in columns:
            data["values"] = per_key[keys] * 10.0
        tenants[name] = {
            "spec": {"name": name, "params": params},
            "columns": data,
            "timed": "times" in columns,
            "queries": [
                (label, query) for label, query in DASHBOARD_QUERIES
                if _supports(name, query)
            ],
        }
    return {"sizes": sizes, "tenants": tenants}


def _supports(sampler: str, query: Query) -> bool:
    cls = get_sampler_class(sampler)
    if cls.query_capabilities.get(query.aggregate) is not True:
        return False
    return not query.is_time_scoped or cls.query_windowed is True


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------
_SAMPLE_FIELDS = ("values", "weights", "priorities", "thresholds")


def _rows(sample) -> list[tuple]:
    """A sample as a sorted list of rows; ``repr`` keeps every float bit
    (and makes NaN rows comparable)."""
    columns = [getattr(sample, name) for name in _SAMPLE_FIELDS]
    if sample.times is not None:
        columns.append(sample.times)
    return sorted(
        tuple(map(repr, row))
        for row in zip(sample.keys, *(np.asarray(c, dtype=float).tolist()
                                      for c in columns))
    )


def same_sample(a, b) -> bool:
    """Bit-identical samples: the same rows (key, value, weight, priority,
    threshold and time), in any order."""
    return (a.times is None) == (b.times is None) and _rows(a) == _rows(b)


def _same_number(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return bool(np.array_equal(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float), equal_nan=True))


def same_answer(a, b) -> bool:
    """Equal query answers: estimate, standard error and CI."""
    return (_same_number(a.estimate, b.estimate)
            and _same_number(a.stderr, b.stderr)
            and _same_number(a.ci, b.ci))


def _blocks(tenant: dict, chunk: int):
    keys, weights = tenant["keys"], tenant["weights"]
    for lo in range(0, len(keys), chunk):
        yield (keys[lo:lo + chunk],
               None if weights is None else weights[lo:lo + chunk])


def _feed_controls(inputs: dict, rounds: int) -> tuple[dict, float]:
    """Bare samplers fed the same blocks the system was sent (the kernel
    rung), plus the seconds their ``update_many`` calls took."""
    chunk = inputs["sizes"]["chunk"]
    controls, seconds = {}, 0.0
    for name, tenant in inputs["tenants"].items():
        control = SamplerSpec.from_dict(tenant["spec"]).build()
        blocks = list(_blocks(tenant, chunk))
        for r in range(rounds):
            keys, weights = blocks[r % len(blocks)]
            t0 = time.perf_counter()
            control.update_many(keys, weights)
            seconds += time.perf_counter() - t0
        controls[name] = control
    return controls, seconds


async def _check_tenants(cluster: Cluster, inputs: dict, sent: dict,
                         controls: dict, result: RunResult) -> None:
    """Zero loss and bit-identical per-tenant samples."""
    placement = cluster.placement()
    lossless, identical = True, True
    for name in inputs["tenants"]:
        mux = cluster.service(placement[name]).sampler
        lossless &= mux.events_applied_for(name) == sent[name]
        identical &= same_sample(await cluster.sample(name),
                                 controls[name].sample())
    result.checks["zero_loss"] = lossless
    result.checks["samples_identical"] = identical


def _cluster_state(cluster: Cluster) -> dict:
    """Service-layer counters and trace summaries after the run."""
    workers = {}
    for name in cluster.services:
        worker = cluster.service(name)
        trace = worker.trace_log
        workers[name] = {
            "metrics": worker.metrics.to_dict(),
            "queued": [] if trace is None else [
                record["queued"] for record in trace.records()
                if record["kind"] == "span"
            ],
            "checkpoints": 0 if trace is None else trace.checkpoints,
            "checkpoint_seconds":
                0.0 if trace is None else trace.checkpoint_seconds,
        }
    rejected = sum(
        sum(cluster.registry.get(t).rejected.values())
        for t in cluster.tenants()
    )
    return {"workers": workers, "rejected": rejected}


async def _timed_setups(build, teardown, setups: int):
    """Build ``setups`` times; tear all but the last down.  Returns the
    per-build reference seconds and the kept system."""
    seconds, system = [], None
    before = hostspeed.speed()
    for i in range(setups):
        t0 = time.perf_counter()
        system = await build()
        seconds.append(time.perf_counter() - t0)
        if i < setups - 1:
            await teardown(system)
    factor = (before + hostspeed.speed()) / 2
    return [s * factor for s in seconds], system


# ---------------------------------------------------------------------------
# ingest_cluster / ingest_wire
# ---------------------------------------------------------------------------
async def _start_cluster(root: pathlib.Path, specs: dict,
                         trace: bool) -> Cluster:
    shutil.rmtree(root, ignore_errors=True)
    cluster = Cluster(services=2, dir=root, trace=trace)
    await cluster.start()
    await cluster.create_tenants(specs)
    await cluster.flush()
    return cluster


async def drive_ingest(inputs: dict, seconds: float, root: pathlib.Path,
                       *, wire: bool, tracer=None, setups: int = 1
                       ) -> RunResult:
    """Round-robin 4096-event chunks of every tenant into a durable
    2-service cluster, in process or through the frontend and one client."""
    result = RunResult()
    tenants = inputs["tenants"]
    specs = {name: t["spec"] for name, t in tenants.items()}
    chunk = inputs["sizes"]["chunk"]

    async def build():
        cluster = await _start_cluster(root, specs, tracer is not None)
        if not wire:
            return cluster, None, None
        frontend = await ClusterFrontend(cluster).start()
        client = await ClusterClient.connect(*frontend.address)
        return cluster, frontend, client

    async def teardown(system):
        cluster, frontend, client = system
        if client is not None:
            await client.aclose()
            await frontend.stop()
        await cluster.stop()

    result.setup_seconds, system = await _timed_setups(build, teardown,
                                                       setups)
    cluster, frontend, client = system
    try:
        blocks = {name: list(_blocks(t, chunk)) for name, t in tenants.items()}
        n_blocks = len(next(iter(blocks.values())))
        sent = dict.fromkeys(tenants, 0)
        rounds = 0
        with _traced(tracer, instrumented):
            start = time.perf_counter()
            deadline = start + seconds
            while True:
                round_start = time.perf_counter()
                round_events, round_calls = 0, []
                for name in tenants:
                    keys, weights = blocks[name][rounds % n_blocks]
                    t0 = time.perf_counter()
                    try:
                        if wire:
                            ok = await _send_wire(client, name, keys,
                                                  weights, tracer)
                        else:
                            ok = await cluster.ingest_many(name, keys,
                                                           weights=weights)
                    except Exception:  # noqa: BLE001 - counted, run goes on
                        ok = False
                    round_calls.append(time.perf_counter() - t0)
                    result.attempted += 1
                    if ok:
                        sent[name] += len(keys)
                        round_events += len(keys)
                    else:
                        result.failed += 1
                result.calls += round_calls
                now = time.perf_counter()
                result.record(round_events, now - round_start, round_calls)
                rounds += 1
                if now >= deadline:
                    break
            result.close_window()
            if wire:
                await client.admin("flush")
            else:
                await cluster.flush()
            result.seconds = time.perf_counter() - start
        result.events = sum(sent.values())
        controls, result.kernel_seconds = _feed_controls(inputs, rounds)
        result.kernel_events = result.events
        await _check_tenants(cluster, inputs, sent, controls, result)
        result.extra = {"cluster": _cluster_state(cluster)}
    finally:
        await teardown(system)
        shutil.rmtree(root, ignore_errors=True)
    return result


async def _send_wire(client: ClusterClient, tenant: str, keys, weights,
                     tracer) -> bool:
    # ClusterClient.ingest_many JSON-encodes plain lists only (numpy int64
    # is not JSON serializable), so the caller converts every block; the
    # conversion is part of the timed call and of the client-prep span.
    with _traced(tracer, Tracer.span, "wire.client_prep", "", len(keys)):
        keys = keys.tolist()
        weights = None if weights is None else weights.tolist()
    reply = await client.ingest_many(tenant, keys, weights=weights)
    return bool(reply.get("admitted"))


# ---------------------------------------------------------------------------
# query_dashboard
# ---------------------------------------------------------------------------
def _round_columns(tenant: dict, preload: int, n: int, r: int) -> dict:
    """Round ``r``'s events for one tenant."""
    cycle = len(tenant["columns"]["keys"]) - preload
    lo = preload + (r * n) % cycle
    out = {name: col[lo:lo + n] for name, col in tenant["columns"].items()}
    if tenant["timed"]:
        out["times"] = PRELOAD_SPAN + r + np.arange(n) / n
    return out


def _preload_blocks(tenant: dict, preload: int, chunk: int = 4096):
    """The preload, in the blocks the cluster and the control are fed.
    (One 50000-event ``update_many`` on ``sliding_window`` can retain a
    different sample than the same events in smaller blocks.)"""
    for lo in range(0, preload, chunk):
        hi = min(lo + chunk, preload)
        block = {name: col[lo:hi] for name, col in tenant["columns"].items()}
        if tenant["timed"]:
            block["times"] = np.arange(lo, hi) * (PRELOAD_SPAN / preload)
        yield block


async def drive_dashboard(inputs: dict, seconds: float, root: pathlib.Path,
                          *, tracer=None, setups: int = 1) -> RunResult:
    """Preloaded tenants; each round writes 64 events per tenant, flushes,
    then asks every panel query once cold and three more times (hits)."""
    result = RunResult()
    sizes = inputs["sizes"]
    tenants = inputs["tenants"]
    preload, n = sizes["preload_per_tenant"], sizes["round_events"]
    specs = {name: t["spec"] for name, t in tenants.items()}

    async def build():
        cluster = await _start_cluster(root, specs, tracer is not None)
        for name, tenant in tenants.items():
            for block in _preload_blocks(tenant, preload):
                await cluster.ingest_many(name, **block)
        await cluster.flush()
        return cluster

    async def teardown(cluster):
        await cluster.stop()

    result.setup_seconds, cluster = await _timed_setups(build, teardown,
                                                        setups)
    try:
        controls = {}
        for name, tenant in tenants.items():
            controls[name] = SamplerSpec.from_dict(tenant["spec"]).build()
            for block in _preload_blocks(tenant, preload):
                controls[name].update_many(**block)
        cold, hits = [], []

        async def timed_query(name, query, sink):
            t0 = time.perf_counter()
            try:
                answer = await cluster.query(name, query)
            except Exception:  # noqa: BLE001 - counted, run goes on
                answer = None
            sink.append(time.perf_counter() - t0)
            result.attempted += 1
            result.failed += answer is None
            return answer

        answers_ok, hits_ok = True, True
        busy = 0.0
        rounds = 0
        with _traced(tracer, instrumented):
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                round_start = time.perf_counter()
                batch = {name: _round_columns(t, preload, n, rounds)
                         for name, t in tenants.items()}
                for name in tenants:
                    try:
                        ok = await cluster.ingest_many(name, **batch[name])
                    except Exception:  # noqa: BLE001 - counted
                        ok = False
                    result.attempted += 1
                    result.failed += not ok
                await cluster.flush()
                answers = {}
                n_cold, n_hits = len(cold), len(hits)
                for name, tenant in tenants.items():
                    for label, query in tenant["queries"]:
                        first = await timed_query(name, query, cold)
                        for _ in range(sizes["hits_per_cold"]):
                            again = await timed_query(name, query, hits)
                            hits_ok &= again is first
                        answers[name, label] = first
                round_seconds = time.perf_counter() - round_start
                busy += round_seconds
                # Throughput counts every query; the window's calls are
                # the cold ones, the requests that do the work.
                result.record(len(cold) - n_cold + len(hits) - n_hits,
                              round_seconds, cold[n_cold:])
                with _traced(tracer, Tracer.paused):
                    t0 = time.perf_counter()
                    for name in tenants:
                        controls[name].update_many(**batch[name])
                    result.kernel_seconds += time.perf_counter() - t0
                    result.kernel_events += n * len(tenants)
                    if rounds % sizes["check_every"] == 0:
                        answers_ok &= _check_answers(tenants, controls,
                                                     answers)
                rounds += 1
            result.close_window()
        result.events = rounds * n * len(tenants)
        result.seconds = busy
        result.calls = cold + hits
        result.checks["answers_match_control"] = answers_ok
        result.checks["hits_return_cached_answer"] = hits_ok
        result.checks["zero_loss"] = all(
            cluster.service(cluster.placement()[name]).sampler
            .events_applied_for(name) == preload + rounds * n
            for name in tenants
        )
        result.extra = {"cold": cold, "hits": hits,
                        "cluster": _cluster_state(cluster)}
    finally:
        await cluster.stop()
        shutil.rmtree(root, ignore_errors=True)
    return result


def _check_answers(tenants: dict, controls: dict, answers: dict) -> bool:
    """Every answer of the round equals ``planner.execute`` on the control."""
    ok = True
    for name, tenant in tenants.items():
        for label, query in tenant["queries"]:
            got = answers[name, label]
            ok &= got is not None and same_answer(
                got, execute(controls[name], query)
            )
    return ok


# ---------------------------------------------------------------------------
# ingest_engine
# ---------------------------------------------------------------------------
def drive_engine(inputs: dict, seconds: float, *, tracer=None,
                 setups: int = 1) -> RunResult:
    """65536-event batches into a bare ``weighted_distinct`` (the kernel
    rung) and into a 2-shard ``ShardedSampler`` with its default dispatch,
    alternating per batch.  The gated throughput covers the batches; the
    final reduced ``sample()`` is timed apart (``engine.reduce_ms``) and
    counts only in the ratio to the kernel rung."""
    result = RunResult()
    sizes = inputs["sizes"]
    spec = inputs["spec"]
    keys, weights = inputs["keys"], inputs["weights"]
    batch = sizes["batch"]
    n_batches = len(keys) // batch
    before = hostspeed.speed()
    for _ in range(setups):
        t0 = time.perf_counter()
        engine = ShardedSampler(spec, n_shards=sizes["shards"])
        result.setup_seconds.append(time.perf_counter() - t0)
    factor = (before + hostspeed.speed()) / 2
    result.setup_seconds = [s * factor for s in result.setup_seconds]
    single = SamplerSpec.from_dict(spec).build()
    engine_seconds = 0.0
    batches = 0
    with _traced(tracer, instrumented):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            lo = (batches % n_batches) * batch
            k, w = keys[lo:lo + batch], weights[lo:lo + batch]
            with _traced(tracer, Tracer.paused):
                t0 = time.perf_counter()
                single.update_many(k, w)
                result.kernel_seconds += time.perf_counter() - t0
            t0 = time.perf_counter()
            try:
                engine.update_many(k, w)
            except Exception:  # noqa: BLE001 - counted
                result.failed += 1
            elapsed = time.perf_counter() - t0
            engine_seconds += elapsed
            result.calls.append(elapsed)
            result.record(len(k), elapsed, [elapsed])
            result.attempted += 1
            batches += 1
        result.close_window()
        with _traced(tracer, Tracer.paused):
            t0 = time.perf_counter()
            single_sample = single.sample()
            result.kernel_seconds += time.perf_counter() - t0
        t0 = time.perf_counter()
        engine_sample = engine.sample()
        reduce_seconds = time.perf_counter() - t0
    result.events = result.kernel_events = batches * batch
    result.seconds = engine_seconds + reduce_seconds
    result.checks["reduced_equals_single"] = same_sample(engine_sample,
                                                         single_sample)
    return result


def drive(workload: str, inputs: dict, seconds: float, scratch: pathlib.Path,
          *, tracer=None, setups: int = 1) -> RunResult:
    """Run one measured loop of ``workload``."""
    root = scratch / workload
    if workload == "ingest_engine":
        return drive_engine(inputs, seconds, tracer=tracer, setups=setups)
    if workload == "query_dashboard":
        coro = drive_dashboard(inputs, seconds, root, tracer=tracer,
                               setups=setups)
    else:
        coro = drive_ingest(inputs, seconds, root,
                            wire=workload == "ingest_wire",
                            tracer=tracer, setups=setups)
    return asyncio.run(coro)
