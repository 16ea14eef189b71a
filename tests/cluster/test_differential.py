"""Differential harness: one multi-tenant workload, three ingest paths.

A generated workload — ``bottom_k``, ``weighted_distinct`` and
``time_decay`` tenants; int64, uint64, float64 and str key blocks (tuple
keys too on the in-process path); optional weights, values and times;
blocks down to a single event; tenants dropped and re-created between
blocks — goes through

* bare per-tenant samplers, the reference;
* an in-process :class:`~repro.serve.cluster.Cluster`, given the blocks
  as numpy arrays or, drawn per example, as the ``.tolist()`` lists a
  JSON-minded caller sends;
* a :class:`~repro.serve.cluster.ClusterClient` talking to a
  :class:`~repro.serve.cluster.ClusterFrontend`, once with the blocks as
  numpy arrays and once as lists (numeric blocks cross as binary frames
  either way, str keys as JSON).

Every path must end with the same per-tenant samples, bit for bit, and
the same query answers, standard errors and CIs included — and so must
``Cluster.recover`` of the in-process cluster after ``stop()``.
"""

from __future__ import annotations

import contextlib
import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Query, SamplerSpec
from repro.api.registry import get_sampler_class
from repro.serve.cluster import Cluster, ClusterClient, ClusterFrontend
from tests.cluster.common import run_async

pytestmark = pytest.mark.timeout(600)

#: Tenant sampler params (seeded, so every path builds the same sampler).
PARAMS = {
    "bottom_k": {"k": 6, "rng": 11},
    "weighted_distinct": {"k": 6, "salt": 5},
    "time_decay": {"k": 6, "decay_rate": 0.05, "rng": 13},
}

#: ``(aggregate, options)`` asked of every tenant that supports it.
QUERIES = (
    ("sum", {"ci": 0.95}),
    ("count", {"ci": 0.95}),
    ("distinct", {}),
)

KEY_KINDS = ("int64", "uint64", "float64", "str")


def _keys(kind: str, raw: np.ndarray):
    """A key block of ``kind`` drawn from small integers ``raw``."""
    if kind == "int64":
        return raw.astype(np.int64)
    if kind == "uint64":
        # Half the keys above the int64 range: JSON carries them as
        # plain integers, which must not come back as floats.
        raw = raw.astype(np.uint64)
        return np.where(raw % 2 == 0, raw, np.uint64(2**64 - 1) - raw)
    if kind == "float64":
        return raw / 4.0
    if kind == "str":
        return [f"k{v}" for v in raw.tolist()]
    return [(v, v % 3) for v in raw.tolist()]  # tuple keys


@st.composite
def workloads(draw):
    """``(samplers, steps)``: each tenant's sampler name, and a list of
    ``("drop", tenant)`` / ``("ingest", tenant, block)`` steps."""
    names = sorted(PARAMS)
    samplers = {
        f"t{i}": draw(st.sampled_from(names))
        for i in range(draw(st.integers(1, 3)))
    }
    tenants = sorted(samplers)
    steps, clock = [], 0.0
    for _ in range(draw(st.integers(1, 10))):
        tenant = draw(st.sampled_from(tenants))
        if draw(st.integers(0, 7)) == 0:
            steps.append(("drop", tenant))
            continue
        n = draw(st.sampled_from((1, 2, 5, 17, 40)))
        raw = np.random.default_rng(draw(st.integers(0, 2**16))).integers(
            0, 30, n)
        kind = draw(st.sampled_from(KEY_KINDS + ("tuple",)))
        block = {"kind": kind, "keys": _keys(kind, raw)}
        timed = samplers[tenant] == "time_decay" or draw(st.booleans())
        if draw(st.booleans()):
            block["weights"] = 0.5 + (raw % 7) / 2.0  # per-key weights
        if draw(st.booleans()):
            block["values"] = raw * 1.5 + 1.0
        if timed:
            block["times"] = clock + np.arange(n) * 0.25
            clock += n * 0.25
        steps.append(("ingest", tenant, block))
    return samplers, steps


def _spec(sampler: str) -> dict:
    return {"name": sampler, "params": PARAMS[sampler]}


def _queries(sampler: str) -> list[tuple[str, dict]]:
    capabilities = get_sampler_class(sampler).query_capabilities
    return [(aggregate, options) for aggregate, options in QUERIES
            if capabilities.get(aggregate) is True]


def _columns(block: dict) -> dict:
    return {name: block[name] for name in ("weights", "values", "times")
            if name in block}


def _reference(samplers: dict, steps: list) -> dict:
    """Bare samplers fed the same blocks; the tenants alive at the end."""
    live = {}
    for step in steps:
        if step[0] == "drop":
            live.pop(step[1], None)
            continue
        _, tenant, block = step
        if tenant not in live:
            live[tenant] = SamplerSpec.from_dict(
                _spec(samplers[tenant])).build()
        live[tenant].update_many(block["keys"], **_columns(block))
    return live


async def _drive(samplers: dict, steps: list, create, drop, ingest) -> None:
    """Replay ``steps`` against one path (tenants created on first use)."""
    live = set()
    for step in steps:
        tenant = step[1]
        if step[0] == "drop":
            if tenant in live:
                await drop(tenant)
                live.discard(tenant)
            continue
        if tenant not in live:
            await create(tenant, _spec(samplers[tenant]))
            live.add(tenant)
        await ingest(tenant, step[2])


def _bits(value) -> str:
    """``repr`` of a float keeps every bit (and makes NaN comparable)."""
    return repr(float(value))


def _rows(sample) -> list[tuple]:
    """A sample as sorted rows; ``repr`` keeps key types and float bits."""
    columns = [sample.values, sample.weights, sample.priorities,
               sample.thresholds]
    if sample.times is not None:
        columns.append(sample.times)
    return sorted(
        (repr(key), *map(_bits, row))
        for key, *row in zip(sample.keys, *columns)
    )


def _plain(key):
    """A key as it reads back through a JSON frame."""
    return json.loads(json.dumps(key.item() if hasattr(key, "item")
                                 else key))


def _wire_rows(sample) -> list[tuple]:
    return sorted(
        (repr(_plain(key)), _bits(w), _bits(t))
        for key, w, t in zip(sample.keys, sample.weights, sample.thresholds)
    )


def _numbers(value) -> np.ndarray | None:
    return None if value is None else np.asarray(value, dtype=float)


def _same_answer(got: dict, want) -> bool:
    """``got`` (estimate/stderr/ci) equals the reference ``QueryResult``."""
    for name in ("estimate", "stderr", "ci"):
        a, b = _numbers(got.get(name)), _numbers(getattr(want, name))
        if (a is None) != (b is None):
            return False
        if a is not None and not np.array_equal(a, b, equal_nan=True):
            return False
    return True


def _answer(result) -> dict:
    return {"estimate": result.estimate, "stderr": result.stderr,
            "ci": result.ci}


async def _check_in_process(cluster: Cluster, samplers: dict,
                            reference: dict) -> None:
    assert set(cluster.tenants()) == set(reference)
    for tenant, control in reference.items():
        assert _rows(await cluster.sample(tenant)) == _rows(control.sample())
        for aggregate, options in _queries(samplers[tenant]):
            query = Query(aggregate, **options)
            got = await cluster.query(tenant, query)
            assert _same_answer(_answer(got), control.query(query)), \
                (tenant, aggregate)


async def _check_wire(client: ClusterClient, samplers: dict,
                      reference: dict) -> None:
    listed = await client.admin("tenants")
    assert set(listed["tenants"]) == set(reference)
    for tenant, control in reference.items():
        reply = await client.sample(tenant)
        got = sorted(
            (repr(key), _bits(w), _bits(t))
            for key, w, t in zip(reply["keys"], reply["weights"],
                                 reply["thresholds"])
        )
        assert got == _wire_rows(control.sample()), tenant
        for aggregate, options in _queries(samplers[tenant]):
            reply = await client.query(tenant, aggregate, **options)
            want = control.query(Query(aggregate, **options))
            assert _same_answer(reply, want), (tenant, aggregate)


async def _in_process(samplers, steps, root, batch_size,
                      lists: bool) -> None:
    reference = _reference(samplers, steps)
    cluster = Cluster(services=2, dir=root, batch_size=batch_size,
                      max_latency=0.002)
    await cluster.start()

    async def ingest(tenant, block):
        if lists:
            block = _as_lists(block)
        assert await cluster.ingest_many(tenant, block["keys"],
                                         **_columns(block))

    await _drive(samplers, steps, cluster.create_tenant, cluster.drop_tenant,
                 ingest)
    await cluster.flush()
    await _check_in_process(cluster, samplers, reference)
    await cluster.stop()

    recovered = Cluster.recover(root)
    await recovered.start()
    try:
        await _check_in_process(recovered, samplers, reference)
    finally:
        await recovered.stop()


def _as_lists(block: dict) -> dict:
    """``block`` as a list caller sends it: every array ``.tolist()``-ed."""
    return {name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in block.items()}


async def _over_the_wire(samplers, steps, batch_size, lists: bool) -> None:
    # The wire carries no tuple keys: the wire path gets the rest.
    steps = [step for step in steps
             if step[0] == "drop" or step[2]["kind"] != "tuple"]
    reference = _reference(samplers, steps)
    async with contextlib.AsyncExitStack() as stack:
        cluster = await stack.enter_async_context(
            Cluster(services=2, batch_size=batch_size, max_latency=0.002))
        frontend = await stack.enter_async_context(ClusterFrontend(cluster))
        client = await ClusterClient.connect(*frontend.address)
        stack.push_async_callback(client.aclose)

        async def drop(tenant):
            await client.admin("drop_tenant", tenant=tenant)

        async def ingest(tenant, block):
            if lists:
                block = _as_lists(block)
            reply = await client.ingest_many(tenant, block["keys"],
                                             **_columns(block))
            assert reply["admitted"]

        await _drive(samplers, steps, client.create_tenant, drop, ingest)
        await client.admin("flush")
        await _check_wire(client, samplers, reference)
        assert frontend.metrics.binary_frames == sum(
            step[0] == "ingest" and step[2]["kind"] != "str"
            for step in steps)


def _paths_agree(workload, batch_size, lists: bool) -> None:
    """Every path against the reference; ``lists`` picks the in-process
    caller's containers (the wire runs both)."""
    samplers, steps = workload
    with tempfile.TemporaryDirectory() as root:
        run_async(_in_process(samplers, steps, root, batch_size, lists))
    for wire_lists in (False, True):
        run_async(_over_the_wire(samplers, steps, batch_size, wire_lists))


@given(workload=workloads(), batch_size=st.sampled_from((1, 7, 64)),
       lists=st.booleans())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bare_in_process_and_wire_paths_agree(workload, batch_size, lists):
    _paths_agree(workload, batch_size, lists)


@pytest.mark.soak
@given(workload=workloads(), batch_size=st.sampled_from((1, 7, 64)),
       lists=st.booleans())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bare_in_process_and_wire_paths_agree_soak(workload, batch_size,
                                                   lists):
    """The same differential run at soak size (``REPRO_SOAK=1``)."""
    _paths_agree(workload, batch_size, lists)
