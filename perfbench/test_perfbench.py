"""Smoke-scale tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from perfbench import run, tracing, workloads
from perfbench.tracing import Tracer

SCALE = 0.02
SECONDS = 0.6

CATALOG, LAYERS = run.load_catalog()
NAMED = set(LAYERS["named_end_to_end"])


def _run(tmp_path, workload, trace, seed=3):
    return run.run_workload(workload, seed, SECONDS, trace, tmp_path, SCALE)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload):
    for trace, listed in ((False, CATALOG["end_to_end"]),
                          (True, CATALOG["per_layer"])):
        record = _run(tmp_path, workload, trace)
        result = record["result"]
        assert result["correct"], record["checks"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), name
            if not trace:
                assert metric["value"] > 0, name
        if trace:
            exercised = {n for n, e in LAYERS["per_layer"].items()
                         if workload in e["workloads"]}
            bypassed = set(result["metrics"]) - exercised
            assert set(record["bypassed"]) == bypassed
            assert all(result["metrics"][n]["value"] == 0.0
                       for n in record["bypassed"])
        else:
            assert set(record["named"]) <= NAMED | set(result["metrics"])
            for value, unit, _ in record["named"].values():
                assert unit and value >= 0


def test_catalogs_agree():
    assert set(LAYERS["per_layer"]) == {m["name"]
                                        for m in CATALOG["per_layer"]}
    assert set(LAYERS["end_to_end"]) - {"reference_seconds"} == {
        m["name"] for m in CATALOG["end_to_end"]}
    assert [w["name"] for w in CATALOG["workloads"]] == list(
        workloads.WORKLOADS) == list(LAYERS["workloads"])


def test_header_names_the_run(tmp_path):
    record = _run(tmp_path, "ingest_engine", False, seed=11)
    head = record["header"]
    for key in ("git_sha", "cores", "python", "numpy", "seed", "sizes"):
        assert head[key] not in (None, "")
    assert head["seed"] == 11
    assert head["sizes"] == workloads.sizes_for("ingest_engine", SCALE)


def _flatten(value):
    if isinstance(value, dict):
        return {k: _flatten(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_flatten(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = _flatten(workloads.make_inputs(workload, 5, SCALE))
    assert first == _flatten(workloads.make_inputs(workload, 5, SCALE))
    assert first != _flatten(workloads.make_inputs(workload, 6, SCALE))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_nest_and_self_times_are_not_negative(tmp_path, workload):
    tracer = Tracer()
    inputs = workloads.make_inputs(workload, 2, SCALE)
    result = workloads.drive(workload, inputs, SECONDS, tmp_path,
                             tracer=tracer)
    assert result.correct
    assert tracer.spans
    for span in tracer.spans:
        assert span.t1 >= span.t0
        assert span.self_seconds >= -1e-9
        if span.parent is not None:
            assert span.parent.t0 <= span.t0 <= span.t1 <= span.parent.t1


def test_ledger_fails_when_a_call_path_leaves_its_entry_points(
        tmp_path, monkeypatch):
    # The engine still partitions, but no longer through a wrapped entry
    # point: its entry must fail the run, not read 0.
    monkeypatch.setattr(tracing, "ENTRY_POINTS", [
        entry for entry in tracing.ENTRY_POINTS
        if entry[2] != "engine.partition"
    ])
    with pytest.raises(RuntimeError, match="engine.partition"):
        _run(tmp_path, "ingest_engine", True)


def _corrupting(real):
    """A stand-in for ``SamplerSpec`` whose samplers (the controls) have
    ingested one event the system never saw."""
    class CorruptSpec:
        @staticmethod
        def from_dict(spec):
            return CorruptSpec(spec)

        def __init__(self, spec):
            self.spec = spec

        def build(self):
            sampler = real.from_dict(self.spec).build()
            sampler.update_many(np.array([123456789]), np.array([7.5]),
                                times=np.array([0.0]))
            return sampler
    return CorruptSpec


@pytest.mark.parametrize("workload,check", [
    ("ingest_cluster", "samples_identical"),
    ("ingest_wire", "samples_identical"),
    ("query_dashboard", "answers_match_control"),
    ("ingest_engine", "reduced_equals_single"),
])
def test_checks_fail_on_a_corrupted_control(tmp_path, monkeypatch,
                                            workload, check):
    monkeypatch.setattr(workloads, "SamplerSpec",
                        _corrupting(workloads.SamplerSpec))
    inputs = workloads.make_inputs(workload, 4, SCALE)
    result = workloads.drive(workload, inputs, SECONDS, tmp_path)
    assert result.checks[check] is False
    assert not result.correct


@pytest.mark.parametrize("workload", ["ingest_cluster", "query_dashboard"])
def test_zero_loss_fails_when_events_go_missing(tmp_path, monkeypatch,
                                                workload):
    # Shed every tenant's 3rd admission silently: the producer believes it
    # was sent, the cluster never applies it.
    real = workloads.Cluster.ingest_many
    calls = {"n": 0}

    async def lossy(self, tenant, keys=None, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3 * len(self.tenants()) + 1:
            return True
        return await real(self, tenant, keys, *args, **kwargs)

    monkeypatch.setattr(workloads.Cluster, "ingest_many", lossy)
    inputs = workloads.make_inputs(workload, 4, SCALE)
    result = workloads.drive(workload, inputs, SECONDS, tmp_path)
    assert result.checks["zero_loss"] is False


def test_hits_check_fails_when_the_cache_is_bypassed(tmp_path, monkeypatch):
    from repro.api.protocol import StreamSampler
    from repro.query.planner import execute

    monkeypatch.setattr(StreamSampler, "query",
                        lambda self, query=None, /, **kw: execute(self, query))
    inputs = workloads.make_inputs("query_dashboard", 4, SCALE)
    result = workloads.drive("query_dashboard", inputs, SECONDS, tmp_path)
    assert result.checks["hits_return_cached_answer"] is False
    assert result.checks["answers_match_control"] is True


def _records(directory, values, metric="throughput_per_s"):
    directory.mkdir()
    for i, value in enumerate(values):
        (directory / f"r{i}.json").write_text(json.dumps({
            "header": {"workload": "ingest_engine"},
            "result": {"metrics": {metric: {"value": value, "unit": "1/s"}}},
        }))
    return str(directory)


@pytest.mark.parametrize("b,expected", [
    ([100, 101, 99, 100, 102], "within-bound"),
    ([60, 61, 59, 60, 62], "worse"),
    ([200, 201, 199, 200, 202], "better"),
    ([40, 160, 70, 130, 100], "unresolved"),
])
def test_compare_verdicts(tmp_path, b, expected):
    a = _records(tmp_path / "a", [100, 101, 99, 100, 102])
    rows = run.compare(a, _records(tmp_path / "b", b))
    assert [row["verdict"] for row in rows] == [expected]
    assert rows[0]["a"]["median"] == 100
