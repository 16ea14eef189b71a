"""Pinning tests: the capability table is the single source of truth.

The drift this suite removes: ``estimate_kinds()`` listings, unknown-kind
error messages, and the query layer's supported/gap story used to be free
to disagree (hand-maintained strings vs. what ``estimate()``/``query()``
actually accept).  Now everything derives from two authorities — the
scanned ``estimate_*`` surface and the declared ``query_capabilities``
table — and these tests pin the derivations so no sampler can advertise
one thing and accept another.
"""

from __future__ import annotations

import pytest

import repro
from repro import ShardedSampler
from repro.api.protocol import _NO_SAMPLE_REASON, QUERY_AGGREGATES, StreamSampler
from repro.api.registry import available_samplers, get_sampler_class
from repro.query import capability_markdown, capability_table

from .test_contract import CASES


def _registered_classes():
    return [(name, get_sampler_class(name)) for name in available_samplers()]


# ----------------------------------------------------------------------
# Capability tables are complete, explicit, and well-formed
# ----------------------------------------------------------------------
def test_capability_table_covers_every_registered_name():
    table = capability_table()
    assert set(table) == set(available_samplers())
    for name, row in table.items():
        assert tuple(row) == QUERY_AGGREGATES + ("windowed",), name
        for aggregate, entry in row.items():
            assert entry is True or (isinstance(entry, str) and entry), (
                f"{name}.{aggregate} must be True or a non-empty reason"
            )


def test_every_class_declares_capabilities_explicitly():
    """No registered class rides on the protocol's undeclared default."""
    for name, cls in _registered_classes():
        caps = cls.query_capabilities
        assert not any(
            caps.get(a) == _NO_SAMPLE_REASON for a in QUERY_AGGREGATES
        ), f"{name} still uses the base-class placeholder capability table"


def test_query_variance_declarations_are_wellformed():
    for name, cls in _registered_classes():
        flag = cls.query_variance
        assert flag is True or (isinstance(flag, str) and flag), name


def test_query_windowed_declarations_are_wellformed():
    for name, cls in _registered_classes():
        flag = cls.query_windowed
        assert flag is True or (isinstance(flag, str) and flag), name


def test_windowed_declarations_match_time_indexed_samples():
    """A class declaring ``query_windowed = True`` must actually emit a
    time column from a time-fed stream (and the planner refuses the rest
    with the declared reason — the drift this pin removes is a sampler
    advertising windowed queries whose samples carry no times)."""
    import numpy as np

    sampler = repro.make_sampler("sliding_window", k=8, window=10.0)
    for i in range(32):
        sampler.update(i, time=float(i))
    assert sampler.sample().times is not None
    decayed = repro.make_sampler("time_decay", k=8, decay_rate=0.1)
    for i in range(32):
        decayed.update(i, time=float(i))
    assert decayed.sample().times is not None
    timed_bk = repro.make_sampler("bottom_k", k=8, rng=0)
    timed_bk.update_many(np.arange(32), times=np.arange(32.0))
    assert timed_bk.sample().times is not None


def test_probability_one_samples_declare_no_variance_story():
    """Samplers whose rows degenerate to probability 1 must not claim the
    HT plug-in variance (it would be identically zero, not an estimate)."""
    for case in CASES:
        sampler = case.build()
        case.feed(sampler)
        if not sampler.supported_aggregates():
            continue
        probs = sampler.sample().probabilities
        if probs.size and (probs == 1.0).all():
            assert sampler.query_variance is not True, (
                f"{case.name}: all-probability-1 sample but query_variance "
                "declares the HT plug-in applies"
            )
            # Probability-1 rows carry pre-corrected values: only the
            # sum-style aggregates over those values stay meaningful.
            # count degenerates to the table size, mean/quantile to
            # statistics of the corrected values (the varopt bug class).
            assert set(sampler.supported_aggregates()) <= {"sum", "topk"}, (
                f"{case.name}: probability-1 sample claims an aggregate "
                "that degenerates (count/mean/distinct/quantile)"
            )


# ----------------------------------------------------------------------
# estimate_kinds() and its error message derive from live surfaces
# ----------------------------------------------------------------------
def test_estimate_kinds_match_scanned_methods():
    for name, cls in _registered_classes():
        scanned = tuple(
            sorted(
                attr[len("estimate_"):]
                for attr in dir(cls)
                if attr.startswith("estimate_")
                and attr != "estimate_kinds"
                and callable(getattr(cls, attr))
            )
        )
        assert cls.estimate_kinds() == scanned, name


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_unknown_kind_message_lists_both_surfaces(case):
    """The unknown-kind error enumerates exactly the advertised kinds and
    (when the sampler answers queries) exactly the supported aggregates."""
    sampler = case.build()
    with pytest.raises(ValueError) as err:
        sampler.estimate("definitely_not_a_kind")
    message = str(err.value)
    for kind in sampler.estimate_kinds():
        assert kind in message
    supported = sampler.supported_aggregates()
    if supported:
        assert ".query()" in message
        for aggregate in supported:
            assert aggregate in message
    else:
        assert ".query()" not in message


def test_supported_aggregates_reads_instance_mirror():
    """The engine's instance-level mirror is what listings consult."""
    engine = ShardedSampler({"name": "theta", "params": {"k": 16}}, n_shards=2)
    theta = get_sampler_class("theta")
    assert engine.supported_aggregates() == tuple(
        a for a in QUERY_AGGREGATES if theta.query_capabilities[a] is True
    )
    # Class-level access still shows the declared placeholder row — for
    # the variance flag too, so the generated matrix cannot claim
    # unconditional CI support for the engine.
    assert all(
        isinstance(v, str) for v in ShardedSampler.query_capabilities.values()
    )
    assert isinstance(ShardedSampler.query_variance, str)
    # Instances mirror the shard class's variance declaration both ways.
    assert engine.query_variance is theta.query_variance
    bk_engine = ShardedSampler(
        {"name": "bottom_k", "params": {"k": 4}}, n_shards=2
    )
    assert bk_engine.query_variance is True
    # ... and the windowed declaration, so the planner's windowed gate
    # sees the shard class's answer through the engine too.
    assert isinstance(ShardedSampler.query_windowed, str)
    assert bk_engine.query_windowed is True
    assert engine.query_windowed == theta.query_windowed


def test_gap_reason_lookup_rejects_unknown_aggregates():
    sampler = repro.make_sampler("bottom_k", k=4)
    with pytest.raises(ValueError, match="unknown query aggregate"):
        sampler.query_gap_reason("median")


# ----------------------------------------------------------------------
# The rendered matrix derives from the table (docs pin against this)
# ----------------------------------------------------------------------
def test_capability_markdown_is_faithful():
    markdown = capability_markdown()
    table = capability_table()
    lines = [l for l in markdown.splitlines() if l.startswith("| `")]
    assert len(lines) == len(table)
    for line in lines:
        name = line.split("`")[1]
        cells = [c.strip() for c in line.strip("|").split("|")][1:]
        row = table[name]
        for aggregate, cell in zip(QUERY_AGGREGATES + ("windowed",), cells):
            if row[aggregate] is True:
                assert cell == "yes"
            else:
                assert cell.startswith("—")
    # Every footnoted reason appears verbatim.
    for row in table.values():
        for entry in row.values():
            if entry is not True:
                assert str(entry) in markdown


# ----------------------------------------------------------------------
# The estimate() facade and the query layer agree (both directions)
# ----------------------------------------------------------------------
def _timed_sliding_window():
    sampler = repro.make_sampler("sliding_window", k=64, window=2.0, rng=11)
    for i in range(400):
        sampler.update(i, time=i * 0.01)
    return sampler


def _timed_decay():
    sampler = repro.make_sampler("time_decay", k=64, decay_rate=0.5, rng=12)
    for i in range(400):
        sampler.update(i, time=i * 0.01)
    return sampler


def test_sliding_window_facade_and_query_agree():
    """``estimate('window_count')`` and the declarative windowed count
    answer the same question — and give the same number."""
    sampler = _timed_sliding_window()
    facade = sampler.estimate("window_count")
    declarative = sampler.query("count").estimate
    assert facade == pytest.approx(declarative)
    # The other direction: every advertised aggregate actually runs.
    for aggregate in sampler.supported_aggregates():
        kw = {"k": 3} if aggregate == "topk" else (
            {"q": 0.5} if aggregate == "quantile" else {}
        )
        sampler.query(aggregate, **kw)


def test_time_decay_facade_and_query_agree():
    """``estimate('decayed_total')`` equals ``query('sum', decay=rate)``:
    the decayed HT total through the facade and through the windowed
    query path are the same estimator over the same sample."""
    sampler = _timed_decay()
    facade = sampler.estimate("decayed_total")
    declarative = sampler.query(
        "sum", decay=sampler.decay_rate
    ).estimate
    assert facade == pytest.approx(declarative)
    # Explicit now= matches the facade's now= too.
    assert sampler.estimate("decayed_total", now=10.0) == pytest.approx(
        sampler.query("sum", decay=sampler.decay_rate, now=10.0).estimate
    )
    for aggregate in sampler.supported_aggregates():
        kw = {"k": 3} if aggregate == "topk" else (
            {"q": 0.5} if aggregate == "quantile" else {}
        )
        sampler.query(aggregate, **kw)


def test_unsupported_time_scope_is_refused_with_declared_reason():
    """A sampler that declares no windowed story refuses window=/last=/
    decay= with its declared reason — before any execution."""
    from repro.query import QueryCapabilityError

    sampler = repro.make_sampler("theta", k=32)
    for i in range(100):
        sampler.update(i)
    with pytest.raises(QueryCapabilityError, match="time-scoped"):
        sampler.query("distinct", last=5.0)


def test_every_registered_class_is_a_stream_sampler():
    for name, cls in _registered_classes():
        assert issubclass(cls, StreamSampler), name
