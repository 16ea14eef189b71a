"""Metrics from one run: the end-to-end figures and the layer-cost ledger.

End-to-end figures come from the benchmark's own stopwatches in an
untraced run.  The ledger comes from the spans of a traced run (see
``tracing.py``): ns/event per ingest layer, µs per query stage, and each
ingest path's speed as a share of the direct kernel rung fed the same
blocks in the same run.
"""

from __future__ import annotations

import statistics

import numpy as np

from .tracing import SAMPLER_CLASSES, Tracer
from .workloads import RunResult

__all__ = ["end_to_end", "named_end_to_end", "per_layer", "quantile"]


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``; 0.0 when there are none."""
    return float(np.quantile(np.asarray(values, dtype=float), q)) \
        if len(values) else 0.0


def _ns_per(seconds: float, events: int) -> float:
    return seconds / events * 1e9 if events else 0.0


def _ratio_to_kernel(res: RunResult) -> float:
    """The path's events/s over the kernel rung's, both in wall time."""
    return (res.events / res.seconds) / (res.kernel_events
                                         / res.kernel_seconds)


def _kernel_ns(res: RunResult) -> float:
    return _ns_per(res.kernel_seconds, res.kernel_events)


def end_to_end(res: RunResult, peak_rss_mb: float) -> dict:
    """The gated metrics, defined for every workload (see LAYERS.json).

    Throughput and the median call are medians over the 0.25 s windows
    of the steady loop (``RunResult.rate`` and ``RunResult.call_p50``);
    the trailing flush or reduce is not part of any window.
    ``peak_rss_mb`` is the growth of the peak RSS over the RSS just
    before the run (see ``run.run_workload``).
    """
    return {
        "setup_s": statistics.median(res.setup_seconds),
        "throughput_per_s": res.rate,
        "call_p50_ms": res.call_p50 * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def named_end_to_end(workload: str, res: RunResult, e2e: dict) -> dict:
    """The same run under the workload-specific names, with units and the
    sample count behind each percentile."""
    out = {
        "setup_s": (e2e["setup_s"], "s", len(res.setup_seconds)),
        "ops_failed_share": (res.failed / max(res.attempted, 1), "share",
                             res.attempted),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB", None),
    }
    if workload == "query_dashboard":
        cold, hits = res.extra["cold"], res.extra["hits"]
        out["query_qps"] = (e2e["throughput_per_s"], "1/s",
                            len(cold) + len(hits))
        out["query_cold_p50_us"] = (quantile(cold, 0.5) * 1e6, "us",
                                    len(cold))
        out["query_cold_p99_us"] = (quantile(cold, 0.99) * 1e6, "us",
                                    len(cold))
        out["query_hit_p50_us"] = (quantile(hits, 0.5) * 1e6, "us",
                                   len(hits))
        return out
    out["ingest_eps"] = (e2e["throughput_per_s"], "events/s", res.events)
    if workload != "ingest_engine":
        out["ingest_call_p50_ms"] = (e2e["call_p50_ms"], "ms",
                                     len(res.calls))
        out["ingest_call_p99_ms"] = (quantile(res.calls, 0.99) * 1e3, "ms",
                                     len(res.calls))
    return out


# ---------------------------------------------------------------------------
# Per-layer ledger
# ---------------------------------------------------------------------------
def _require(items: list, what: str) -> list:
    """``items``, or an error when there are none: an entry whose call
    path no longer passes a wrapped entry point fails the run instead of
    quietly reading 0."""
    if not items:
        raise RuntimeError(f"ledger: no {what} spans were recorded")
    return items


def _spans(tracer: Tracer, name: str, parent: str | None = None) -> list:
    what = name if parent is None else f"{name} (under {parent})"
    return _require(tracer.named(name, parent), what)


def _sum(spans, attr: str = "seconds") -> float:
    return sum(getattr(span, attr) for span in spans)


def _events(spans) -> int:
    return sum(span.size for span in spans)


def _service_layers(tracer: Tracer, res: RunResult, workload: str) -> dict:
    state = res.extra["cluster"]
    workers = state["workers"].values()
    metrics = [w["metrics"] for w in workers]
    queued = [q for w in workers for q in w["queued"]]
    checkpoints = sum(w["checkpoints"] for w in workers)
    wal = _spans(tracer, "wal.append")
    mux = _spans(tracer, "mux.update_many")
    admit = _spans(tracer, "cluster.ingest_many")
    out = {
        "service.queued_ms_p50": quantile(queued, 0.5) * 1e3,
        "service.wal_ns_per_event": _ns_per(_sum(wal), _events(wal)),
        "service.apply_ns_per_event": _ns_per(_sum(mux), _events(mux)),
        "service.wal_bytes_per_event":
            sum(m["wal_bytes"] for m in metrics)
            / max(sum(m["events_logged"] for m in metrics), 1),
        "service.batch_events_mean":
            sum(m["events_applied"] for m in metrics)
            / max(sum(m["batches_applied"] for m in metrics), 1),
        "service.queue_depth_hwm":
            float(max(m["queue_high_watermark"] for m in metrics)),
        "cluster.admit_ns_per_event":
            _ns_per(_sum(admit, "self_seconds"), _events(admit)),
        "cluster.mux_ns_per_event":
            _ns_per(_sum(mux, "self_seconds"), _events(mux)),
        "cluster.events_rejected": float(state["rejected"]),
    }
    if workload != "query_dashboard":
        out["service.checkpoint_ms"] = (
            sum(w["checkpoint_seconds"] for w in workers)
            / max(checkpoints, 1) * 1e3
        )
    return out


def _wire_layers(tracer: Tracer, res: RunResult) -> dict:
    events = res.events
    calls = _spans(tracer, "client.call", parent="client.ingest_many")
    served = _spans(tracer, "cluster.ingest_many")
    # One caller, so the i-th client call is the i-th server admission.
    overhead = [c.seconds - s.seconds for c, s in zip(calls, served)]
    prep = _spans(tracer, "wire.client_prep")
    client = _spans(tracer, "client.ingest_many")
    return {
        "wire.encode_ns_per_event":
            _ns_per(_sum(_spans(tracer, "wire.write_frame")), events),
        "wire.decode_ns_per_event":
            _ns_per(_sum(_spans(tracer, "wire.read_frame"), "self_seconds"),
                    events),
        "wire.bytes_per_event":
            _events(_spans(tracer, "wire.recv")) / max(events, 1),
        "wire.rtt_overhead_us_p50": quantile(overhead, 0.5) * 1e6,
        "wire.client_prep_ns_per_event":
            _ns_per(_sum(prep) + _sum(client, "self_seconds"), events),
        "wire.ratio_to_kernel": _ratio_to_kernel(res),
    }


def _engine_layers(tracer: Tracer, res: RunResult) -> dict:
    updates = _spans(tracer, "engine.update_many")
    partition = _spans(tracer, "engine.partition")
    shards = _spans(tracer, "sampler.update_many",
                    parent="engine.update_many")
    return {
        "engine.partition_ns_per_event":
            _ns_per(_sum(partition), _events(partition)),
        "engine.update_ns_per_event": _ns_per(_sum(shards), _events(updates)),
        "engine.reduce_ms": _sum(_spans(tracer, "engine.reduce")) * 1e3,
        "engine.ratio_to_kernel": _ratio_to_kernel(res),
    }


def _query_layers(tracer: Tracer, untraced: RunResult) -> dict:
    routed = _spans(tracer, "cluster.query")
    asked = _spans(tracer, "sampler.query", parent="cluster.query")
    hits = _require([span for span in asked if span.children == 0],
                    "cache-answered sampler.query")
    out = {
        "query.hit_us": quantile([s.seconds for s in hits], 0.5) * 1e6,
        "query.snapshot_us": quantile(
            [s.seconds for s in _spans(tracer, "service.snapshot",
                                       parent="cluster.query")],
            0.5) * 1e6,
        "query.cache_hit_ratio": len(hits) / max(len(asked), 1),
        "cluster.query_route_us":
            quantile([s.self_seconds for s in routed], 0.5) * 1e6,
        # End-to-end query latencies by path, from the untraced half.
        "query.cold_p50_us": quantile(untraced.extra["cold"], 0.5) * 1e6,
        "query.cold_p99_us": quantile(untraced.extra["cold"], 0.99) * 1e6,
        "query.hit_p50_us": quantile(untraced.extra["hits"], 0.5) * 1e6,
    }
    samples = tracer.named("sampler.sample", parent="query.execute")
    execs = tracer.named("query.run_aggregate", parent="query.execute")
    for sampler in SAMPLER_CLASSES.values():
        out[f"query.sample_us.{sampler}"] = quantile(_require(
            [s.seconds for s in samples if s.label == sampler],
            f"{sampler} sampler.sample (under query.execute)"), 0.5) * 1e6
        out[f"query.exec_us.{sampler}"] = quantile(_require(
            [s.seconds for s in execs if s.parent.label == sampler],
            f"{sampler} query.run_aggregate (under query.execute)"),
            0.5) * 1e6
    return out


def per_layer(workload: str, traced: RunResult, tracer: Tracer,
              untraced: RunResult) -> dict:
    """Every ledger entry the workload exercises."""
    out = {
        "kernel.ns_per_event": _kernel_ns(traced),
        "obs.trace_overhead": untraced.rate / traced.rate,
        # The tail is too unsteady on a shared host to gate on, so it is
        # reported here, from the untraced half, over every call.
        "tail.call_p99_ms": quantile(untraced.calls, 0.99) * 1e3,
    }
    if workload == "ingest_engine":
        out.update(_engine_layers(tracer, traced))
        return out
    out.update(_service_layers(tracer, traced, workload))
    if workload == "ingest_cluster":
        out["cluster.ratio_to_kernel"] = _ratio_to_kernel(traced)
    elif workload == "ingest_wire":
        out.update(_wire_layers(tracer, traced))
    else:
        out.update(_query_layers(tracer, untraced))
    return out
