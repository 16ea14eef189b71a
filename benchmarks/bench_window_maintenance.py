"""Micro-benchmark: sliding-window maintenance, per-item vs run-based.

The seed implementation maintained the current-candidate set with an
``O(n)``-per-item ``bisect.insort`` into a list of tuples and pushed one
threshold-update per arrival.  The kernel-layer rework keeps the window in
priority-ordered columns, reduces the admission test to one float compare
(``r < c_{k-1}``), and defers the whole batch's monotone update-stack
effect to a single vectorized suffix-minimum pass — so the batch path
touches python only at expiries and admissions.

This bench isolates exactly that maintenance cost on a time-ordered
stream: identical arrivals through the scalar ``update`` loop and through
``update_many``, with the resulting checkpoints (``to_state()``) verified
equal.  Results append to
``benchmarks/results/bench_window_maintenance.json``.

Run:  PYTHONPATH=src python benchmarks/bench_window_maintenance.py [--n 1000000]
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import time

import numpy as np

from repro import make_sampler
from repro.workloads.zipf import zipf_stream

RESULTS_PATH = (
    pathlib.Path(__file__).resolve().parent
    / "results"
    / "bench_window_maintenance.json"
)


def run(n: int, k: int, window: float, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    keys = zipf_stream(n, max(n // 100, 1000), 1.5, rng=rng)
    times = np.cumsum(rng.exponential(1e-3, n))
    key_list = keys.tolist()
    time_list = times.tolist()

    scalar = make_sampler("sliding_window", k=k, window=window, rng=0)
    start = time.perf_counter()
    for key, t in zip(key_list, time_list):
        scalar.update(key, time=t)
    scalar_s = time.perf_counter() - start

    batch = make_sampler("sliding_window", k=k, window=window, rng=0)
    start = time.perf_counter()
    batch.update_many(keys, times=times)
    batch_s = time.perf_counter() - start

    assert scalar.to_state() == batch.to_state(), (
        f"scalar/batch window state diverged (k={k}, window={window})"
    )
    return {
        "k": k,
        "window": window,
        "mean_arrivals_in_window": round(window / 1e-3),
        "scalar_seconds": round(scalar_s, 4),
        "batch_seconds": round(batch_s, 4),
        "speedup": round(scalar_s / batch_s, 2),
        "scalar_items_per_second": round(n / scalar_s),
        "batch_items_per_second": round(n / batch_s),
        "stored_current": len(batch._cur_pri),
        "update_stack_depth": len(batch._updates),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # Two regimes: a churn-heavy window (5k arrivals per window, ~5% of
    # positions are expiry/admission events) and the production-typical
    # 0.5% sampling ratio (50k arrivals per window).
    configs = [(256, 5.0), (256, 50.0), (64, 50.0)]
    rows = [run(args.n, k, w, args.seed) for k, w in configs]

    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "n": args.n,
        "seed": args.seed,
        "rows": rows,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    else:
        data = {"version": 1, "runs": []}
    data["runs"].append(record)
    RESULTS_PATH.write_text(json.dumps(data, indent=2) + "\n")

    header = f"{'k':>5} {'window':>8} {'scalar':>10} {'batch':>10} {'speedup':>8}"
    print(f"sliding-window maintenance, {args.n:,} time-ordered arrivals\n")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['k']:>5} {row['window']:>8.1f} {row['scalar_seconds']:>9.2f}s "
            f"{row['batch_seconds']:>9.2f}s {row['speedup']:>7.1f}x"
        )
    print(f"\nwindow states verified identical; wrote {RESULTS_PATH}")


if __name__ == "__main__":
    main()
