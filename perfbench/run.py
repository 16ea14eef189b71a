"""The repository benchmark: end-to-end metrics and a per-layer cost ledger.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload ingest_cluster --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json`` with tracing off.  ``--trace 1`` runs the workload
twice for half the time each, untraced and then with spans recorded
around every layer's entry points, and reports the per-layer ledger plus
the tracing overhead.  ``--workload all`` runs every workload in turn,
each in a process of its own.
Every run checks its outputs against control samplers and fails (exit
code 1) when a check fails.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A full
record (header, named metrics, ledger, checks, per-window figures) is
written to ``.perfbench/results/``.

Compare two sets of records (e.g. parent and change)::

    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

prints, per workload and metric, each side's median and quartiles and a
verdict: ``better``, ``within-bound``, ``worse`` or ``unresolved``.

The workloads, their loop type and caller count, and which layer each
per-layer metric belongs to (and which end-to-end metric it should move)
are recorded in ``perfbench/LAYERS.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import ledger, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
LAYERS = pathlib.Path(__file__).resolve().parent / "LAYERS.json"
STATE = ROOT / ".perfbench"


def load_catalog() -> tuple[dict, dict]:
    """``BENCHMARK.json`` (names, units, bounds) and ``LAYERS.json``."""
    return (json.loads(BENCHMARK.read_text()),
            json.loads(LAYERS.read_text()))


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(workload: str, seed: int, seconds: float, trace: bool,
           scale: float) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sizes": workloads.sizes_for(workload, scale),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def _status_mb(field: str) -> float:
    """A ``kB`` field of ``/proc/self/status``, in MB."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/self/status has no {field}")


def reset_peak_rss() -> float:
    """Lower the kernel's peak-RSS mark (``VmHWM``) to the current RSS and
    return that RSS in MB, so a later ``VmHWM`` counts only what the
    process grew by afterwards."""
    pathlib.Path("/proc/self/clear_refs").write_text("5")
    return _status_mb("VmRSS")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scratch: pathlib.Path, scale: float = 1.0) -> dict:
    """One invocation's record: header, result line, named metrics and
    (traced) the ledger."""
    catalog, layers = load_catalog()
    inputs = workloads.make_inputs(workload, seed, scale)
    record = {"header": header(workload, seed, seconds, trace, scale)}
    if not trace:
        # The peak counts the system under test (its builds, the loop,
        # the checks), not the inputs generated before it.
        baseline = reset_peak_rss()
        res = workloads.drive(workload, inputs, seconds, scratch,
                              setups=workloads.SETUPS[workload])
        e2e = ledger.end_to_end(res, _status_mb("VmHWM") - baseline)
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in catalog["end_to_end"]}
        record["named"] = ledger.named_end_to_end(workload, res, e2e)
        record["windows"] = [
            [units, seconds, statistics.median(calls) if calls else None,
             speed]
            for units, seconds, calls, speed in res.windows
        ]
        runs = [res]
    else:
        untraced = workloads.drive(workload, inputs, seconds / 2, scratch)
        tracer = Tracer()
        traced = workloads.drive(workload, inputs, seconds / 2, scratch,
                                 tracer=tracer)
        measured = ledger.per_layer(workload, traced, tracer, untraced)
        exercised = {name for name, entry in layers["per_layer"].items()
                     if workload in entry["workloads"]}
        if set(measured) != exercised:
            raise RuntimeError(
                f"{workload}: ledger entries {sorted(measured)} do not "
                f"match LAYERS.json {sorted(exercised)}"
            )
        # A layer the workload bypasses costs nothing on it: 0 by design.
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in catalog["per_layer"]}
        record["bypassed"] = sorted(set(metrics) - exercised)
        runs = [untraced, traced]
    record["result"] = {
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    names = dict.fromkeys(name for r in runs for name in r.checks)
    record["checks"] = {
        name: all(r.checks.get(name, True) for r in runs) for name in names
    }
    return record


def save(record: dict) -> pathlib.Path:
    head = record["header"]
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    path = out / (f"{head['workload']}-seed{head['seed']}-"
                  f"trace{int(head['trace'])}-{stamp}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def report(record: dict) -> None:
    head, result = record["header"], record["result"]
    print(f"# {head['workload']} seed={head['seed']} "
          f"seconds={head['seconds']} trace={int(head['trace'])} "
          f"sha={head['git_sha'][:12]} cores={head['cores']} "
          f"python={head['python']} numpy={head['numpy']}")
    print(f"#   sizes {json.dumps(head['sizes'], sort_keys=True)}")
    for name, (value, unit, count) in record.get("named", {}).items():
        n = "" if count is None else f"  (n={count})"
        print(f"  {name:<24} {value:>16.6g} {unit}{n}")
    label = "ledger" if head["trace"] else "metrics"
    print(f"#   {label}:")
    bypassed = record.get("bypassed", ())
    for name, metric in result["metrics"].items():
        if name not in bypassed:
            print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    if bypassed:
        print(f"#   {len(bypassed)} entries of bypassed layers read 0")
    checks = ", ".join(f"{k}={'ok' if v else 'FAILED'}"
                       for k, v in record["checks"].items())
    print(f"#   checks: {checks}; attempted={result['attempted']} "
          f"failed={result['failed']}")


# ---------------------------------------------------------------------------
# Comparing two sets of runs
# ---------------------------------------------------------------------------
def _records(directory: str) -> list[dict]:
    return [json.loads(path.read_text())
            for path in sorted(pathlib.Path(directory).glob("*.json"))]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None) -> str:
    """Change ``b`` against parent ``a``: ``better`` when every run of
    ``b`` beats every run of ``a``; else ``unresolved`` when either
    side's spread exceeds the bound; else ``worse`` or ``within-bound``
    by the medians."""
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * x < sign * y for x in b for y in a):
        return "better"
    if bound is None:
        return "no-bound"
    (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    if spread > bound:
        return "unresolved"
    worse_by = sign * (bm - am) / abs(am) if am else 0.0
    return "worse" if worse_by > bound else "within-bound"


def compare(dir_a: str, dir_b: str) -> list[dict]:
    catalog, _ = load_catalog()
    specs = {m["name"]: m for m in catalog["end_to_end"]
             + catalog["per_layer"]}
    grouped: dict = {}
    for side, directory in (("a", dir_a), ("b", dir_b)):
        for record in _records(directory):
            workload = record["header"]["workload"]
            for name, metric in record["result"]["metrics"].items():
                key = (workload, name)
                grouped.setdefault(key, {"a": [], "b": []})[side].append(
                    metric["value"])
    rows = []
    for (workload, name), sides in sorted(grouped.items()):
        if not sides["a"] or not sides["b"] or name not in specs:
            continue
        spec = specs[name]
        row = {"workload": workload, "metric": name, "unit": spec["unit"]}
        for side in ("a", "b"):
            q1, med, q3 = _quartiles(sides[side])
            row[side] = {"n": len(sides[side]), "median": med,
                         "q1": q1, "q3": q3}
        row["verdict"] = verdict(sides["a"], sides["b"],
                                 spec.get("better", "lower"),
                                 spec.get("bound"))
        rows.append(row)
    return rows


def print_comparison(rows: list[dict]) -> None:
    print(f"{'workload':<16} {'metric':<34} {'A median [q1,q3]':>34} "
          f"{'B median [q1,q3]':>34}  verdict")
    for row in rows:
        cells = [
            f"{row[s]['median']:.5g} [{row[s]['q1']:.4g},{row[s]['q3']:.4g}]"
            for s in ("a", "b")
        ]
        print(f"{row['workload']:<16} {row['metric']:<34} {cells[0]:>34} "
              f"{cells[1]:>34}  {row['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two directories of result records")
    args = parser.parse_args(argv)

    if args.compare:
        rows = compare(*args.compare)
        print_comparison(rows)
        print(json.dumps({"rows": rows}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    if args.workload == "all":
        line = run_all(args)
    else:
        scratch = STATE / f"scratch-{os.getpid()}"
        try:
            record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        save(record)
        report(record)
        line = record["result"]
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> dict:
    """Every workload in a child process of its own (so no workload's
    memory or state carries into the next); one combined result line."""
    lines = {}
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        out = child.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        try:
            lines[name] = json.loads(out[-1])
        except json.JSONDecodeError:
            lines[name] = {"correct": False, "attempted": 1, "failed": 1,
                           "metrics": {}}
    return {
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, line in lines.items()
            for metric, value in line["metrics"].items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
