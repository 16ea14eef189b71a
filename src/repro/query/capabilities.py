"""The registry-wide capability table.

Every registered sampler class (each a
:class:`~repro.api.StreamSampler`) declares, next to its ``mergeable``
flag, which query aggregates it answers and why the rest are out of scope
(:attr:`repro.api.StreamSampler.query_capabilities`, built with
:func:`repro.api.protocol.query_support`).  This module collects those
declarations into one table — the single source of truth behind
``supported_aggregates()`` listings, capability error messages, and the
matrix in ``docs/architecture.md`` (pinned against drift by
``tests/query/test_capability_pinning.py`` and ``tests/docs``).
"""

from __future__ import annotations

from ..api.protocol import _NO_SAMPLE_REASON, QUERY_AGGREGATES
from ..api.registry import available_samplers, get_sampler_class

__all__ = ["capability_table", "capability_markdown", "QUERY_AGGREGATES"]


def capability_table() -> dict[str, dict[str, bool | str]]:
    """Per-registered-name capability rows, ``{name: {aggregate: entry}}``.

    Each entry is ``True`` (supported) or the class's declared reason
    string.  Every registered name appears, including the sharded engine
    (whose class-level row explains that instances mirror their shard
    class).  Beyond the per-aggregate entries, each row carries a
    ``"windowed"`` entry — whether time-scoped queries
    (``window=``/``last=``/``decay=``) are answered — read from the
    class's ``query_windowed`` declaration.
    """
    table: dict[str, dict[str, bool | str]] = {}
    for name in available_samplers():
        cls = get_sampler_class(name)
        caps = cls.query_capabilities
        row = {agg: caps.get(agg, _NO_SAMPLE_REASON) for agg in QUERY_AGGREGATES}
        row["windowed"] = cls.query_windowed
        table[name] = row
    return table


def capability_markdown() -> str:
    """The capability matrix as a GitHub-flavored markdown table.

    Supported cells render as ``yes``; gaps render as footnote markers
    with the declared reasons listed below the table.  ``docs/architecture.md``
    embeds this output verbatim between generation markers, and the docs
    test suite regenerates and diffs it so the published matrix can never
    drift from the declarations.
    """
    table = capability_table()
    reasons: dict[str, int] = {}
    columns = QUERY_AGGREGATES + ("windowed",)
    lines = [
        "| sampler | " + " | ".join(columns) + " | variance/CI |",
        "|---|" + "---|" * (len(columns) + 1),
    ]
    for name, row in table.items():
        cells = []
        for agg in columns:
            entry = row[agg]
            if entry is True:
                cells.append("yes")
            else:
                idx = reasons.setdefault(str(entry), len(reasons) + 1)
                cells.append(f"— [^q{idx}]")
        variance = get_sampler_class(name).query_variance
        if variance is True:
            var_cell = "yes"
        else:
            idx = reasons.setdefault(str(variance), len(reasons) + 1)
            var_cell = f"— [^q{idx}]"
        lines.append(f"| `{name}` | " + " | ".join(cells) + f" | {var_cell} |")
    lines.append("")
    for reason, idx in sorted(reasons.items(), key=lambda kv: kv[1]):
        lines.append(f"[^q{idx}]: {reason}")
    return "\n".join(lines)
