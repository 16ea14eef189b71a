"""Query planning: capability checks, then one vectorized execution.

``plan()`` resolves a :class:`~repro.query.spec.Query` against a sampler's
declared capability table — the *only* authority on what each sampler
answers — and returns a :class:`QueryPlan` that runs on any
:class:`~repro.core.sample.Sample` the sampler produces.  ``execute()`` is
the plan-then-run convenience the protocol's ``StreamSampler.query()``
entry point (which adds the invalidate-on-update result cache) calls.

The sharded engine needs no special-casing here: its ``sample()`` is the
merge-tree reduction of its shards, so planning against an engine
transparently executes over the merged sample — which is what makes
sharded answers match (bit-identically, for the hash-coordinated sketches)
the single-instance answers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.protocol import _NO_SAMPLE_REASON
from ..core.sample import Sample
from .executors import resolve_window_bounds, run_aggregate
from .spec import Query, QueryCapabilityError, QueryResult

__all__ = ["QueryPlan", "plan", "execute"]


@dataclass(frozen=True)
class QueryPlan:
    """A validated, executable query bound to a sampler's capabilities."""

    query: Query
    sampler_label: str
    with_variance: bool

    def run(self, sample: Sample, now: float | None = None) -> QueryResult:
        """Execute the planned aggregate over a finalized sample.

        ``now`` is the sampler clock the planner resolved for time-scoped
        queries (``None`` otherwise, or when the sample's own newest time
        should anchor relative windows and decay ages).
        """
        return run_aggregate(sample, self.query, self.with_variance, now)


def plan(sampler, query: Query) -> QueryPlan:
    """Validate ``query`` against ``sampler``'s capability table.

    Raises
    ------
    QueryCapabilityError
        When the aggregate is declared out of scope (message carries the
        sampler's declared reason and its supported aggregates), or when
        ``ci=`` is requested from a sampler whose ``query_variance``
        declares no variance story.
    """
    label = sampler.sampler_name or type(sampler).__name__
    entry = sampler.query_capabilities.get(query.aggregate, _NO_SAMPLE_REASON)
    if entry is not True:
        supported = sampler.supported_aggregates()
        hint = (
            "supported aggregates: " + ", ".join(supported)
            if supported
            else "no aggregates supported"
        )
        raise QueryCapabilityError(
            f"{label} does not support the {query.aggregate!r} aggregate: "
            f"{entry} ({hint})"
        )
    if query.is_time_scoped:
        windowed_flag = sampler.query_windowed
        if windowed_flag is not True:
            raise QueryCapabilityError(
                f"{label} does not support time-scoped queries "
                f"(window=/last=/decay=): {windowed_flag}"
            )
    variance_flag = sampler.query_variance
    with_variance = variance_flag is True
    if query.ci is not None and not with_variance:
        raise QueryCapabilityError(
            f"{label} declares no variance story, so ci={query.ci} is "
            f"unavailable: {variance_flag}"
        )
    return QueryPlan(
        query=query, sampler_label=label, with_variance=with_variance
    )


def execute(sampler, query: Query) -> QueryResult:
    """Plan ``query`` against ``sampler`` and run it on a fresh sample.

    The result (and every per-group sub-result) is stamped with the
    sampler's ``state_version`` as of execution, so callers — the
    serving runtime's snapshot readers in particular — can verify that
    a set of answers was computed against one mutation epoch.
    """
    version = sampler.state_version
    query_plan = plan(sampler, query)
    now = query.now
    if query.is_time_scoped:
        if now is None:
            now = getattr(sampler, "last_time", None)
        # Retention gate: a sampler that deterministically expires rows
        # (sliding window) cannot answer about times past its horizon —
        # the expired rows are gone, not down-weighted, so any estimate
        # reaching before the horizon would be silently truncated.
        horizon = getattr(sampler, "retention_horizon", None)
        if horizon is not None:
            try:
                lo, _ = resolve_window_bounds(query, now)
            except ValueError:
                lo = None  # unresolvable now: the executor raises below
            if lo is not None and lo < horizon:
                raise QueryCapabilityError(
                    f"{query_plan.sampler_label} retains only times after "
                    f"{horizon!r}; the requested window reaches back to "
                    f"{lo!r} — expired rows cannot be estimated"
                )
    result = query_plan.run(sampler.sample(), now=now)
    object.__setattr__(result, "state_version", version)
    if result.groups is not None:
        for sub in result.groups.values():
            object.__setattr__(sub, "state_version", version)
    return result
