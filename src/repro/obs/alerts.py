"""Windowed alert rules over the serving stack's metric deltas.

The engine reuses the control plane's observation model: a watcher
feeds its metrics through a :class:`repro.serve.control.MetricsWindow`,
the same one the adaptive controller reads, which differences each
source's snapshots into one window of rates/shares.  The watcher adds
the direct gauges (and, for a cluster, ``workers_down`` and
``circuits_open``), and every :class:`AlertRule` is evaluated against
that flat value map.  Rules are declarative — ``"metric op threshold"``
over the fixed :data:`ALERT_METRICS` vocabulary — so a typo'd metric
name fails at rule construction with the valid-name list, not silently
at runtime.

Hysteresis is symmetric and flap-suppressing: a rule fires only after
its condition has held for ``for_duration`` seconds of evaluations, and
a firing rule resolves only after the condition has been *false* for
``for_duration`` — a condition that flaps inside the window produces no
events at all.  Every state change is emitted as an
:class:`AlertEvent` and counted, and the engine itself is exported as
metrics (evaluations, per-rule firing flags, transition counts) by
:mod:`repro.obs.adapters`.

The clock is injectable; :meth:`AlertEngine.observe` also accepts an
explicit ``now`` so the unit battery drives windowing deterministically.
:class:`ClusterWatcher` produces one value map per supervisor tick —
that is the cadence the default rules are written against.
"""

from __future__ import annotations

import operator
import time

from collections import deque
from dataclasses import dataclass, field, fields

from ..serve.control import ControlSignals, MetricsWindow
from ..serve.metrics import ServiceMetrics

__all__ = [
    "ALERT_METRICS",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "ClusterWatcher",
    "ServiceWatcher",
    "default_rules",
]

#: The direct gauges every watcher adds to a window.
_GAUGES = ("queue_depth", "checkpoint_lag", "restarts")

#: Metrics from one service-level observation window (the
#: :class:`ControlSignals` fields plus the direct gauges).
SERVICE_WINDOW_METRICS = (
    tuple(f.name for f in fields(ControlSignals)) + _GAUGES
)

#: Cluster-only gauges the :class:`ClusterWatcher` adds.
CLUSTER_WINDOW_METRICS = ("workers_down", "circuits_open")

#: The full valid-name vocabulary alert expressions may reference.
ALERT_METRICS = tuple(
    sorted(set(SERVICE_WINDOW_METRICS) | set(CLUSTER_WINDOW_METRICS))
)

SEVERITIES = ("info", "warning", "critical")

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


def _parse_expr(expr: str) -> tuple[str, str, float]:
    """Parse ``"metric op threshold"`` against :data:`ALERT_METRICS`."""
    parts = str(expr).split()
    if len(parts) != 3:
        raise ValueError(
            f"alert expr must be 'metric op threshold', got {expr!r}"
        )
    metric, op, threshold = parts
    if metric not in ALERT_METRICS:
        raise ValueError(
            f"unknown metric {metric!r} in alert expr; valid metrics: "
            + ", ".join(ALERT_METRICS)
        )
    if op not in _OPS:
        raise ValueError(
            f"unknown operator {op!r} in alert expr; expected one of "
            + ", ".join(_OPS)
        )
    try:
        bound = float(threshold)
    except ValueError as err:
        raise ValueError(
            f"alert threshold must be a number, got {threshold!r}"
        ) from err
    return metric, op, bound


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule: ``expr`` held for ``for_duration`` seconds.

    ``expr`` is ``"metric op threshold"`` over :data:`ALERT_METRICS`
    (validated here, so misconfigured rules fail at construction time
    with the valid-name list).  ``for_duration`` is the symmetric
    hysteresis window: the condition must hold that long to fire, and
    must be clear that long to resolve.
    """

    name: str
    expr: str
    for_duration: float = 0.0
    severity: str = "warning"

    def __post_init__(self):
        if not self.name:
            raise ValueError("rule name must be non-empty")
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )
        if self.for_duration < 0:
            raise ValueError("for_duration must be >= 0")
        metric, op, threshold = _parse_expr(self.expr)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "threshold", threshold)

    def holds(self, values: dict) -> tuple[bool, float | None]:
        """Evaluate against one window: ``(condition, observed value)``.

        A window that does not carry the rule's metric (e.g. a
        service-level window evaluated against a cluster rule) reads as
        condition-false with no observed value.
        """
        value = values.get(self.metric)
        if value is None:
            return False, None
        value = float(value)
        return _OPS[self.op](value, self.threshold), value


@dataclass
class AlertEvent:
    """One firing/resolved transition emitted by the engine."""

    rule: str
    severity: str
    kind: str  # "firing" | "resolved"
    at: float
    value: float | None
    expr: str

    def to_dict(self) -> dict:
        """JSON-friendly rendering (the wire/debug form)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "kind": self.kind,
            "at": self.at,
            "value": self.value,
            "expr": self.expr,
        }


@dataclass
class _RuleState:
    """Per-rule hysteresis state."""

    status: str = "ok"  # "ok" | "pending" | "firing"
    pending_since: float | None = None
    clear_since: float | None = None
    last_value: float | None = None


def default_rules(
    *,
    slo_p99: float = 0.1,
    occupancy: float = 0.9,
    for_duration: float = 0.0,
) -> tuple[AlertRule, ...]:
    """The shipped rule set, tunable where a deployment has real SLOs.

    ``worker-down`` and ``circuit-open`` carry no hysteresis regardless
    of ``for_duration``: an outage must fire within one evaluation (one
    supervisor cadence) — the chaos battery pins that latency.
    """
    return (
        AlertRule("drop-rate", "drop_rate > 0",
                  for_duration=for_duration, severity="critical"),
        AlertRule("queue-occupancy", f"queue_occupancy > {occupancy}",
                  for_duration=for_duration, severity="warning"),
        AlertRule("flush-p99-slo", f"flush_latency_p99 > {slo_p99}",
                  for_duration=for_duration, severity="warning"),
        AlertRule("worker-down", "workers_down > 0", severity="critical"),
        AlertRule("circuit-open", "circuits_open > 0", severity="warning"),
    )


class AlertEngine:
    """Evaluate a rule registry against successive metric windows.

    Call :meth:`observe` once per cadence with the flat window values (a
    :class:`ServiceWatcher`/:class:`ClusterWatcher` builds them); it
    returns the transitions this window produced and records them in the
    bounded event history.
    """

    def __init__(self, rules=None, *, clock=time.monotonic,
                 history: int = 256):
        self.clock = clock
        self._rules: dict[str, AlertRule] = {}
        self._states: dict[str, _RuleState] = {}
        self.evaluations = 0
        self.transitions = {"firing": 0, "resolved": 0}
        self.events: deque[AlertEvent] = deque(maxlen=int(history))
        for rule in (default_rules() if rules is None else rules):
            self.add_rule(rule)

    def add_rule(self, rule: AlertRule) -> "AlertEngine":
        """Register one rule (duplicate names are an error)."""
        if rule.name in self._rules:
            raise ValueError(f"duplicate alert rule {rule.name!r}")
        self._rules[rule.name] = rule
        self._states[rule.name] = _RuleState()
        return self

    def rules(self) -> tuple[AlertRule, ...]:
        """The registered rules, registration order."""
        return tuple(self._rules.values())

    def firing(self) -> dict[str, dict]:
        """Currently-firing rules: name -> ``{severity, value, expr}``."""
        out = {}
        for name, state in self._states.items():
            if state.status == "firing":
                rule = self._rules[name]
                out[name] = {
                    "severity": rule.severity,
                    "value": state.last_value,
                    "expr": rule.expr,
                }
        return out

    def status(self) -> dict[str, str]:
        """Every rule's hysteresis status (``ok``/``pending``/``firing``)."""
        return {name: state.status for name, state in self._states.items()}

    def observe(self, values: dict, now: float | None = None) -> list:
        """Evaluate one window; returns the emitted :class:`AlertEvent`s."""
        now = self.clock() if now is None else float(now)
        self.evaluations += 1
        emitted: list[AlertEvent] = []
        for name, rule in self._rules.items():
            state = self._states[name]
            condition, value = rule.holds(values)
            state.last_value = value
            if state.status in ("ok", "pending"):
                if not condition:
                    # Flap inside the pending window: suppressed, no event.
                    state.status = "ok"
                    state.pending_since = None
                    continue
                if state.pending_since is None:
                    state.pending_since = now
                if now - state.pending_since >= rule.for_duration:
                    state.status = "firing"
                    state.clear_since = None
                    emitted.append(self._emit(rule, "firing", now, value))
                else:
                    state.status = "pending"
            else:  # firing
                if condition:
                    state.clear_since = None
                    continue
                if state.clear_since is None:
                    state.clear_since = now
                if now - state.clear_since >= rule.for_duration:
                    state.status = "ok"
                    state.pending_since = None
                    state.clear_since = None
                    emitted.append(self._emit(rule, "resolved", now, value))
        return emitted

    def _emit(self, rule: AlertRule, kind: str, now: float,
              value: float | None) -> AlertEvent:
        event = AlertEvent(
            rule=rule.name, severity=rule.severity, kind=kind,
            at=now, value=value, expr=rule.expr,
        )
        self.events.append(event)
        self.transitions[kind] += 1
        return event


def _flat_window(window: MetricsWindow, sources: dict, now: float,
                 queue_size: int) -> dict:
    """One flat window over ``sources``: the signals plus direct gauges.

    Before the window has a start, or with no time elapsed since it,
    there are no signals: only the gauges and the backlog they imply.
    """
    total = ServiceMetrics()
    for metrics in sources.values():
        total.merge(metrics)
    signals = window.observe(sources, now, queue_size)
    values = {
        "backlog": float(total.queue_depth),
        "queue_occupancy": (
            total.queue_depth / queue_size if queue_size else 0.0
        ),
    }
    if signals is not None:
        values.update(signals.to_dict())
    for gauge in _GAUGES:
        values[gauge] = float(getattr(total, gauge))
    return values


@dataclass
class ServiceWatcher:
    """Window source for one ``StreamService``.

    Each :meth:`sample` runs the service's metrics through a
    :class:`MetricsWindow` and returns the flat value map
    :meth:`AlertEngine.observe` consumes.  The first call has no window
    yet and returns only the direct gauges.
    """

    service: object
    clock: object = time.monotonic
    _window: MetricsWindow = field(default_factory=MetricsWindow, repr=False)

    def sample(self, now: float | None = None) -> dict:
        """The current observation window's flat value map."""
        now = self.clock() if now is None else float(now)
        return _flat_window(
            self._window, {"service": self.service.metrics}, now,
            int(getattr(self.service, "queue_size", 0)),
        )


@dataclass
class ClusterWatcher:
    """Window source over a cluster's worker pool, one source per worker.

    A worker that joins, leaves, or restarts between two samples adds
    nothing to that window (see :class:`MetricsWindow`).  Adds the
    cluster-only gauges: ``workers_down`` (the outage map size) and
    ``circuits_open`` (an optional callable — e.g. counting open
    client-side :class:`~repro.serve.cluster.retry.CircuitBreaker`s —
    since breakers live with the clients, not the cluster).
    """

    cluster: object
    circuits: object = None
    clock: object = time.monotonic
    _window: MetricsWindow = field(default_factory=MetricsWindow, repr=False)

    def sample(self, now: float | None = None) -> dict:
        """The current cluster-wide observation window's value map."""
        now = self.clock() if now is None else float(now)
        workers = self.cluster._workers
        values = _flat_window(
            self._window,
            {name: worker.metrics for name, worker in workers.items()},
            now,
            sum(int(worker.queue_size) for worker in workers.values()),
        )
        values["workers_down"] = float(len(self.cluster.down_services()))
        values["circuits_open"] = float(
            self.circuits() if callable(self.circuits) else 0
        )
        return values
