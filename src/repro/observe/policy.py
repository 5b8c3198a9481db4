"""SLO-breach-driven live reconfiguration (the elasticity policy engine).

The health engine says *what* broke, the doctor says *why*; this module
closes the loop by deciding *what to do about it* — without restarting
the job.  A :class:`PolicyEngine` consumes the health engine's
breach/recover transitions together with the doctor's root-cause report
and emits typed :class:`ReconfigAction` records:

- ``retune`` — widen the flush deadline / capacity of the
  :class:`~repro.core.buffering.StreamBuffer` legs feeding an
  overwhelmed operator ("batch up": NEPTUNE's §III-B bound trades
  per-batch overhead against latency, so a sink drowning in small
  frequent batches is healed by larger, rarer ones).
- ``migrate`` — move an operator off a faulted worker entirely (applied
  by the coordinator via a verified re-plan + rolling restart; see
  ``repro.cluster.coordinator``).

A breach that is execute-stage-bound rather than buffer-bound
(``compute_bound``, or a cascade whose traced time is mostly
``execute``) gets no action, only a warning: every task already has a
thread of its own, and no worker-local change adds CPU to it.

Determinism contract
--------------------
Decisions are **pure functions of observed counters** — the scan index,
the transition list, and the (already deterministic) doctor report.  No
wall clock, no randomness, no iteration-order dependence: two runs that
observe the same scan sequence produce *byte-identical* action logs
(:meth:`PolicyEngine.action_log`, asserted by the determinism test).
Wall time appears only in the engine's duty-cycle accounting, never in
a decision.

Like the rest of ``repro.observe`` this module imports no runtime
code: actions are *applied* through duck-typed targets exposing
``reconfigure(changes)`` (:class:`~repro.core.runtime.NeptuneRuntime`,
:class:`~repro.core.distributed.DistributedWorker`, or a
:class:`~repro.core.control.RemoteWorker` proxy) via
:func:`apply_action`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.observe.observer import RuntimeObserver

__all__ = [
    "ACTION_KINDS",
    "PolicyEngine",
    "ReconfigAction",
    "action_to_changes",
    "apply_action",
]

#: The action kinds :class:`PolicyEngine` can emit.
ACTION_KINDS: Tuple[str, ...] = ("retune", "migrate")


@dataclass(frozen=True)
class ReconfigAction:
    """One typed reconfiguration decision.

    ``params`` is action-kind specific and JSON-able:

    ===========  ========================================================
    kind         params
    ===========  ========================================================
    ``retune``   ``operator``, ``where`` (``into``/``from``),
                 ``max_delay`` (s), ``capacity`` (bytes)
    ``migrate``  ``operator``, ``from_worker``
    ===========  ========================================================
    """

    scan: int
    kind: str
    operator: str
    slo: str
    cause: str
    reason: str
    worker: Optional[int] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (the CLI's ``policy log`` rows)."""
        return {
            "scan": self.scan,
            "kind": self.kind,
            "operator": self.operator,
            "slo": self.slo,
            "cause": self.cause,
            "reason": self.reason,
            "worker": self.worker,
            "params": dict(self.params),
        }

    def as_line(self) -> str:
        """Canonical one-line JSON encoding.

        Keys are sorted and separators fixed, so identical decisions
        serialize to identical bytes — the unit the determinism test
        compares."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


#: Scans between two actions on one operator (the first takes effect),
#: and the lifetime cap on actions per operator (the runaway brake).
COOLDOWN_SCANS = 10
MAX_ACTIONS_PER_OPERATOR = 3
#: Absolute targets of a ``batch_up`` retune, so the action log does not
#: depend on what the buffers hold.  Retunes are never reverted.
RETUNE_MAX_DELAY = 0.05
RETUNE_CAPACITY = 64 * 1024
#: A breach whose dominant traced stage is ``execute`` with at least
#: this fraction of traced time is CPU-bound: declined, not retuned.
EXECUTE_STAGE_FRACTION = 0.6


class PolicyEngine:
    """Deterministic breach → reconfiguration decision engine.

    Follows the :class:`~repro.observe.health.AdaptiveSampler`
    template: one :meth:`observe` call per health scan, decisions
    appended to :attr:`decisions`, everything a pure function of the
    inputs.  The engine never *applies* anything — callers hand its
    actions to :func:`apply_action` (worker-local changes) or the
    coordinator (migrations), keeping decide and act separable and the
    decide side trivially replayable.
    """

    def __init__(self) -> None:
        #: Every action ever decided, in decision order.
        self.decisions: List[ReconfigAction] = []
        #: Human-readable warnings (breaches the engine declined to act
        #: on, and why) — surfaced by ``repro policy status``.
        self.warnings: List[str] = []
        #: Breach transitions with no attributable root cause.
        self.no_cause = 0
        #: Actions suppressed by cooldown / per-operator caps.
        self.suppressed = 0
        self.scans = 0
        #: Wall seconds spent deciding — duty-cycle accounting only,
        #: never an input to a decision.
        self.scan_seconds = 0.0
        self._actions_for: Dict[str, int] = {}
        self._last_action_scan: Dict[str, int] = {}

    # -- decisions ----------------------------------------------------------
    def observe(
        self,
        scan: int,
        transitions: Sequence[Tuple[str, str]],
        report: Mapping[str, Any],
        observer: Optional[RuntimeObserver] = None,
    ) -> List[ReconfigAction]:
        """Apply one health scan's verdict; returns the actions decided.

        ``transitions`` is :meth:`HealthEngine.scan_once`'s return value
        (``(slo, "breach"|"recover")`` pairs) and ``report`` the
        :func:`repro.observe.doctor.diagnose` dict for the same scan.
        """
        t0 = time.perf_counter()
        actions: List[ReconfigAction] = []
        for slo, transition in transitions:
            if transition == "recover":
                continue  # retunes are never reverted
            action = self._on_breach(scan, slo, report, observer)
            if action is not None:
                actions.append(action)
                self.decisions.append(action)
                self._actions_for[action.operator] = (
                    self._actions_for.get(action.operator, 0) + 1
                )
                self._last_action_scan[action.operator] = scan
                if observer is not None:
                    observer.event(
                        "policy",
                        "action",
                        kind=action.kind,
                        operator=action.operator,
                        slo=action.slo,
                        cause=action.cause,
                        scan=scan,
                    )
        self.scans += 1
        if observer is not None:
            self._export(observer)
        self.scan_seconds += time.perf_counter() - t0
        return actions

    def _on_breach(
        self,
        scan: int,
        slo: str,
        report: Mapping[str, Any],
        observer: Optional[RuntimeObserver],
    ) -> Optional[ReconfigAction]:
        root = report.get("root_cause")
        if not isinstance(root, Mapping) or not root:
            self.no_cause += 1
            self._warn(
                scan,
                f"breach of {slo!r} has no attributable root cause; taking no action",
                observer,
                slo=slo,
            )
            return None
        cause_type = str(root.get("type", ""))
        operator = str(root.get("operator", ""))
        worker = _as_worker_id(root.get("worker"))
        if not operator:
            self.no_cause += 1
            self._warn(
                scan,
                f"breach of {slo!r}: root cause names no operator; taking no action",
                observer,
                slo=slo,
            )
            return None
        if cause_type == "compute_bound" or (
            cause_type == "backpressure_cascade" and self._execute_bound(report, slo)
        ):
            self._warn(
                scan,
                f"breach of {slo!r}: {operator} is CPU-bound ({cause_type}); it "
                "already has a thread of its own and no worker-local change "
                "adds CPU to it; taking no action (more CPU takes more processes)",
                observer,
                slo=slo,
            )
            return None
        if not self._may_act(scan, operator):
            self.suppressed += 1
            return None
        if cause_type == "backpressure_cascade":
            return ReconfigAction(
                scan=scan,
                kind="retune",
                operator=operator,
                slo=slo,
                cause=cause_type,
                reason=(
                    f"backpressure cascade rooted at {operator}: batch up "
                    f"the legs feeding it"
                ),
                worker=worker,
                params={
                    "operator": operator,
                    "where": "into",
                    "max_delay": RETUNE_MAX_DELAY,
                    "capacity": RETUNE_CAPACITY,
                },
            )
        if cause_type == "injected_fault":
            if worker is None:
                self._warn(
                    scan,
                    f"breach of {slo!r}: injected fault on {operator!r} has no "
                    "worker attribution; cannot migrate",
                    observer,
                    slo=slo,
                )
                return None
            return ReconfigAction(
                scan=scan,
                kind="migrate",
                operator=operator,
                slo=slo,
                cause=cause_type,
                reason=(
                    f"injected fault on worker {worker}: migrate {operator} "
                    "to a healthy worker"
                ),
                worker=worker,
                params={"operator": operator, "from_worker": worker},
            )
        self._warn(
            scan,
            f"breach of {slo!r}: cause type {cause_type!r} is not actionable "
            "by reconfiguration; taking no action",
            observer,
            slo=slo,
        )
        return None

    def _may_act(self, scan: int, operator: str) -> bool:
        if self._actions_for.get(operator, 0) >= MAX_ACTIONS_PER_OPERATOR:
            return False
        last = self._last_action_scan.get(operator)
        return last is None or scan - last >= COOLDOWN_SCANS

    def _execute_bound(self, report: Mapping[str, Any], slo: str) -> bool:
        for episode in report.get("breaches", ()):
            if not isinstance(episode, Mapping) or episode.get("slo") != slo:
                continue
            stage = episode.get("dominant_stage")
            if not isinstance(stage, Mapping):
                return False
            fraction = stage.get("fraction")
            return (
                stage.get("stage") == "execute"
                and isinstance(fraction, (int, float))
                and float(fraction) >= EXECUTE_STAGE_FRACTION
            )
        return False

    def _warn(
        self,
        scan: int,
        message: str,
        observer: Optional[RuntimeObserver],
        slo: str,
    ) -> None:
        self.warnings.append(f"scan {scan}: {message}")
        if observer is not None:
            observer.event("policy", "no_action", slo=slo, scan=scan, reason=message)

    def _export(self, observer: RuntimeObserver) -> None:
        registry = observer.registry
        registry.counter(
            "neptune_policy_scans_total", None, "Policy-engine scans observed"
        ).set_total(float(self.scans))
        registry.counter(
            "neptune_policy_actions_total", None, "Reconfiguration actions decided"
        ).set_total(float(len(self.decisions)))
        registry.counter(
            "neptune_policy_no_cause_total",
            None,
            "Breaches with no attributable root cause",
        ).set_total(float(self.no_cause))

    # -- reporting ----------------------------------------------------------
    def action_log(self) -> List[str]:
        """The canonical action log: one sorted-key JSON line per
        decision.  Two runs observing the same scans produce
        byte-identical logs (the determinism contract)."""
        return [action.as_line() for action in self.decisions]

    def status(self) -> Dict[str, Any]:
        """JSON-friendly engine summary (``repro policy status``)."""
        by_kind: Dict[str, int] = {}
        for action in self.decisions:
            by_kind[action.kind] = by_kind.get(action.kind, 0) + 1
        return {
            "scans": self.scans,
            "scan_seconds": self.scan_seconds,
            "actions": len(self.decisions),
            "actions_by_kind": by_kind,
            "no_cause": self.no_cause,
            "suppressed": self.suppressed,
            "warnings": list(self.warnings),
            "last_actions": [a.as_dict() for a in self.decisions[-5:]],
        }


def _as_worker_id(value: Any) -> Optional[int]:
    """Doctor reports carry worker ids as ints, digit strings, or not
    at all; normalize to ``Optional[int]``."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str) and value.isdigit():
        return int(value)
    return None


def action_to_changes(action: ReconfigAction) -> Dict[str, Any]:
    """Translate a worker-local action into the ``reconfigure``
    control-plane ``changes`` payload.

    ``migrate`` is not worker-local (it is a coordinator re-plan +
    rolling restart) and raises ``ValueError``.
    """
    if action.kind == "retune":
        return {
            "retune": {
                "operator": str(action.params.get("operator", action.operator)),
                "where": str(action.params.get("where", "into")),
                "max_delay": action.params.get("max_delay"),
                "capacity": action.params.get("capacity"),
            }
        }
    raise ValueError(f"action kind {action.kind!r} is not a worker-local change")


def apply_action(target: Any, action: ReconfigAction) -> Dict[str, Any]:
    """Apply a worker-local action to any target exposing
    ``reconfigure(changes)`` — a :class:`NeptuneRuntime`, a
    :class:`DistributedWorker`, or a :class:`RemoteWorker` proxy —
    and return the target's applied-changes report."""
    return dict(target.reconfigure(action_to_changes(action)))
