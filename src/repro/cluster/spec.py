"""Per-shard worker specs: everything one worker process needs to run.

A :class:`WorkerSpec` is the unit the coordinator ships to each spawned
process: the full graph descriptor (every worker knows the whole
topology — wire ids are derived from it without coordination), the
deployment plan, the data-plane endpoint map, and the worker's own
control port.  Specs are plain JSON so the spawn boundary stays
interpreter-agnostic and a spec file can be inspected or replayed by
hand.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.config import NeptuneConfig
from repro.core.distributed import DeploymentPlan, round_robin_plan
from repro.core.graph import StreamProcessingGraph
from repro.util.errors import NeptuneError


def config_to_dict(config: NeptuneConfig) -> Dict[str, Any]:
    """Serialize a :class:`NeptuneConfig` for a descriptor ``"config"``
    block (``from_descriptor`` rebuilds it with ``NeptuneConfig(**d)``)."""
    return dataclasses.asdict(config)


def build_plan(
    graph: StreamProcessingGraph,
    n_workers: int,
    pin: Optional[Mapping[str, int]] = None,
) -> DeploymentPlan:
    """Plan operator shards for ``n_workers`` processes.

    The base plan is round-robin; ``pin`` then overrides the placement
    of whole operators (every instance of that operator) onto a named
    worker — chaos tests use this to isolate a source on its own
    process.
    """
    plan = round_robin_plan(graph, n_workers)
    if not pin:
        return plan
    known = set(graph.operators)
    assignment = dict(plan.assignment)
    for op_name, worker in pin.items():
        if op_name not in known:
            raise NeptuneError(f"pin names unknown operator: {op_name!r}")
        if not 0 <= worker < n_workers:
            raise NeptuneError(
                f"pin for {op_name!r} targets worker {worker} of {n_workers}"
            )
        for key in assignment:
            if key[0] == op_name:
                assignment[key] = worker
    return DeploymentPlan(n_workers=n_workers, assignment=assignment)


@dataclass(frozen=True)
class WorkerSpec:
    """One worker process's share of a cluster deployment.

    ``observe`` (optional) configures the worker's observability plane:
    ``sample_every`` (trace sampling), ``slos`` (worker-local health
    engine config), ``flight_path`` / ``flight_every`` (black-box
    flight recorder), ``scan_interval``.  Absent → the worker runs
    unobserved, exactly as before this field existed.

    ``incarnation`` counts process (re)spawns of this shard: 0 for the
    first launch, then the coordinator's restart count.  The worker
    stamps it on every telemetry delta so the collector can fence
    deltas from a dead incarnation (see
    :meth:`~repro.observe.collector.ClusterCollector.reset_worker`).
    """

    worker_id: int
    descriptor: Dict[str, Any]
    plan: Dict[str, Any]
    endpoints: Dict[int, Tuple[str, int]]
    control_port: int
    observe: Optional[Dict[str, Any]] = None
    incarnation: int = 0

    def to_json(self) -> str:
        raw: Dict[str, Any] = {
            "worker_id": self.worker_id,
            "descriptor": self.descriptor,
            "plan": self.plan,
            "endpoints": {str(w): list(ep) for w, ep in self.endpoints.items()},
            "control_port": self.control_port,
            "incarnation": self.incarnation,
        }
        if self.observe is not None:
            raw["observe"] = self.observe
        return json.dumps(raw)

    @classmethod
    def from_json(cls, text: str) -> "WorkerSpec":
        raw = json.loads(text)
        try:
            return cls(
                worker_id=int(raw["worker_id"]),
                descriptor=raw["descriptor"],
                plan=raw["plan"],
                endpoints={
                    int(w): (str(ep[0]), int(ep[1]))
                    for w, ep in raw["endpoints"].items()
                },
                control_port=int(raw["control_port"]),
                observe=raw.get("observe"),
                incarnation=int(raw.get("incarnation", 0)),
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise NeptuneError(f"bad worker spec: {exc}") from exc

    def deployment_plan(self) -> DeploymentPlan:
        return DeploymentPlan.from_dict(self.plan)
