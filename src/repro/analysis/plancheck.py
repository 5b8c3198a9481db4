"""Static verifier for cluster deployment plans (NEPG130–139).

PR 6 made misdeployment possible: a :class:`~repro.cluster.spec.WorkerSpec`
set wires real processes to real ports, and a bad pin map, a port
collision, or a non-deterministically partitioned cross-process link
only surfaces as a spawn-time crash or — worse — a silent exactly-once
violation after a worker restart.  This pass front-loads those into
structured diagnostics, exactly as :mod:`repro.analysis.graphcheck`
does for graphs:

===========  ========  =====================================================
code         severity  meaning
===========  ========  =====================================================
NEPG130      error     malformed cluster spec / unsound instance assignment
NEPG131      error     pin override names an unknown operator
NEPG132      error     pin override targets an out-of-range worker
NEPG133      error     TCP port collision (data/control) across workers
NEPG134      error     unix-socket path collision (or malformed unix endpoint)
NEPG135      error     worker spec set inconsistent (ids/endpoints/plan drift)
NEPG136      error     non-deterministic partitioning on a cross-worker link
NEPG137      error     config drift between per-worker descriptor configs
NEPG138      error     exactly-once infeasible on a cross-worker link
NEPG139      warning   worker hosts no operator instances (idle shard)
===========  ========  =====================================================

NEPG136 is the *promotion* of the single-process NEPG122 warning: an
unseeded shuffle into a parallel stage is merely non-reproducible
inside one process, but once the plan assigns the link across worker
processes, replay after a crash re-routes packets onto different wire
ids and the :class:`~repro.net.framing.SequenceTracker` dedup can no
longer guarantee exactly-once — so the warning becomes an error and
the NEPG122 finding for that link is superseded.

Three entry points:

- :func:`verify_plan` — graph + :class:`DeploymentPlan` (+ optional
  spec set); what :meth:`ClusterCoordinator.launch` gates on.
- :func:`verify_cluster` / :func:`verify_cluster_file` — a *cluster
  spec* JSON document (see below); the ``repro analyze --cluster``
  face.

A cluster spec file names either a planner input::

    {"descriptor_path": "fig1_relay.json", "workers": 2,
     "scheme": "round-robin", "pin": {"sender": 0},
     "endpoints": {"0": ["127.0.0.1", 7001], "1": ["127.0.0.1", 7002]},
     "control_ports": [7101, 7102]}

(``descriptor`` may be inline; ``endpoints``/``control_ports`` are
optional — without them port checks are skipped, because the
coordinator reserves kernel-assigned ports at launch) — or an explicit
``worker_specs`` list of :class:`WorkerSpec` JSON objects, the
inspect-by-hand form, which additionally enables the spec-set
consistency (NEPG135) and config-drift (NEPG137) passes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.analysis.graphcheck import verify_descriptor

__all__ = [
    "PlanVerifier",
    "verify_cluster",
    "verify_cluster_file",
    "verify_plan",
]

#: Endpoint: (host, port); a host of the form ``unix:/path`` selects a
#: Unix-domain socket and the port is ignored.
Endpoint = Tuple[str, int]


def _link_where(from_op: str, to_op: str, stream: str) -> str:
    return f"link {from_op!r}->{to_op!r}/{stream!r}"


class PlanVerifier:
    """Runs the NEPG130–139 passes over one deployment.

    Parameters
    ----------
    graph:
        The validated (or at least error-free) ``StreamProcessingGraph``.
    plan:
        The :class:`~repro.core.distributed.DeploymentPlan` under test.
    specs:
        Optional :class:`~repro.cluster.spec.WorkerSpec` sequence; when
        given, endpoint/control-port collision checks and the spec-set
        consistency + config-drift passes run too.
    """

    def __init__(
        self,
        graph: Any,
        plan: Any,
        specs: Optional[Sequence[Any]] = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.specs = list(specs) if specs is not None else None
        self.report = DiagnosticReport(
            subject=f"deployment plan for graph {graph.name!r}"
        )
        #: ``where`` keys of links promoted by NEPG136 (so a caller can
        #: suppress the superseded NEPG122 warnings).
        self.promoted_links: Set[str] = set()

    # -- entry point ---------------------------------------------------------
    def run(self) -> DiagnosticReport:
        if not self.check_assignment():
            return self.report
        if self.specs is not None:
            self.check_spec_set()
            self.check_config_drift()
            self.check_ports()
        self.check_cross_worker_links()
        self.check_exactly_once()
        self.check_idle_workers()
        return self.report

    # -- pass 1: assignment soundness (NEPG130) ------------------------------
    def check_assignment(self) -> bool:
        """Every instance placed exactly once on an in-range worker.

        Returns False when the assignment is too broken for the
        placement-dependent passes to run.
        """
        rep = self.report
        ok = True
        n_workers = int(self.plan.n_workers)
        if n_workers <= 0:
            rep.add(
                "NEPG130",
                Severity.ERROR,
                f"plan declares {n_workers} workers; a deployment needs "
                "at least one",
                where="plan",
            )
            return False
        operators = self.graph.operators
        seen: Set[Tuple[str, int]] = set()
        for (op, idx), worker in sorted(self.plan.assignment.items()):
            key = f"({op!r}, {idx})"
            if op not in operators:
                rep.add(
                    "NEPG130",
                    Severity.ERROR,
                    f"assignment places instance {key} of an operator the "
                    "graph never declared",
                    where="plan",
                    hint="regenerate the plan from the deployed graph",
                )
                ok = False
                continue
            if not 0 <= idx < operators[op].parallelism:
                rep.add(
                    "NEPG130",
                    Severity.ERROR,
                    f"assignment places instance {key} but {op!r} has "
                    f"parallelism {operators[op].parallelism}",
                    where="plan",
                )
                ok = False
                continue
            if not 0 <= worker < n_workers:
                rep.add(
                    "NEPG130",
                    Severity.ERROR,
                    f"instance {key} is assigned to worker {worker} of a "
                    f"{n_workers}-worker plan",
                    where="plan",
                    hint="worker indexes run 0..n_workers-1",
                )
                ok = False
            seen.add((op, idx))
        for name, spec in operators.items():
            for idx in range(spec.parallelism):
                if (name, idx) not in seen:
                    rep.add(
                        "NEPG130",
                        Severity.ERROR,
                        f"instance ({name!r}, {idx}) is missing from the "
                        "assignment; the operator would silently not run",
                        where="plan",
                        hint="every (operator, instance) pair needs a worker",
                    )
                    ok = False
        return ok

    # -- pass 2: spec-set consistency (NEPG135) ------------------------------
    def check_spec_set(self) -> None:
        """Worker ids cover 0..n-1 once; endpoints and plans agree."""
        rep = self.report
        specs = self.specs or []
        n_workers = int(self.plan.n_workers)
        ids = [s.worker_id for s in specs]
        expected = list(range(n_workers))
        if sorted(ids) != expected:
            rep.add(
                "NEPG135",
                Severity.ERROR,
                f"worker spec set carries ids {sorted(ids)} for a "
                f"{n_workers}-worker plan (expected exactly {expected})",
                where="worker specs",
                hint="one spec per worker, ids 0..n_workers-1, no repeats",
            )
            return
        canonical = specs[0]
        for spec in specs[1:]:
            if spec.endpoints != canonical.endpoints:
                rep.add(
                    "NEPG135",
                    Severity.ERROR,
                    f"worker {spec.worker_id}'s endpoint map disagrees with "
                    f"worker {canonical.worker_id}'s; peers would dial "
                    "different addresses for the same shard",
                    where="worker specs",
                    hint="ship the identical endpoint map to every worker",
                )
            if spec.plan != canonical.plan:
                rep.add(
                    "NEPG135",
                    Severity.ERROR,
                    f"worker {spec.worker_id}'s deployment plan disagrees "
                    f"with worker {canonical.worker_id}'s; wire ids derive "
                    "from the shared plan, so frames would cross-connect",
                    where="worker specs",
                )
        for spec in specs:
            if spec.worker_id not in spec.endpoints:
                rep.add(
                    "NEPG135",
                    Severity.ERROR,
                    f"worker {spec.worker_id} has no entry in the endpoint "
                    "map; it cannot bind its own data-plane listener",
                    where="worker specs",
                )

    # -- pass 3: config drift (NEPG137) --------------------------------------
    def check_config_drift(self) -> None:
        """Per-worker descriptor ``config`` blocks must be identical.

        Watermarks, replay windows, and flush deadlines are *protocol*
        parameters between peers: a worker flushing 1 MB batches into a
        peer whose replay window was configured smaller wedges the link.
        """
        specs = self.specs or []
        if not specs:
            return
        canonical = specs[0].descriptor.get("config", {})
        for spec in specs[1:]:
            config = spec.descriptor.get("config", {})
            if config == canonical:
                continue
            keys = sorted(
                k
                for k in set(canonical) | set(config)
                if canonical.get(k) != config.get(k)
            )
            self.report.add(
                "NEPG137",
                Severity.ERROR,
                f"worker {spec.worker_id}'s descriptor config drifts from "
                f"worker {specs[0].worker_id}'s on {keys}; watermark and "
                "replay-window mismatches between peers wedge the link "
                "instead of failing loudly",
                where="worker specs",
                hint="generate every spec from one descriptor (the "
                "coordinator does this for you)",
            )

    # -- pass 4: ports and socket paths (NEPG133/NEPG134) --------------------
    def check_ports(self) -> None:
        """No two listeners may claim one TCP port or one socket path."""
        rep = self.report
        specs = self.specs or []
        if not specs:
            return
        #: (host, port) -> list of claimants, for TCP endpoints.
        tcp_claims: Dict[Tuple[str, int], List[str]] = {}
        #: socket path -> list of claimants, for unix endpoints.
        unix_claims: Dict[str, List[str]] = {}
        endpoints = specs[0].endpoints
        for worker, (host, port) in sorted(endpoints.items()):
            if host.startswith("unix:"):
                path = host[len("unix:") :]
                if not path:
                    rep.add(
                        "NEPG134",
                        Severity.ERROR,
                        f"worker {worker}'s unix endpoint has an empty "
                        "socket path",
                        where="endpoints",
                    )
                    continue
                unix_claims.setdefault(os.path.normpath(path), []).append(
                    f"worker {worker} data"
                )
            else:
                tcp_claims.setdefault((host, int(port)), []).append(
                    f"worker {worker} data"
                )
        for spec in specs:
            tcp_claims.setdefault(("127.0.0.1", int(spec.control_port)), []).append(
                f"worker {spec.worker_id} control"
            )
        for (host, port), claimants in sorted(tcp_claims.items()):
            if len(claimants) > 1:
                rep.add(
                    "NEPG133",
                    Severity.ERROR,
                    f"TCP port {host}:{port} is claimed by "
                    f"{' and '.join(claimants)}; the second bind fails at "
                    "spawn (or the workers talk to the wrong peer)",
                    where="endpoints",
                    hint="reserve data and control ports in one batch "
                    "(repro.cluster.ports.reserve_ports)",
                )
        for path, claimants in sorted(unix_claims.items()):
            if len(claimants) > 1:
                rep.add(
                    "NEPG134",
                    Severity.ERROR,
                    f"unix socket path {path!r} is claimed by "
                    f"{' and '.join(claimants)}; the second worker silently "
                    "replaces the first's socket file",
                    where="endpoints",
                    hint="give every worker a distinct socket file",
                )

    # -- pass 5: cross-worker partitioning (NEPG136) -------------------------
    def _workers_of(self, op: str) -> Set[int]:
        return {
            worker
            for (name, _idx), worker in self.plan.assignment.items()
            if name == op
        }

    def _crossing_links(self) -> List[Any]:
        """Links whose sender/receiver instances span >1 worker."""
        crossing = []
        for lk in self.graph.links:
            span = self._workers_of(lk.from_op) | self._workers_of(lk.to_op)
            if len(span) > 1:
                crossing.append(lk)
        return crossing

    def check_cross_worker_links(self) -> None:
        """NEPG136: promote NEPG122 to an error on process-crossing links."""
        for lk in self._crossing_links():
            where = _link_where(lk.from_op, lk.to_op, lk.stream)
            try:
                scheme = lk.resolved_partitioning()
            except Exception:  # noqa: BLE001 — NEPG109 already reported it
                continue
            if getattr(scheme, "deterministic", True):
                continue
            self.promoted_links.add(where)
            self.report.add(
                "NEPG136",
                Severity.ERROR,
                f"{scheme.name} partitioning routes non-deterministically "
                f"and the plan assigns this link across worker processes; "
                "replay after a crash would re-route packets onto "
                "different wire ids, breaking exactly-once delivery "
                "(supersedes the single-process NEPG122 warning)",
                where=where,
                hint="seed the scheme (e.g. shuffle with an explicit seed) "
                "or switch to round-robin/fields partitioning",
            )

    # -- pass 6: exactly-once feasibility (NEPG138) --------------------------
    def check_exactly_once(self) -> None:
        """Cross-worker links (always ack-replay) need a replay window
        that can hold at least one full flush batch."""
        config = self.graph.config
        for lk in self._crossing_links():
            where = _link_where(lk.from_op, lk.to_op, lk.stream)
            if config.transport_replay_window < config.buffer_capacity:
                self.report.add(
                    "NEPG138",
                    Severity.ERROR,
                    f"transport_replay_window ({config.transport_replay_window}) "
                    f"is smaller than buffer_capacity ({config.buffer_capacity}); "
                    "one capacity flush produces a frame that can never fit "
                    "the replay window, wedging the sender on this "
                    "cross-worker link",
                    where=where,
                    hint="keep transport_replay_window >= buffer_capacity",
                )

    # -- pass 7: idle workers (NEPG139) --------------------------------------
    def check_idle_workers(self) -> None:
        assigned = {worker for worker in self.plan.assignment.values()}
        idle = sorted(set(range(int(self.plan.n_workers))) - assigned)
        if idle:
            self.report.add(
                "NEPG139",
                Severity.WARNING,
                f"workers {idle} host no operator instances; they spawn, "
                "bind ports, and burn memory for nothing",
                where="plan",
                hint="shrink n_workers or rebalance the pin map",
            )


# -- module-level entry points ------------------------------------------------


def verify_plan(
    graph: Any,
    plan: Any,
    specs: Optional[Sequence[Any]] = None,
) -> DiagnosticReport:
    """Verify one deployment plan (graph must already be error-free)."""
    return PlanVerifier(graph, plan, specs=specs).run()


def verify_cluster(
    spec: Any, base_dir: str = ".", subject: str = "cluster spec"
) -> DiagnosticReport:
    """Verify a cluster spec document (see module docstring).

    Runs the full graph verifier over the deployed descriptor first —
    a cluster report therefore includes NEPG101–122 findings — then the
    plan passes; NEPG122 warnings for links promoted to NEPG136 are
    suppressed in favour of the error.
    """
    report = DiagnosticReport(subject=subject)
    if not _cluster_shape_ok(spec, report):
        return report

    explicit_specs: Optional[List[Any]] = None
    if "worker_specs" in spec:
        explicit_specs = _parse_worker_specs(spec["worker_specs"], report)
        if explicit_specs is None:
            return report
        descriptor = explicit_specs[0].descriptor
    else:
        descriptor = _load_descriptor(spec, base_dir, report)
        if descriptor is None:
            return report

    graph_report = verify_descriptor(descriptor)
    if graph_report.errors():
        report.extend(graph_report)
        return report

    from repro.core.graph import StreamProcessingGraph

    graph = StreamProcessingGraph.from_descriptor(descriptor, validate_wiring=False)
    if explicit_specs is not None:
        plan = explicit_specs[0].deployment_plan()
        verifier = PlanVerifier(graph, plan, specs=explicit_specs)
    else:
        plan = _lenient_plan(graph, spec, report)
        if plan is None:
            report.extend(graph_report)
            return report
        verifier = PlanVerifier(
            graph,
            plan,
            specs=_synthesized_specs(spec, descriptor, plan, report),
        )
    verifier.run()
    # Fold graph findings, dropping NEPG122 warnings superseded by the
    # promoted NEPG136 error on the same link.
    for diag in graph_report:
        if diag.code == "NEPG122" and diag.where in verifier.promoted_links:
            continue
        report.diagnostics.append(diag)
    report.extend(verifier.report)
    report.verified = (graph, plan)
    return report


def verify_cluster_file(path: str) -> DiagnosticReport:
    """Verify a cluster spec JSON file (parse errors become NEPG130)."""
    report = DiagnosticReport(subject=path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        report.add(
            "NEPG130",
            Severity.ERROR,
            f"cannot read cluster spec: {exc}",
            where=path,
        )
        return report
    inner = verify_cluster(spec, base_dir=os.path.dirname(path) or ".")
    inner.subject = path
    return inner


# -- cluster-spec plumbing -----------------------------------------------------


def _cluster_shape_ok(spec: Any, report: DiagnosticReport) -> bool:
    """Dict-shape validation; every problem is one NEPG130 finding."""
    ok = True

    def bad(message: str, where: str = "cluster spec") -> None:
        nonlocal ok
        ok = False
        report.add("NEPG130", Severity.ERROR, message, where=where)

    if not isinstance(spec, dict):
        bad(f"cluster spec must be an object, got {type(spec).__name__}")
        return False
    if "worker_specs" in spec:
        if not isinstance(spec["worker_specs"], list) or not spec["worker_specs"]:
            bad("'worker_specs' must be a non-empty list of WorkerSpec objects")
        return ok
    has_inline = isinstance(spec.get("descriptor"), dict)
    has_path = isinstance(spec.get("descriptor_path"), str)
    if not has_inline and not has_path:
        bad(
            "cluster spec needs 'descriptor' (inline), 'descriptor_path', "
            "or 'worker_specs'"
        )
    workers = spec.get("workers", 2)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers <= 0:
        bad(f"'workers' must be a positive integer, got {workers!r}")
    if spec.get("scheme", "round-robin") not in ("round-robin", "capability"):
        bad(f"unknown plan scheme {spec.get('scheme')!r}")
    if "pin" in spec and not isinstance(spec["pin"], dict):
        bad("'pin' must map operator names to worker indexes")
    if "endpoints" in spec and not isinstance(spec["endpoints"], dict):
        bad("'endpoints' must map worker ids to [host, port] pairs")
    return ok


def _load_descriptor(
    spec: Mapping[str, Any], base_dir: str, report: DiagnosticReport
) -> Optional[Dict[str, Any]]:
    if isinstance(spec.get("descriptor"), dict):
        descriptor: Dict[str, Any] = spec["descriptor"]
        return descriptor
    path = os.path.join(base_dir, spec["descriptor_path"])
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        report.add(
            "NEPG130",
            Severity.ERROR,
            f"cannot read deployed descriptor: {exc}",
            where=path,
        )
        return None
    if not isinstance(loaded, dict):
        report.add(
            "NEPG130",
            Severity.ERROR,
            f"deployed descriptor must be an object, got {type(loaded).__name__}",
            where=path,
        )
        return None
    return loaded


def _parse_worker_specs(
    raw: Sequence[Any], report: DiagnosticReport
) -> Optional[List[Any]]:
    from repro.cluster.spec import WorkerSpec
    from repro.util.errors import NeptuneError

    specs: List[Any] = []
    for i, entry in enumerate(raw):
        try:
            specs.append(WorkerSpec.from_json(json.dumps(entry)))
        except (NeptuneError, TypeError, ValueError) as exc:
            report.add(
                "NEPG130",
                Severity.ERROR,
                f"worker_specs[{i}] is not a valid WorkerSpec: {exc}",
                where="worker specs",
            )
            return None
    return specs


def _lenient_plan(
    graph: Any, spec: Mapping[str, Any], report: DiagnosticReport
) -> Optional[Any]:
    """Build the plan the spec describes, reporting pin faults
    (NEPG131/132) instead of raising, and applying the valid pins."""
    from repro.cluster.spec import build_plan
    from repro.util.errors import NeptuneError

    n_workers = int(spec.get("workers", 2))
    pin_raw = spec.get("pin") or {}
    valid_pin: Dict[str, int] = {}
    for op, worker in pin_raw.items():
        if op not in graph.operators:
            report.add(
                "NEPG131",
                Severity.ERROR,
                f"pin override names operator {op!r}, which the deployed "
                "graph never declared",
                where="pin",
                hint="fix the name or drop the stale pin entry",
            )
        elif (
            not isinstance(worker, int)
            or isinstance(worker, bool)
            or not 0 <= worker < n_workers
        ):
            report.add(
                "NEPG132",
                Severity.ERROR,
                f"pin for {op!r} targets worker {worker!r} of a "
                f"{n_workers}-worker deployment",
                where="pin",
                hint=f"worker indexes run 0..{n_workers - 1}",
            )
        else:
            valid_pin[op] = worker
    try:
        return build_plan(
            graph,
            n_workers,
            scheme=str(spec.get("scheme", "round-robin")),
            capabilities=spec.get("capabilities"),
            pin=valid_pin,
        )
    except NeptuneError as exc:
        report.add(
            "NEPG130",
            Severity.ERROR,
            f"cannot build the deployment plan: {exc}",
            where="plan",
        )
        return None


def _synthesized_specs(
    spec: Mapping[str, Any],
    descriptor: Dict[str, Any],
    plan: Any,
    report: DiagnosticReport,
) -> Optional[List[Any]]:
    """WorkerSpecs from explicit ``endpoints``/``control_ports``, so the
    port passes can run; None (skipping them) when the spec leaves port
    assignment to the coordinator."""
    endpoints_raw = spec.get("endpoints")
    if endpoints_raw is None:
        return None
    from repro.cluster.spec import WorkerSpec

    try:
        endpoints: Dict[int, Endpoint] = {
            int(w): (str(ep[0]), int(ep[1])) for w, ep in endpoints_raw.items()
        }
    except (TypeError, ValueError, IndexError) as exc:
        report.add(
            "NEPG130",
            Severity.ERROR,
            f"malformed 'endpoints' map: {exc}",
            where="endpoints",
        )
        return None
    control_ports_raw = spec.get("control_ports", [])
    plan_raw = {
        "n_workers": plan.n_workers,
        "assignment": [
            [op, idx, worker]
            for (op, idx), worker in sorted(plan.assignment.items())
        ],
    }
    specs: List[Any] = []
    for w in range(int(plan.n_workers)):
        control = (
            int(control_ports_raw[w]) if w < len(control_ports_raw) else -(w + 1)
        )
        specs.append(
            WorkerSpec(
                worker_id=w,
                descriptor=descriptor,
                plan=plan_raw,
                endpoints=endpoints,
                control_port=control,
            )
        )
    return specs
