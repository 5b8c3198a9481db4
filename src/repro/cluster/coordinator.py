"""Cluster coordinator: plan shards, spawn worker processes, drive them.

The control plane half of the process split: one coordinator object
owns N worker *processes* (``multiprocessing`` spawn context — fresh
interpreters, no forked locks), ships each a :class:`WorkerSpec`,
connects a :class:`~repro.core.control.RemoteWorker` proxy to every
control port, and reuses :class:`~repro.core.control.RemoteDistributedJob`
for the coordinated global drain.  The data plane between shards is
the workers' own :class:`~repro.net.transport.TcpTransport` links —
over loopback TCP, or over Unix-domain sockets when ``fabric="unix"``.

Failure semantics: a worker that dies mid-stream can be respawned with
the *identical* spec (:meth:`ClusterCoordinator.restart_worker`); its
peers' listeners keep their :class:`~repro.net.framing.SequenceTracker`
state, so the restarted shard's replayed frames are suppressed as
duplicates and delivery stays exactly-once (see DESIGN.md §12).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.cluster.ports import reserve_ports
from repro.cluster.spec import WorkerSpec, build_plan, config_to_dict
from repro.cluster.worker import worker_entry
from repro.core.control import ControlError, RemoteDistributedJob, RemoteWorker
from repro.core.distributed import DeploymentPlan
from repro.core.graph import StreamProcessingGraph
from repro.core.job import JobState
from repro.util.errors import NeptuneError


@dataclass
class WorkerHandle:
    """One worker shard: its spec, live process, and control proxy."""

    spec: WorkerSpec
    log_path: Optional[str] = None
    process: Optional[Any] = None
    proxy: Optional[RemoteWorker] = None
    restarts: int = field(default=0)

    @property
    def worker_id(self) -> int:
        return self.spec.worker_id

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ClusterCoordinator:
    """Plan, spawn, and coordinate N worker processes for one graph.

    Parameters
    ----------
    graph:
        The full :class:`StreamProcessingGraph`; every worker receives
        its complete descriptor (wire ids derive from the shared
        topology without coordination) plus the deployment plan naming
        which operator instances it hosts.
    n_workers:
        Shard count (ignored when an explicit ``plan`` is given).
    plan:
        Pre-built :class:`DeploymentPlan`; default is
        :func:`~repro.cluster.spec.build_plan` round-robin.
    fabric:
        ``"tcp"`` (loopback TCP data plane) or ``"unix"`` (Unix-domain
        sockets — same framing/ack/replay protocol, no TCP stack).
        Control ports are always TCP.
    socket_dir:
        Directory for ``fabric="unix"`` socket files (default: a fresh
        temp dir, removed on :meth:`stop`).
    log_dir:
        When set, each worker appends stdout/stderr to
        ``<log_dir>/worker-<id>.log`` instead of inheriting the
        coordinator's streams.
    verify:
        Run the NEPG130–139 deployment-plan verifier before spawning
        (:mod:`repro.analysis.plancheck`); :meth:`launch` raises
        :class:`~repro.util.errors.PlanVerificationError` on any error
        finding, before any process exists.  ``False`` opts out (e.g.
        to deliberately deploy a degraded plan in a chaos test).
    observe:
        When set (even ``{}``), every worker runs its observability
        plane (see :class:`~repro.cluster.spec.WorkerSpec`) and the
        coordinator runs a :class:`~repro.observe.collector.ClusterCollector`
        that polls worker deltas over the control channel and merges
        them into one worker-labeled cluster view.  Keys are the
        WorkerSpec ``observe`` keys plus ``flight_dir`` (where
        per-worker flight-recorder dumps land; default ``log_dir`` or a
        fresh temp dir — dumps are post-mortems, never cleaned up).
    slos:
        Cluster-scope :class:`~repro.observe.health.SLO` list evaluated
        against the merged registry after each poll (implies
        ``observe={}`` if not given).
    collect_interval:
        Background poll period of the cluster collector, seconds.
    policy:
        Enable the elasticity policy engine
        (:class:`~repro.observe.policy.PolicyEngine`): ``True`` for the
        default :class:`~repro.observe.policy.PolicyConfig`, or a
        config instance.  Requires ``slos`` (the engine reacts to their
        breach/recover transitions).  After every collector poll's
        health scan, breaches are diagnosed
        (:func:`~repro.observe.doctor.diagnose`) and the engine's
        actions applied live: retunes/scales through the workers'
        ``reconfigure`` control command, migrations through
        :meth:`migrate_operator`.  Every decision is appended to
        ``policy-actions.log`` (under ``log_dir``, else the flight
        dir) — one canonical JSON line each, byte-identical across
        identical runs.
    """

    def __init__(
        self,
        graph: StreamProcessingGraph,
        n_workers: int = 2,
        plan: Optional[DeploymentPlan] = None,
        fabric: str = "tcp",
        host: str = "127.0.0.1",
        socket_dir: Optional[str] = None,
        log_dir: Optional[str] = None,
        verify: bool = True,
        observe: Optional[Mapping[str, Any]] = None,
        slos: Optional[Sequence[Any]] = None,
        collect_interval: float = 0.25,
        policy: Any = None,
    ) -> None:
        graph.validate()
        # Refuse before creating anything (socket and flight directories).
        if fabric not in ("tcp", "unix"):
            raise NeptuneError(f"unknown fabric {fabric!r} (tcp or unix)")
        if policy and not slos:
            raise NeptuneError("policy requires cluster-scope SLOs (pass slos=[...])")
        descriptor = graph.to_descriptor()
        unnamed = [op["name"] for op in descriptor["operators"] if not op["class"]]
        if unnamed:
            raise NeptuneError(
                f"operators {unnamed} are built by Python callables, not import "
                "paths: a worker process cannot rebuild them (use "
                "descriptor_factory or a JSON descriptor)"
            )
        self._graph = graph
        self.verify = verify
        self.plan = plan if plan is not None else build_plan(graph, n_workers)
        self.n_workers = self.plan.n_workers
        self.fabric = fabric
        self._ctx = multiprocessing.get_context("spawn")
        self._own_socket_dir = fabric == "unix" and socket_dir is None
        self._socket_dir = socket_dir
        if fabric == "unix":
            if self._socket_dir is None:
                self._socket_dir = tempfile.mkdtemp(prefix="neptune-cluster-")
            endpoints = {
                w: (f"unix:{os.path.join(self._socket_dir, f'w{w}.sock')}", 0)
                for w in range(self.n_workers)
            }
            control_ports = reserve_ports(self.n_workers, "127.0.0.1")
        elif host == "127.0.0.1":
            # Data and control share the loopback host: reserve both in
            # ONE batch.  Two sequential reserve_ports calls release the
            # first batch's probe sockets before the second binds, so
            # the kernel may hand a data port back as a control port —
            # a NEPG133 collision that kills a worker at spawn.
            batch = reserve_ports(2 * self.n_workers, host)
            data_ports = batch[: self.n_workers]
            control_ports = batch[self.n_workers :]
            endpoints = {w: (host, data_ports[w]) for w in range(self.n_workers)}
        else:
            data_ports = reserve_ports(self.n_workers, host)
            control_ports = reserve_ports(self.n_workers, "127.0.0.1")
            endpoints = {w: (host, data_ports[w]) for w in range(self.n_workers)}
        self.collector: Optional[Any] = None
        self.flight_dir: Optional[str] = None
        self._obs_cfg: Optional[Dict[str, Any]] = None
        if observe is not None or slos:
            self._obs_cfg = obs_cfg = dict(observe or {})
            obs_cfg.setdefault("sample_every", 1)
            flight_dir = obs_cfg.pop("flight_dir", None) or log_dir
            if flight_dir is None:
                flight_dir = tempfile.mkdtemp(prefix="neptune-flight-")
            self.flight_dir = str(flight_dir)
            from repro.observe.collector import ClusterCollector

            self.collector = ClusterCollector(
                slos=list(slos or ()), interval=collect_interval
            )
        self.policy: Optional[Any] = None
        self.policy_log_path: Optional[str] = None
        self.policy_applied: List[Dict[str, Any]] = []
        self.policy_errors = 0
        if policy:
            from repro.observe.policy import PolicyConfig, PolicyEngine

            config = policy if isinstance(policy, PolicyConfig) else None
            self.policy = PolicyEngine(config)
            policy_dir = log_dir or self.flight_dir
            if policy_dir is None:
                policy_dir = tempfile.mkdtemp(prefix="neptune-policy-")
            self.policy_log_path = os.path.join(policy_dir, "policy-actions.log")
        descriptor["config"] = config_to_dict(graph.config)
        plan_raw = {
            "n_workers": self.plan.n_workers,
            "assignment": [
                [op, idx, worker]
                for (op, idx), worker in sorted(self.plan.assignment.items())
            ],
        }
        self.handles: List[WorkerHandle] = []
        for w in range(self.n_workers):
            spec = WorkerSpec(
                worker_id=w,
                descriptor=descriptor,
                plan=plan_raw,
                endpoints=endpoints,
                control_port=control_ports[w],
                observe=self._observe_block(w, 0),
            )
            log_path = (
                os.path.join(log_dir, f"worker-{w}.log") if log_dir else None
            )
            self.handles.append(WorkerHandle(spec=spec, log_path=log_path))
        self.job: Optional[RemoteDistributedJob] = None

    def _flight_path(self, worker_id: int, incarnation: int) -> str:
        # One file per incarnation: a restarted worker's recorder must
        # not overwrite the black box of the process it replaces.
        assert self.flight_dir is not None
        return os.path.join(
            self.flight_dir, f"flight-w{worker_id}-i{incarnation}.json"
        )

    def _observe_block(
        self, worker_id: int, incarnation: int
    ) -> Optional[Dict[str, Any]]:
        """The WorkerSpec ``observe`` block of one worker incarnation."""
        if self._obs_cfg is None:
            return None
        return {
            **self._obs_cfg,
            "flight_path": self._flight_path(worker_id, incarnation),
        }

    # -- lifecycle -----------------------------------------------------------
    def launch(self, connect_timeout: float = 60.0) -> RemoteDistributedJob:
        """Spawn every worker, connect control proxies, return the job.

        When ``verify`` is on (the default), the NEPG130–139 plan
        verifier runs first and a failing plan raises
        :class:`~repro.util.errors.PlanVerificationError` *before* any
        worker process is spawned — fail-fast, nothing to tear down.
        """
        if self.verify:
            from repro.analysis.plancheck import verify_plan
            from repro.util.errors import PlanVerificationError

            report = verify_plan(
                self._graph, self.plan, specs=[h.spec for h in self.handles]
            )
            if report.errors():
                raise PlanVerificationError(report)
        for handle in self.handles:
            self._spawn(handle)
        for handle in self.handles:
            self._connect(handle, connect_timeout)
        self.job = RemoteDistributedJob([h.proxy for h in self.handles])
        if self.collector is not None:
            for handle in self.handles:
                self._attach_collect(handle)
            # Drain hook: one final synchronous poll after the cluster
            # quiesces but before workers stop, so the merged view holds
            # the run's complete tail (spans, events, final counters).
            self.job.pre_stop_hooks.append(self._final_collect)
            if self.policy is not None and self.policy_log_path is not None:
                # Fresh log per launch: the file holds exactly this
                # run's canonical action lines (the determinism unit).
                with open(self.policy_log_path, "w", encoding="utf-8"):
                    pass
                self.collector.on_scan = self._on_health_scan
            self.collector.start()
        return self.job

    def _attach_collect(self, handle: WorkerHandle) -> None:
        collector = self.collector
        if collector is None:
            return

        def fetch(h: WorkerHandle = handle) -> Optional[Mapping[str, Any]]:
            # Re-read the proxy each call: restart_worker splices in a
            # fresh one and this closure keeps working unchanged.
            proxy = h.proxy
            if proxy is None or not h.alive:
                return None
            return proxy.collect()

        collector.attach(handle.worker_id, fetch)

    def _final_collect(self) -> None:
        if self.collector is not None:
            self.collector.stop()
            self.collector.poll_once()

    def _spawn(self, handle: WorkerHandle) -> None:
        process = self._ctx.Process(
            target=worker_entry,
            args=(handle.spec.to_json(), handle.log_path),
            name=f"neptune-worker-{handle.worker_id}",
        )
        process.start()
        handle.process = process
        handle.proxy = None

    def _connect(self, handle: WorkerHandle, timeout: float) -> None:
        try:
            handle.proxy = RemoteWorker(
                "127.0.0.1", handle.spec.control_port, connect_timeout=timeout
            )
        except ControlError:
            self.terminate()
            raise

    def kill_worker(
        self,
        worker_id: int,
        sig: int = signal.SIGKILL,
        dump: Optional[bool] = None,
    ) -> None:
        """Send ``sig`` to one worker process and reap it (chaos path:
        SIGKILL means no drain, no goodbye — exactly what a crashed
        shard looks like to its peers).

        When the observability plane is on, a flight-recorder dump is
        requested over the control channel first (best-effort — the
        worker's own periodic dump already survives a straight SIGKILL).
        Pass ``dump=False`` for a pure, no-warning kill.
        """
        handle = self.handles[worker_id]
        if handle.process is None:
            raise NeptuneError(f"worker {worker_id} was never spawned")
        if dump is None:
            dump = self.collector is not None
        if dump and handle.proxy is not None and handle.alive:
            try:
                handle.proxy.flight_dump()
            except (ControlError, OSError):
                pass
        if handle.pid is not None and handle.alive:
            os.kill(handle.pid, sig)
        handle.process.join(10.0)

    def restart_worker(
        self,
        worker_id: int,
        connect_timeout: float = 60.0,
        spec: Optional[WorkerSpec] = None,
    ) -> None:
        """Respawn a dead worker (same ports / socket paths) and splice
        the fresh proxy into the job.

        ``spec`` overrides the shard's spec for the new incarnation
        (the migration path ships a re-planned spec); default is the
        identical spec.  Either way the spec's ``incarnation`` is
        bumped to the new restart count so the collector can fence the
        dead incarnation's in-flight telemetry, and its flight recorder
        gets a file of its own: the dead incarnation's last dump is the
        post-mortem of the failure being recovered from.
        """
        handle = self.handles[worker_id]
        if handle.alive:
            raise NeptuneError(f"worker {worker_id} is still running")
        new_incarnation = handle.restarts + 1
        handle.spec = replace(
            spec if spec is not None else handle.spec,
            incarnation=new_incarnation,
            observe=self._observe_block(worker_id, new_incarnation),
        )
        self._spawn(handle)
        handle.restarts += 1
        if self.collector is not None:
            # Fence BEFORE the fresh proxy is spliced in: a delta the
            # dead incarnation built (fetched pre-kill, absorbed after
            # this point) would otherwise land under the new worker
            # label with a high seq and bury the restarted sequence.
            # reset_worker also forgets the old cursor so the fresh
            # process's seq=1 is not dropped as stale (span identity
            # dedup still suppresses re-shipped hops).
            self.collector.reset_worker(worker_id, incarnation=new_incarnation)
        self._connect(handle, connect_timeout)
        if self.job is not None:
            self.job.workers[worker_id] = handle.proxy

    # -- elasticity (policy act path) ----------------------------------------
    def _on_health_scan(self, scan: int, transitions: List[Any]) -> None:
        """Collector hook: one health scan's transitions → policy →
        applied actions.  Runs on the collector poll thread, which also
        runs the delta fetchers — every proxy use here is serialized
        with collection (and RemoteWorker calls are locked anyway)."""
        if self.policy is None or not transitions:
            return
        from repro.observe.doctor import diagnose

        report = diagnose(self.collector.snapshot())
        actions = self.policy.observe(
            scan, transitions, report, self.collector.observer
        )
        for action in actions:
            self._apply_policy_action(action)

    def _apply_policy_action(self, action: Any) -> None:
        """Apply one engine decision to the live cluster.

        Retunes broadcast to every worker (the buffer legs feeding an
        operator live on whichever shards host its upstreams; shards
        owning none apply nothing).  Scales target the attributed
        worker.  Migrations go through :meth:`migrate_operator` with a
        deterministic target (lowest-id other worker).  The action is
        logged whether or not applying succeeds: the log records
        decisions, the ``policy_applied`` journal records outcomes.
        """
        from repro.observe.policy import action_to_changes

        applied: List[Dict[str, Any]] = []
        try:
            if action.kind == "migrate":
                from_worker = int(action.params.get("from_worker", -1))
                targets = [
                    h.worker_id for h in self.handles if h.worker_id != from_worker
                ]
                if not targets:
                    self.policy_errors += 1
                else:
                    applied.append(self.migrate_operator(action.operator, targets[0]))
            else:
                changes = action_to_changes(action)
                handles = self.handles
                if action.kind == "scale" and action.worker is not None:
                    handles = [self.handles[action.worker]]
                for handle in handles:
                    proxy = handle.proxy
                    if proxy is None or not handle.alive:
                        continue
                    try:
                        applied.append(proxy.reconfigure(changes))
                    except (ControlError, OSError):
                        self.policy_errors += 1
        except NeptuneError:
            self.policy_errors += 1
        finally:
            self.policy_applied.append(
                {"action": action.as_dict(), "applied": applied}
            )
            if self.policy_log_path is not None:
                with open(self.policy_log_path, "a", encoding="utf-8") as fh:
                    fh.write(action.as_line() + "\n")

    def policy_status(self) -> Dict[str, Any]:
        """JSON-friendly policy summary (``repro policy status``)."""
        if self.policy is None:
            return {"enabled": False}
        status = dict(self.policy.status())
        status["enabled"] = True
        status["log"] = self.policy_log_path
        status["errors"] = self.policy_errors
        status["applied"] = self.policy_applied
        return status

    def migrate_operator(
        self, operator: str, to_worker: int, connect_timeout: float = 60.0
    ) -> Dict[str, Any]:
        """Move every instance of ``operator`` to ``to_worker`` via
        verified re-plan + kill/restart splicing, preserving
        exactly-once delivery.

        Safety interlocks, in order:

        1. The new plan (current assignment with ``operator`` pinned to
           ``to_worker``) is re-verified by the NEPG130–139 checker —
           including NEPG138 exactly-once coverage — *before* any
           process is touched; a failing plan raises and the cluster is
           untouched.
        2. The restart set is ``to_worker`` plus every worker hosting
           ``operator`` or any operator transitively upstream of it.
           Restarted shards replay deterministically from their
           sources; surviving receivers' link-id-keyed
           :class:`~repro.net.framing.SequenceTracker` state suppresses
           the replayed prefix, so delivery stays exactly-once (the
           same mechanism as :meth:`restart_worker`; DESIGN.md §12).
        3. No worker in the restart set may host a sink: a sink's
           external effects have already escaped, so replaying into a
           *fresh* tracker would emit duplicates.  Such a migration is
           refused.

        Returns a JSON-able report of what moved and what restarted.
        """
        if operator not in self._graph.operators:
            raise NeptuneError(f"unknown operator {operator!r}")
        if not 0 <= to_worker < self.n_workers:
            raise NeptuneError(
                f"target worker {to_worker} out of range 0..{self.n_workers - 1}"
            )
        new_assignment = dict(self.plan.assignment)
        moved_from = sorted(
            {w for (op, _idx), w in new_assignment.items() if op == operator}
        )
        for key in list(new_assignment):
            if key[0] == operator:
                new_assignment[key] = to_worker
        new_plan = DeploymentPlan(self.n_workers, new_assignment)
        # Transitive upstream closure of the migrated operator: those
        # shards must replay from their sources for the migrated
        # instances to regenerate their full input.
        upstream_of: Dict[str, set] = {}
        for link in self._graph.links:
            upstream_of.setdefault(link.to_op, set()).add(link.from_op)
        replay_ops = {operator}
        frontier = [operator]
        while frontier:
            for up in upstream_of.get(frontier.pop(), ()):
                if up not in replay_ops:
                    replay_ops.add(up)
                    frontier.append(up)
        restart = {to_worker}
        for (op, _idx), worker in self.plan.assignment.items():
            if op in replay_ops:
                restart.add(worker)
        sinks = {
            name
            for name in self._graph.operators
            if name not in {link.from_op for link in self._graph.links}
        }
        for (op, _idx), worker in self.plan.assignment.items():
            if op in sinks and worker in restart and op not in replay_ops:
                raise NeptuneError(
                    f"cannot migrate {operator!r}: worker {worker} is in the "
                    f"restart set but hosts sink {op!r} whose effects have "
                    "already escaped (replay into a fresh tracker would "
                    "duplicate them)"
                )
        if sinks & replay_ops:
            raise NeptuneError(
                f"cannot migrate {operator!r}: the replay closure contains "
                f"sink(s) {sorted(sinks & replay_ops)!r} — sink effects are "
                "external and cannot be replayed exactly-once"
            )
        plan_raw = {
            "n_workers": new_plan.n_workers,
            "assignment": [
                [op, idx, worker]
                for (op, idx), worker in sorted(new_plan.assignment.items())
            ],
        }
        new_specs = [replace(h.spec, plan=plan_raw) for h in self.handles]
        from repro.analysis.plancheck import verify_plan
        from repro.util.errors import PlanVerificationError

        report = verify_plan(self._graph, new_plan, specs=new_specs)
        if report.errors():
            raise PlanVerificationError(report)
        # Commit: every future (re)spawn — including unrelated crash
        # restarts — uses the converged plan.
        self.plan = new_plan
        for handle, spec in zip(self.handles, new_specs):
            handle.spec = spec
        ordered = sorted(restart)
        # Kill the whole restart set first so no mixed-plan window
        # exists in which an old-plan sender routes to a new-plan host.
        for worker_id in ordered:
            if self.handles[worker_id].alive:
                self.kill_worker(worker_id)
        for worker_id in ordered:
            self.restart_worker(worker_id, connect_timeout=connect_timeout)
        return {
            "kind": "migrate",
            "operator": operator,
            "from": moved_from,
            "to": to_worker,
            "restarted": ordered,
        }

    def await_completion(self, timeout: float = 60.0) -> bool:
        """Wait for the sources to finish, then the coordinated global
        drain.  False on timeout: the cluster is still running and can
        be awaited again; only a job that ended has its workers reaped."""
        if self.job is None:
            raise NeptuneError("cluster not launched")
        try:
            return self.job.await_completion(timeout=timeout)
        except (ControlError, OSError):
            return False  # a worker vanished mid-wait: not quiesced
        finally:
            if self.job.state is not JobState.RUNNING:
                self._join_all()

    def stop(self, timeout: float = 60.0) -> bool:
        """Force-drain, stop every worker, reap processes, clean up."""
        quiesced = True
        if self.job is not None:
            try:
                quiesced = self.job.stop(timeout=timeout)
            except (ControlError, OSError):
                quiesced = False
        self.terminate()
        return quiesced

    def terminate(self) -> None:
        """Hard teardown: no drain, just reap. Idempotent — the
        guaranteed-cleanup path for tests and error exits.  Flight
        dumps are left on disk: they are the post-mortem."""
        if self.collector is not None:
            self.collector.stop()
        for handle in self.handles:
            proxy, handle.proxy = handle.proxy, None
            if proxy is not None:
                try:
                    proxy.close()
                except OSError:
                    pass
        for handle in self.handles:
            process = handle.process
            if process is None:
                continue
            if process.is_alive():
                process.terminate()
                process.join(5.0)
            if process.is_alive():
                process.kill()
                process.join(5.0)
        self._cleanup_fabric()

    def _join_all(self) -> None:
        if self.collector is not None:
            self.collector.stop()
        for handle in self.handles:
            if handle.process is not None:
                handle.process.join(10.0)
        self._cleanup_fabric()

    def _cleanup_fabric(self) -> None:
        if self.fabric != "unix" or self._socket_dir is None:
            return
        for w in range(self.n_workers):
            try:
                os.unlink(os.path.join(self._socket_dir, f"w{w}.sock"))
            except OSError:
                pass
        if self._own_socket_dir:
            try:
                os.rmdir(self._socket_dir)
            except OSError:
                pass

    # -- observation ---------------------------------------------------------
    def metrics(self) -> Dict[str, Dict[str, float]]:
        """Aggregated per-operator counters across all live shards."""
        if self.job is None:
            raise NeptuneError("cluster not launched")
        return self.job.metrics()

    def flight_paths(self) -> List[str]:
        """The flight dumps on disk right now: one per worker
        incarnation that got to write one."""
        if self._obs_cfg is None:
            return []
        paths = [
            self._flight_path(handle.worker_id, incarnation)
            for handle in self.handles
            for incarnation in range(handle.restarts + 1)
        ]
        return [path for path in paths if os.path.exists(path)]

    def status(self) -> List[Dict[str, Any]]:
        """Per-worker liveness/progress snapshot (the CLI's view)."""
        ages: Dict[int, Optional[float]] = (
            self.collector.ages() if self.collector is not None else {}
        )
        out: List[Dict[str, Any]] = []
        for handle in self.handles:
            entry: Dict[str, Any] = {
                "worker_id": handle.worker_id,
                "pid": handle.pid,
                "alive": handle.alive,
                "restarts": handle.restarts,
                "control_port": handle.spec.control_port,
                "endpoint": list(handle.spec.endpoints[handle.worker_id]),
            }
            if self.collector is not None:
                entry["last_collect_age"] = ages.get(handle.worker_id)
            if handle.proxy is not None and handle.alive:
                try:
                    entry["quiet"] = handle.proxy.is_quiet()
                    entry["failures"] = handle.proxy.failures
                except (ControlError, OSError):
                    entry["quiet"] = None
            out.append(entry)
        return out

    # -- state file (CLI attach) ---------------------------------------------
    def state(self) -> Dict[str, Any]:
        """JSON-able handle for out-of-process ``status``/``stop``."""
        return {
            "fabric": self.fabric,
            "observe": self.collector is not None,
            "flight_dir": self.flight_dir,
            "policy": {
                "enabled": self.policy is not None,
                "log": self.policy_log_path,
            },
            "workers": [
                {
                    "worker_id": h.worker_id,
                    "pid": h.pid,
                    "control_host": "127.0.0.1",
                    "control_port": h.spec.control_port,
                    "endpoint": list(h.spec.endpoints[h.worker_id]),
                    "log": h.log_path,
                    "flight_path": (h.spec.observe or {}).get("flight_path"),
                }
                for h in self.handles
            ],
        }

    def write_state(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.state(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def attach_proxies(
    state: Mapping[str, Any], connect_timeout: float = 5.0
) -> List[RemoteWorker]:
    """Connect control proxies to a running cluster from its state file.

    Raises :class:`~repro.core.control.ControlError` if any worker's
    control port is unreachable (cluster gone or still starting).
    """
    workers: Sequence[Mapping[str, Any]] = state.get("workers", [])
    if not workers:
        raise NeptuneError("cluster state lists no workers")
    return [
        RemoteWorker(
            str(w.get("control_host", "127.0.0.1")),
            int(w["control_port"]),
            connect_timeout=connect_timeout,
        )
        for w in workers
    ]
