"""Command-line interface.

::

    python -m repro.cli validate graph.json
    python -m repro.cli analyze [--graph DESC.json ...] [--cluster SPEC.json ...]
                                [--lint PATH ...] [--witness W.json ...]
    python -m repro.cli run graph.json [--duration 10] [--workers N]
    python -m repro.cli trace [--example quickstart | DESC.json] [--sample-every N] [--workers N]
    python -m repro.cli metrics [--example quickstart | DESC.json] [--format prometheus|json] [--workers N]
    python -m repro.cli doctor [--example quickstart | DESC.json] [--json] [--workers N] [--from-dump ENVELOPE.json|DIR]
    python -m repro.cli profile [--example quickstart | DESC.json] [--hz HZ] [--workers N] [--from-dump ENVELOPE.json|DIR]
    python -m repro.cli top [DESC.json] [--workers N] [--frames N] [--state STATE.json]
    python -m repro.cli experiment fig2|table1|gc|fig4|fig5|fig6|fig7|fig9|fig10|headline
    python -m repro.cli chaos [--mode wire|pipeline] [--seed N] [...]
    python -m repro.cli cluster launch DESC.json [--workers N] [--fabric tcp|unix] [--policy]
    python -m repro.cli cluster status --state STATE.json
    python -m repro.cli cluster stop --state STATE.json
    python -m repro.cli policy status|log --state STATE.json
    python -m repro.cli info

Every command that runs a graph deploys it one way: ``--workers 1``
(the default) is this process's runtime, ``--workers N`` is N worker
*processes* — one Granules resource each, framed TCP between them, the
paper's deployment — which needs a JSON descriptor (a worker process
rebuilds its operators from import paths, not from an example's Python
callables), and ``trace``/``metrics``/``doctor``/``profile`` then
operate on the merged worker-labeled cluster view.  ``run`` deploys a
descriptor and prints per-operator metrics; ``cluster launch`` is
``run`` across worker processes with the cluster's own knobs (fabric,
logs, ``--policy`` for the elasticity engine — SLO breach → diagnose →
live retune/scale/migrate, its canonical action log read back by
``policy status``/``policy log`` — and a ``--state`` file through which
``cluster status``/``cluster stop`` attach); ``analyze`` runs the
static analyzers — the stream-graph verifier over descriptors, the
deployment-plan verifier over cluster specs, the AST concurrency lint
over runtime source, and sanitizer-witness cross-validation against
the lint's static lock-order edges — and exits non-zero on findings
(the CI gate); ``experiment`` regenerates one of the paper's
tables/figures on the simulator; ``chaos`` runs a seeded
fault-injection scenario against the TCP recovery protocol and exits 0
iff delivery stayed exactly-once; ``trace`` prints the per-stage
latency breakdown of causally traced packets; ``metrics`` exports the
unified telemetry registry (Prometheus text exposition or a JSON
snapshot); ``top`` renders a live cluster view — per-worker throughput,
per-stage p99, open gates, SLO state — from the cluster collector
(self-launched workers, or a running cluster via ``--state``);
``doctor``/``profile --from-dump`` read a telemetry envelope or a
directory of them — what ``--dump``/``--snap`` wrote, or the workers'
flight recorders — through the merge a running cluster's collector
does, so a SIGKILLed cluster is diagnosed from its black boxes exactly
as a live one is.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _load_graph(path: str):
    from repro.core import StreamProcessingGraph

    with open(path, "r", encoding="utf-8") as fh:
        graph = StreamProcessingGraph.from_descriptor(json.load(fh))
    graph.validate()
    return graph


def cmd_validate(args: argparse.Namespace) -> int:
    """`validate` subcommand: check a descriptor file."""
    graph = _load_graph(args.descriptor)
    print(f"graph {graph.name!r}: OK")
    print(f"  operators: {len(graph.operators)} "
          f"({graph.total_instances()} instances)")
    print(f"  links:     {len(graph.links)}")
    print(f"  stages:    {graph.stages()}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """`analyze` subcommand: graph verifier / plan verifier / lint.

    Exit code 0 iff no report reaches the ``--fail-on`` severity
    (default: error; warnings still print, and so does each link's
    chain verdict, NEPG140 at info severity).  ``--cluster SPEC.json``
    runs the NEPG130–139 deployment-plan verifier (the same pass
    ``ClusterCoordinator.launch`` gates on); ``--witness W.json``
    cross-validates a sanitizer witness file against the static
    NEPL203 lock-order edges of the ``--lint`` paths.
    """
    from repro.analysis import (
        Severity,
        lint_paths,
        verify_cluster_file,
        verify_descriptor_file,
    )
    from repro.analysis.graphcheck import chain_verdicts

    if not args.graph and not args.lint and not args.cluster:
        raise SystemExit(
            "repro.cli analyze: error: nothing to do (give --graph "
            "DESC.json, --cluster SPEC.json, and/or --lint PATH)"
        )
    if args.witness and not args.lint:
        raise SystemExit(
            "repro.cli analyze: error: --witness needs --lint PATH "
            "(the source whose static lock-order edges to cross-validate)"
        )
    fail_on = Severity.WARNING if args.fail_on == "warning" else Severity.ERROR
    reports = [verify_descriptor_file(path) for path in args.graph]
    reports += [verify_cluster_file(path) for path in args.cluster]
    for report in reports:
        chain_verdicts(report)
    if args.lint:
        reports.append(lint_paths(args.lint))
    if args.witness:
        from repro.analysis.lint import collect_models
        from repro.analysis.lintrules import static_order_edges
        from repro.analysis.sanitizer import Witness, witness_report

        edges = static_order_edges(collect_models(args.lint))
        for path in args.witness:
            try:
                witness = Witness.load(path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                from repro.analysis import DiagnosticReport

                bad = DiagnosticReport(subject=path)
                bad.add(
                    "NEPL200",
                    Severity.ERROR,
                    f"cannot load witness file: {exc}",
                    where=path,
                )
                reports.append(bad)
                continue
            reports.append(witness_report(witness, edges, subject=path))
    if args.json:
        print(json.dumps([json.loads(r.to_json()) for r in reports], indent=2))
    else:
        for report in reports:
            print(report.render())
    return max((r.exit_code(fail_on) for r in reports), default=0)


class _Deployment:
    """``graph`` deployed the way ``--workers`` says, observed the way
    the command asks: the one launch-and-observe helper.

    ``--workers 1`` is a ``NeptuneRuntime`` in this process; ``N > 1``
    is N worker processes under a ``ClusterCoordinator`` (``cluster``
    keywords go to it).  One surface over either: ``job``, ``wait``,
    ``failures`` and - given ``observe`` (a ``WorkerSpec`` observe
    block) or ``slos`` - ``observer`` (the job's own, or the cluster
    collector's merged one), ``health`` and ``snapshot()``.
    """

    def __init__(self, graph, args, observe=None, slos=None, scan_interval=0.25, **cluster):
        self.coordinator = self.observer = self.health = self._runtime = None
        self._drain_timeout = args.drain_timeout
        if args.workers > 1:
            from repro.cluster import ClusterCoordinator

            self.coordinator = ClusterCoordinator(
                graph,
                n_workers=args.workers,
                observe=observe,
                slos=slos,
                collect_interval=max(0.1, scan_interval),
                **cluster,
            )
            self.job = self.coordinator.launch(
                connect_timeout=getattr(args, "connect_timeout", 60.0)
            )
            self.failures = self.job.failures
            collector = self.coordinator.collector
            if collector is not None:
                self.observer, self.health = collector.observer, collector.health
            if observe and observe.get("profile"):
                self.job.pre_stop_hooks.append(self._grab_profiles)
            return
        from repro.core import NeptuneRuntime

        if observe is not None or slos:
            from repro.observe import RuntimeObserver

            observe = observe or {}
            self.observer = RuntimeObserver(sample_every=observe.get("sample_every", 0))
            if observe.get("profile"):
                from repro.observe.profiler import SamplingProfiler

                self.observer.profiler = SamplingProfiler(hz=observe["profile"]["hz"])
                self.observer.profiler.start()
        self._runtime = NeptuneRuntime(observer=self.observer)
        self.job = job = self._runtime.submit(graph)
        self.failures = lambda: job.failures
        if slos:
            from repro.observe import bridge
            from repro.observe.health import AdaptiveSampler, HealthEngine, graph_regions

            self.health = HealthEngine(
                self.observer,
                slos,
                scrape=lambda: bridge.scrape_job(self.observer.registry, job),
                sampler=AdaptiveSampler(self.observer.tracer),
                regions=graph_regions(graph),
                interval=scan_interval,
            )
            self.health.start()

    def _grab_profiles(self) -> None:  # pre-stop: the workers still answer
        # Series and profile only: the polls already brought the rest.
        for handle in self.coordinator.handles:
            if handle.proxy is not None:
                self.coordinator.collector.absorb(handle.proxy.snapshot(0, 0))

    def wait(self, duration: float = 0.0) -> bool:
        """Stop after ``duration`` seconds, or (0) wait for the sources
        to finish; True iff the job drained within ``--drain-timeout``.
        Then the observability plane, if any, takes its final reading."""
        target = self.coordinator or self.job
        if duration > 0:
            time.sleep(duration)
            ok = target.stop(timeout=self._drain_timeout)
        else:
            ok = target.await_completion(timeout=self._drain_timeout)
        _print_hook_errors(getattr(self.job, "hook_errors", ()))  # pre-stop hooks
        if self.observer is not None:
            from repro.observe import bridge

            if self.observer.profiler is not None:
                self.observer.profiler.stop()
            if self._runtime is not None:
                if self.health is not None:
                    self.health.stop()
                bridge.scrape_job(self.observer.registry, self.job)
            # else: the collector's last poll ran as a pre-stop hook.
            if self.health is not None:
                self.health.scan_once()  # the verdict over the drained job
            bridge.scrape_observer(self.observer)
        return ok

    def snapshot(self) -> dict:
        """What was observed, as one telemetry envelope (across worker
        processes: the collector's merge of theirs)."""
        if self.coordinator is not None:
            return self.coordinator.collector.snapshot()
        from repro.observe import export

        return export.snapshot(self.observer)

    def __enter__(self) -> "_Deployment":
        return self

    def __exit__(self, *exc) -> None:
        if self._runtime is not None:
            self._runtime.shutdown()
        else:
            self.coordinator.terminate()


def cmd_run(args: argparse.Namespace) -> int:
    """`run` and `cluster launch`: deploy a descriptor, print metrics.

    ``cluster launch`` is ``run`` across worker processes with the
    cluster's own knobs; its ``--state`` writes a JSON handle that
    ``cluster status`` / ``cluster stop`` (from another terminal) use
    to attach to the live workers.
    """
    from repro.core.control import ControlError

    graph = _load_graph(args.descriptor)
    slos = None
    if args.policy:
        from repro.observe.health import default_slos

        slos = default_slos(
            sorted(graph.operators), latency_budget=args.slo_latency, e2e_budget=None
        )
    with _Deployment(
        graph,
        args,
        slos=slos,
        fabric=args.fabric,
        log_dir=args.log_dir,
        policy=args.policy,
    ) as dep:
        coordinator = dep.coordinator
        if coordinator is not None:
            if args.state:
                coordinator.write_state(args.state)
                print(f"wrote cluster state to {args.state}")
            for entry in coordinator.status():
                host, port = entry["endpoint"]
                print(
                    f"worker {entry['worker_id']} pid={entry['pid']} "
                    f"data={host}:{port} control=127.0.0.1:{entry['control_port']}"
                )
        ok = dep.wait(args.duration)
        try:
            failures = dep.failures()
            metrics = dep.job.metrics()
        except ControlError:
            # The workers are gone and no final snapshot exists - e.g.
            # an external `cluster stop` already drained and stopped
            # them (that terminal printed the final metrics).
            print(f"job {graph.name!r}: workers already stopped")
            return 0 if ok else 1
        _print_metrics(graph.name, ok, metrics, failures)
        if args.policy:
            status = coordinator.policy_status()
            print(
                f"policy: {status['actions']} action(s), "
                f"{status['no_cause']} unattributed breach(es), "
                f"log={status['log']}"
            )
        return 0 if ok and not failures else 1


def _print_metrics(
    name: str, ok: bool, metrics: dict, failures: dict, hook_errors=()
) -> None:
    print(f"job {name!r} {'drained' if ok else 'DID NOT QUIESCE'}")
    for op, m in sorted(metrics.items()):
        print(
            f"  {op:20s} in={m['packets_in']:>10} out={m['packets_out']:>10} "
            f"bytes_in={m['bytes_in']:>12} batches={m['batches_in']:>7}"
        )
    for key, exc in failures.items():
        print(f"  FAILED {key}: {exc!r}", file=sys.stderr)
    _print_hook_errors(hook_errors)


def _print_hook_errors(hook_errors) -> None:
    for hook, exc in hook_errors:
        print(f"  HOOK {hook} raised {exc!r}", file=sys.stderr)


def _default_slos(graph, args: argparse.Namespace) -> list:
    """The SLOs ``--latency-budget`` / ``--e2e-budget`` describe."""
    from repro.observe.health import default_slos

    return default_slos(
        graph.operators,
        latency_budget=args.latency_budget,
        e2e_budget=args.e2e_budget,
    )


def _write_json(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, default=str, sort_keys=True)
    print(f"wrote {path}", file=sys.stderr)


def _observed_graph(args: argparse.Namespace):
    """Resolve ``--example NAME`` / positional descriptor to a graph."""
    if args.descriptor:
        return _load_graph(args.descriptor)
    import importlib.util
    from pathlib import Path

    name = args.example
    path = Path(__file__).resolve().parents[2] / "examples" / f"{name}.py"
    if not path.exists():
        raise SystemExit(f"repro.cli: error: no example {name!r} at {path}")
    spec = importlib.util.spec_from_file_location(f"repro_example_{name}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    build = getattr(module, "build_graph", None)
    if build is None:
        raise SystemExit(
            f"repro.cli: error: example {name!r} exposes no build_graph()"
        )
    return build()


def cmd_trace(args: argparse.Namespace) -> int:
    """`trace` subcommand: run a graph with tracing, print the breakdown.

    Every ``--sample-every``-th source packet is traced end to end; the
    report shows per-stage latency (serialize / enqueue / flush / wire /
    deserialize / execute) and how much of each trace's end-to-end time
    the stages account for (coverage).
    """
    from repro.observe.report import format_breakdown, format_timeline

    graph = _observed_graph(args)
    with _Deployment(graph, args, {"sample_every": args.sample_every}) as dep:
        ok = dep.wait()
    obs = dep.observer
    print(
        f"job {graph.name!r} {'drained' if ok else 'DID NOT QUIESCE'} "
        f"(tracing 1/{args.sample_every} packets)"
    )
    print(format_breakdown(obs.collector))
    if args.timeline:
        print()
        print(format_timeline(obs.timeline, limit=args.timeline))
    return 0 if ok else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    """`metrics` subcommand: run a graph, export the telemetry registry
    (with ``--workers N`` the merged worker-labeled one, transport and
    listener instruments alongside operator / flow-control / buffer /
    compression ones) or, as JSON, the whole telemetry envelope."""
    from repro.observe import export

    graph = _observed_graph(args)
    with _Deployment(graph, args, {"sample_every": args.sample_every}) as dep:
        ok = dep.wait()
    if args.format == "prometheus":
        sys.stdout.write(export.to_prometheus(dep.observer.registry))
    else:
        print(json.dumps(dep.snapshot(), indent=2, default=str, sort_keys=True))
    return 0 if ok else 1


def _hist_quantile(hists, q: float):
    """Quantile upper bound across merged cumulative histograms."""
    merged: dict = {}
    for hist in hists:
        for bound, cum in hist.cumulative_buckets():
            merged[bound] = merged.get(bound, 0) + cum
    total = merged.get(float("inf"), 0)
    if total <= 0:
        return None
    target = q * total
    for bound in sorted(merged):
        if merged[bound] >= target:
            return bound
    return float("inf")


def _render_top(collector, entries, title: str, frame: int) -> str:
    """One ``repro top`` frame over the merged cluster registry."""
    samples = collector.observer.registry.collect()
    per_in: dict = {}
    per_out: dict = {}
    gates = set()
    stage_hists: dict = {}
    prof_cpu: dict = {}
    prof_off: dict = {}
    chains: dict = {}  # leg -> [handoffs, packets]
    for s in samples:
        labels = dict(s.labels)
        worker = labels.get("worker")
        if s.name == "neptune_chain_handoffs_total":
            chains.setdefault(labels.get("leg", "?"), [0, 0])[0] = s.value
        elif s.name == "neptune_chain_packets_total":
            chains.setdefault(labels.get("leg", "?"), [0, 0])[1] = s.value
        elif s.name == "neptune_operator_packets_in_total" and worker is not None:
            per_in[worker] = per_in.get(worker, 0.0) + s.value
        elif s.name == "neptune_operator_packets_out_total" and worker is not None:
            per_out[worker] = per_out.get(worker, 0.0) + s.value
        elif s.name == "neptune_flowcontrol_gated" and s.value > 0:
            gates.add(labels.get("operator", "?"))
        elif s.name == "neptune_trace_stage_seconds" and s.histogram is not None:
            stage_hists.setdefault(labels.get("stage", "?"), []).append(s.histogram)
        elif (
            s.name == "neptune_profile_cpu_seconds_total"
            and labels.get("kind") == "operator"
        ):
            op = labels.get("operator", "?")
            prof_cpu[op] = prof_cpu.get(op, 0.0) + s.value
        elif (
            s.name == "neptune_profile_off_cpu_seconds_total"
            and labels.get("kind") == "operator"
        ):
            op = labels.get("operator", "?")
            prof_off[op] = prof_off.get(op, 0.0) + s.value
    stats = collector.status()
    lines = [
        f"=== repro top — {title} frame {frame} "
        f"(polls={stats['polls']} absorbed={stats['absorbed']} "
        f"stale={stats['stale']} fetch_errors={stats['fetch_errors']}) ==="
    ]
    for entry in entries:
        wid = str(entry["worker_id"])
        age = entry.get("last_collect_age")
        age_s = f"{age:.2f}s" if isinstance(age, float) else "never"
        bits = [
            f"w{wid}",
            "up" if entry.get("alive", True) else "DOWN",
            f"restarts={entry.get('restarts', 0)}",
            f"collect_age={age_s}",
            f"in={per_in.get(wid, 0):.0f}",
            f"out={per_out.get(wid, 0):.0f}",
        ]
        lines.append("  " + " ".join(bits))
    for stage in sorted(stage_hists):
        hists = stage_hists[stage]
        p99 = _hist_quantile(hists, 0.99)
        count = sum(h.count for h in hists)
        p99_s = f"<= {p99 * 1e3:.3g}ms" if p99 is not None else "n/a"
        lines.append(f"  stage {stage:12s} p99 {p99_s:>14s}  n={count}")
    total_cpu = sum(prof_cpu.values())
    for op in sorted(prof_cpu, key=lambda o: -prof_cpu[o]):
        share = 100.0 * prof_cpu[op] / total_cpu if total_cpu > 0 else 0.0
        lines.append(
            f"  cpu {op:14s} {share:5.1f}%  on={prof_cpu[op]:.2f}s "
            f"off={prof_off.get(op, 0.0):.2f}s"
        )
    for leg in sorted(chains):
        lines.append(
            f"  chained {leg}: handoffs={chains[leg][0]:.0f} "
            f"packets={chains[leg][1]:.0f} (no buffer)"
        )
    lines.append(
        "  gates open: " + (", ".join(sorted(gates)) if gates else "none")
    )
    monitors = []
    if collector.health is not None:
        monitors = collector.health.status().get("monitors", [])
    for mon in monitors:
        value = mon.get("value")
        value_s = f"{value:.4g}" if isinstance(value, (int, float)) else "n/a"
        lines.append(
            f"  slo {mon.get('slo', '?'):28s} {mon.get('status', '?'):7s} "
            f"value={value_s} threshold={mon.get('threshold')}"
        )
    stitched = collector.stitched()
    complete = sum(1 for t in stitched if t.complete)
    cross = sum(1 for t in stitched if len(t.workers) > 1)
    lines.append(
        f"  traces: {len(stitched)} stitched, {complete} complete, "
        f"{cross} cross-worker"
    )
    return "\n".join(lines)


def _top_attached(args: argparse.Namespace) -> int:
    """``top --state``: attach to a running cluster, poll it ourselves."""
    from repro.cluster import attach_proxies
    from repro.core.control import ControlError
    from repro.observe.collector import ClusterCollector

    state = _load_cluster_state(args.state)
    try:
        proxies = attach_proxies(state, connect_timeout=args.connect_timeout)
    except (ControlError, OSError) as exc:
        raise SystemExit(f"repro.cli top: error: cannot attach: {exc}")
    collector = ClusterCollector(interval=max(0.05, min(args.refresh, 0.25)))
    for wid, proxy in enumerate(proxies):
        collector.attach(wid, lambda p=proxy: p.collect())
    frame = 0
    try:
        while args.frames <= 0 or frame < args.frames:
            collector.poll_once()
            frame += 1
            ages = collector.ages()
            entries = [
                {"worker_id": wid, "last_collect_age": ages.get(wid)}
                for wid in sorted(ages)
            ]
            print(_render_top(collector, entries, "attached", frame))
            if args.frames <= 0 or frame < args.frames:
                time.sleep(args.refresh)
    except KeyboardInterrupt:
        pass
    finally:
        for proxy in proxies:
            proxy.close()
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """`top` subcommand: live cluster status from the collector plane.

    Default mode launches the graph across ``--workers`` real worker
    processes with observability on and renders one frame per
    ``--refresh`` seconds: per-worker throughput and collection age,
    cluster-wide p99 per trace stage, open backpressure gates, SLO
    monitor state, and stitched-trace counts.  ``--frames N`` bounds
    the run (CI smoke); ``--state`` attaches to an already-running
    cluster instead of launching one.
    """
    if args.state:
        return _top_attached(args)
    graph = _observed_graph(args)
    frame = 0
    quiet_frames = 0
    with _Deployment(
        graph,
        args,
        {"sample_every": max(1, args.sample_every)},
        _default_slos(graph, args),
        scan_interval=min(args.refresh, 0.25),
    ) as dep:
        coordinator = dep.coordinator
        try:
            while args.frames <= 0 or frame < args.frames:
                time.sleep(args.refresh)
                frame += 1
                entries = coordinator.status()
                print(_render_top(coordinator.collector, entries, graph.name, frame))
                if not any(e.get("alive") for e in entries):
                    break
                # Two consecutive all-quiet frames = the job is done;
                # stop rendering and drain instead of spinning forever.
                if all(e.get("quiet") for e in entries):
                    quiet_frames += 1
                    if quiet_frames >= 2:
                        break
                else:
                    quiet_frames = 0
        except KeyboardInterrupt:
            print("interrupted — draining", file=sys.stderr)
        ok = dep.wait()
    return 0 if ok else 1


def _from_dump(path: str, command: str) -> dict:
    """``--from-dump``: the telemetry envelope(s) at ``path`` replayed
    through a fresh collector — post-mortem is the live merge — and
    read back as the one merged envelope a running cluster gives."""
    from repro.observe.collector import ClusterCollector
    from repro.observe.export import load_snapshots

    try:
        return ClusterCollector.replay(load_snapshots(path)).snapshot()
    except ValueError as exc:  # nothing there is an envelope: says what is
        raise SystemExit(f"repro.cli {command}: error: {exc}")


def cmd_doctor(args: argparse.Namespace) -> int:
    """`doctor` subcommand: correlate signals into a root-cause report.

    Live mode runs a graph with the health engine attached (online SLO
    monitors + adaptive trace sampling) and diagnoses what it observed;
    ``--from-dump`` diagnoses what ``--dump`` (or a cluster's flight
    recorders) wrote earlier, so a production incident can be analyzed
    post-hoc.
    """
    from repro.observe import doctor as doctor_mod

    ok = True
    if args.from_dump:
        snap = _from_dump(args.from_dump, "doctor")
    else:
        graph = _observed_graph(args)
        observe = {"sample_every": max(1, args.sample_every)}
        slos = _default_slos(graph, args)
        with _Deployment(graph, args, observe, slos, args.scan_interval) as dep:
            ok = dep.wait()
        snap = dep.snapshot()
        if args.dump:
            _write_json(snap, args.dump)
    report = doctor_mod.diagnose(snap, max_causes=args.max_causes)
    _print_doctor(report, args.json)
    return 0 if ok else 1


def _print_doctor(report: dict, as_json: bool) -> None:
    from repro.observe.doctor import render_report

    if as_json:
        print(json.dumps(report, indent=2, default=str, sort_keys=True))
    else:
        print(render_report(report))


def _print_profile_summary(snap: dict, top: int) -> None:
    operators = snap.get("operators") or {}
    op_total = sum(
        float(i.get("cpu_seconds", 0.0))
        for i in operators.values()
        if i.get("kind") == "operator"
    )
    print(
        f"profile: state={snap.get('state')} cpu_mode={snap.get('cpu_mode')} "
        f"sweeps={snap.get('samples')} operators={len(operators)}"
    )
    ranked = sorted(
        operators.items(),
        key=lambda kv: (-float(kv[1].get("cpu_seconds", 0.0)), kv[0]),
    )
    for label, info in ranked[: max(1, top)]:
        cpu = float(info.get("cpu_seconds", 0.0))
        off = float(info.get("off_cpu_seconds", 0.0))
        kind = str(info.get("kind", "?"))
        share = (
            f"{100.0 * cpu / op_total:5.1f}%"
            if kind == "operator" and op_total > 0
            else "     -"
        )
        frames = info.get("top_frames") or {}
        hottest = max(frames.items(), key=lambda kv: kv[1])[0] if frames else "-"
        print(
            f"  {label:22s} {kind:8s} cpu={share} on={cpu:8.2f}s "
            f"off={off:8.2f}s top={hottest}"
        )


def _write_profile_dump(snap: dict, path: str, fmt: str, name: str) -> None:
    from repro.observe.profiler import collapsed, speedscope

    operators = snap.get("operators") or {}
    if fmt == "collapsed":
        text = collapsed(operators)
    else:
        text = json.dumps(speedscope(operators, name=name), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}", file=sys.stderr)


def cmd_profile(args: argparse.Namespace) -> int:
    """`profile` subcommand: run a graph under the sampling profiler.

    Prints the per-operator CPU attribution (on/off-CPU split where
    ``/proc`` allows) and optionally writes collapsed-stack or
    speedscope-JSON dumps for flamegraph tooling.  ``--workers N``
    profiles every worker process and merges their profile sections;
    ``--from-dump`` renders the profile of envelopes written earlier
    (``--snap``, ``doctor --dump``, flight recorders) post-mortem.
    """
    ok, name = True, "from-dump"
    if args.from_dump:
        envelope = _from_dump(args.from_dump, "profile")
    else:
        graph = _observed_graph(args)
        name = graph.name
        observe = {"sample_every": args.sample_every, "profile": {"hz": args.hz}}
        with _Deployment(graph, args, observe) as dep:
            ok = dep.wait()
        envelope = dep.snapshot()
        if args.snap:
            _write_json(envelope, args.snap)
    snap = envelope["profile"]
    if snap is None:
        print("repro.cli profile: nothing was profiled there", file=sys.stderr)
        return 0 if args.from_dump else 1
    if args.dump:
        _write_profile_dump(snap, args.dump, args.format, name)
    _print_profile_summary(snap, args.top)
    return 0 if ok else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    """`experiment` subcommand: regenerate a paper artefact."""
    from repro.sim import experiments as exp

    name = args.name
    quick = not args.full
    duration = 1.0 if quick else 2.0
    max_events = 60_000 if quick else 150_000
    if name == "fig2":
        rows = exp.fig2_buffer_sweep(
            message_sizes=(50, 1024, 10240) if quick else exp.FIG2_MESSAGE_SIZES,
            duration=duration,
            max_events=max_events,
        )
        print(exp.format_rows(rows, "FIG2: relay sweep"))
    elif name == "table1":
        print(exp.format_rows(
            exp.table1_context_switches(repeats=3, duration=duration),
            "TABLE I: context switches per 5s",
        ))
    elif name == "gc":
        print(exp.format_rows(exp.gc_object_reuse(duration=duration), "GC study"))
    elif name == "fig4":
        print(exp.format_rows(exp.fig4_backpressure(), "FIG4: backpressure"))
    elif name == "fig5":
        print(exp.format_rows(exp.fig5_concurrent_jobs(), "FIG5: concurrent jobs"))
    elif name == "fig6":
        print(exp.format_rows(exp.fig6_cluster_size(), "FIG6: cluster size"))
    elif name == "fig7":
        rows = exp.fig7_neptune_vs_storm(
            message_sizes=(50, 1024, 10240) if quick else exp.FIG7_MESSAGE_SIZES,
            duration=duration,
            max_events=max_events,
        )
        print(exp.format_rows(rows, "FIG7: NEPTUNE vs Storm"))
    elif name == "fig9":
        print(exp.format_rows(exp.fig9_manufacturing(), "FIG9: manufacturing"))
    elif name == "fig10":
        print(exp.format_fig10(exp.fig10_resource_usage()))
    elif name == "headline":
        head = exp.headline_numbers()
        for key, value in head.items():
            print(f"  {key}: {value:,.3f}")
    else:  # pragma: no cover — argparse choices guard this
        raise SystemExit(f"unknown experiment {name!r}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """`chaos` subcommand: seeded fault-injection scenario.

    Exit code 0 iff every packet was delivered exactly once (content
    verified) despite the injected faults.  The printed trace digest is
    the reproducibility receipt: the same seed and options must yield
    the same digest on any machine.
    """
    from repro.chaos.plan import FaultRates
    from repro.chaos.scenario import run_pipeline_scenario, run_wire_scenario

    if args.mode == "wire":
        try:
            rates = FaultRates(
                drop=args.drop,
                delay=args.delay,
                duplicate=args.duplicate,
                truncate=args.truncate,
                bitflip=args.bitflip,
                kill_connection=args.kill,
            )
        except ValueError as exc:
            raise SystemExit(f"repro.cli chaos: error: {exc}")
        result = run_wire_scenario(
            seed=args.seed,
            frames=args.frames,
            payload_size=args.payload_size,
            rates=rates,
        )
    else:
        try:
            kill_frames = tuple(int(x) for x in args.kill_at.split(",") if x)
        except ValueError:
            raise SystemExit(
                f"repro.cli chaos: error: --kill-at expects comma-separated "
                f"frame indexes, got {args.kill_at!r}"
            )
        result = run_pipeline_scenario(
            seed=args.seed, total=args.total, kill_frames=kill_frames
        )
    print(result.summary())
    if args.trace:
        for line in result.trace_lines:
            print(f"  fault: {line}")
    return 0 if result.exactly_once else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """`bench` subcommand: run the overhead gate, exit 1 on any red row."""
    from repro.bench import PROFILES, run_scenarios

    profile = PROFILES[args.profile]
    print(f"repro bench: profile={profile.name}")
    results = run_scenarios(profile)
    for result in results:
        print(f"  [{result.name}]")
        for key, value in sorted(result.metrics.items()):
            print(f"    {key:32s} {value:,.4g}")
        if result.verdict:
            print(f"    {result.verdict}")
    # Every verdict is in before any of them can fail the run: one red
    # gate must not hide the next.
    gates = [line for result in results for line in result.failures]
    if gates:
        print("GATE FAILURES:")
        for line in gates:
            print(f"  {line}")
    return 1 if gates else 0


def _load_cluster_state(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SystemExit(f"repro.cli cluster: error: no state file at {path!r}")


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """`cluster status`: attach read-only to a running cluster."""
    import os

    from repro.cluster import attach_proxies
    from repro.core.control import ControlError

    state = _load_cluster_state(args.state)
    alive = 0
    for entry in state.get("workers", []):
        pid = entry.get("pid")
        try:
            proxies = attach_proxies(
                {"workers": [entry]}, connect_timeout=args.connect_timeout
            )
        except (ControlError, OSError):
            print(f"worker {entry['worker_id']} pid={pid}: UNREACHABLE")
            continue
        proxy = proxies[0]
        try:
            quiet = proxy.is_quiet()
            n_fail = len(proxy.failures)
            sink_in = sum(
                m.get("packets_in", 0) for m in proxy.metrics().values()
            )
            try:
                collect_info = proxy.collect_info()
            except (ControlError, OSError):
                collect_info = None
        finally:
            proxy.close()
        alive += 1
        if collect_info:
            age = collect_info.get("last_collect_age")
            age_s = f"{age:.2f}s" if isinstance(age, float) else "never"
            collect_s = f" collect_age={age_s} seq={collect_info.get('seq')}"
            prof = collect_info.get("profiler")
            if prof:
                wage = prof.get("window_age_seconds")
                wage_s = (
                    f"{wage:.2f}s"
                    if isinstance(wage, (int, float)) and wage >= 0
                    else "never"
                )
                collect_s += (
                    f" sampler={prof.get('state')}({prof.get('cpu_mode')})"
                    f" profile_window_age={wage_s}"
                )
        print(
            f"worker {entry['worker_id']} pid={pid}: up "
            f"quiet={quiet} failures={n_fail} packets_in={sink_in}{collect_s}"
        )
        if os.name == "posix" and isinstance(pid, int):
            try:
                os.kill(pid, 0)
            except OSError:
                print(f"  note: control port answers but pid {pid} is gone")
    total = len(state.get("workers", []))
    print(f"{alive}/{total} workers reachable")
    return 0 if alive == total else 1


def cmd_cluster_stop(args: argparse.Namespace) -> int:
    """`cluster stop`: drain and stop a running cluster via its state file."""
    from repro.cluster import attach_proxies
    from repro.core.control import ControlError, RemoteDistributedJob

    state = _load_cluster_state(args.state)
    try:
        proxies = attach_proxies(state, connect_timeout=args.connect_timeout)
    except (ControlError, OSError) as exc:
        raise SystemExit(f"repro.cli cluster: error: cannot attach: {exc}")
    job = RemoteDistributedJob(proxies)
    ok = job.stop(timeout=args.drain_timeout)
    _print_metrics("cluster", ok, job.metrics(), {}, job.hook_errors)
    return 0 if ok else 1


def cmd_policy(args: argparse.Namespace) -> int:
    """`policy status|log`: inspect a cluster's elasticity action log.

    The policy engine lives in the ``cluster launch --policy`` process;
    its decisions are persisted as canonical JSON lines (one per
    action, byte-identical across identical runs), so attaching is a
    file read — no control traffic.
    """
    import os

    state = _load_cluster_state(args.state)
    policy = state.get("policy") or {}
    if not policy.get("enabled"):
        print("policy: not enabled for this cluster (launch with --policy)")
        return 1
    log_path = policy.get("log")
    lines: list[str] = []
    if log_path and os.path.exists(str(log_path)):
        with open(str(log_path), "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    if args.action == "log":
        for line in lines:
            print(line)
        return 0
    by_kind: dict[str, int] = {}
    for line in lines:
        try:
            kind = str(json.loads(line).get("kind"))
        except (json.JSONDecodeError, AttributeError):
            continue
        by_kind[kind] = by_kind.get(kind, 0) + 1
    print(f"policy: enabled log={log_path}")
    kinds = " ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
    print(f"actions: {len(lines)}" + (f" ({kinds})" if kinds else ""))
    for line in lines[-5:]:
        print(f"  {line}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """`info` subcommand: version and usage."""
    import repro

    print(f"repro {repro.__version__} — NEPTUNE (IPPS 2016) reproduction")
    print(__doc__)
    return 0


def _deployed(workers: int = 1, sample_every: int | None = None):
    """The argparse parent of every command that deploys a graph
    (``_Deployment``); they differ in defaults only.  A command whose
    default is several ``workers`` is about worker processes and takes
    no fewer than 2.  ``sample_every`` makes it one that observes the
    graph too (``--example``, ``--sample-every``).  A fresh parser per
    command: those built from one parent share its actions."""

    def count(text: str) -> int:
        if int(text) < min(workers, 2):
            raise argparse.ArgumentTypeError(
                "this command runs worker processes: at least 2 "
                "(one worker is this process's runtime: `repro run`)"
            )
        return int(text)

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=count,
        default=workers,
        metavar="N",
        help="1: run on this process's runtime; N > 1: across N worker "
        "processes, one Granules resource each, over TCP (needs a JSON "
        f"descriptor; default: {workers})",
    )
    parent.add_argument("--drain-timeout", type=float, default=60.0)
    if sample_every is None:
        parent.add_argument("descriptor")
        parent.add_argument(
            "--duration",
            type=float,
            default=0.0,
            help="seconds to run before stopping (0 = wait for sources to finish)",
        )
        return parent
    parent.add_argument(
        "descriptor", nargs="?", default=None, help="JSON graph descriptor"
    )
    parent.add_argument(
        "--example",
        default="quickstart",
        help="examples/<NAME>.py exposing build_graph() (default: quickstart)",
    )
    parent.add_argument(
        "--sample-every",
        type=int,
        default=sample_every,
        metavar="N",
        help="trace every Nth source packet (0 = tracing off; "
        f"default: {sample_every})",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a JSON graph descriptor")
    p_val.add_argument("descriptor")
    p_val.set_defaults(fn=cmd_validate)

    p_an = sub.add_parser(
        "analyze",
        help="static analysis: graph verifier / plan verifier / concurrency lint",
    )
    p_an.add_argument(
        "--graph",
        nargs="+",
        default=[],
        metavar="DESC.json",
        help="JSON graph descriptor(s) to verify",
    )
    p_an.add_argument(
        "--cluster",
        nargs="+",
        default=[],
        metavar="SPEC.json",
        help="cluster spec(s) to run the NEPG130-139 plan verifier over",
    )
    p_an.add_argument(
        "--lint",
        nargs="+",
        default=[],
        metavar="PATH",
        help="Python files/directories to concurrency-lint",
    )
    p_an.add_argument(
        "--witness",
        nargs="+",
        default=[],
        metavar="W.json",
        help="sanitizer witness file(s) to cross-validate against the "
        "--lint paths' static lock-order edges",
    )
    p_an.add_argument(
        "--json", action="store_true", help="machine-readable findings"
    )
    p_an.add_argument(
        "--fail-on",
        choices=["error", "warning"],
        default="error",
        help="lowest severity that makes the exit code non-zero",
    )
    p_an.set_defaults(fn=cmd_analyze)

    p_run = sub.add_parser(
        "run", parents=[_deployed()], help="run a JSON graph descriptor"
    )
    p_run.set_defaults(
        fn=cmd_run, fabric="tcp", log_dir=None, state=None, policy=False
    )

    p_tr = sub.add_parser(
        "trace",
        parents=[_deployed(sample_every=100)],
        help="run a graph with causal tracing and print the breakdown",
    )
    p_tr.add_argument(
        "--timeline",
        type=int,
        nargs="?",
        const=50,
        default=0,
        metavar="N",
        help="also print the last N runtime events (default when given: 50)",
    )
    p_tr.set_defaults(fn=cmd_trace)

    p_met = sub.add_parser(
        "metrics",
        parents=[_deployed(sample_every=0)],
        help="run a graph and export the telemetry registry",
    )
    p_met.add_argument(
        "--format",
        choices=["prometheus", "json"],
        default="prometheus",
        help="export format (default: prometheus text exposition)",
    )
    p_met.set_defaults(fn=cmd_metrics)

    p_top = sub.add_parser(
        "top",
        parents=[_deployed(workers=3, sample_every=1)],
        help="live cluster view: throughput, p99/stage, gates, SLOs",
    )
    p_top.add_argument(
        "--frames",
        type=int,
        default=0,
        metavar="N",
        help="render N frames then drain and exit (0 = until the job "
        "quiesces or Ctrl-C)",
    )
    p_top.add_argument(
        "--refresh",
        type=float,
        default=1.0,
        metavar="SEC",
        help="seconds between frames (default: 1.0)",
    )
    p_top.add_argument(
        "--state",
        default=None,
        metavar="STATE.json",
        help="attach to a running cluster (from `cluster launch --state`) "
        "instead of launching one",
    )
    p_top.add_argument("--latency-budget", type=float, default=0.05)
    p_top.add_argument("--e2e-budget", type=float, default=0.25)
    p_top.add_argument("--connect-timeout", type=float, default=60.0)
    p_top.set_defaults(fn=cmd_top)

    p_doc = sub.add_parser(
        "doctor",
        parents=[_deployed(sample_every=50)],
        help="correlate health signals into a root-cause report (adaptive "
        "sampling densifies breaching regions past --sample-every)",
    )
    p_doc.add_argument(
        "--from-dump",
        default=None,
        metavar="ENVELOPE.json|DIR",
        help="diagnose a telemetry envelope or a directory of them (what "
        "--dump wrote, or a cluster's flight recorders), merged as a "
        "running cluster's would be, instead of running a graph",
    )
    p_doc.add_argument(
        "--dump",
        default=None,
        metavar="SNAP.json",
        help="also write the telemetry envelope for post-hoc diagnosis",
    )
    p_doc.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    p_doc.add_argument(
        "--latency-budget",
        type=float,
        default=0.05,
        metavar="SEC",
        help="per-operator p99 stage-latency SLO (default: 0.05s)",
    )
    p_doc.add_argument(
        "--e2e-budget",
        type=float,
        default=0.25,
        metavar="SEC",
        help="job-wide traced end-to-end delay SLO (default: 0.25s)",
    )
    p_doc.add_argument(
        "--scan-interval",
        type=float,
        default=0.05,
        metavar="SEC",
        help="health-engine scan period (default: 0.05s)",
    )
    p_doc.add_argument(
        "--max-causes",
        type=int,
        default=3,
        help="ranked causes reported per breach episode (default: 3)",
    )
    p_doc.set_defaults(fn=cmd_doctor)

    p_prof = sub.add_parser(
        "profile",
        parents=[_deployed(sample_every=0)],
        help="run a graph under the sampling profiler: per-operator CPU "
        "attribution, flamegraph dumps",
    )
    p_prof.add_argument(
        "--hz",
        type=float,
        default=50.0,
        help="target sampling rate (duty-cycled down under load; default: 50)",
    )
    p_prof.add_argument(
        "--dump",
        default=None,
        metavar="FILE",
        help="write the profile as speedscope JSON (or collapsed stacks "
        "with --format collapsed)",
    )
    p_prof.add_argument(
        "--format",
        choices=["speedscope", "collapsed"],
        default="speedscope",
        help="--dump format (default: speedscope)",
    )
    p_prof.add_argument(
        "--from-dump",
        default=None,
        metavar="ENVELOPE.json|DIR",
        help="render the profile of a telemetry envelope or a directory "
        "of them (merged) instead of running",
    )
    p_prof.add_argument(
        "--snap",
        default=None,
        metavar="FILE",
        help="also write the telemetry envelope (profile section "
        "included) for post-hoc rendering with --from-dump",
    )
    p_prof.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows in the printed summary (default: 10)",
    )
    p_prof.set_defaults(fn=cmd_profile)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument(
        "name",
        choices=[
            "fig2", "table1", "gc", "fig4", "fig5",
            "fig6", "fig7", "fig9", "fig10", "headline",
        ],
    )
    p_exp.add_argument("--full", action="store_true", help="full-resolution sweep")
    p_exp.set_defaults(fn=cmd_experiment)

    p_chaos = sub.add_parser(
        "chaos", help="run a seeded fault-injection scenario"
    )
    p_chaos.add_argument(
        "--mode",
        choices=["wire", "pipeline"],
        default="wire",
        help="wire: raw transport link under a rate plan; "
        "pipeline: two-resource relay with scripted socket kills",
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--frames", type=int, default=60, help="wire mode: frames to send")
    p_chaos.add_argument("--payload-size", type=int, default=256)
    p_chaos.add_argument("--drop", type=float, default=0.04)
    p_chaos.add_argument("--delay", type=float, default=0.0)
    p_chaos.add_argument("--duplicate", type=float, default=0.04)
    p_chaos.add_argument("--truncate", type=float, default=0.03)
    p_chaos.add_argument("--bitflip", type=float, default=0.03)
    p_chaos.add_argument("--kill", type=float, default=0.03)
    p_chaos.add_argument("--total", type=int, default=800, help="pipeline mode: packets")
    p_chaos.add_argument(
        "--kill-at",
        default="3,9",
        help="pipeline mode: comma-separated frame ordinals to sever at",
    )
    p_chaos.add_argument("--trace", action="store_true", help="print fired faults")
    p_chaos.set_defaults(fn=cmd_chaos)

    p_bench = sub.add_parser(
        "bench",
        help="overhead gate: every plane's budgets and the cluster scale-up",
    )
    p_bench.add_argument(
        "--profile",
        choices=["smoke", "quick", "full"],
        default="quick",
        help="workload tier (smoke: tests, un-gated; quick: CI; full: local)",
    )
    p_bench.set_defaults(fn=cmd_bench)

    p_cluster = sub.add_parser(
        "cluster", help="multi-process sharded data plane (launch/status/stop)"
    )
    cluster_sub = p_cluster.add_subparsers(dest="action", required=True)

    p_cl = cluster_sub.add_parser(
        "launch",
        parents=[_deployed(workers=2)],
        help="shard a descriptor across N worker processes",
    )
    p_cl.add_argument(
        "--fabric",
        choices=["tcp", "unix"],
        default="tcp",
        help="shard interconnect: TCP loopback or Unix domain sockets",
    )
    p_cl.add_argument(
        "--state",
        default=None,
        metavar="STATE.json",
        help="write an attach handle for `cluster status` / `cluster stop`",
    )
    p_cl.add_argument(
        "--log-dir",
        default=None,
        metavar="DIR",
        help="redirect each worker's stdout/stderr to DIR/worker-N.log",
    )
    p_cl.add_argument("--connect-timeout", type=float, default=60.0)
    p_cl.add_argument(
        "--policy",
        action="store_true",
        help="run the elasticity policy engine: per-operator p99 SLOs, "
        "breach diagnosis, live retune/scale/migrate reactions",
    )
    p_cl.add_argument(
        "--slo-latency",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="p99 stage-latency budget for --policy SLOs (default: 0.05)",
    )
    p_cl.set_defaults(fn=cmd_run)

    p_cs = cluster_sub.add_parser(
        "status", help="probe a running cluster through its state file"
    )
    p_cs.add_argument("--state", required=True, metavar="STATE.json")
    p_cs.add_argument("--connect-timeout", type=float, default=5.0)
    p_cs.set_defaults(fn=cmd_cluster_status)

    p_cx = cluster_sub.add_parser(
        "stop", help="drain and stop a running cluster through its state file"
    )
    p_cx.add_argument("--state", required=True, metavar="STATE.json")
    p_cx.add_argument("--drain-timeout", type=float, default=60.0)
    p_cx.add_argument("--connect-timeout", type=float, default=5.0)
    p_cx.set_defaults(fn=cmd_cluster_stop)

    p_pol = sub.add_parser(
        "policy", help="elasticity policy engine (status / action log)"
    )
    policy_sub = p_pol.add_subparsers(dest="action", required=True)
    p_ps = policy_sub.add_parser(
        "status", help="summarize a cluster's policy decisions"
    )
    p_ps.add_argument("--state", required=True, metavar="STATE.json")
    p_ps.set_defaults(fn=cmd_policy)
    p_pl = policy_sub.add_parser(
        "log", help="print the canonical policy action log (one JSON line each)"
    )
    p_pl.add_argument("--state", required=True, metavar="STATE.json")
    p_pl.set_defaults(fn=cmd_policy)

    p_info = sub.add_parser("info", help="version and usage")
    p_info.set_defaults(fn=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
