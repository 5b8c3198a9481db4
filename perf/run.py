"""The benchmark's one command.

``python3 -m perf.run`` measures every workload and prints every
end-to-end metric by name with its unit; ``--ledger`` adds the traced
pass with the per-layer metrics and the reconciled ledger.  The
driver's form, ``--workload W --seed N --seconds S --trace 0|1``,
measures one workload and ends with one JSON object on the last line.
``--selfcheck`` measures everything twice and fails unless the two
agree within the bounds; ``--smoke`` is a seconds-long pass over the
whole matrix.

Protocol (README.md has the measured noise behind each choice): a run
is ``trials`` fresh child processes, each one complete job pinned to
one CPU, after one discarded warm-up trial.  Each trial's throughput
and CPU cost are scaled to the reference speed by the probe that ran
inside it.  The run's value of a metric is the median over its trials,
or for a latency the mean of the quieter half of them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
# The program under test is run from source; children inherit the path.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.meter import REF_MLOOPS, at_reference  # noqa: E402
from perf.workloads import RUN_SECONDS, WORKLOADS, Workload, scaled_packets  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
CHILD_TIMEOUT = 150
#: A disturbance only ever adds latency, and unlike the speed-scaled
#: metrics nothing over-corrects it: the quieter half of the trials is
#: the better witness, and its mean steadier than any one of them.
QUIET_HALF = ("latency_p50_ms", "latency_p95_ms")
#: An open-loop run is invalid beyond these (see check_generator).
LATE_LIMIT_MS = 10.0
RATE_TOLERANCE = 0.02
#: Untraced/traced trial pairs of the traced pass.
TRACED_PAIRS = 4
SMOKE_TRIALS = 3
SMOKE_PACKETS = 2_000
OPERATORS = ("source", "relay", "aggregate", "sink")


class InvalidRun(Exception):
    """The load generator or the machine broke the workload's premise;
    the numbers would not mean what their names say."""


def spawn(module: str, spec: dict, pinned: bool) -> dict:
    """Run ``python -m <module> <spec>`` to completion; returns the JSON
    object on its last line of output."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(sys.path[:2]),
        # Hash randomisation reorders sets and dicts of str per process.
        PYTHONHASHSEED="0",
    )
    # GIL-bound threads gain nothing from a second core, and free to
    # migrate their latency is bimodal; cluster workers keep the mask.
    pin = None
    if pinned:
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    done = subprocess.run(
        [sys.executable, "-m", module, json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
        preexec_fn=pin,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{module} {spec['workload']}: exit {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_trial(
    workload: Workload, packets: int, seed: int, traced: bool = False, **extra
) -> dict:
    """One job in a fresh child process; returns what it printed.

    A child that dies without a result (seen about once in a hundred
    cluster launches) delivered nothing to audit; it is reported on
    standard error, its directory is kept, and the trial is run once
    more.  A trial whose *outputs* are wrong is never retried."""
    OUT_DIR.mkdir(exist_ok=True)

    def attempt() -> dict:
        spec = {
            "workload": workload.name,
            "packets": packets,
            "seed": seed,
            "traced": traced,
            "out_dir": str(OUT_DIR / f"trial-{os.getpid()}-{time.monotonic_ns()}"),
            "spawned_at": time.monotonic(),
            **extra,
        }
        return spawn("perf.trial", spec, pinned=not workload.cluster)

    try:
        return attempt()
    except RuntimeError as exc:
        print(f"retrying once: {exc} (its directory is kept)", file=sys.stderr)
        return attempt()


def normalise(workload: Workload, trial: dict) -> dict:
    """The end-to-end metrics of one trial, at reference speed.

    On a closed loop the CPU is the only limit: rates of CPU work scale
    by ``perf.meter.at_reference``, queueing latency (part CPU, part
    flush timers) by the plain speed ratio.  On the open loop, schedule
    and timers set throughput and latency, which stay as measured, and
    the half-idle CPU's cost per packet goes with the plain ratio.
    Set-up scales with the plain ratio everywhere.  All of it is
    measured, not assumed (README.md, "Speed normalisation")."""
    speed = trial["speed_mloops"]
    slower = speed / REF_MLOOPS  # < 1 on a slow machine
    values = {name: trial[name] for name in END_TO_END if name in trial}
    values["setup_s"] *= slower
    if workload.rate:
        values["throughput_pps"] = trial["raw_throughput_pps"]
        values["cpu_us_per_packet"] = trial["raw_cpu_us_per_packet"] * slower
    else:
        values["throughput_pps"] = 1.0 / at_reference(
            1.0 / trial["raw_throughput_pps"], speed
        )
        values["cpu_us_per_packet"] = at_reference(trial["raw_cpu_us_per_packet"], speed)
        values["latency_p50_ms"] *= slower
        values["latency_p95_ms"] *= slower
    return values


def aggregate(name: str, values: list[float]) -> dict:
    """Run value and quartiles of one metric over the trials: the median,
    or for a latency the mean of the quieter half of the trials."""
    q25, median, q75 = statistics.quantiles(values, n=4)
    value = median
    if name in QUIET_HALF:
        value = statistics.mean(sorted(values)[: len(values) // 2 + 1])
    return {"value": value, "q25": q25, "q75": q75, "trials": values}


def medians(trials: list[dict], names) -> dict:
    return {name: statistics.median(t[name] for t in trials) for name in names}


def measure(
    workload: Workload, seed: int, packets: int, trials: int, smoke: bool = False
) -> dict:
    """One run of ``workload``: ``trials`` trials and their aggregation.
    A smoke run enforces nothing."""
    # The open loop's validity rule needs the saturation rate: one
    # short closed-loop trial on the same graph measures it.
    saturation = None
    if workload.rate and not smoke:
        saturation = run_trial(WORKLOADS["relay_sat"], 2 * packets, seed)
    raw = [run_trial(workload, packets, seed) for _ in range(trials)]
    good = [t for t in raw if not t["audit"]["failed"]]
    report = {
        "workload": workload.name,
        "seed": seed,
        "packets_per_trial": packets,
        "attempted": sum(t["audit"]["attempted"] for t in raw),
        "failed": sum(t["audit"]["failed"] for t in raw),
        "trials": raw,
    }
    if len(good) < 2:
        return report
    per_trial = [normalise(workload, t) for t in good]
    report["metrics"] = {
        name: aggregate(name, [t[name] for t in per_trial]) for name in END_TO_END
    }
    report["info"] = medians(
        good,
        (
            "speed_mloops",
            "raw_throughput_pps",
            "raw_cpu_us_per_packet",
            "latency_p99_ms",
            "latency_samples",
            "late_ms_p95",
            "probe_frac",
            "job_wall_s",
        ),
    )
    if saturation is not None:
        check_generator(workload, report, saturation["raw_throughput_pps"])
    return report


def check_generator(workload: Workload, report: dict, saturation: float) -> None:
    """An open loop only measures the system if the generator kept its
    schedule and the offered rate is well below saturation."""
    assert workload.rate is not None
    late = report["info"]["late_ms_p95"]
    achieved = report["metrics"]["throughput_pps"]["value"]
    print(
        f"  generator: offered {workload.rate:.0f}/s, achieved {achieved:.1f}/s, "
        f"late_ms_p95 {late:.3f}, saturation {saturation:.0f}/s"
    )
    # The source shares the GIL with the system: a burst leaves up to a
    # relay batch late (about 1 ms) and, when another thread will not
    # yield, up to the interpreter's 5 ms switch interval.  Twice that
    # and the generator is starved, not merely sharing.
    if late > LATE_LIMIT_MS:
        raise InvalidRun(
            f"{workload.name}: generator ran late (p95 {late:.2f} ms > {LATE_LIMIT_MS} ms)"
        )
    if abs(achieved / workload.rate - 1.0) > RATE_TOLERANCE:
        raise InvalidRun(
            f"{workload.name}: delivered {achieved:.0f}/s, offered {workload.rate:.0f}/s"
        )
    if workload.rate > 0.5 * saturation:
        raise InvalidRun(
            f"{workload.name}: offered {workload.rate:.0f}/s is above half of "
            f"saturation ({saturation:.0f}/s); latency would be queueing"
        )


# -- the traced pass -----------------------------------------------------------


def measure_traced(workload: Workload, seed: int, packets: int, pairs: int) -> dict:
    """Untraced and traced trials in turn, then the layer measurements
    in a process of their own; returns every per-layer metric, the
    ledger rows and the spans."""
    plain, traced = [], []
    for i in range(pairs):
        plain.append(run_trial(workload, packets, seed))
        # One cluster trial drains through ClusterCoordinator itself,
        # to time what the timed trials skip (see perf.trial.run_job).
        full = workload.cluster and i == pairs - 1
        traced.append(run_trial(workload, packets, seed, traced=True, full_drain=full))
    failed = sum(t["audit"]["failed"] for t in plain + traced)
    attempted = sum(t["audit"]["attempted"] for t in plain + traced)
    report: dict = {
        "workload": workload.name,
        "seed": seed,
        "packets_per_trial": packets,
        "attempted": attempted,
        "failed": failed,
    }
    if failed:
        return report
    layers = spawn(
        "perf.ledger",
        {
            "workload": workload.name,
            "seed": seed,
            "packets": packets,
            "operators": traced[0]["operators"],
        },
        pinned=True,
    )
    base = medians([normalise(workload, t) for t in plain], END_TO_END)
    with_trace = medians([normalise(workload, t) for t in traced], END_TO_END)
    cpu_ns = base["cpu_us_per_packet"] * 1e3
    attributed = sum(row["ns_per_packet"] for row in layers["rows"])
    delivered = statistics.median(t["audit"]["delivered"] for t in plain)

    metrics = dict(layers["layers"])
    metrics.update(
        {
            "resource.dispatch_us_p50": layers["dispatch_us_p50"],
            "resource.executions_per_kpacket": statistics.median(
                sum(m["executions"] for m in t["operators"].values()) for t in plain
            )
            / delivered
            * 1e3,
            "resource.vol_ctx_switches_per_kpacket": statistics.median(
                t["vol_ctx_switches"] for t in plain
            )
            / delivered
            * 1e3,
            "cluster.launch_s": statistics.median(t["launch_s"] for t in plain),
            "cluster.drain_s": traced[-1]["drain_s"] if workload.cluster else 0.0,
            "runtime.inline_baseline_pps": layers["inline_pps"],
            "runtime.framework_overhead_x": layers["inline_pps"] / base["throughput_pps"],
            "runtime.attributed_ns_per_packet": attributed,
            "runtime.unattributed_ns_per_packet": cpu_ns - attributed,
            "runtime.unattributed_frac": (cpu_ns - attributed) / cpu_ns,
            "trace.overhead_frac": 1.0
            - with_trace["throughput_pps"] / base["throughput_pps"],
        }
    )
    info = medians(
        plain,
        (
            "latency_p99_ms",
            "speed_mloops",
            "raw_throughput_pps",
            "raw_cpu_us_per_packet",
            "late_ms_p95",
        ),
    )
    metrics["latency_p99_ms"] = info["latency_p99_ms"]
    metrics["host.speed_mloops"] = info["speed_mloops"]
    metrics["host.raw_throughput_pps"] = info["raw_throughput_pps"]
    metrics["host.raw_cpu_us_per_packet"] = info["raw_cpu_us_per_packet"]
    metrics["generator.late_ms_p95"] = info["late_ms_p95"]
    metrics.update(operator_metrics(traced))

    spans = [dict(span, trial=i) for i, t in enumerate(traced) for span in t["spans"]]
    spans += [dict(span, trial="layers") for span in layers["spans"]]
    report.update(
        metrics=metrics,
        rows=layers["rows"],
        cpu_us_per_packet=base["cpu_us_per_packet"],
        spans=spans,
    )
    return report


def operator_metrics(traced: list[dict]) -> dict:
    """Per operator: share of the job's wall time its spans were on a
    CPU, share it sat blocked in ``emit``, packets in and out (medians
    over the traced trials; zeros for operators the workload lacks)."""
    per_trial: list[dict] = []
    for trial in traced:
        wall = trial["job_wall_s"]
        values = {}
        for op in OPERATORS:
            counters = trial["operators"].get(op)
            busy = sum(s["cpu"] for s in trial["spans"] if s["name"].startswith(op + "["))
            blocked = counters["emit_block_seconds"] if counters else 0.0
            instances = counters["instances"] if counters else 1
            values[f"operator.{op}.busy_frac"] = busy / wall / instances
            values[f"operator.{op}.blocked_frac"] = blocked / wall / instances
            values[f"operator.{op}.packets_in"] = counters["packets_in"] if counters else 0
            values[f"operator.{op}.packets_out"] = counters["packets_out"] if counters else 0
        emitting = [op for op in OPERATORS if trial["operators"].get(op, {}).get("packets_out")]
        values["flowcontrol.blocked_frac"] = statistics.mean(
            values[f"operator.{op}.blocked_frac"] for op in emitting
        )
        per_trial.append(values)
    return medians(per_trial, per_trial[0])


# -- output ----------------------------------------------------------------------


def print_report(report: dict) -> None:
    print(
        f"{report['workload']}: seed {report['seed']}, "
        f"{len(report['trials'])} trials x {report['packets_per_trial']} packets, "
        f"attempted {report['attempted']}, failed {report['failed']}"
    )
    for name, agg in report.get("metrics", {}).items():
        spec = END_TO_END[name]
        print(
            f"  {name:24s} {agg['value']:12.4f} {spec['unit']:6s} "
            f"({spec['better']} is better; quartiles of the trials "
            f"{agg['q25']:.4f}..{agg['q75']:.4f})"
        )
    for name, value in report.get("info", {}).items():
        print(f"  ({name} {value:.4f})")


def print_ledger(report: dict) -> None:
    print(
        f"{report['workload']} traced pass: seed {report['seed']}, "
        f"{report['packets_per_trial']} packets/trial, "
        f"attempted {report['attempted']}, failed {report['failed']}"
    )
    if "metrics" not in report:
        return
    for name in PER_LAYER:
        spec = PER_LAYER[name]
        print(
            f"  {name:40s} {report['metrics'][name]:14.4f} {spec['unit']:7s} "
            f"({spec['better']} is better)"
        )
    print("  ledger: CPU-ns per delivered source packet, at reference speed")
    print(f"    {'layer':24s} {'link':20s} {'unit ns':>12s} {'x per packet':>13s} {'ns/packet':>11s}")
    for row in report["rows"]:
        print(
            f"    {row['layer']:24s} {row['link']:20s} {row['unit_ns']:12.1f} "
            f"{row['per_packet']:13.5f} {row['ns_per_packet']:11.1f}"
        )
    m = report["metrics"]
    print(f"    {'sum of rows':59s} {m['runtime.attributed_ns_per_packet']:22.1f}")
    print(f"    {'unattributed':59s} {m['runtime.unattributed_ns_per_packet']:22.1f}")
    print(f"    {'cpu_us_per_packet x 1000':59s} {report['cpu_us_per_packet'] * 1e3:22.1f}")


def result_line(report: dict, units: dict) -> str:
    """The driver's contract: the last line of standard output."""
    values = report.get("metrics", {})
    metrics = {}
    for name, spec in units.items():
        if name in values:
            value = values[name]
            value = value["value"] if isinstance(value, dict) else value
            metrics[name] = {"value": value, "unit": spec["unit"]}
    return json.dumps(
        {
            "correct": report["failed"] == 0 and len(metrics) == len(units),
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def write_trace(report: dict) -> None:
    """Spans to ``trace-<workload>.jsonl``, the rest to ``ledger-<workload>.json``."""
    name = report["workload"]
    spans = report.pop("spans", [])
    with open(OUT_DIR / f"trace-{name}.jsonl", "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    (OUT_DIR / f"ledger-{name}.json").write_text(json.dumps(report, indent=1))


# -- self-check --------------------------------------------------------------------


def selfcheck(seed: int, seconds: float) -> int:
    """Two complete sets of runs of the same code, workloads in opposite
    orders; every workload x metric pair must agree within the metric's
    bound.  (A later change is judged on medians of ten runs a side; a
    pair of single runs is the harsher test.)"""
    names = list(WORKLOADS)
    sets: list[dict] = []
    for order in (names, names[::-1]):
        reports = {}
        for name in order:
            workload = WORKLOADS[name]
            reports[name] = measure(
                workload, seed, scaled_packets(workload, seconds), workload.trials
            )
            if reports[name]["failed"] or "metrics" not in reports[name]:
                print(f"selfcheck: {name} failed operations", file=sys.stderr)
                return 1
        sets.append(reports)
    worst = 0.0
    print("| workload | metric | A | B | differ | bound | A quartiles | B quartiles |")
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        for metric, spec in END_TO_END.items():
            a, b = (s[name]["metrics"][metric] for s in sets)
            differ = abs(a["value"] - b["value"]) / ((a["value"] + b["value"]) / 2)
            worst = max(worst, differ / spec["bound"])
            print(
                f"| {name} | {metric} | {a['value']:.4f} | {b['value']:.4f} | "
                f"{differ:.2%} | {spec['bound']:.0%} | "
                f"{a['q25']:.4f}..{a['q75']:.4f} | {b['q25']:.4f}..{b['q75']:.4f} |"
            )
    print(f"worst pair is at {worst:.0%} of its bound")
    return 0 if worst <= 1.0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perf.run", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", action="store_true", help="add the traced pass")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    names = [args.workload] if args.workload else list(WORKLOADS)
    # The driver asks for one kind of pass; a person gets both with --ledger.
    timed = not args.trace
    traced = args.ledger or bool(args.trace)
    for name in names:
        workload = WORKLOADS[name]
        packets = scaled_packets(workload, args.seconds)
        trials, pairs = workload.trials, TRACED_PAIRS
        if args.smoke:
            packets, trials, pairs = SMOKE_PACKETS, SMOKE_TRIALS, 1
        try:
            if timed:
                report = measure(workload, args.seed, packets, trials, args.smoke)
                print_report(report)
                (OUT_DIR / f"report-{name}.json").write_text(json.dumps(report, indent=1))
                print(result_line(report, END_TO_END))
            if traced:
                report = measure_traced(workload, args.seed, packets, pairs)
                print_ledger(report)
                write_trace(report)
                print(result_line(report, PER_LAYER))
        except InvalidRun as exc:
            print(f"invalid run: {exc}", file=sys.stderr)
            return 2
        if report["failed"] or "metrics" not in report:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
