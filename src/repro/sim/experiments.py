"""Experiment drivers: one function per paper table/figure.

Each driver returns a list of row dicts (plus prints via the shared
``format_rows`` helper) matching the series the paper plots, so the
benchmarks under ``benchmarks/`` stay thin and EXPERIMENTS.md can be
regenerated mechanically.
"""

from __future__ import annotations

from statistics import fmean, stdev
from typing import Any, Sequence

import numpy as np
from scipy import stats

from repro.sim.backpressure import BackpressureParams, run_backpressure
from repro.sim.calibration import Calibration, DEFAULT_CALIBRATION
from repro.sim.cluster import ClusterParams, paper_testbed, run_cluster
from repro.sim.relay import RelayParams, run_relay

#: Fig. 2's sweep axes ("Buffer size was varied from 1 KB to 1 MB ...
#: Message sizes were chosen to cover a wide spectrum from 50 Bytes to
#: 10 KB", §III-B1).
FIG2_BUFFER_SIZES = (1024, 4096, 16384, 65536, 262144, 1048576)
FIG2_MESSAGE_SIZES = (50, 200, 400, 1024, 10240)

FIG7_MESSAGE_SIZES = (50, 200, 400, 1024, 4096, 10240)

#: Manufacturing-monitoring job profile (Figs. 8-10): 4 stages, small
#: inter-stage records (6 fields + timestamp of the 66), domain logic
#: (parsing + sliding-window updates) on top of envelope costs.
MANUFACTURING = dict(
    stages=4,
    message_size=64,
    deployment="pipeline",
    app_cpu_per_message=2.5e-6,
)


def format_rows(rows: Sequence[dict[str, Any]], title: str = "") -> str:
    """Render rows as an aligned text table (benchmarks print this)."""
    if not rows:
        return title
    cols = list(rows[0])
    widths = {
        c: max(len(str(c)), *(len(_fmt(r[c])) for r in rows)) for c in cols
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).ljust(widths[c]) for c in cols))
    for r in rows:
        lines.append("  ".join(_fmt(r[c]).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.4g}"
        return f"{v:.3f}"
    return str(v)


# ---------------------------------------------------------------------------
# FIG2 — throughput / latency / bandwidth vs buffer size
# ---------------------------------------------------------------------------


def fig2_buffer_sweep(
    buffer_sizes: Sequence[int] = FIG2_BUFFER_SIZES,
    message_sizes: Sequence[int] = FIG2_MESSAGE_SIZES,
    duration: float = 2.0,
    max_events: int = 120_000,
    cal: Calibration = DEFAULT_CALIBRATION,
) -> list[dict[str, Any]]:
    """FIG2 driver: relay sweep over buffer x message size."""
    rows = []
    for msg in message_sizes:
        for buf in buffer_sizes:
            r = run_relay(
                RelayParams(
                    message_size=msg,
                    buffer_size=buf,
                    duration=duration,
                    max_events=max_events,
                    cal=cal,
                )
            )
            rows.append(
                {
                    "message_B": msg,
                    "buffer_B": buf,
                    "throughput_msg_s": r.throughput,
                    "latency_ms": r.mean_latency * 1e3,
                    "bandwidth_gbps": r.bandwidth_gbps,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# TAB1 — context switches, batched vs individual scheduling
# ---------------------------------------------------------------------------


def table1_context_switches(
    repeats: int = 5,
    duration: float = 2.0,
    cal: Calibration = DEFAULT_CALIBRATION,
) -> list[dict[str, Any]]:
    """Table I: 50 B messages, 1 MB buffer, batching decoupled.

    Repeats vary the observation offset to produce a mean ± std like
    the paper's repeated 5-second samples.
    """
    rows = []
    for mode, batched in (("batched", True), ("individual", False)):
        samples = []
        for i in range(repeats):
            r = run_relay(
                RelayParams(
                    message_size=50,
                    buffer_size=1 << 20,
                    batched=batched,
                    duration=duration + 0.1 * i,
                    cal=cal,
                )
            )
            samples.append(r.context_switches_per_5s_relay)
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / max(1, len(samples) - 1)
        rows.append(
            {
                "mode": mode,
                "ctx_switches_per_5s_mean": mean,
                "ctx_switches_per_5s_std": var**0.5,
            }
        )
    rows.append(
        {
            "mode": "ratio individual/batched",
            "ctx_switches_per_5s_mean": rows[1]["ctx_switches_per_5s_mean"]
            / rows[0]["ctx_switches_per_5s_mean"],
            "ctx_switches_per_5s_std": 0.0,
        }
    )
    return rows


# ---------------------------------------------------------------------------
# GC — object reuse (§III-B3)
# ---------------------------------------------------------------------------


def gc_object_reuse(
    duration: float = 2.0, cal: Calibration = DEFAULT_CALIBRATION
) -> list[dict[str, Any]]:
    """GC driver: object reuse on vs off."""
    rows = []
    for mode, reuse in (("object reuse", True), ("no reuse", False)):
        r = run_relay(
            RelayParams(
                message_size=50,
                buffer_size=1 << 20,
                object_reuse=reuse,
                duration=duration,
                cal=cal,
            )
        )
        rows.append(
            {
                "mode": mode,
                "gc_time_pct_of_processing": r.gc_fraction_relay * 100.0,
                "throughput_msg_s": r.throughput,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# FIG4 — backpressure staircase
# ---------------------------------------------------------------------------


def fig4_backpressure(
    params: BackpressureParams | None = None,
) -> list[dict[str, Any]]:
    """FIG4 driver: backpressure staircase rows."""
    result = run_backpressure(params or BackpressureParams())
    rows = []
    for sleep in (0.0, 0.001, 0.002, 0.003):
        rows.append(
            {
                "stage_c_sleep_ms": sleep * 1e3,
                "source_rate_msg_s": result.mean_rate_during(sleep),
                "expected_service_rate": (1.0 / sleep) if sleep else float("nan"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# FIG5 / FIG6 — cluster scalability
# ---------------------------------------------------------------------------


def fig5_concurrent_jobs(
    job_counts: Sequence[int] = (1, 10, 20, 30, 40, 50, 60, 75, 100, 125, 150),
    cal: Calibration = DEFAULT_CALIBRATION,
) -> list[dict[str, Any]]:
    """FIG5 driver: cumulative throughput vs job count."""
    rows = []
    for j in job_counts:
        r = run_cluster(ClusterParams(n_jobs=j, cal=cal))
        rows.append(
            {
                "jobs": j,
                "cumulative_throughput_msg_s": r.cumulative_throughput,
                "cumulative_bandwidth_gbps": r.cumulative_bandwidth_gbps,
            }
        )
    return rows


def fig6_cluster_size(
    node_counts: Sequence[int] = (5, 10, 20, 30, 40, 50),
    cal: Calibration = DEFAULT_CALIBRATION,
) -> list[dict[str, Any]]:
    """FIG6 driver: cumulative throughput vs node count."""
    rows = []
    testbed = paper_testbed()
    for n in node_counts:
        r = run_cluster(ClusterParams(n_jobs=50, nodes=testbed[:n], cal=cal))
        rows.append(
            {
                "nodes": n,
                "cumulative_throughput_msg_s": r.cumulative_throughput,
                "cumulative_bandwidth_gbps": r.cumulative_bandwidth_gbps,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# FIG7 — NEPTUNE vs Storm relay
# ---------------------------------------------------------------------------


def fig7_neptune_vs_storm(
    message_sizes: Sequence[int] = FIG7_MESSAGE_SIZES,
    duration: float = 2.0,
    max_events: int = 120_000,
    cal: Calibration = DEFAULT_CALIBRATION,
) -> list[dict[str, Any]]:
    """FIG7 driver: relay contrast across message sizes."""
    rows = []
    for msg in message_sizes:
        for framework in ("neptune", "storm"):
            r = run_relay(
                RelayParams(
                    framework=framework,
                    message_size=msg,
                    duration=duration,
                    max_events=max_events,
                    cal=cal,
                )
            )
            rows.append(
                {
                    "framework": framework,
                    "message_B": msg,
                    "throughput_msg_s": r.throughput,
                    "latency_ms": r.mean_latency * 1e3,
                    "bandwidth_gbps": r.bandwidth_gbps,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# FIG9 — manufacturing-monitoring cumulative throughput
# ---------------------------------------------------------------------------


def fig9_manufacturing(
    job_counts: Sequence[int] = (4, 8, 16, 24, 32, 40, 50),
    cal: Calibration = DEFAULT_CALIBRATION,
) -> list[dict[str, Any]]:
    """FIG9 driver: manufacturing app, NEPTUNE vs Storm."""
    rows = []
    for j in job_counts:
        rn = run_cluster(ClusterParams(n_jobs=j, cal=cal, **MANUFACTURING))
        rs = run_cluster(
            ClusterParams(framework="storm", n_jobs=j, cal=cal, **MANUFACTURING)
        )
        rows.append(
            {
                "jobs": j,
                "neptune_msg_s": rn.cumulative_throughput,
                "storm_msg_s": rs.cumulative_throughput,
                "speedup": rn.cumulative_throughput / rs.cumulative_throughput,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# FIG10 — cluster-wide resource consumption + t-tests
# ---------------------------------------------------------------------------


def fig10_resource_usage(
    cal: Calibration = DEFAULT_CALIBRATION,
) -> dict[str, Any]:
    """FIG10 driver: per-node CPU/memory + t-tests."""
    rn = run_cluster(ClusterParams(n_jobs=50, cal=cal, **MANUFACTURING))
    rs = run_cluster(
        ClusterParams(framework="storm", n_jobs=50, seed=29, cal=cal, **MANUFACTURING)
    )
    # Welch's test: the nodes of the heterogeneous testbed differ in size.
    cpu_test = stats.ttest_ind(
        rs.per_node_cpu_pct, rn.per_node_cpu_pct, equal_var=False, alternative="greater"
    )
    mem_test = stats.ttest_ind(
        rs.per_node_mem_pct, rn.per_node_mem_pct, equal_var=False, alternative="two-sided"
    )
    return {
        "neptune_cpu_pct": rn.per_node_cpu_pct,
        "storm_cpu_pct": rs.per_node_cpu_pct,
        "neptune_mem_pct": rn.per_node_mem_pct,
        "storm_mem_pct": rs.per_node_mem_pct,
        "cpu_one_tailed_p": float(cpu_test.pvalue),
        "mem_two_tailed_p": float(mem_test.pvalue),
        "cpu_mean_neptune": float(np.mean(rn.per_node_cpu_pct)),
        "cpu_mean_storm": float(np.mean(rs.per_node_cpu_pct)),
        "mem_mean_neptune": float(np.mean(rn.per_node_mem_pct)),
        "mem_mean_storm": float(np.mean(rs.per_node_mem_pct)),
    }


def format_fig10(out: dict[str, Any]) -> str:
    """Render :func:`fig10_resource_usage`'s result: each per-node series
    and the two t-tests."""
    lines = ["FIG10: per-node resource consumption (50 jobs / 50 nodes)"]
    for label, key in (
        ("NEPTUNE CPU", "neptune_cpu_pct"),
        ("Storm   CPU", "storm_cpu_pct"),
        ("NEPTUNE mem", "neptune_mem_pct"),
        ("Storm   mem", "storm_mem_pct"),
    ):
        xs = out[key]
        lines.append(
            f"  {label}: n={len(xs)} mean={fmean(xs):.6g} std={stdev(xs):.6g} "
            f"min={min(xs):.6g} max={max(xs):.6g}"
        )
    lines.append(
        f"  CPU one-tailed t-test (Storm > NEPTUNE): p = {out['cpu_one_tailed_p']:.2e}"
    )
    lines.append(f"  memory two-tailed t-test: p = {out['mem_two_tailed_p']:.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Headline numbers (§VI)
# ---------------------------------------------------------------------------


def headline_numbers(cal: Calibration = DEFAULT_CALIBRATION) -> dict[str, Any]:
    """The conclusion's summary claims, one measurement each."""
    relay = run_relay(
        RelayParams(message_size=50, buffer_size=1 << 20, duration=2.0, cal=cal)
    )
    relay_10k = run_relay(
        RelayParams(message_size=10240, buffer_size=1 << 20, duration=2.0, cal=cal)
    )
    cluster = run_cluster(ClusterParams(n_jobs=50, cal=cal))
    mfg = run_cluster(ClusterParams(n_jobs=50, cal=cal, **MANUFACTURING))
    return {
        "single_pipeline_msg_s": relay.throughput,
        "single_pipeline_bandwidth_gbps": relay.bandwidth_gbps,
        "cluster_cumulative_msg_s": cluster.cumulative_throughput,
        "latency_p99_ms_10KB": relay_10k.latency_percentile(99) * 1e3,
        "manufacturing_cumulative_msg_s": mfg.cumulative_throughput,
    }
