"""Tests for the experiment drivers (quick-budget sanity of each)."""

import math

import pytest

from repro.sim import experiments as exp


QUICK = dict(duration=0.4, max_events=30_000)


class TestFormatRows:
    def test_alignment_and_title(self):
        text = exp.format_rows(
            [{"a": 1, "bb": 2.5}, {"a": 100, "bb": 0.001234}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert len(lines) == 4

    def test_empty(self):
        assert exp.format_rows([], title="x") == "x"

    def test_float_formatting(self):
        text = exp.format_rows([{"v": 1234567.0}, {"v": 0.000123}, {"v": 0.0}])
        assert "1.235e+06" in text
        assert "0.000123" in text


class TestDrivers:
    def test_fig2_rows_complete(self):
        rows = exp.fig2_buffer_sweep(
            buffer_sizes=(1024, 1 << 20), message_sizes=(50,), **QUICK
        )
        assert len(rows) == 2
        assert all(
            {"message_B", "buffer_B", "throughput_msg_s", "latency_ms", "bandwidth_gbps"}
            == set(r)
            for r in rows
        )
        assert all(r["throughput_msg_s"] > 0 for r in rows)

    def test_table1_has_ratio_row(self):
        rows = exp.table1_context_switches(repeats=2, duration=0.5)
        assert [r["mode"] for r in rows][:2] == ["batched", "individual"]
        assert rows[2]["ctx_switches_per_5s_mean"] > 1

    def test_gc_rows(self):
        rows = exp.gc_object_reuse(duration=0.5)
        assert rows[0]["mode"] == "object reuse"
        assert rows[1]["gc_time_pct_of_processing"] > rows[0][
            "gc_time_pct_of_processing"
        ]

    def test_fig4_rows(self):
        from repro.sim.backpressure import BackpressureParams, run_backpressure

        params = BackpressureParams(
            sleep_schedule=((0.0, 0.0), (3.0, 0.002)),
            duration=6.0,
            probe_interval=0.5,
        )
        result = run_backpressure(params)
        # The free-running phase is much faster than the throttled one.
        assert result.source_rate[1] > 5 * max(result.source_rate[-1], 1)
        rows = exp.fig4_backpressure()
        assert math.isnan(rows[0]["expected_service_rate"])
        assert rows[0]["source_rate_msg_s"] > rows[-1]["source_rate_msg_s"]

    def test_fig5_rows(self):
        rows = exp.fig5_concurrent_jobs(job_counts=(1, 50))
        assert rows[1]["cumulative_throughput_msg_s"] > rows[0][
            "cumulative_throughput_msg_s"
        ]

    def test_fig6_rows(self):
        rows = exp.fig6_cluster_size(node_counts=(10, 50))
        assert rows[1]["cumulative_throughput_msg_s"] > rows[0][
            "cumulative_throughput_msg_s"
        ]

    def test_fig7_rows(self):
        rows = exp.fig7_neptune_vs_storm(message_sizes=(50,), **QUICK)
        frameworks = {r["framework"] for r in rows}
        assert frameworks == {"neptune", "storm"}

    def test_fig9_rows(self):
        rows = exp.fig9_manufacturing(job_counts=(8, 32))
        assert all(r["speedup"] > 1 for r in rows)

    def test_fig10_keys(self):
        out = exp.fig10_resource_usage()
        assert len(out["neptune_cpu_pct"]) == 50
        assert 0 <= out["cpu_one_tailed_p"] <= 1
        assert 0 <= out["mem_two_tailed_p"] <= 1

    def test_fig10_p_values_are_pinned(self):
        # The seeded simulator makes Fig. 10's samples, and so its
        # Welch t-tests, the same on every run: a change to the test
        # procedure shows here as a changed p-value.
        out = exp.fig10_resource_usage()
        assert out["cpu_one_tailed_p"] == pytest.approx(0.0001384948474853902, rel=1e-9)
        assert out["mem_two_tailed_p"] == pytest.approx(0.5363537148917747, rel=1e-9)
        text = exp.format_fig10(out)
        assert "p = 1.38e-04" in text and "p = 0.5364" in text

    def test_headline_keys(self):
        head = exp.headline_numbers()
        assert set(head) == {
            "single_pipeline_msg_s",
            "single_pipeline_bandwidth_gbps",
            "cluster_cumulative_msg_s",
            "latency_p99_ms_10KB",
            "manufacturing_cumulative_msg_s",
        }
        assert all(v > 0 for v in head.values())
