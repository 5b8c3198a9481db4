"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


DESCRIPTOR = {
    "name": "cli-relay",
    "operators": [
        {
            "name": "src",
            "type": "source",
            "class": "repro.workloads.operators:CountingSource",
            "kwargs": {"total": 200},
        },
        {
            "name": "relay",
            "type": "processor",
            "class": "repro.workloads.operators:RelayProcessor",
        },
        {
            "name": "sink",
            "type": "processor",
            "class": "repro.workloads.operators:CollectingSink",
        },
    ],
    "links": [
        {"from": "src", "to": "relay"},
        {"from": "relay", "to": "sink"},
    ],
}


@pytest.fixture
def descriptor_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(DESCRIPTOR))
    return str(path)


class TestValidate:
    def test_valid_descriptor(self, descriptor_file, capsys):
        assert main(["validate", descriptor_file]) == 0
        out = capsys.readouterr().out
        assert "cli-relay" in out and "OK" in out
        assert "stages" in out

    def test_invalid_descriptor(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "operators": [], "links": []}))
        from repro.util.errors import GraphValidationError

        with pytest.raises(GraphValidationError):
            main(["validate", str(bad)])


class TestRun:
    def test_run_to_completion(self, descriptor_file, capsys):
        assert main(["run", descriptor_file]) == 0
        out = capsys.readouterr().out
        assert "drained" in out
        assert "in=       200" in out.replace("in=        200", "in=       200") or "200" in out

    @pytest.mark.cluster
    def test_run_across_worker_processes(self, descriptor_file, capsys):
        # ``--workers 2`` spawns two worker processes: tier-1 never does.
        assert main(["run", descriptor_file, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "worker 0 pid=" in out and "worker 1 pid=" in out
        assert "drained" in out

    def test_one_worker_through_every_command_that_deploys(
        self, descriptor_file, tmp_path, capsys, monkeypatch
    ):
        """``run``, ``metrics``, ``doctor`` and ``profile`` launch and
        observe through the same helper; at one worker that is this
        process's runtime."""
        from repro import cli

        deployed = []

        class Recording(cli._Deployment):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                deployed.append(self)

        monkeypatch.setattr(cli, "_Deployment", Recording)
        assert main(["run", descriptor_file]) == 0
        assert "drained" in capsys.readouterr().out
        assert main(["metrics", descriptor_file, "--format", "json"]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported["schema"] == "neptune-telemetry/1"
        assert {"series", "events", "spans"} <= set(exported)
        assert main(["doctor", descriptor_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["healthy"] is True
        snap = tmp_path / "profile.json"
        assert main(["profile", descriptor_file, "--snap", str(snap)]) == 0
        assert "profile:" in capsys.readouterr().out
        written = json.loads(snap.read_text())
        assert written["schema"] == "neptune-telemetry/1"
        assert written["profile"]["state"] == "dormant"  # ran, and was stopped
        # One file format, two views of it.
        assert main(["profile", "--from-dump", str(snap)]) == 0
        assert "profile: state=merged" in capsys.readouterr().out
        assert main(["doctor", "--from-dump", str(snap), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["healthy"] is True
        assert len(deployed) == 4
        assert all(dep.coordinator is None for dep in deployed)
        assert [dep.observer is not None for dep in deployed] == [False, True, True, True]
        assert [dep.health is not None for dep in deployed] == [False, False, True, False]
        assert all(dep.job.metrics()["sink"]["packets_in"] == 200 for dep in deployed)


class TestExperiment:
    def test_fig6(self, capsys):
        assert main(["experiment", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "FIG6" in out and "nodes" in out

    def test_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_fig10(self, capsys):
        assert main(["experiment", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "one-tailed" in out

    def test_headline(self, capsys):
        assert main(["experiment", "headline"]) == 0
        assert "single_pipeline_msg_s" in capsys.readouterr().out

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "NEPTUNE" in capsys.readouterr().out


class TestRunDuration:
    def test_run_for_duration_then_stop(self, tmp_path, capsys):
        endless = dict(DESCRIPTOR)
        endless = json.loads(json.dumps(DESCRIPTOR))
        endless["operators"][0]["kwargs"] = {"total": None}
        path = tmp_path / "endless.json"
        path.write_text(json.dumps(endless))
        assert main(["run", str(path), "--duration", "0.5", "--drain-timeout", "30"]) == 0
        out = capsys.readouterr().out
        assert "drained" in out


class TestPolicyCommand:
    """`policy status|log`: file-read attach to a cluster's action log."""

    @pytest.fixture
    def policy_state(self, tmp_path):
        log = tmp_path / "policy-actions.log"
        lines = [
            json.dumps(
                {
                    "scan": 7,
                    "kind": "retune",
                    "operator": "sink",
                    "slo": "sink-backlog",
                    "cause": "backpressure_cascade",
                    "reason": "batch_up",
                    "worker": None,
                    "params": {"where": "into", "max_delay": 0.05},
                },
                sort_keys=True,
                separators=(",", ":"),
            ),
            json.dumps(
                {"scan": 31, "kind": "scale", "operator": "svc"},
                sort_keys=True,
                separators=(",", ":"),
            ),
        ]
        log.write_text("\n".join(lines) + "\n")
        state = tmp_path / "cluster.json"
        state.write_text(
            json.dumps(
                {
                    "workers": [],
                    "policy": {"enabled": True, "log": str(log)},
                }
            )
        )
        return str(state), lines

    def test_status_counts_actions_by_kind(self, policy_state, capsys):
        state, _ = policy_state
        assert main(["policy", "status", "--state", state]) == 0
        out = capsys.readouterr().out
        assert "policy: enabled" in out
        assert "actions: 2" in out
        assert "retune=1" in out and "scale=1" in out

    def test_log_prints_canonical_lines_verbatim(self, policy_state, capsys):
        state, lines = policy_state
        assert main(["policy", "log", "--state", state]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_not_enabled_is_an_error(self, tmp_path, capsys):
        state = tmp_path / "cluster.json"
        state.write_text(json.dumps({"workers": []}))
        assert main(["policy", "status", "--state", str(state)]) == 1
        assert "not enabled" in capsys.readouterr().out

    def test_missing_log_file_reports_zero_actions(self, tmp_path, capsys):
        state = tmp_path / "cluster.json"
        state.write_text(
            json.dumps(
                {
                    "workers": [],
                    "policy": {"enabled": True, "log": str(tmp_path / "gone.log")},
                }
            )
        )
        assert main(["policy", "status", "--state", str(state)]) == 0
        assert "actions: 0" in capsys.readouterr().out


SPIN_DESCRIPTOR = {
    "name": "cli-spin",
    "operators": [
        {
            "name": "src",
            "type": "source",
            "class": "repro.workloads.operators:CountingSource",
            "kwargs": {"total": 250, "payload_size": 64},
        },
        {
            "name": "spin",
            "type": "processor",
            "class": "repro.workloads.operators:SpinProcessor",
            "kwargs": {"spin_seconds": 0.003},
        },
        {
            "name": "sink",
            "type": "processor",
            "class": "repro.workloads.operators:CollectingSink",
        },
    ],
    "links": [
        {"from": "src", "to": "spin"},
        {"from": "spin", "to": "sink"},
    ],
}


class TestProfileCommand:
    """`repro profile`: run under the sampler, dump flamegraph formats,
    and render recovered profiles post-mortem (`--from-dump`)."""

    @pytest.fixture
    def spin_descriptor(self, tmp_path):
        path = tmp_path / "spin.json"
        path.write_text(json.dumps(SPIN_DESCRIPTOR))
        return str(path)

    def test_profile_writes_valid_speedscope(self, spin_descriptor, tmp_path, capsys):
        out = tmp_path / "prof.speedscope.json"
        assert main(["profile", spin_descriptor, "--dump", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "profile:" in summary
        assert "spin" in summary
        doc = json.loads(out.read_text())
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        frames = doc["shared"]["frames"]
        assert doc["profiles"], "sampler took no samples over a ~1s spin run"
        names = [p["name"] for p in doc["profiles"]]
        assert "spin" in names
        for p in doc["profiles"]:
            assert p["type"] == "sampled" and p["unit"] == "seconds"
            assert len(p["samples"]) == len(p["weights"])
            for stack in p["samples"]:
                assert all(0 <= i < len(frames) for i in stack)

    def test_profile_collapsed_format(self, spin_descriptor, tmp_path, capsys):
        out = tmp_path / "prof.collapsed"
        assert main(
            ["profile", spin_descriptor, "--dump", str(out), "--format", "collapsed"]
        ) == 0
        text = out.read_text()
        assert text
        for line in text.splitlines():
            label, _, count = line.rpartition(" ")
            assert label and count.isdigit(), f"bad collapsed line: {line!r}"
        assert any(line.startswith("spin;") for line in text.splitlines())

    def test_from_dump_renders_a_profile_snapshot(self, tmp_path, capsys):
        from envelopes import envelope

        profile = {
            "state": "dormant",
            "cpu_mode": "task-stat",
            "samples": 42,
            "operators": {
                "spin": {
                    "kind": "operator",
                    "samples": 40,
                    "cpu_seconds": 1.5,
                    "wall_seconds": 1.6,
                    "off_cpu_seconds": 0.1,
                    "stacks": {"operators.py:_spin": 40},
                    "top_frames": {"operators.py:_spin": 40},
                }
            },
        }
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(envelope(worker=1, profile=profile)))
        out = tmp_path / "out.speedscope.json"
        assert main(["profile", "--from-dump", str(path), "--dump", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "spin" in summary and "100.0%" in summary
        doc = json.loads(out.read_text())
        assert [p["name"] for p in doc["profiles"]] == ["spin"]
        assert sum(doc["profiles"][0]["weights"]) == pytest.approx(1.5)

    def test_from_dump_rejects_non_profile_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(SystemExit, match=r"junk\.json \(something-else\)"):
            main(["profile", "--from-dump", str(path)])
        # The same reader behind the other view.
        with pytest.raises(SystemExit, match="no neptune-telemetry/1 envelope"):
            main(["doctor", "--from-dump", str(path)])


class TestTopProfileColumns:
    """`repro top` renders per-operator CPU share and on/off-CPU from
    the merged ``neptune_profile_*`` series."""

    def test_render_top_shows_cpu_lines(self):
        from repro.cli import _render_top
        from repro.observe import RuntimeObserver

        class _StubCollector:
            def __init__(self):
                self.observer = RuntimeObserver()
                self.health = None

            def status(self):
                return {"polls": 1, "absorbed": 1, "stale": 0, "fetch_errors": 0}

            def stitched(self):
                return []

        collector = _StubCollector()
        reg = collector.observer.registry
        reg.counter(
            "neptune_profile_cpu_seconds_total",
            {"operator": "spin", "kind": "operator", "worker": "1"},
            "h",
        ).set_total(3.0)
        reg.counter(
            "neptune_profile_off_cpu_seconds_total",
            {"operator": "spin", "kind": "operator", "worker": "1"},
            "h",
        ).set_total(0.5)
        reg.counter(
            "neptune_profile_cpu_seconds_total",
            {"operator": "relay", "kind": "operator", "worker": "0"},
            "h",
        ).set_total(1.0)
        reg.counter(
            "neptune_profile_cpu_seconds_total",
            {"operator": "neptune-flush", "kind": "runtime", "worker": "0"},
            "h",
        ).set_total(9.0)  # runtime kind: excluded from the cpu table
        text = _render_top(
            collector, [{"worker_id": 0, "alive": True}], "test", frame=1
        )
        assert "cpu spin" in text
        assert "75.0%" in text
        assert "on=3.00s" in text and "off=0.50s" in text
        assert "cpu relay" in text and "25.0%" in text
        assert "neptune-flush" not in text
