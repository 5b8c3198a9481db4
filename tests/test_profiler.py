"""The continuous sampling profiler: thread-ownership registry, duty
discipline, on/off-CPU accounting (with the /proc fault-injection
fallback), bounded aggregates, stable labels, the speedscope/collapsed
renderers, snapshot merging, and the no-unnamed-threads contract."""

import json
import threading
import time

import pytest

from repro.core import NeptuneConfig, NeptuneRuntime, StreamProcessingGraph
from repro.observe import RuntimeObserver, bridge
from repro.observe import owners
from repro.observe import profiler as profiler_mod
from repro.observe.export import to_prometheus
from repro.observe.profiler import (
    OTHER_STACK,
    OVERFLOW_LABEL,
    SamplingProfiler,
    _bare_operator,
    _generic_label,
    _OperatorProfile,
    clear_thread_owner,
    collapsed,
    merge_profile_snapshots,
    set_thread_owner,
    speedscope,
)
from repro.workloads import CountingSource, RelayProcessor
from waiters import wait_until


class _OwnedSpinner:
    """A thread that claims operator ownership and spins until stopped.

    Deterministic stand-in for a worker thread inside
    ``_InstanceRuntime.execute``: the profiler must attribute its
    samples to ``label`` (bare, instance suffix stripped)."""

    def __init__(self, label, name="neptune-test-spin"):
        self.label = label
        self._stop = threading.Event()
        self.ready = threading.Event()
        self.thread = threading.Thread(target=self._run, name=name, daemon=True)

    def _run(self):
        if self.label is not None:
            set_thread_owner(self.label)
        self.ready.set()
        while not self._stop.is_set():
            sum(i * i for i in range(200))

    def __enter__(self):
        self.thread.start()
        assert self.ready.wait(5.0)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self.thread.join(5.0)


@pytest.fixture(autouse=True)
def _clean_registry():
    """Manual _sample_once tests seed _OWNERS without start()/stop();
    never leak entries into other tests."""
    yield
    profiler_mod._OWNERS.clear()


def _sweep(prof, n=3, elapsed=0.01):
    for _ in range(n):
        prof._sample_once(elapsed)


class TestOwnershipRegistry:
    def test_set_and_clear(self):
        set_thread_owner("relay[3]")
        ident = threading.get_ident()
        owner = profiler_mod._OWNERS[ident]
        assert owner.label == "relay[3]"
        assert owner.native_id == threading.get_native_id()
        clear_thread_owner()
        assert profiler_mod._OWNERS[ident].label is None

    def test_native_id_cached_across_relabels(self):
        set_thread_owner("a")
        owner = profiler_mod._OWNERS[threading.get_ident()]
        set_thread_owner("b")
        assert profiler_mod._OWNERS[threading.get_ident()] is owner
        assert owner.label == "b"

    def test_activation_refcount_gates_the_hot_path_flag(self):
        assert owners._ACTIVE is False
        profiler_mod._activate()
        profiler_mod._activate()
        assert owners._ACTIVE is True
        profiler_mod._deactivate()
        assert owners._ACTIVE is True  # one profiler still live
        set_thread_owner("x")
        profiler_mod._deactivate()
        assert owners._ACTIVE is False
        assert profiler_mod._OWNERS == {}  # registry swept at zero

    def test_start_stop_toggle_active(self):
        prof = SamplingProfiler(hz=200.0)
        assert prof.state == "dormant"
        prof.start()
        try:
            assert prof.state == "sampling"
            assert owners._ACTIVE is True
        finally:
            prof.stop()
        assert prof.state == "dormant"
        assert owners._ACTIVE is False


class TestLabelStability:
    def test_bare_operator_strips_instance_suffix(self):
        assert _bare_operator("relay[0]") == "relay"
        assert _bare_operator("relay[12]") == "relay"
        assert _bare_operator("relay") == "relay"
        assert _bare_operator("v2[beta]") == "v2[beta]"

    def test_generic_label_strips_trailing_numbers(self):
        assert _generic_label("neptune-ctl-52341") == "neptune-ctl"
        assert _generic_label("neptune-tcp-reader-9000-3") == "neptune-tcp-reader"
        assert _generic_label("neptune-profiler") == "neptune-profiler"
        assert _generic_label("MainThread") == "MainThread"

    def test_instances_fold_into_one_operator_label(self):
        prof = SamplingProfiler()
        with _OwnedSpinner("relay[0]"):
            _sweep(prof, 2)
        with _OwnedSpinner("relay[1]"):
            _sweep(prof, 2)
        ops = prof.snapshot()["operators"]
        assert "relay" in ops
        assert not any("[" in label for label in ops if label != OVERFLOW_LABEL)


class TestAttribution:
    def test_owned_thread_becomes_an_operator(self):
        prof = SamplingProfiler()
        with _OwnedSpinner("hot[0]"):
            _sweep(prof, 5, elapsed=0.01)
        snap = prof.snapshot()
        assert "schema" not in snap  # a section of the envelope, not a file
        hot = snap["operators"]["hot"]
        assert hot["kind"] == "operator"
        assert hot["samples"] == 5
        assert hot["wall_seconds"] == pytest.approx(0.05)
        # Default (never started) profiler is in wall mode: the full
        # period counts as on-CPU so shares cannot skew.
        assert hot["cpu_seconds"] == pytest.approx(hot["wall_seconds"])
        assert hot["off_cpu_seconds"] == 0.0
        assert hot["stacks"] and hot["top_frames"]

    def test_unowned_thread_uses_generic_thread_name(self):
        prof = SamplingProfiler()
        with _OwnedSpinner(None, name="neptune-fake-svc-1234"):
            _sweep(prof, 3)
        ops = prof.snapshot()["operators"]
        assert ops["neptune-fake-svc"]["kind"] == "runtime"

    def test_cleared_owner_reverts_to_runtime_attribution(self):
        prof = SamplingProfiler()
        done = threading.Event()
        release = threading.Event()

        def work():
            set_thread_owner("op[0]")
            clear_thread_owner()
            done.set()
            release.wait(5.0)

        t = threading.Thread(target=work, name="neptune-phase-x", daemon=True)
        t.start()
        assert done.wait(5.0)
        try:
            _sweep(prof, 3)
        finally:
            release.set()
            t.join(5.0)
        ops = prof.snapshot()["operators"]
        assert "op" not in ops
        assert "neptune-phase-x" in ops

    def test_sampler_skips_its_own_thread(self):
        prof = SamplingProfiler(hz=500.0)
        with prof:
            time.sleep(0.15)
        ops = prof.snapshot()["operators"]
        assert "neptune-profiler" not in ops
        assert prof.samples > 0


class TestCpuAccounting:
    def test_first_sighting_is_zero_then_delta(self):
        ticks = {"cpu": 1.00}
        prof = SamplingProfiler(statfn=lambda tid: ticks["cpu"])
        prof.cpu_mode = "task-stat"
        assert prof._cpu_delta(7, elapsed=0.5) == 0.0
        ticks["cpu"] = 1.25
        assert prof._cpu_delta(7, elapsed=0.5) == pytest.approx(0.25)

    def test_counter_regression_clamps_to_zero(self):
        vals = iter([2.0, 1.0])
        prof = SamplingProfiler(statfn=lambda tid: next(vals))
        prof.cpu_mode = "task-stat"
        prof._cpu_delta(7, elapsed=0.5)
        assert prof._cpu_delta(7, elapsed=0.5) == 0.0


class TestProcFallback:
    """Satellite: fault-injected task-stat reader — the profiler must
    degrade to wall-only attribution without erroring and without
    skewing per-operator shares."""

    def _boom(self, tid):
        raise FileNotFoundError("/proc is not mounted here")

    def test_probe_failure_selects_wall_mode(self):
        prof = SamplingProfiler(hz=200.0, statfn=self._boom)
        with prof:
            with _OwnedSpinner("hot[0]"):
                time.sleep(0.2)
        snap = prof.snapshot()
        assert snap["cpu_mode"] == "wall"
        assert prof.errors == 0
        hot = snap["operators"]["hot"]
        assert hot["samples"] > 0
        # Wall-only: on-CPU equals wall for every label, shares honest.
        for info in snap["operators"].values():
            assert info["cpu_seconds"] == pytest.approx(info["wall_seconds"])
            assert info["off_cpu_seconds"] == 0.0

    def test_midrun_read_failure_falls_back_per_thread(self):
        # Probe succeeds (start() reads the sampler's own tid), then
        # every per-thread read raises: each failure counts once, the
        # cursor is dropped, and the thread gets wall attribution.
        own = threading.get_native_id()
        calls = {"n": 0}

        def flaky(tid):
            if calls["n"] == 0 and tid == own:
                calls["n"] += 1
                return 0.0
            raise OSError("transient task-stat failure")

        prof = SamplingProfiler(statfn=flaky)
        prof.cpu_mode = "task-stat"
        prof._statfn = flaky
        with _OwnedSpinner("hot[0]"):
            _sweep(prof, 4, elapsed=0.01)
        snap = prof.snapshot()
        assert prof.errors == 0
        assert prof.stat_errors > 0
        hot = snap["operators"]["hot"]
        assert hot["cpu_seconds"] == pytest.approx(hot["wall_seconds"])

    def test_real_start_on_this_platform_never_errors(self):
        # Whatever this host offers (/proc or not), start() must settle
        # on a working mode and sample cleanly.
        prof = SamplingProfiler(hz=500.0)
        with prof:
            with _OwnedSpinner("hot[0]"):
                time.sleep(0.2)
        assert prof.cpu_mode in ("task-stat", "wall")
        assert prof.errors == 0
        assert prof.samples > 0


class TestSweepErrors:
    def test_a_swallowed_sweep_is_counted_and_lands_on_the_timeline(self):
        obs = RuntimeObserver()
        prof = SamplingProfiler(hz=500.0)
        obs.profiler = prof

        def boom(elapsed):
            raise RuntimeError("frame walk failed")

        prof._sample_once = boom
        with prof:
            assert wait_until(lambda: prof.errors >= 2, timeout=10.0)
        bridge.scrape_observer(obs)
        (counter,) = [
            s for s in obs.registry.collect()
            if s.name == "neptune_internal_errors_total"
        ]
        assert dict(counter.labels) == {"site": "profiler.sample"}
        assert counter.value == prof.errors
        # Every one counted; the first per scrape on the timeline.
        (error,) = obs.timeline.snapshot("internal", "error")
        assert "frame walk failed" in error.attrs["error"]
        bridge.scrape_observer(obs)
        assert len(obs.timeline.snapshot("internal", "error")) == 1


class TestBounds:
    def test_operator_overflow_folds(self):
        prof = SamplingProfiler(max_operators=1)
        with _OwnedSpinner("a[0]", name="neptune-sp-a"):
            with _OwnedSpinner("b[0]", name="neptune-sp-b"):
                _sweep(prof, 2)
        ops = prof.snapshot()["operators"]
        assert OVERFLOW_LABEL in ops
        assert len(ops) <= 2  # the one real slot + the fold

    def test_stack_overflow_folds_into_other(self):
        prof = _OperatorProfile("operator")
        prof.note("s1", "l1", max_stacks=2, max_frames=2)
        prof.note("s2", "l2", max_stacks=2, max_frames=2)
        prof.note("s3", "l3", max_stacks=2, max_frames=2)
        prof.note("s1", "l1", max_stacks=2, max_frames=2)
        assert prof.stacks == {"s1": 2, "s2": 1, OTHER_STACK: 1}
        # Frame cap silently drops new leaves past the bound.
        assert set(prof.top_frames) == {"l1", "l2"}
        assert prof.top_frames["l1"] == 2

    def test_duty_discipline_stretches_interval(self):
        # At hz=10 000 the per-sample cost alone forces the sampler to
        # run far below nominal rate: effective duty stays bounded.
        prof = SamplingProfiler(hz=10_000.0, max_duty=0.01)
        with prof:
            time.sleep(0.4)
        assert prof.samples < 1_000  # nominal would be ~4 000
        assert prof.sample_seconds <= 0.4 * 0.05  # generous 5x slack

    def test_a_sweep_waiting_off_cpu_is_not_sampler_compute(self, monkeypatch):
        # A sweep that waits (for the interpreter, for /proc) costs the
        # sampler's thread no CPU: it neither counts as the sampler's
        # compute nor stretches the next interval past the period.
        prof = SamplingProfiler(hz=50.0, max_duty=0.03)
        monkeypatch.setattr(prof, "_sample_once", lambda elapsed: time.sleep(0.02))
        waits = []

        class _ThreeSweeps:
            def wait(self, timeout):
                waits.append(timeout)
                return len(waits) > 3

        prof._stop = _ThreeSweeps()
        prof._run()
        assert prof.sample_seconds < 0.005
        assert waits == [pytest.approx(1 / 50.0)] * 4


class TestWindows:
    def test_window_age_before_any_window(self):
        assert SamplingProfiler().window_age() == -1.0

    def test_rotation_stores_last_window_delta(self):
        prof = SamplingProfiler(hz=500.0, window_seconds=0.1)
        with prof:
            with _OwnedSpinner("hot[0]"):
                # Poll rather than sleep a fixed budget: the sampler is
                # duty-throttled and shares the machine with the rest of
                # the suite, so sweep cadence is not ours to assume.
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    section = prof.snapshot(stacks=False)
                    if section["window"]["index"] >= 1 and "hot" in section["operators"]:
                        break
                    time.sleep(0.05)
        section = prof.snapshot(stacks=False)
        assert section["window"]["index"] >= 1
        assert section["window"]["age_seconds"] >= 0.0
        # What a flight dump carries: the same profile (mergeable
        # as-is) without the stacks, leaf frames bounded.
        hot = section["operators"]["hot"]
        assert "stacks" not in hot
        assert 1 <= len(hot["top_frames"]) <= prof.max_frames
        assert prof.snapshot()["operators"]["hot"]["stacks"]


class TestRenderers:
    OPS = {
        "relay": {
            "kind": "operator",
            "samples": 4,
            "cpu_seconds": 2.0,
            "wall_seconds": 3.0,
            "stacks": {"a.py:f;b.py:g": 3, "a.py:f": 1},
            "top_frames": {"b.py:g": 3, "a.py:f": 1},
        },
        "neptune-flush": {
            "kind": "runtime",
            "samples": 1,
            "cpu_seconds": 0.5,
            "wall_seconds": 0.5,
            "stacks": {"c.py:h": 1},
            "top_frames": {"c.py:h": 1},
        },
    }

    def test_collapsed_format(self):
        text = collapsed(self.OPS)
        lines = text.splitlines()
        assert "relay;a.py:f 1" in lines
        assert "relay;a.py:f;b.py:g 3" in lines
        assert "neptune-flush;c.py:h 1" in lines
        assert text.endswith("\n")
        assert collapsed({}) == ""

    def test_speedscope_schema(self):
        doc = speedscope(self.OPS, name="t")
        json.dumps(doc)
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        assert doc["name"] == "t"
        frames = doc["shared"]["frames"]
        assert all(isinstance(f["name"], str) for f in frames)
        names = [f["name"] for f in frames]
        assert len(names) == len(set(names))  # interned once
        for prof in doc["profiles"]:
            assert prof["type"] == "sampled"
            assert prof["unit"] == "seconds"
            assert len(prof["samples"]) == len(prof["weights"])
            for stack in prof["samples"]:
                assert all(0 <= i < len(frames) for i in stack)

    def test_speedscope_weights_total_matches_cpu_exactly(self):
        doc = speedscope(self.OPS)
        by_name = {p["name"]: p for p in doc["profiles"]}
        for label, info in self.OPS.items():
            total = sum(by_name[label]["weights"])
            assert total == pytest.approx(info["cpu_seconds"], rel=1e-12)
            assert by_name[label]["endValue"] == info["cpu_seconds"]


class TestExportAgreement:
    """Acceptance: the speedscope dump's per-operator totals agree with
    the ``neptune_profile_cpu_seconds_total`` series."""

    def test_series_snapshot_and_speedscope_agree(self):
        obs = RuntimeObserver()
        prof = SamplingProfiler(hz=500.0)
        obs.profiler = prof
        with prof:
            with _OwnedSpinner("hot[0]"):
                time.sleep(0.25)
        # Stopped: snapshot and export read the same frozen aggregates.
        snap = prof.snapshot()
        bridge.scrape_observer(obs)
        series = {
            dict(s.labels or ())["operator"]: s.value
            for s in obs.registry.collect()
            if s.name == "neptune_profile_cpu_seconds_total"
        }
        doc = speedscope(snap["operators"])
        for p in doc["profiles"]:
            assert sum(p["weights"]) == pytest.approx(series[p["name"]], rel=1e-9)
        assert "hot" in series


class TestMerge:
    def _snap(self, label, cpu, samples=10, mode="task-stat"):
        return {
            "state": "dormant",
            "cpu_mode": mode,
            "samples": samples,
            "operators": {
                label: {
                    "kind": "operator",
                    "samples": samples,
                    "cpu_seconds": cpu,
                    "wall_seconds": cpu,
                    "off_cpu_seconds": 0.0,
                    "stacks": {"a.py:f": samples},
                    "top_frames": {"a.py:f": samples},
                }
            },
        }

    def test_merge_sums_and_records_workers(self):
        merged = merge_profile_snapshots(
            {"0": self._snap("hot", 1.0), "1": self._snap("hot", 2.0)}
        )
        assert merged["state"] == "merged"
        assert merged["workers"] == ["0", "1"]
        hot = merged["operators"]["hot"]
        assert hot["cpu_seconds"] == pytest.approx(3.0)
        assert hot["samples"] == 20
        assert hot["stacks"]["a.py:f"] == 20
        assert hot["workers"] == ["0", "1"]
        assert merged["cpu_mode"] == "task-stat"

    def test_mixed_modes_reported(self):
        merged = merge_profile_snapshots(
            {"0": self._snap("a", 1.0), "1": self._snap("b", 1.0, mode="wall")}
        )
        assert merged["cpu_mode"] == "mixed"


class TestThreadNaming:
    """Satellite: every runtime-spawned thread carries the stable
    ``neptune-`` prefix, so profile labels never depend on pool
    defaults like ``Thread-7``."""

    def test_no_unnamed_runtime_threads_after_launch(self):
        before = {t.ident for t in threading.enumerate()}
        obs = RuntimeObserver()
        g = StreamProcessingGraph(
            "naming", config=NeptuneConfig(buffer_capacity=64, buffer_max_delay=0.001)
        )
        g.add_source("src", lambda: CountingSource(total=None, payload_size=16))
        g.add_processor("relay", RelayProcessor)
        g.link("src", "relay")
        with NeptuneRuntime(observer=obs) as rt:
            rt.submit(g)
            deadline = time.monotonic() + 5.0
            spawned = []
            while time.monotonic() < deadline:
                spawned = [
                    t for t in threading.enumerate() if t.ident not in before
                ]
                if len(spawned) >= 2:
                    break
                time.sleep(0.01)
            assert spawned, "runtime spawned no threads"
            offenders = [t.name for t in spawned if not t.name.startswith("neptune")]
            assert offenders == [], f"unnamed/foreign runtime threads: {offenders}"

    def test_profiler_thread_is_named(self):
        prof = SamplingProfiler(hz=100.0)
        with prof:
            names = [t.name for t in threading.enumerate()]
            assert "neptune-profiler" in names


class TestPrometheusConformance:
    def test_profile_series_lines_parse(self):
        from test_observe_export_conformance import METRIC_NAME, SAMPLE_LINE

        obs = RuntimeObserver()
        prof = SamplingProfiler(hz=500.0)
        obs.profiler = prof
        with prof:
            with _OwnedSpinner("hot[0]"):
                time.sleep(0.15)
        bridge.scrape_observer(obs)
        text = to_prometheus(obs.registry)
        assert "neptune_profile_cpu_seconds_total" in text
        assert "neptune_profile_sampler_state" in text
        profile_lines = [
            l
            for l in text.splitlines()
            if l.startswith("neptune_profile_") and not l.startswith("#")
        ]
        assert profile_lines
        for line in profile_lines:
            assert SAMPLE_LINE.match(line), f"unparseable: {line!r}"
        for sample in obs.registry.collect():
            assert METRIC_NAME.match(sample.name), sample.name
        # Frame labels carry file:qualname values — escaped, parseable.
        assert any("frame=" in l for l in profile_lines)
