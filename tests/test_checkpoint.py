"""Tests for operator-state checkpointing (§VI future-work feature)."""

import time

import pytest

from repro.core import NeptuneConfig, NeptuneRuntime, StreamProcessingGraph
from repro.core.checkpoint import Checkpoint
from repro.core.operators import StreamProcessor
from repro.util.errors import JobStateError
from repro.workloads import CountingSource, RELAY_SCHEMA


class CountingState(StreamProcessor):
    """A stateful processor that counts packets per instance."""

    def __init__(self):
        super().__init__()
        self.count = 0
        self.restored_from = None

    def process(self, packet, ctx):
        self.count += 1

    def snapshot_state(self):
        return {"count": self.count}

    def restore_state(self, state):
        self.count = state["count"]
        self.restored_from = state["count"]

    def output_schema(self, stream):
        raise KeyError(stream)


def counting_graph(total, sinks):
    g = StreamProcessingGraph(
        "ckpt", config=NeptuneConfig(buffer_capacity=1024, buffer_max_delay=0.003)
    )
    g.add_source("src", lambda: CountingSource(total=total))
    g.add_processor("count", lambda: sinks.setdefault("op", CountingState()))
    g.link("src", "count")
    return g


class TestCheckpointCapture:
    def test_checkpoint_after_completion(self):
        sinks = {}
        g = counting_graph(500, sinks)
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            assert h.await_completion(timeout=60)
            ckpt = h.checkpoint()
        assert ckpt.job_name == "ckpt"
        assert ckpt.state_for("count", 0) == {"count": 500}
        assert ckpt.instances == 1

    def test_checkpoint_while_running_is_consistent(self):
        sinks = {}
        g = counting_graph(None, sinks)  # endless
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            deadline = time.monotonic() + 10
            while (not sinks or sinks["op"].count < 50) and time.monotonic() < deadline:
                time.sleep(0.005)
            ckpt = h.checkpoint()
            h.stop(timeout=30)
        state = ckpt.state_for("count", 0)
        assert state is not None and state["count"] >= 50

    def test_operators_without_hooks_are_skipped(self):
        from repro.workloads import CollectingSink

        g = StreamProcessingGraph(
            "plain", config=NeptuneConfig(buffer_capacity=1024)
        )
        g.add_source("src", lambda: CountingSource(total=10))
        g.add_processor("sink", CollectingSink)
        g.link("src", "sink")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            h.await_completion(timeout=30)
            ckpt = h.checkpoint()
        assert ckpt.instances == 0


class TestQuiescedConsistency:
    def test_quiesced_checkpoint_has_no_inflight_gap(self):
        """At a quiesced checkpoint, the source's emitted count and the
        processor's processed count agree exactly — the consistent cut
        that makes recovery exactly-once."""
        sinks = {}
        src_holder = {}

        def make_source():
            src = CountingSource(total=None)
            src_holder["src"] = src
            return src

        g = StreamProcessingGraph(
            "quiesce", config=NeptuneConfig(buffer_capacity=1024, buffer_max_delay=0.003)
        )
        g.add_source("src", make_source)
        g.add_processor("count", lambda: sinks.setdefault("op", CountingState()))
        g.link("src", "count")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            deadline = time.monotonic() + 10
            while (not sinks or sinks["op"].count < 200) and time.monotonic() < deadline:
                time.sleep(0.005)
            ckpt = h.checkpoint()
            emitted_at_ckpt = src_holder["src"].emitted
            state = ckpt.state_for("count", 0)
            # The source resumes afterwards (paused only during the cut).
            resumed_deadline = time.monotonic() + 10
            while (
                src_holder["src"].emitted <= emitted_at_ckpt
                and time.monotonic() < resumed_deadline
            ):
                time.sleep(0.005)
            resumed = src_holder["src"].emitted > emitted_at_ckpt
            h.stop(timeout=30)
        assert state["count"] == emitted_at_ckpt  # consistent cut
        assert resumed  # sources unpaused after the checkpoint

    def test_quiesce_timeout_raises(self):
        """A processor that never drains makes the quiesce time out."""
        import pytest as _pytest

        class Stuck(CountingState):
            def process(self, packet, ctx):
                time.sleep(0.2)
                super().process(packet, ctx)

        sinks = {}
        g = StreamProcessingGraph(
            "stuck", config=NeptuneConfig(buffer_capacity=1024, buffer_max_delay=0.003)
        )
        g.add_source("src", lambda: CountingSource(total=None))
        g.add_processor("count", lambda: sinks.setdefault("op", Stuck()))
        g.link("src", "count")
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            time.sleep(0.2)
            with _pytest.raises(JobStateError, match="quiesce"):
                h.checkpoint(timeout=0.3)
            h.stop(timeout=60)


class TestRestore:
    def test_restore_rehydrates_state(self):
        sinks = {}
        g = counting_graph(300, sinks)
        with NeptuneRuntime() as rt:
            h = rt.submit(g)
            assert h.await_completion(timeout=60)
            ckpt = h.checkpoint()

        # "Crash" and recover: a fresh job resumes from the snapshot.
        sinks2 = {}
        g2 = counting_graph(100, sinks2)
        with NeptuneRuntime() as rt:
            h2 = rt.submit(g2, restore_from=ckpt)
            assert h2.await_completion(timeout=60)
        op = sinks2["op"]
        assert op.restored_from == 300
        assert op.count == 400  # 300 restored + 100 reprocessed

    def test_restore_ignores_missing_entries(self):
        sinks = {}
        g = counting_graph(50, sinks)
        empty = Checkpoint(job_name="other", taken_at=0.0)
        with NeptuneRuntime() as rt:
            h = rt.submit(g, restore_from=empty)
            assert h.await_completion(timeout=30)
        assert sinks["op"].count == 50
        assert sinks["op"].restored_from is None


class TestPersistence:
    def test_save_and_load(self, tmp_path):
        ckpt = Checkpoint(job_name="j", taken_at=123.0)
        ckpt.states[("op", 0)] = {"count": 7, "window": [1.0, 2.0]}
        path = str(tmp_path / "job.ckpt")
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.job_name == "j"
        assert loaded.state_for("op", 0) == {"count": 7, "window": [1.0, 2.0]}

    def test_load_rejects_non_checkpoint(self, tmp_path):
        import pickle

        path = str(tmp_path / "junk.pkl")
        with open(path, "wb") as fh:
            pickle.dump({"not": "a checkpoint"}, fh)
        with pytest.raises(JobStateError):
            Checkpoint.load(path)
