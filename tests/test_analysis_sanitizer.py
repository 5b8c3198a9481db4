"""Lock-order sanitizer tests: recording, witnesses, cross-validation."""

import threading

import pytest

from repro.analysis.sanitizer import (
    MAX_EDGES,
    CrossValidation,
    InstrumentedLock,
    LockOrderSanitizer,
    Witness,
    calibrate,
    calibrate_recording,
    cross_validate,
    witness_report,
)


class TestInstallation:
    def test_install_uninstall_restores_factories(self):
        real_lock, real_rlock = threading.Lock, threading.RLock
        san = LockOrderSanitizer()
        san.install()
        try:
            assert threading.Lock is not real_lock
            assert isinstance(threading.Lock(), InstrumentedLock)
            assert isinstance(threading.RLock(), InstrumentedLock)
        finally:
            san.uninstall()
        assert threading.Lock is real_lock
        assert threading.RLock is real_rlock

    def test_install_is_idempotent(self):
        real_lock = threading.Lock
        san = LockOrderSanitizer()
        with san:
            san.install()  # second install must not capture the patch
        assert threading.Lock is real_lock
        san.uninstall()  # and a second uninstall is a no-op
        assert threading.Lock is real_lock

    def test_context_manager_form(self):
        real_lock = threading.Lock
        with LockOrderSanitizer() as san:
            lock = threading.Lock()
            with lock:
                pass
        assert threading.Lock is real_lock
        assert san.witness().acquires == 1


class TestRecording:
    def test_nested_acquire_records_directed_edge(self):
        with LockOrderSanitizer() as san:

            class Pair:
                def __init__(self):
                    self._outer = threading.Lock()
                    self._inner = threading.Lock()

            pair = Pair()
            with pair._outer:
                with pair._inner:
                    pass
        witness = san.witness()
        assert witness.edges == {("Pair._outer", "Pair._inner"): 1}
        assert witness.acquires == 2
        assert witness.dropped_edges == 0

    def test_fast_path_records_no_edges(self):
        # Disjoint (non-nested) acquisitions never touch the edge map.
        with LockOrderSanitizer() as san:
            a, b = threading.Lock(), threading.Lock()
            for _ in range(10):
                with a:
                    pass
                with b:
                    pass
        witness = san.witness()
        assert witness.edges == {}
        assert witness.acquires == 20

    def test_rlock_reentry_is_not_an_edge(self):
        with LockOrderSanitizer() as san:

            class Box:
                def __init__(self):
                    self._lock = threading.RLock()

            box = Box()
            with box._lock:
                with box._lock:  # re-entry: no Box._lock -> Box._lock edge
                    pass
        assert san.witness().edges == {}

    def test_edge_counts_accumulate(self):
        with LockOrderSanitizer() as san:
            a, b = threading.Lock(), threading.Lock()
            for _ in range(3):
                with a:
                    with b:
                        pass
        (count,) = san.witness().edges.values()
        assert count == 3

    def test_condition_over_instrumented_lock(self):
        # Condition probes _is_owned()/acquire on the wrapped lock; the
        # wrapper must delegate so wait/notify keep working.
        with LockOrderSanitizer() as san:

            class Gate:
                def __init__(self):
                    self._lock = threading.RLock()
                    self._cond = threading.Condition(self._lock)

            gate = Gate()
            with gate._cond:
                gate._cond.notify_all()
        assert san.witness().acquires >= 1

    def test_anonymous_lock_gets_file_line_label(self):
        with LockOrderSanitizer() as san:
            lock = threading.Lock()  # not a self.attr assignment
            other = threading.Lock()
            with lock:
                with other:
                    pass
        ((held, acquired),) = san.witness().edges
        assert ":" in held and ":" in acquired  # file:line fallback


class TestWitness:
    def test_json_round_trip(self, tmp_path):
        witness = Witness(
            edges={("A.x", "A.y"): 3, ("B.z", "A.x"): 1},
            acquires=42,
            duration=1.5,
            dropped_edges=2,
        )
        path = tmp_path / "w.json"
        witness.dump(str(path))
        loaded = Witness.load(str(path))
        assert loaded == witness

    def test_max_edges_bound_reports_drops(self):
        san = LockOrderSanitizer()
        san._edges = {(f"L{i}", f"L{i+1}"): 1 for i in range(MAX_EDGES)}
        san._held.stack.append("held")
        san._held.epoch = san._epoch  # hand-seeded stack: pin the window
        san._note_acquire("one-too-many")
        san._note_release("one-too-many")
        witness = san.witness()
        assert len(witness.edges) == MAX_EDGES
        assert witness.dropped_edges == 1


class TestDutyCycling:
    def test_duty_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            LockOrderSanitizer(duty=1.5)
        with pytest.raises(ValueError):
            LockOrderSanitizer(duty=-0.1)

    def test_dormant_sanitizer_wraps_but_records_nothing(self):
        # duty=0 is the bench `sanitizer` row's off arm: locks are still
        # instrumented (same indirection cost) but no acquire is noted.
        san = LockOrderSanitizer(duty=0.0)
        san.install()
        try:
            assert san._toggle_thread is None
            outer, inner = threading.Lock(), threading.Lock()
            assert isinstance(outer, InstrumentedLock)
            for _ in range(5):
                with outer:
                    with inner:
                        pass
        finally:
            san.uninstall()
        witness = san.witness()
        assert witness.acquires == 0
        assert witness.edges == {}

    def test_duty_cycled_recording_catches_recurring_edges(self):
        import time

        san = LockOrderSanitizer(duty=0.5, window=0.01)
        san.install()
        try:
            assert san._toggle_thread is not None
            assert san._toggle_thread.is_alive()
            outer = threading.Lock()
            inner = threading.Lock()  # separate lines: distinct labels
            deadline = time.monotonic() + 5.0
            while san.witness().acquires == 0 and time.monotonic() < deadline:
                for _ in range(50):
                    with outer:
                        with inner:
                            pass
        finally:
            san.uninstall()
        assert san._toggle_thread is None  # uninstall joined the toggler
        witness = san.witness()
        # Structural edges recur every packet, so sampled windows see
        # them; nothing but the real nesting may appear.
        assert witness.acquires > 0
        for held, acquired in witness.edges:
            assert held != acquired

    def test_stale_stack_is_invalidated_across_windows(self):
        # A lock still held when a recording window closes must not pair
        # with acquisitions seen in a later window: only same-window
        # nesting is a real order edge.
        san = LockOrderSanitizer()
        san._note_acquire("A")
        san._epoch += 1  # window boundary while A is held
        san._note_acquire("B")
        san._note_release("B")
        assert san.witness().edges == {}

    def test_rlock_reentry_across_window_boundary_is_not_an_edge(self):
        # Depth is tracked even while dormant: a first acquire in a
        # dormant window followed by an active-window re-entry must not
        # record a bogus self-edge.
        san = LockOrderSanitizer()
        lock = InstrumentedLock(san, "Pool._lock", reentrant=True)
        san._active = False
        lock.acquire()
        san._active = True
        lock.acquire()
        lock.release()
        lock.release()
        assert san.witness().edges == {}
        assert san.witness().acquires == 0

    def test_calibrate_recording_is_sane(self):
        marginal = calibrate_recording(iterations=2_000)
        assert marginal >= 0.0
        assert marginal < 1e-4


class TestCrossValidation:
    STATIC = {
        ("A.x", "A.y"): ("f.py", "m1", 1),
        ("A.y", "A.x"): ("f.py", "m2", 2),
        ("C.p", "C.q"): ("f.py", "m3", 3),
        ("C.q", "C.p"): ("f.py", "m4", 4),
    }

    def test_three_buckets(self):
        witness = Witness(
            edges={
                ("A.x", "A.y"): 1,  # confirmed cycle half...
                ("A.y", "A.x"): 1,  # ...and back
                ("B.u", "B.v"): 1,  # witnessed-only cycle
                ("B.v", "B.u"): 1,
            }
        )
        merged = cross_validate(witness, self.STATIC)
        assert len(merged.confirmed) == 1
        assert set(merged.confirmed[0]) == {"A.x", "A.y"}
        assert len(merged.witnessed_only) == 1
        assert set(merged.witnessed_only[0]) == {"B.u", "B.v"}
        assert len(merged.static_only) == 1
        assert set(merged.static_only[0]) == {"C.p", "C.q"}
        assert ("B.u", "B.v") in merged.unpredicted_edges

    def test_empty_witness_keeps_static_findings(self):
        merged = cross_validate(Witness(), self.STATIC)
        assert merged.confirmed == [] and merged.witnessed_only == []
        assert len(merged.static_only) == 2

    def test_acyclic_witness_is_clean(self):
        witness = Witness(edges={("A.x", "A.y"): 5, ("A.y", "A.z"): 5})
        merged = cross_validate(witness, {})
        assert merged == CrossValidation(
            unpredicted_edges=[("A.x", "A.y"), ("A.y", "A.z")]
        )

    def test_report_severities(self):
        witness = Witness(
            edges={
                ("A.x", "A.y"): 1,
                ("A.y", "A.x"): 1,
                ("B.u", "B.v"): 1,
                ("B.v", "B.u"): 1,
            }
        )
        report = witness_report(witness, self.STATIC)
        by_message = {
            d.message.split(":")[0]: d.severity for d in report.diagnostics
        }
        assert len(report) == 3
        assert report.count("NEPL203") == 3
        assert "CONFIRMED" in "".join(d.message for d in report.errors())
        severities = [d.severity.name for d in report.diagnostics]
        assert severities.count("ERROR") == 2 and severities.count("INFO") == 1
        assert by_message  # messages are non-empty and distinct


class TestStaticEdgeExtraction:
    def test_static_order_edges_from_source(self, tmp_path):
        # The lint's NEPL203 fixture has a cycle; its edge set must be
        # consumable by cross_validate directly.
        import glob
        import os

        from repro.analysis.lint import collect_models
        from repro.analysis.lintrules import static_order_edges

        fixture = glob.glob(
            os.path.join(
                os.path.dirname(__file__), "fixtures", "lint", "nepl203_*.py"
            )
        )
        edges = static_order_edges(collect_models(fixture))
        merged = cross_validate(Witness(), edges)
        assert merged.static_only, "nepl203 fixture cycle not extracted"


def test_calibrate_returns_small_nonnegative_overhead():
    overhead = calibrate(iterations=2_000)
    assert overhead >= 0.0
    assert overhead < 1e-4  # sub-100µs per acquire on any plausible box


@pytest.mark.slow
def test_runtime_pipeline_runs_under_sanitizer():
    """End-to-end: a real pipeline under instrumentation still delivers,
    and the witness sees the runtime's own locks by name."""
    with LockOrderSanitizer() as san:
        from repro.core import NeptuneConfig, NeptuneRuntime, StreamProcessingGraph
        from repro.core.graph import descriptor_factory

        graph = StreamProcessingGraph(
            "san-smoke", config=NeptuneConfig(buffer_capacity=64)
        )
        graph.add_source(
            "src",
            descriptor_factory(
                "repro.workloads.operators:CountingSource",
                total=200,
                payload_size=16,
            ),
        )
        graph.add_processor(
            "sink", descriptor_factory("repro.workloads.operators:CollectingSink")
        )
        graph.link("src", "sink")
        with NeptuneRuntime() as runtime:
            handle = runtime.submit(graph)
            assert handle.await_completion(timeout=30.0)
            assert handle.failures == {}
    witness = san.witness()
    assert witness.acquires > 0
    assert witness.dropped_edges == 0
