"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import Interrupt, Simulator


class TestScheduling:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        log = []

        def proc():
            yield 1.5
            log.append(sim.now)
            yield 0.5
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [1.5, 2.0]

    def test_deterministic_tie_break(self):
        sim = Simulator()
        log = []

        def proc(tag):
            yield 1.0
            log.append(tag)

        for tag in "abc":
            sim.process(proc(tag))
        sim.run()
        assert log == ["a", "b", "c"]  # schedule order breaks ties

    def test_run_until(self):
        sim = Simulator()
        log = []

        def ticker():
            while True:
                yield 1.0
                log.append(sim.now)

        sim.process(ticker())
        sim.run(until=3.5)
        assert log == [1.0, 2.0, 3.0]
        assert sim.now == 3.5

    def test_negative_delay_rejected(self):
        sim = Simulator()

        def bad():
            yield -1.0

        sim.process(bad())
        with pytest.raises(ValueError):
            sim.run()

    def test_bad_yield_type_rejected(self):
        sim = Simulator()

        def bad():
            yield "nope"

        sim.process(bad())
        with pytest.raises(TypeError):
            sim.run()

    def test_call_at(self):
        sim = Simulator()
        hits = []
        sim.call_at(2.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [2.0]

    def test_call_at_past_rejected(self):
        sim = Simulator()

        def idle():
            yield 5.0

        sim.process(idle())
        sim.run()
        assert sim.now == 5.0
        with pytest.raises(ValueError):
            sim.call_at(1.0, lambda: None)


class TestEvents:
    def test_wait_on_event_receives_value(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def waiter():
            value = yield ev
            got.append((sim.now, value))

        def trigger():
            yield 2.0
            ev.succeed("payload")

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert got == [(2.0, "payload")]

    def test_wait_on_already_triggered_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(42)
        got = []

        def waiter():
            got.append((yield ev))

        sim.process(waiter())
        sim.run()
        assert got == [42]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_timeout_event_value(self):
        sim = Simulator()
        got = []

        def waiter():
            got.append((yield sim.timeout(3.0, "late")))

        sim.process(waiter())
        sim.run()
        assert got == ["late"]
        assert sim.now == 3.0


class TestProcesses:
    def test_wait_on_process_result(self):
        sim = Simulator()

        def child():
            yield 1.0
            return "done"

        got = []

        def parent():
            result = yield sim.process(child())
            got.append((sim.now, result))

        sim.process(parent())
        sim.run()
        assert got == [(1.0, "done")]

    def test_wait_on_finished_process(self):
        sim = Simulator()

        def child():
            return "fast"
            yield  # pragma: no cover

        proc = sim.process(child())
        sim.run()
        got = []

        def parent():
            got.append((yield proc))

        sim.process(parent())
        sim.run()
        assert got == ["fast"]

    def test_interrupt_raises_in_process(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield 100.0
            except Interrupt as i:
                log.append(("interrupted", sim.now, i.cause))

        proc = sim.process(sleeper())

        def killer():
            yield 2.0
            proc.interrupt("shutdown")

        sim.process(killer())
        sim.run()
        assert log == [("interrupted", 2.0, "shutdown")]

    def test_interrupt_while_waiting_on_event(self):
        sim = Simulator()
        ev = sim.event()
        log = []

        def waiter():
            try:
                yield ev
            except Interrupt:
                log.append(sim.now)

        proc = sim.process(waiter())

        def killer():
            yield 1.0
            proc.interrupt()

        sim.process(killer())
        sim.run()
        assert log == [1.0]
        # The interrupted process must no longer be woken by the event.
        ev.succeed()
        sim.run()
        assert log == [1.0]

    def test_unhandled_interrupt_terminates_quietly(self):
        sim = Simulator()

        def sleeper():
            yield 100.0

        proc = sim.process(sleeper())
        proc.interrupt()
        sim.run()
        assert proc.finished

    def test_yield_none_reschedules(self):
        sim = Simulator()
        order = []

        def a():
            order.append("a1")
            yield None
            order.append("a2")

        def b():
            order.append("b1")
            yield None
            order.append("b2")

        sim.process(a())
        sim.process(b())
        sim.run()
        assert order == ["a1", "b1", "a2", "b2"]
        assert sim.now == 0.0
