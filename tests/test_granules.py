"""Tests for the Granules substrate: datasets, tasks, strategies, resources."""

import threading
import time

import pytest

from repro.granules import (
    CombinedStrategy,
    ComputationalTask,
    CountBasedStrategy,
    DataDrivenStrategy,
    PeriodicStrategy,
    QueueDataset,
    Resource,
    SchedulingStrategy,
    TaskState,
)
from repro.util import ManualClock


class CollectTask(ComputationalTask):
    """Drains its input queue into a list on every execution."""

    def __init__(self, task_id, queue):
        super().__init__(task_id)
        self.queue = queue
        self.attach_dataset(queue)
        self.seen = []
        self.initialized = False
        self.terminated = False

    def initialize(self):
        self.initialized = True

    def terminate(self):
        self.terminated = True

    def execute(self, context=None):
        self.seen.extend(self.queue.drain())


class TickTask(ComputationalTask):
    def __init__(self, task_id="tick"):
        super().__init__(task_id)
        self.ticks = 0

    def execute(self, context=None):
        self.ticks += 1


class FailingTask(ComputationalTask):
    def execute(self, context=None):
        raise RuntimeError("boom")


def wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestQueueDataset:
    def test_put_and_drain(self):
        q = QueueDataset("q", capacity=10)
        for i in range(5):
            assert q.put(i)
        assert q.drain() == [0, 1, 2, 3, 4]
        assert len(q) == 0

    def test_drain_max_items(self):
        q = QueueDataset("q")
        for i in range(10):
            q.put(i)
        assert q.drain(max_items=3) == [0, 1, 2]
        assert len(q) == 7

    def test_put_blocks_when_full_until_drain(self):
        q = QueueDataset("q", capacity=1)
        q.put("a")
        ok = []

        def producer():
            ok.append(q.put("b", timeout=2.0))

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        assert q.drain() == ["a"]
        t.join(3.0)
        assert ok == [True]
        assert q.drain() == ["b"]

    def test_put_timeout_returns_false(self):
        q = QueueDataset("q", capacity=1)
        q.put("a")
        assert not q.put("b", timeout=0.05)

    def test_close_unblocks_producer(self):
        q = QueueDataset("q", capacity=1)
        q.put("a")
        results = []

        def producer():
            results.append(q.put("b", timeout=5.0))

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        q.close()
        t.join(2.0)
        assert results == [False]

    def test_notification_fires_on_put(self):
        q = QueueDataset("q")
        hits = []
        q.on_available(lambda ds: hits.append(ds.name))
        q.put(1)
        assert hits == ["q"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QueueDataset("q", capacity=0)


class TestStrategies:
    def test_data_driven(self):
        q = QueueDataset("q")
        task = CollectTask("t", q)
        strat = DataDrivenStrategy()
        assert not strat.should_run(task, 0.0)
        q.put(1)
        assert strat.should_run(task, 0.0)

    def test_periodic_fires_then_waits(self):
        task = TickTask()
        strat = PeriodicStrategy(interval=1.0)
        assert strat.should_run(task, 10.0)
        strat.notify_executed(task, 10.0)
        assert not strat.should_run(task, 10.5)
        assert strat.should_run(task, 11.0)
        assert strat.next_deadline(task, 10.5) == 11.0

    def test_periodic_catches_up_to_now(self):
        task = TickTask()
        strat = PeriodicStrategy(interval=1.0)
        strat.should_run(task, 0.0)
        strat.notify_executed(task, 50.0)  # long stall: next is now-based
        assert strat.next_deadline(task, 50.0) == 51.0

    def test_periodic_validation(self):
        with pytest.raises(ValueError):
            PeriodicStrategy(0)

    def test_count_based(self):
        q = QueueDataset("q")
        task = CollectTask("t", q)
        strat = CountBasedStrategy(threshold=3)
        q.put(1), q.put(2)
        assert not strat.should_run(task, 0.0)
        q.put(3)
        assert strat.should_run(task, 0.0)

    def test_count_based_validation(self):
        with pytest.raises(ValueError):
            CountBasedStrategy(0)

    def test_combined_or_semantics(self):
        q = QueueDataset("q")
        task = CollectTask("t", q)
        strat = CombinedStrategy(CountBasedStrategy(5), DataDrivenStrategy())
        assert not strat.should_run(task, 0.0)
        q.put(1)
        assert strat.should_run(task, 0.0)  # data-driven side fires

    def test_combined_requires_children(self):
        with pytest.raises(ValueError):
            CombinedStrategy()

    def test_combined_min_deadline(self):
        task = TickTask()
        p1, p2 = PeriodicStrategy(5.0), PeriodicStrategy(2.0)
        strat = CombinedStrategy(p1, p2)
        strat.should_run(task, 0.0)  # prime both
        strat.notify_executed(task, 0.0)
        assert strat.next_deadline(task, 0.0) == 2.0


class TestResource:
    def test_data_driven_end_to_end(self):
        q = QueueDataset("in")
        task = CollectTask("collect", q)
        with Resource("r", workers=2) as res:
            res.launch(task, DataDrivenStrategy())
            for i in range(100):
                q.put(i)
            assert wait_for(lambda: len(task.seen) == 100)
        assert task.seen == list(range(100))
        assert task.initialized and task.terminated

    def test_data_preloaded_before_launch(self):
        q = QueueDataset("in")
        for i in range(5):
            q.put(i)
        task = CollectTask("collect", q)
        with Resource("r", workers=1) as res:
            res.launch(task, DataDrivenStrategy())
            assert wait_for(lambda: len(task.seen) == 5)

    def test_periodic_task_runs_repeatedly(self):
        task = TickTask()
        with Resource("r", workers=1) as res:
            res.launch(task, PeriodicStrategy(interval=0.01))
            assert wait_for(lambda: task.ticks >= 5)

    def test_task_failure_is_isolated(self):
        bad = FailingTask("bad")
        q = QueueDataset("in")
        good = CollectTask("good", q)
        with Resource("r", workers=1) as res:
            res.launch(bad, PeriodicStrategy(interval=0.005))
            res.launch(good, DataDrivenStrategy())
            q.put("x")
            assert wait_for(lambda: good.seen == ["x"])
            assert wait_for(lambda: "bad" in res.task_failures)
        assert bad.state is TaskState.FAILED
        assert isinstance(bad.failure, RuntimeError)

    def test_duplicate_task_id_rejected(self):
        with Resource("r", workers=1) as res:
            res.launch(TickTask("a"), PeriodicStrategy(10))
            with pytest.raises(ValueError):
                res.launch(TickTask("a"), PeriodicStrategy(10))

    def test_strategy_swap_at_runtime(self):
        task = TickTask()
        with Resource("r", workers=1) as res:
            q = QueueDataset("in")
            collect = CollectTask("c", q)
            res.launch(collect, CountBasedStrategy(threshold=1000))
            q.put("item")
            time.sleep(0.05)
            assert collect.seen == []  # threshold not met
            res.set_strategy("c", DataDrivenStrategy())
            assert wait_for(lambda: collect.seen == ["item"])

    def test_terminate_single_task(self):
        q = QueueDataset("in")
        task = CollectTask("c", q)
        with Resource("r", workers=1) as res:
            res.launch(task, DataDrivenStrategy())
            res.terminate_task("c")
            assert task.terminated
            assert q.closed

    def test_no_concurrent_self_execution(self):
        class RaceTask(ComputationalTask):
            def __init__(self):
                super().__init__("race")
                self.q = QueueDataset("in", capacity=10_000)
                self.attach_dataset(self.q)
                self.active = 0
                self.max_active = 0
                self.count = 0

            def execute(self, context=None):
                self.active += 1
                self.max_active = max(self.max_active, self.active)
                self.count += len(self.q.drain())
                time.sleep(0.001)
                self.active -= 1

        task = RaceTask()
        with Resource("r", workers=4) as res:
            res.launch(task, DataDrivenStrategy())
            for i in range(200):
                task.q.put(i)
            assert wait_for(lambda: task.count == 200)
        assert task.max_active == 1

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            Resource("r", workers=0)


class HourAway(SchedulingStrategy):
    """Never due: next due in an hour.  Counts the timer's polls."""

    def __init__(self):
        self.polls = 0
        self.polled = threading.Event()

    def should_run(self, task, now):
        return False

    def next_deadline(self, task, now):
        self.polls += 1
        self.polled.set()
        return now + 3600.0


class TestStop:
    def test_stop_does_not_wait_out_the_timer_poll(self):
        """The timer polls a deadline an hour away every 50 ms; stop()
        right after a poll must not sleep out the rest of it."""
        strategy = HourAway()
        res = Resource("r", workers=1)
        res.start()
        res.launch(TickTask(), strategy)
        strategy.polled.clear()
        assert strategy.polled.wait(5)
        t0 = time.monotonic()
        res.stop()
        assert time.monotonic() - t0 < 0.025

    def test_a_restarted_resource_runs_and_paces_its_timer(self):
        res = Resource("r", workers=1)
        res.start()
        res.stop()
        res.start()
        try:
            task = TickTask()
            res.launch(task, PeriodicStrategy(interval=0.01))
            assert wait_for(lambda: task.ticks >= 5)
            strategy = HourAway()
            res.launch(TickTask("idle"), strategy)
            time.sleep(0.2)
            # Paced by the poll cap (<= 50 ms), not spinning on a set event.
            assert strategy.polls < 100
        finally:
            res.stop()


class TestPoolGrowth:
    """The pool never has fewer threads than live tasks, and only
    ``launch`` grows it."""

    def test_default_floor_is_one(self):
        with Resource("r") as res:
            assert len(res._threads) == 1

    def test_launch_grows_pool_live(self):
        queues = [QueueDataset(f"in{i}") for i in range(3)]
        tasks = [CollectTask(f"c{i}", q) for i, q in enumerate(queues)]
        with Resource("r") as res:
            for n, task in enumerate(tasks, start=1):
                res.launch(task, DataDrivenStrategy())
                assert len(res._threads) == n
            for q in queues:
                for i in range(50):
                    q.put(i)
            assert wait_for(lambda: all(len(t.seen) == 50 for t in tasks))

    def test_floor_holds_below_task_count(self):
        with Resource("r", workers=3) as res:
            res.launch(TickTask("a"), PeriodicStrategy(10))
            assert len(res._threads) == 3
            for name in "bcd":
                res.launch(TickTask(name), PeriodicStrategy(10))
            assert len(res._threads) == 4

    def test_start_spawns_a_thread_per_task_launched_before_it(self):
        res = Resource("r")
        for name in "abc":
            res.launch(TickTask(name), PeriodicStrategy(10))
        assert res._threads == []
        with res:
            assert len(res._threads) == 3

    def test_a_terminated_task_leaves_its_thread_to_the_next(self):
        with Resource("r") as res:
            res.launch(TickTask("a"), PeriodicStrategy(10))
            res.launch(TickTask("b"), PeriodicStrategy(10))
            res.terminate_task("a")
            res.launch(TickTask("c"), PeriodicStrategy(10))
            assert len(res._threads) == 2

    def test_every_task_can_block_at_once(self):
        """A blocked emit parks its thread: with a thread per task,
        every task can be parked and the last one still runs."""
        barrier = threading.Barrier(4, timeout=5)

        class Parks(ComputationalTask):
            def __init__(self, task_id):
                super().__init__(task_id)
                self.passed = False

            def execute(self, context=None):
                if not self.passed:
                    barrier.wait()
                    self.passed = True

        tasks = [Parks(f"p{i}") for i in range(4)]
        with Resource("r") as res:
            for task in tasks:
                res.launch(task, PeriodicStrategy(interval=0.001))
            assert wait_for(lambda: all(t.passed for t in tasks))
        assert not barrier.broken
