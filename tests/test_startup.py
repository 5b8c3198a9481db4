"""One construction per operator instance.

``validate()`` builds an operator to read its output schema; that object
is the operator's instance 0 when the graph is wired, so a job calls
each factory exactly ``parallelism`` times, and no two jobs of one graph
share an operator object.
"""

from repro.core.distributed import DistributedJob
from repro.core.graph import StreamProcessingGraph
from repro.core.runtime import NeptuneRuntime
from repro.workloads import CollectingSink, CountingSource, RelayProcessor

PARALLELISM = {"source": 1, "relay": 3, "sink": 1}


class Built:
    """Every operator object a graph's factories built, by operator."""

    def __init__(self) -> None:
        self.objects: dict[str, list] = {name: [] for name in PARALLELISM}

    def factory(self, name, cls, **kwargs):
        def build():
            op = cls(**kwargs)
            self.objects[name].append(op)
            return op

        return build

    def calls(self) -> dict[str, int]:
        return {name: len(objs) for name, objs in self.objects.items()}

    def all(self) -> list:
        return [op for objs in self.objects.values() for op in objs]


def counted_graph(total: int = 60) -> tuple[StreamProcessingGraph, Built]:
    built = Built()
    g = StreamProcessingGraph("startup")
    g.add_source("source", built.factory("source", CountingSource, total=total))
    g.add_processor(
        "relay", built.factory("relay", RelayProcessor), parallelism=PARALLELISM["relay"]
    )
    g.add_processor("sink", built.factory("sink", CollectingSink))
    g.link("source", "relay").link("relay", "sink")
    return g, built


def job_operators(handle) -> list:
    return [inst.operator for inst in handle._job.all_instances()]


def run(runtime, graph):
    handle = runtime.submit(graph)
    assert handle.await_completion(timeout=30) and not handle.failures
    return handle


class TestOneConstructionPerInstance:
    def test_submit_calls_each_factory_parallelism_times(self):
        g, built = counted_graph()
        with NeptuneRuntime() as runtime:
            handle = run(runtime, g)
        assert built.calls() == PARALLELISM
        assert sorted(map(id, job_operators(handle))) == sorted(map(id, built.all()))

    def test_validating_first_builds_nothing_extra(self):
        g, built = counted_graph()
        g.validate()
        # The probes validate() built to read schemas ...
        assert built.calls() == {"source": 1, "relay": 1, "sink": 1}
        probes = built.all()
        with NeptuneRuntime() as runtime:
            handle = run(runtime, g)
        # ... are the job's instances 0, and only the rest were built.
        assert built.calls() == PARALLELISM
        zeros = [i.operator for i in handle._job.all_instances() if i.index == 0]
        assert sorted(map(id, zeros)) == sorted(map(id, probes))

    def test_a_second_submit_builds_fresh_operators(self):
        g, built = counted_graph()
        with NeptuneRuntime() as runtime:
            first = job_operators(run(runtime, g))
            second = job_operators(run(runtime, g))
        assert built.calls() == {name: 2 * p for name, p in PARALLELISM.items()}
        assert not {id(op) for op in first} & {id(op) for op in second}

    def test_a_graph_changed_after_validation_builds_fresh_probes(self):
        g, built = counted_graph()
        g.validate()
        stale = built.all()
        g.add_processor("tap", CollectingSink)
        g.link("relay", "tap")
        with NeptuneRuntime() as runtime:
            handle = run(runtime, g)
        ops = job_operators(handle)
        assert not {id(op) for op in stale} & {id(op) for op in ops}

    def test_a_distributed_worker_hosting_instance_0_takes_the_probe(self):
        g, built = counted_graph()
        job = DistributedJob(g, n_workers=2)
        hosts = {
            name: next(w for w in job.workers if w.plan.worker_of(name, 0) == w.worker_id)
            for name in PARALLELISM
        }
        job.start()
        try:
            assert job.await_completion(timeout=60)
        finally:
            job.stop()
        assert built.calls() == PARALLELISM
        for name, worker in hosts.items():
            (zero,) = [
                i for i in worker.job.instances[name] if i.index == 0
            ]
            assert zero.operator is built.objects[name][0]
