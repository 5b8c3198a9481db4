#!/usr/bin/env python3
"""True multi-process deployment via the ``repro.cluster`` coordinator.

The paper's deployment unit is a Granules resource per machine.  This
example shards the Fig. 1 relay across two worker *processes* (their
own interpreters — no shared GIL) and drives them from this parent
process: the :class:`~repro.cluster.ClusterCoordinator` plans the
shards, reserves ports, spawns the workers (``multiprocessing`` spawn
context), wires their data planes together, and takes the job through
its lifecycle over each worker's control port: one blocking command per
worker waits for its sources, then the global drain.

Stream frames flow worker-to-worker over Unix-domain sockets here
(``fabric="unix"`` — same framing/ack/replay protocol as TCP, no TCP
stack in the path); switch to ``fabric="tcp"`` for the loopback-TCP
data plane, which is what a multi-host deployment would use.

The same topology runs from the command line (``run --workers 2`` is
the same deployment with the default TCP fabric):

    python -m repro.cli cluster launch examples/descriptors/fig1_relay.json \
        --workers 2 --fabric unix

Run:  python examples/multiprocess_cluster.py
"""

from repro.cluster import ClusterCoordinator
from repro.core import StreamProcessingGraph
from repro.core.graph import descriptor_factory

TOTAL = 5_000


def build_graph() -> StreamProcessingGraph:
    graph = StreamProcessingGraph("multiprocess-relay")
    graph.add_source(
        "sender",
        descriptor_factory(
            "repro.workloads.operators:CountingSource",
            total=TOTAL,
            payload_size=100,
        ),
    )
    graph.add_processor(
        "relay", descriptor_factory("repro.workloads.operators:RelayProcessor")
    )
    graph.add_processor(
        "receiver",
        descriptor_factory("repro.workloads.operators:CollectingSink"),
    )
    graph.link("sender", "relay").link("relay", "receiver")
    return graph


def main():
    coordinator = ClusterCoordinator(build_graph(), n_workers=2, fabric="unix")
    try:
        coordinator.launch(connect_timeout=120)
        for entry in coordinator.status():
            host, port = entry["endpoint"]
            print(
                f"worker {entry['worker_id']} pid={entry['pid']} data={host}"
                + (f":{port}" if port else "")
            )
        ok = coordinator.await_completion(timeout=180)
        print(f"coordinated drain complete: {ok}")
        metrics = coordinator.metrics()
        delivered = metrics["receiver"]["packets_in"]
        print(f"delivered {delivered}/{TOTAL} packets across the shard fabric")
        assert ok
        assert delivered == TOTAL
    finally:
        coordinator.terminate()


if __name__ == "__main__":
    main()
