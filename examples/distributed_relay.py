#!/usr/bin/env python3
"""The Fig. 1 relay deployed across multiple Granules resources.

"The sender and receiver are deployed in the same Granules resource
whereas the message relay was deployed in a different resource" — here
each worker is its own resource with its own thread pools; frames cross
real TCP sockets (checksummed, sequence-verified), and backpressure
propagates through the kernel's TCP flow control exactly as §III-B4
describes.  The two workers are co-hosted in this process
(``DistributedJob``, the in-process harness the tests and the chaos
scenarios use); the CLI deploys the same topology across worker
*processes* (``repro run DESC.json --workers 2``, see
``multiprocess_cluster.py``).  Waiting for the job does not change it:
``await_completion`` parks until the sender finishes, and only then
drains.

Run:  python examples/distributed_relay.py
"""

import time

from repro.core import NeptuneConfig, StreamProcessingGraph
from repro.core.distributed import DistributedJob, round_robin_plan
from repro.workloads import CollectingSink, CountingSource, RelayProcessor

TOTAL = 10_000


def build_graph(store=None):
    if store is None:
        store = []
    graph = StreamProcessingGraph(
        "distributed-relay",
        config=NeptuneConfig(buffer_capacity=32 * 1024, buffer_max_delay=0.005),
    )
    graph.add_source("sender", lambda: CountingSource(total=TOTAL, payload_size=100))
    graph.add_processor("relay", RelayProcessor)
    graph.add_processor("receiver", lambda: CollectingSink(store))
    graph.link("sender", "relay").link("relay", "receiver")
    return graph


def main():
    store = []
    graph = build_graph(store)

    plan = round_robin_plan(graph, n_workers=2)
    print("deployment plan:")
    for worker in range(plan.n_workers):
        print(f"  resource {worker}: {plan.instances_on(worker)}")

    job = DistributedJob(graph, n_workers=2)
    for w in job.workers:
        print(f"  resource {w.worker_id} listening on {w.address[0]}:{w.address[1]}")
    t0 = time.monotonic()
    job.start()
    ok = job.await_completion(timeout=120)
    elapsed = time.monotonic() - t0

    metrics = job.metrics()
    print(f"\ncompleted: {ok} in {elapsed:.1f}s")
    print(f"relayed {metrics['relay']['packets_in']} packets over TCP")
    print(f"receiver got {len(store)} packets, in order: {store == list(range(TOTAL))}")
    print(f"throughput: {len(store) / elapsed:,.0f} packets/s (pure-Python, 1 core)")
    assert store == list(range(TOTAL))


if __name__ == "__main__":
    main()
