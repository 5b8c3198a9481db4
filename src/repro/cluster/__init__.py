"""Multi-process cluster deployment: control plane + N worker processes.

The paper deploys one NEPTUNE worker per Granules resource; this
package provides that shape on one machine (and, with TCP endpoints,
across machines): a :class:`ClusterCoordinator` plans operator shards
with the existing deployment planners, spawns one OS process per
worker (``multiprocessing`` spawn context), distributes per-shard
graph descriptors, and drives the workers through their JSON-lines
control ports.  The data plane between shards is the existing
:class:`~repro.net.transport.TcpTransport` recovery protocol
(ack + replay + duplicate suppression), optionally over Unix-domain
sockets for same-host fabrics.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    WorkerHandle,
    attach_proxies,
)
from repro.cluster.faults import ProcessFaultDriver, worker_site
from repro.cluster.ports import reserve_ports
from repro.cluster.spec import WorkerSpec, build_plan, config_to_dict

__all__ = [
    "ClusterCoordinator",
    "ProcessFaultDriver",
    "WorkerHandle",
    "WorkerSpec",
    "attach_proxies",
    "build_plan",
    "config_to_dict",
    "reserve_ports",
    "worker_site",
]
