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

from __future__ import annotations

from typing import Any

from repro.util.lazy import lazy_export

# Imported on first use: a spawned worker process loads its own modules
# (``worker``, ``spec``), not the coordinator and the chaos plane.
_EXPORTS = {
    "ClusterCoordinator": "repro.cluster.coordinator",
    "WorkerHandle": "repro.cluster.coordinator",
    "attach_proxies": "repro.cluster.coordinator",
    "ProcessFaultDriver": "repro.cluster.faults",
    "worker_site": "repro.cluster.faults",
    "reserve_ports": "repro.cluster.ports",
    "WorkerSpec": "repro.cluster.spec",
    "build_plan": "repro.cluster.spec",
    "config_to_dict": "repro.cluster.spec",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)
