"""NEPTUNE core: the paper's primary contribution (§III).

The programming model — stream packets, sources, processors, links,
parallelism, partitioning schemes, and stream-processing graphs — plus
the high-throughput machinery: application-level buffering, batched
scheduling, object reuse, backpressure, and selective compression, all
executed on a two-tier (worker + IO) thread model over the Granules
substrate.
"""

from __future__ import annotations

from typing import Any

from repro.util.lazy import lazy_export

# Imported on first use: ``import repro.core.runtime`` loads what the
# runtime imports, not the object pool, windows or checkpoints.
_EXPORTS = {
    "FieldType": "repro.core.fieldtypes",
    "PacketSchema": "repro.core.packet",
    "StreamPacket": "repro.core.packet",
    "PacketCodec": "repro.core.serde",
    "ObjectPool": "repro.core.object_pool",
    "StreamBuffer": "repro.core.buffering",
    "PartitioningScheme": "repro.core.partitioning",
    "RoundRobinPartitioning": "repro.core.partitioning",
    "ShufflePartitioning": "repro.core.partitioning",
    "FieldsPartitioning": "repro.core.partitioning",
    "BroadcastPartitioning": "repro.core.partitioning",
    "register_partitioning": "repro.core.partitioning",
    "resolve_partitioning": "repro.core.partitioning",
    "StreamSource": "repro.core.operators",
    "StreamProcessor": "repro.core.operators",
    "FunctionProcessor": "repro.core.operators",
    "EmitContext": "repro.core.operators",
    "StreamProcessingGraph": "repro.core.graph",
    "OperatorSpec": "repro.core.graph",
    "LinkSpec": "repro.core.graph",
    "NeptuneConfig": "repro.core.config",
    "NeptuneRuntime": "repro.core.runtime",
    "JobHandle": "repro.core.job",
    "JobState": "repro.core.job",
    "SlidingWindow": "repro.core.windows",
    "Checkpoint": "repro.core.checkpoint",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)
