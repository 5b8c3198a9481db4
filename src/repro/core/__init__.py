"""NEPTUNE core: the paper's primary contribution (§III).

The programming model — stream packets, sources, processors, links,
parallelism, partitioning schemes, and stream-processing graphs — plus
the high-throughput machinery: application-level buffering, batched
scheduling, object reuse, backpressure, and selective compression, all
executed on a two-tier (worker + IO) thread model over the Granules
substrate.
"""

from repro.core.fieldtypes import FieldType
from repro.core.packet import PacketSchema, StreamPacket
from repro.core.serde import PacketCodec
from repro.core.object_pool import ObjectPool
from repro.core.buffering import StreamBuffer
from repro.core.partitioning import (
    PartitioningScheme,
    RoundRobinPartitioning,
    ShufflePartitioning,
    FieldsPartitioning,
    BroadcastPartitioning,
    register_partitioning,
    resolve_partitioning,
)
from repro.core.operators import (
    StreamSource,
    StreamProcessor,
    FunctionProcessor,
    EmitContext,
)
from repro.core.graph import StreamProcessingGraph, OperatorSpec, LinkSpec
from repro.core.config import NeptuneConfig
from repro.core.runtime import NeptuneRuntime
from repro.core.job import JobHandle, JobState
from repro.core.windows import SlidingWindow
from repro.core.checkpoint import Checkpoint

__all__ = [
    "FieldType",
    "PacketSchema",
    "StreamPacket",
    "PacketCodec",
    "ObjectPool",
    "StreamBuffer",
    "PartitioningScheme",
    "RoundRobinPartitioning",
    "ShufflePartitioning",
    "FieldsPartitioning",
    "BroadcastPartitioning",
    "register_partitioning",
    "resolve_partitioning",
    "StreamSource",
    "StreamProcessor",
    "FunctionProcessor",
    "EmitContext",
    "StreamProcessingGraph",
    "OperatorSpec",
    "LinkSpec",
    "NeptuneConfig",
    "NeptuneRuntime",
    "JobHandle",
    "JobState",
    "SlidingWindow",
    "Checkpoint",
]
