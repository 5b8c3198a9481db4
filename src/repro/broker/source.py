"""NEPTUNE operators bridging graphs to the message broker.

:class:`BrokerSource` is the paper's archetypal stream source: it
*pulls* records from broker partitions (§III-A2's IoT-gateway model),
deserializes them with a reusable codec, and emits them into the graph.
Parallel source instances statically share the topic's partitions
(instance *i* owns partitions ``i, i+P, i+2P, ...``), mirroring
Samza's partition-per-task model (§V).

Offsets commit only after the packets of a poll have been emitted —
i.e. once NEPTUNE's never-drop pipeline owns them — and the source
participates in checkpointing (offsets snapshot/restore), giving
exactly-once ingestion under the recovery model of
:mod:`repro.core.checkpoint`.

:class:`BrokerSink` is the reverse bridge: it publishes each processed
packet back to a topic, keyed by a configurable field.
"""

from __future__ import annotations

from typing import Any

from repro.broker.core import MessageBroker
from repro.core.operators import StreamProcessor, StreamSource
from repro.core.packet import PacketSchema
from repro.core.serde import PacketCodec


class BrokerSource(StreamSource):
    """Pull-based ingestion from a broker topic.

    Parameters
    ----------
    broker, topic, group:
        Where to pull from and the consumer-group identity (offsets are
        per group, so multiple jobs can consume the same topic
        independently).
    schema:
        Packet schema; record values must be single packets encoded
        with a :class:`PacketCodec` of this schema.
    poll_batch:
        Max records pulled per scheduling quantum (per owned partition
        visit).
    stop_at_end:
        Finish when every owned partition is drained (batch-style
        replay); False keeps polling for new data (true streaming).
    """

    def __init__(
        self,
        broker: MessageBroker,
        topic: str,
        group: str,
        schema: PacketSchema,
        poll_batch: int = 256,
        stop_at_end: bool = False,
    ) -> None:
        super().__init__()
        if poll_batch <= 0:
            raise ValueError(f"poll_batch must be positive: {poll_batch}")
        self.broker = broker
        self.topic = topic
        self.group = group
        self.schema = schema
        self.poll_batch = poll_batch
        self.stop_at_end = stop_at_end
        self._codec = PacketCodec(schema)
        self._owned: list[int] = []
        self._next = 0
        self.records_ingested = 0

    def setup(self, ctx) -> None:
        """Per-instance initialization before the first execution."""
        total = self.broker.partitions(self.topic)
        self._owned = list(range(ctx.instance_index, total, ctx.parallelism))

    def generate(self, ctx) -> None:
        """Produce packets for one scheduling quantum (StreamSource contract)."""
        if not self._owned:
            ctx.finish()  # more instances than partitions: idle instance
            return
        progressed = False
        for _ in range(len(self._owned)):
            partition = self._owned[self._next % len(self._owned)]
            self._next += 1
            messages = self.broker.poll(
                self.group, self.topic, partition, self.poll_batch, commit=False
            )
            if not messages:
                continue
            for msg in messages:
                # A message is the body of one packet.
                for pkt in self._codec.iter_decode(msg.value, count=1):
                    ctx.emit(pkt)
            # Commit only after NEPTUNE owns the packets (never-drop
            # pipeline downstream of here).
            self.broker.consumer_group(self.group, self.topic).commit(
                partition, messages[-1].offset + 1
            )
            self.records_ingested += len(messages)
            progressed = True
            break
        if not progressed and self.stop_at_end:
            ctx.finish()

    def output_schema(self, stream: str) -> PacketSchema:
        """Declare the schema of the named outgoing stream."""
        return self.schema

    # -- checkpoint hooks (exactly-once ingestion on recovery) -----------
    def snapshot_state(self) -> Any:
        """Checkpoint hook: return this operator's state."""
        cg = self.broker.consumer_group(self.group, self.topic)
        return {"offsets": {p: cg.committed(p) for p in self._owned}}

    def restore_state(self, state: Any) -> None:
        """Checkpoint hook: rehydrate state captured by snapshot_state."""
        cg = self.broker.consumer_group(self.group, self.topic)
        for partition, offset in state["offsets"].items():
            cg.seek(int(partition), offset)


class BrokerSink(StreamProcessor):
    """Publish processed packets back to a broker topic."""

    def __init__(
        self,
        broker: MessageBroker,
        topic: str,
        schema: PacketSchema,
        key_field: str | None = None,
    ) -> None:
        super().__init__()
        self.broker = broker
        self.topic = topic
        self.key_field = key_field
        self._codec = PacketCodec(schema)
        self.records_published = 0

    def process(self, packet, ctx) -> None:
        """Handle one stream packet (StreamProcessor contract)."""
        key = None
        if self.key_field is not None:
            key = repr(packet.get(self.key_field)).encode("utf-8")
        self.broker.publish(self.topic, self._codec.encode(packet), key)
        self.records_published += 1

    def output_schema(self, stream: str) -> PacketSchema:
        """Declare the schema of the named outgoing stream."""
        raise KeyError(stream)
