"""Standard reusable operators: map, filter, windowed aggregate, paced
and file-replay sources.

These close the gap between the framework primitives and everyday
stream jobs — the operators a downstream user reaches for first — and
they exercise framework features end-to-end (token-bucket pacing,
sliding windows, checkpointable file replay).
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.core.operators import StreamProcessor, StreamSource
from repro.core.packet import PacketSchema, StreamPacket
from repro.core.windows import SlidingWindow
from repro.util.clock import Clock, SYSTEM_CLOCK
from repro.util.ratelimit import TokenBucket


class MapProcessor(StreamProcessor):
    """Applies ``fn(in_packet, out_packet)`` to every packet.

    ``fn`` fills the (pooled) output packet from the input packet; the
    framework handles emission, batching, and reuse::

        MapProcessor(OUT_SCHEMA, lambda src, dst: dst.set("f", src["f"] * 2))
    """

    def __init__(
        self,
        schema: PacketSchema,
        fn: Callable[[StreamPacket, StreamPacket], Any],
        name: str | None = None,
    ) -> None:
        super().__init__()
        self._schema = schema
        self._fn = fn
        if name:
            self.name = name

    def process(self, packet, ctx) -> None:
        """Handle one stream packet (StreamProcessor contract)."""
        out = ctx.new_packet()
        self._fn(packet, out)
        ctx.emit(out)

    def output_schema(self, stream: str) -> PacketSchema:
        """Declare the schema of the named outgoing stream."""
        return self._schema


class FilterProcessor(StreamProcessor):
    """Forwards only packets matching ``predicate`` (same schema)."""

    def __init__(
        self,
        schema: PacketSchema,
        predicate: Callable[[StreamPacket], bool],
        name: str | None = None,
    ) -> None:
        super().__init__()
        self._schema = schema
        self._predicate = predicate
        if name:
            self.name = name
        self.passed = 0
        self.dropped = 0

    def process(self, packet, ctx) -> None:
        """Handle one stream packet (StreamProcessor contract)."""
        if self._predicate(packet):
            out = ctx.new_packet()
            out.copy_from(packet)
            ctx.emit(out)
            self.passed += 1
        else:
            self.dropped += 1

    def output_schema(self, stream: str) -> PacketSchema:
        """Declare the schema of the named outgoing stream."""
        return self._schema


class WindowedAggregateProcessor(StreamProcessor):
    """Keyed sliding-window aggregation.

    For every input packet, updates the key's time window and emits the
    aggregate — the "descriptive statistic for a sliding window"
    operator the paper's buffering discussion uses as its low-rate
    example (§III-B1).  Emission can be thinned with ``emit_every``.

    Checkpointable: window contents snapshot/restore.
    """

    def __init__(
        self,
        out_schema: PacketSchema,
        key_field: str,
        time_field: str,
        value_field: str,
        window_seconds: float,
        aggregate: Callable[[list], float],
        fill: Callable[[StreamPacket, str, float], Any],
        emit_every: int = 1,
    ) -> None:
        super().__init__()
        if emit_every <= 0:
            raise ValueError(f"emit_every must be positive: {emit_every}")
        self._out_schema = out_schema
        self.key_field = key_field
        self.time_field = time_field
        self.value_field = value_field
        self.window_seconds = window_seconds
        self.aggregate = aggregate
        self.fill = fill
        self.emit_every = emit_every
        self._windows: dict[Any, SlidingWindow] = {}
        self._since_emit: dict[Any, int] = {}

    def process(self, packet, ctx) -> None:
        """Handle one stream packet (StreamProcessor contract)."""
        key = packet.get(self.key_field)
        ts = packet.get(self.time_field)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = SlidingWindow(self.window_seconds)
        window.add(ts, packet.get(self.value_field))
        n = self._since_emit.get(key, 0) + 1
        if n >= self.emit_every:
            self._since_emit[key] = 0
            out = ctx.new_packet()
            self.fill(out, key, self.aggregate(list(window.values())))
            ctx.emit(out)
        else:
            self._since_emit[key] = n

    def output_schema(self, stream: str) -> PacketSchema:
        """Declare the schema of the named outgoing stream."""
        return self._out_schema

    # -- checkpoint hooks -------------------------------------------------
    def snapshot_state(self) -> Any:
        """Checkpoint hook: return this operator's state."""
        return {
            "windows": {
                key: list(win._items) for key, win in self._windows.items()
            }
        }

    def restore_state(self, state: Any) -> None:
        """Checkpoint hook: rehydrate state captured by snapshot_state."""
        for key, items in state["windows"].items():
            win = SlidingWindow(self.window_seconds)
            for ts, value in items:
                win.add(ts, value)
            self._windows[key] = win


class ThrottledSource(StreamSource):
    """Wraps another source, pacing emission with a token bucket.

    Models a fixed-rate external stream (sensors sampling at a known
    frequency) instead of an as-fast-as-possible replay.  The paced
    rate composes with backpressure: the slower of the two wins.
    """

    def __init__(
        self,
        inner: StreamSource,
        rate: float,
        burst: float | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ) -> None:
        super().__init__()
        self.inner = inner
        self._bucket = TokenBucket(rate=rate, burst=burst or max(rate / 100, 1.0), clock=clock)

    def setup(self, ctx) -> None:
        """Per-instance initialization before the first execution."""
        self.inner.setup(ctx)

    def teardown(self) -> None:
        """Per-instance cleanup at job shutdown."""
        self.inner.teardown()

    def generate(self, ctx) -> None:
        """Produce packets for one scheduling quantum (StreamSource contract)."""
        self._bucket.acquire()
        self.inner.generate(ctx)

    def output_schema(self, stream: str) -> PacketSchema:
        """Declare the schema of the named outgoing stream."""
        return self.inner.output_schema(stream)

    # -- checkpoint hooks delegate to the wrapped source -------------------
    def snapshot_state(self) -> Any:
        """Checkpoint hook: return this operator's state."""
        inner_snapshot = getattr(self.inner, "snapshot_state", None)
        return inner_snapshot() if inner_snapshot is not None else None

    def restore_state(self, state: Any) -> None:
        """Checkpoint hook: rehydrate state captured by snapshot_state."""
        inner_restore = getattr(self.inner, "restore_state", None)
        if inner_restore is not None:
            inner_restore(state)


class JsonLinesFileSource(StreamSource):
    """Replays a JSON-lines file as stream packets.

    Each line is a JSON object whose keys match the schema's fields.
    The byte position is checkpointable: on restore, replay resumes at
    the exact line where the snapshot was taken
    (:class:`repro.core.checkpoint.ReplayableSource` semantics).
    """

    def __init__(self, path: str, schema: PacketSchema) -> None:
        super().__init__()
        from repro.granules.dataset import FileDataset

        self.path = path
        self.schema = schema
        self._file = FileDataset(f"jsonl:{path}", path, mode="lines")
        self.lines_read = 0

    def generate(self, ctx) -> None:
        """Produce packets for one scheduling quantum (StreamSource contract)."""
        try:
            line = self._file.next()
        except StopIteration:
            ctx.finish()
            return
        if not line.strip():
            return
        record = json.loads(line)
        pkt = ctx.new_packet()
        for name in self.schema.names:
            pkt.set(name, record[name])
        ctx.emit(pkt)
        self.lines_read += 1

    def teardown(self) -> None:
        """Per-instance cleanup at job shutdown."""
        self._file.close()

    def output_schema(self, stream: str) -> PacketSchema:
        """Declare the schema of the named outgoing stream."""
        return self.schema

    # -- checkpoint hooks (ReplayableSource semantics) ---------------------
    def snapshot_state(self) -> Any:
        """Checkpoint hook: return this operator's state."""
        return {"position": self._file.tell()}

    def restore_state(self, state: Any) -> None:
        """Checkpoint hook: rehydrate state captured by snapshot_state."""
        self._file.seek(state["position"])
