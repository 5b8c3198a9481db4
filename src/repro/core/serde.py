"""Packet (de)serialization with object reuse (paper §III-B3).

"Rather than separately and repeatedly create data structures used in
serialization and deserialization for individual messages, NEPTUNE
creates them once and reuses them for the entire set of buffered
messages."

A :class:`PacketCodec` is created once per (schema, link) and reused for
every batch:

- ``encode_into`` appends a packet's wire form to a caller-owned
  ``bytearray`` — no per-packet allocations beyond the bytes
  themselves.  On any encode error the output is truncated back to the
  record start, so a failed encode never leaves partial record bytes in
  a shared buffer.
- The link path, ``StreamBuffer.append_packet``, makes the same checks
  (``reject``) and takes the record from ``pack`` (all-fixed schemas:
  one ``Struct.pack``, no scratch) or ``record`` (the reused scratch)
  before it takes its lock, so the hold is one append.
- ``iter_decode`` walks a batch body yielding packets.  With
  ``reuse=True`` it yields the *same* pooled packet object refilled per
  record (zero packet allocations per message — callers must not retain
  it past the iteration step; ``clone()`` if they must).  An all-fixed
  batch is walked by one ``Struct.iter_unpack``.

By default the codec runs on a :class:`~repro.core.fieldtypes.CompiledSchema`:
every maximal run of consecutive fixed-width fields is one precompiled
``struct.Struct`` pack/unpack instead of per-field enum dispatch.  The
wire format is byte-identical to the per-field path (``compiled=False``),
which is kept as the reference implementation and the fallback for
equivalence testing.

Batch body layout: ``count`` records back to back, each record being the
schema's fields encoded in order (no per-record header: the schema is
static per link, which is precisely what makes the codec reusable).
"""

from __future__ import annotations

from typing import Any, Iterator, NoReturn

from repro.core.fieldtypes import (
    FieldType,
    compile_fieldtypes,
    decode_field,
    encode_field,
)
from repro.core.packet import PacketSchema, StreamPacket
from repro.util.errors import SerializationError


class PacketCodec:
    """Reusable encoder/decoder for one packet schema.

    ``compiled=True`` (default) uses the fused fixed-width-run codec;
    ``compiled=False`` forces the per-field reference path (identical
    wire bytes, slower).
    """

    __slots__ = (
        "schema",
        "pack",
        "_plan",
        "_scratch",
        "_reused_packet",
        "packets_encoded",
        "packets_decoded",
    )

    def __init__(self, schema: PacketSchema, compiled: bool = True) -> None:
        self.schema = schema
        self._plan = compile_fieldtypes(schema.types) if compiled else None
        layout = self._plan.record_struct if self._plan is not None else None
        #: ``struct.Struct.pack`` of a whole record when the compiled
        #: schema is all fixed-width, else None.  On failure callers
        #: replay through :meth:`record` for the per-field diagnostic.
        self.pack = layout.pack if layout is not None else None
        self._scratch = bytearray()
        self._reused_packet = StreamPacket(schema)
        self.packets_encoded = 0
        self.packets_decoded = 0

    def _clear_scratch(self) -> bytearray:
        """Reset the scratch buffer, surviving live memoryview exports.

        ``encode_view`` hands out a view of the scratch; its contract
        says the caller copies it out before the next encode, but a
        frame holder — the sampling profiler walking
        ``sys._current_frames``, a debugger, a stored traceback — can
        keep the previous emit's frame (and with it the view) alive
        past that window, and a bytearray with live exports cannot be
        resized.  Retire the old buffer to its view holder and start a
        fresh one instead of failing the data plane.
        """
        scratch = self._scratch
        try:
            scratch.clear()
        except BufferError:
            scratch = self._scratch = bytearray()
        return scratch

    # -- encoding -----------------------------------------------------------
    def reject(self, packet: StreamPacket) -> NoReturn:
        """Raise for a packet that failed the two pre-encode checks
        (``packet.schema`` is this codec's; no value is ``None``)."""
        if packet.schema != self.schema:
            raise SerializationError(
                f"packet schema {packet.schema!r} does not match codec schema {self.schema!r}"
            )
        missing = [n for n, v in zip(self.schema.names, packet.values) if v is None]
        raise SerializationError(f"packet incomplete; unset fields: {missing}")

    def append_values(self, values: list[Any], out: bytearray) -> None:
        """Append one record's already-checked ``values`` to ``out``.

        Exception-safe: a mid-record failure (an out-of-range int32 on
        a later field, a bad list element after the length prefix)
        truncates ``out`` back to its length on entry — partial bytes
        would corrupt every later packet on the link.
        """
        start = len(out)
        plan = self._plan
        try:
            if plan is not None:
                plan.encode_values(values, out)
            else:
                for i, ftype in enumerate(self.schema.types):
                    encode_field(ftype, values[i], out)
        except Exception:
            del out[start:]
            raise

    def record(self, values: list[Any]) -> bytearray:
        """One record's already-checked ``values``, encoded into the
        internal scratch: valid until the next encode on this codec
        (one codec belongs to one sender instance, whose executions are
        serialized — no locking needed)."""
        scratch = self._clear_scratch()
        self.append_values(values, scratch)
        return scratch

    def encode_into(self, packet: StreamPacket, out: bytearray) -> int:
        """Append ``packet``'s wire form to ``out``; return bytes written.

        Exception-safe: when any field fails to encode, ``out`` is
        truncated back to its length on entry, so a shared stream
        buffer never accumulates a partial record.
        """
        values = packet._values
        schema = self.schema
        if (packet.schema is not schema and packet.schema != schema) or None in values:
            self.reject(packet)
        start = len(out)
        self.append_values(values, out)
        self.packets_encoded += 1
        return len(out) - start

    def encode(self, packet: StreamPacket) -> bytes:
        """Encode one packet standalone (reusing the internal scratch)."""
        scratch = self._clear_scratch()
        self.encode_into(packet, scratch)
        return bytes(scratch)

    def encode_view(self, packet: StreamPacket) -> memoryview:
        """Encode one packet and return a view of the internal scratch.

        Zero-copy variant of :meth:`encode` for the emit hot path: the
        returned view is valid only until the next ``encode``/
        ``encode_view``/``encode_batch`` call on this codec, so the
        caller must copy it out (e.g. ``StreamBuffer.append`` does)
        before encoding again.  One codec belongs to one sender
        instance, whose executions are serialized — no locking needed.
        """
        scratch = self._clear_scratch()
        self.encode_into(packet, scratch)
        return memoryview(scratch)

    def encode_batch(self, packets: list[StreamPacket]) -> bytes:
        """Encode a batch into one body (reusing the internal scratch)."""
        scratch = self._clear_scratch()
        for pkt in packets:
            self.encode_into(pkt, scratch)
        return bytes(scratch)

    # -- decoding -----------------------------------------------------------
    def decode_one(self, buf: bytes | memoryview, offset: int = 0) -> tuple[StreamPacket, int]:
        """Decode one *fresh* packet at ``offset``; return (packet, end)."""
        pkt = StreamPacket(self.schema)
        end = self._fill(pkt, buf, offset)
        return pkt, end

    def iter_decode(
        self,
        body: bytes | bytearray | memoryview,
        count: int | None = None,
        reuse: bool = True,
    ) -> Iterator[StreamPacket]:
        """Yield packets decoded from ``body``.

        With ``reuse=True`` (NEPTUNE's frugal path) the same packet
        object is refilled and yielded each time.  ``count``, when
        given, is validated *eagerly*: an all-fixed-width schema checks
        the exact body size before the first yield, and any schema
        raises the moment the body is exhausted short of ``count`` (or
        a record beyond ``count`` appears) — so a consumer that stops
        iterating early still observes a short or overlong batch.
        """
        view = memoryview(body) if not isinstance(body, memoryview) else body
        total = len(view)
        plan = self._plan
        layout = plan.record_struct if plan is not None else None
        pkt = self._reused_packet
        if plan is not None and layout is not None:
            # All-fixed batch: the size check is exact and up front, and
            # one iter_unpack walks the whole records; a trailing
            # partial record raises once they are out.
            size = layout.size
            if count is not None and total != count * size:
                raise SerializationError(
                    f"batch declared {count} packets "
                    f"({count * size} bytes), body has {total} bytes"
                )
            whole = total - total % size
            if reuse:
                row = pkt._values
                for values in layout.iter_unpack(view[:whole]):
                    row[:] = values
                    yield pkt
            else:
                for values in layout.iter_unpack(view[:whole]):
                    pkt = StreamPacket(self.schema)
                    pkt._values[:] = values
                    yield pkt
            self.packets_decoded += whole // size
            if whole != total:
                plan.decode_into(pkt._values, view, whole)  # raises: truncated
            return
        offset = 0
        n = 0
        while offset < total:
            if not reuse:
                pkt = StreamPacket(self.schema)
            offset = self._fill(pkt, view, offset)
            n += 1
            if count is not None and (
                n > count or (offset >= total and n < count)
            ):
                raise SerializationError(
                    f"batch declared {count} packets, decoded {n}"
                    + ("" if n > count else " before the body ended")
                )
            yield pkt
        if offset != total:
            raise SerializationError(
                f"batch body has {total - offset} trailing bytes"
            )  # pragma: no cover — _fill always lands exactly or raises
        if count is not None and n != count:
            raise SerializationError(f"batch declared {count} packets, decoded {n}")

    def _fill(
        self, pkt: StreamPacket, buf: bytes | bytearray | memoryview, offset: int
    ) -> int:
        values = pkt._values
        plan = self._plan
        if plan is not None:
            offset = plan.decode_into(values, buf, offset)
        else:
            for i, ftype in enumerate(self.schema.types):
                values[i], offset = decode_field(ftype, buf, offset)
        self.packets_decoded += 1
        return offset

    # -- sizing -------------------------------------------------------------
    def encoded_size(self, packet: StreamPacket) -> int:
        """Exact wire size of ``packet`` (cheap for fixed-width schemas)."""
        plan = self._plan
        if plan is not None and plan.record_size is not None:
            return plan.record_size
        size = 0
        for value, ftype in zip(packet.values, self.schema.types):
            fixed = ftype.fixed_size
            if fixed is not None:
                size += fixed
            elif ftype is FieldType.STRING:
                size += 4 + len(value.encode("utf-8"))
            elif ftype is FieldType.BYTES:
                size += 4 + len(value)
            else:  # lists
                size += 4 + 8 * len(value)
        return size
