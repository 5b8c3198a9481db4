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
  (``reject``) and takes the record from ``pack`` (one ``Struct.pack``,
  no scratch) or, when that refuses it, ``record`` (the reused scratch)
  before it takes its lock, so the hold is one append.
- ``iter_decode`` walks a batch body yielding packets.  With
  ``reuse=True`` it yields the *same* pooled packet object refilled per
  record (zero packet allocations per message — callers must not retain
  it past the iteration step; ``clone()`` if they must).  An all-fixed
  batch is walked by one ``Struct.iter_unpack``.

By default the codec runs on a :class:`~repro.core.fieldtypes.CompiledSchema`.
A whole record is one ``struct.Struct`` pack/unpack: the schema's own
struct when every field is fixed-width, otherwise the *layout* of the
record's shape — its variable fields' length prefixes fix where
everything sits, and records of one stream mostly share a shape.  A
record that layout cannot take (a bad value, an input only the
per-step path accepts, a decode that does not verify) goes through the
per-step plan: fused fixed-width runs, per-field code between them,
and every diagnostic.  The wire format is byte-identical to the
per-field path (``compiled=False``), which is kept as the reference
implementation for equivalence testing.

Batch body layout: ``count`` records back to back, each record being the
schema's fields encoded in order (no per-record header: the schema is
static per link, which is precisely what makes the codec reusable).
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, NoReturn

from repro.core.fieldtypes import (
    LIST_ELEMENTS,
    FieldType,
    compile_fieldtypes,
    decode_field,
    encode_field,
)
from repro.core.packet import PacketSchema, StreamPacket
from repro.util.errors import SerializationError

#: Layouts a codec keeps, by shape.  Beyond that an unseen shape gets a
#: throwaway layout and the cache stays as it is.
_LAYOUT_CACHE_LIMIT = 256
#: Throwaway layouts are dearer than the per-step encode, so a codec
#: that has built this many stops shaping for the next
#: ``_UNSHAPED_RECORDS`` records before it tries again: a stream whose
#: shapes never repeat pays for a few wasted layouts per thousand
#: records, not one per record.
_THROWAWAY_LIMIT = 16
_UNSHAPED_RECORDS = 1024
#: Consecutive records of one batch that may miss the speculated shape
#: before its decode stops speculating (until the next batch).
_SPECULATION_MISSES = 4


_STRING = FieldType.STRING
_BYTES = FieldType.BYTES


class PacketCodec:
    """Reusable encoder/decoder for one packet schema.

    ``compiled=True`` (default) uses the compiled codec (one struct per
    record, fused fixed-width runs behind it); ``compiled=False`` forces
    the per-field reference path (identical wire bytes, slower).
    """

    __slots__ = (
        "schema",
        "pack",
        "_plan",
        "_layouts",
        "_throwaways",
        "_layout",
        "_shape",
        "_scratch",
        "_reused_packet",
        "packets_encoded",
        "packets_decoded",
    )

    def __init__(self, schema: PacketSchema, compiled: bool = True) -> None:
        self.schema = schema
        plan = self._plan = compile_fieldtypes(schema.types) if compiled else None
        #: ``pack(*values)``: a whole record from one ``Struct.pack`` —
        #: the record's own struct for an all-fixed schema, its shape's
        #: layout otherwise; None on the reference codec (and while
        #: shaping is suspended).  It raises on anything it cannot
        #: pack: callers replay through :meth:`record` for the
        #: per-field diagnostic.
        self.pack = None
        if plan is not None:
            fixed = plan.record_struct
            self.pack = fixed.pack if fixed is not None else self._pack_shaped
        self._layouts: dict[tuple[int, ...], struct.Struct] = {}
        # Throwaway layouts built since shaping was last (re)started;
        # negative while suspended: records left before the next try.
        self._throwaways = 0
        # Decode speculates that a record has the previous one's shape.
        self._layout: struct.Struct | None = None
        self._shape: tuple[int, ...] = ()
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

    def _layout_for(self, shape: tuple[int, ...]) -> struct.Struct:
        """The layout of ``shape``: cached while the cache has room."""
        layout = self._layouts.get(shape)
        if layout is None:
            layout = self._plan.layout(shape)  # type: ignore[union-attr]
            if len(self._layouts) < _LAYOUT_CACHE_LIMIT:
                self._layouts[shape] = layout
            else:
                self._throwaways += 1
        return layout

    def _pack_shaped(self, *values: Any) -> bytes:
        """One variable-width record as one ``Struct.pack`` of its
        shape's layout: the bytes the per-step path would write.

        Raises on anything it cannot pack, whatever the cause; the
        per-step replay owns the diagnostics, and the inputs that only
        it accepts.
        """
        args = list(values)
        shape = []
        for at, ftype in self._plan.var_items:  # type: ignore[union-attr]
            value = args[at]
            if ftype is _STRING:
                value = value.encode("utf-8")
                n = len(value)
            elif ftype is _BYTES:
                n = len(value)
                if type(value) is memoryview:
                    if value.nbytes != n or not value.c_contiguous:
                        raise TypeError("not a flat view of bytes")
                    value = bytes(value)
            else:
                n = len(value)
                value = struct.pack(f"<{n}{LIST_ELEMENTS[ftype]}", *value)
            args[at : at + 1] = (n, value)
            shape.append(n)
        key = tuple(shape)
        layout = self._layouts.get(key)
        if layout is None:
            layout = self._layout_for(key)
            if self._throwaways >= _THROWAWAY_LIMIT:
                self.pack = None
                self._throwaways = -_UNSHAPED_RECORDS
        return layout.pack(*args)

    def append_values(self, values: list[Any], out: bytearray) -> None:
        """Append one record's already-checked ``values`` to ``out``.

        Exception-safe: a mid-record failure (an out-of-range int32 on
        a later field, a bad list element after the length prefix)
        truncates ``out`` back to its length on entry — partial bytes
        would corrupt every later packet on the link.
        """
        pack = self.pack
        if pack is not None:
            try:
                out += pack(*values)
                return
            except Exception:
                pass  # the per-step replay below names the value
        elif self._throwaways < 0:
            self._throwaways += 1
            if not self._throwaways:
                self.pack = self._pack_shaped
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
        # Variable-width batch.  A compiled codec first tries the
        # previous record's layout: one unpack_from, kept only when
        # every length prefix it read is that shape's (that the record
        # fits, unpack_from checks).  Any other record is decoded per
        # step, which owns every error, and the shape is learnt again
        # from it.
        speculate = plan is not None
        if plan is not None:
            prefixes, fields = plan.prefixes, plan.fields
            strings, lists = plan.string_fields, plan.list_fields
        layout, shape = self._layout, self._shape
        misses = 0
        offset = 0
        n = 0
        while offset < total:
            if not reuse:
                pkt = StreamPacket(self.schema)
            if not speculate:
                offset = self._fill(pkt, view, offset)
            else:
                end = -1
                if layout is not None:
                    try:
                        items = layout.unpack_from(view, offset)
                        if prefixes(items) == shape:
                            row = pkt._values
                            row[:] = fields(items)
                            for i in strings:
                                row[i] = row[i].decode("utf-8")
                            for i, elements in lists:
                                row[i] = [v for (v,) in elements(row[i])]
                            end = offset + layout.size
                    except (struct.error, UnicodeDecodeError):
                        end = -1  # per step below: it raises what it raises
                if end >= 0:
                    misses = 0
                    self.packets_decoded += 1
                else:
                    end = self._fill(pkt, view, offset)
                    misses += 1
                    if misses < _SPECULATION_MISSES:
                        shape = self._shape = plan.shape_at(view, offset)
                        layout = self._layout = self._layout_for(shape)
                    else:
                        # Shapes keep changing: per step for the rest
                        # of this batch, a fresh try on the next.
                        speculate = False
                offset = end
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
