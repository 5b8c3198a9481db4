"""Packet (de)serialization with object reuse (paper §III-B3).

"Rather than separately and repeatedly create data structures used in
serialization and deserialization for individual messages, NEPTUNE
creates them once and reuses them for the entire set of buffered
messages."

A batch is serialized as a batch.  The body of ``count`` packets of one
schema (the frame header carries ``count``, the body does not) is:

- **Fixed block.**  The records' fixed-width fields in schema order,
  row by row, each record one little-endian ``struct.Struct`` without
  padding — for a schema of nothing else, the whole body.
- **Columns.**  Then one column per variable-width field, in order:

  - STRING: the batch's dictionary — a u32 distinct count ``d``, then
    each distinct string as a u32 length and its UTF-8, in first-seen
    order — then ``count`` indexes into it, each a u8, u16 or u32 as
    ``d`` is at most 256, at most 65 536, or more.
  - BYTES, FLOAT64_LIST and INT64_LIST: ``count`` u32 lengths (element
    counts for the lists), then the payloads back to back (list
    elements as ``<d`` / ``<q``).

This module is the only one that knows that layout.  A
:class:`PacketCodec` is created once per (schema, link) and reused:

- The send path, ``StreamBuffer.append_packet``, packs each packet's
  fixed-width fields with ``pack`` (one ``Struct.pack``) before its
  lock, appends them to the buffer's bytearray, and hands the
  variable-width values to the buffer's :meth:`PacketCodec.columns`:
  one dictionary lookup per STRING field (a string is UTF-8-encoded
  once per batch, when it enters the dictionary) and one list append
  per field.  The take appends the columns behind the fixed block.
- ``iter_decode`` walks the fixed block with one ``Struct.iter_unpack``
  and decodes every column once per batch (each distinct string once),
  checking every length, index and count before the first yield.  With
  ``reuse=True`` it yields the *same* pooled packet refilled per record
  (callers must not retain it past the iteration step; ``clone()`` if
  they must).

The compiled codec (the default) runs code generated per schema, as
:func:`~repro.core.fieldtypes.compile_as_decoded` is; ``compiled=False``
is the per-field reference (:func:`~repro.core.fieldtypes.encode_field`
/ ``decode_field``, the same bytes), kept for equivalence tests.  The
capacity a sender counts is a record's *row form* (the fixed width, plus
a u32 and the payload per variable-width field), so batches are cut
where a row-major body would have been.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import repeat
from typing import Any, Callable, Iterator, NoReturn

from repro.core.fieldtypes import (
    FIXED_FORMATS,
    LIST_ELEMENTS,
    FieldType,
    decode_field,
    encode_field,
)
from repro.core.packet import PacketSchema, StreamPacket
from repro.util.errors import SerializationError

_U32 = struct.Struct("<I")
_STRING = FieldType.STRING


def _index_format(distinct: int) -> str:
    """The format of one index into a dictionary of ``distinct`` strings."""
    return "B" if distinct <= 0x100 else "H" if distinct <= 0x10000 else "I"


def _encode(schema: PacketSchema, i: int, value: Any, out: bytearray) -> None:
    """:func:`encode_field` for field ``i``, its error naming the field."""
    try:
        encode_field(schema.types[i], value, out)
    except SerializationError as exc:
        raise SerializationError(f"field {schema.names[i]!r}: {exc}") from exc


# -- code generated per schema ----------------------------------------------
#
# A sender takes a record's variable-width values in two steps.
# ``prepare(row)`` runs before the buffer's lock and changes nothing:
# a STRING looks itself up in its dictionary (a miss is encoded, to be
# entered later), BYTES snapshots a mutable buffer, a list packs its
# elements, and it returns their row-form size; anything they raise is
# handed to ``diagnose``, the per-field prepare, which raises the error
# naming the field.
# ``commit()`` runs under the lock and enters what ``prepare`` found:
# a new string, the cells and the payloads.  Per type: what ``prepare``
# does (its results kept for ``commit`` in the names listed), what
# ``commit`` does, and the row-form size.  ``{k}`` is the column,
# ``{i}`` its field.
_COLUMN_SOURCE = {
    _STRING: (
        "v = row[{i}]\n"
        "e{k} = d{k}.get(v)\n"
        "if e{k} is None:\n"
        "    b = v.encode('utf-8')\n"
        "    e{k} = (len(d{k}), 4 + len(b), u32(len(b)) + b)\n"
        "    n{k} = v\n"
        "else:\n"
        "    n{k} = None",
        "e{k} n{k}",
        "if n{k} is not None:\n    d{k}[n{k}] = e{k}\nx{k}.append(e{k}[0])",
        "e{k}[1]",
    ),
    FieldType.BYTES: (
        "b{k} = row[{i}]\nif type(b{k}) is not bytes:\n    b{k} = memoryview(b{k}).tobytes()",
        "b{k}",
        "x{k}.append(len(b{k}))\np{k}.append(b{k})",
        "4 + len(b{k})",
    ),
    **{
        ftype: (
            f"v = row[{{i}}]\nn{{k}} = len(v)\nb{{k}} = spack('<%d{element}' % n{{k}}, *v)",
            "n{k} b{k}",
            "x{k}.append(n{k})\np{k}.append(b{k})",
            "4 + len(b{k})",
        )
        for ftype, element in LIST_ELEMENTS.items()
    },
}


def _indent(source: str, depth: int) -> list[str]:
    return ["    " * depth + line for line in source.split("\n")]


class _Plan:
    """A schema's layout, and the code generated for it (immutable,
    shared by every codec of the schema)."""

    __slots__ = ("fixed", "fixed_at", "var", "pack", "bind", "rows")

    def __init__(self, types: tuple[FieldType, ...]) -> None:
        self.fixed_at = tuple(i for i, t in enumerate(types) if t in FIXED_FORMATS)
        #: ``(field, type)`` of each variable-width field: the columns.
        self.var = tuple((i, t) for i, t in enumerate(types) if t not in FIXED_FORMATS)
        #: One record's fixed-width fields.
        self.fixed = struct.Struct("<" + "".join(FIXED_FORMATS[types[i]] for i in self.fixed_at))
        scope: dict[str, Any] = dict(
            fixed=self.fixed.pack, iter_unpack=self.fixed.iter_unpack, size=self.fixed.size,
            repeat=repeat, u32=_U32.pack, spack=struct.pack, SerializationError=SerializationError,
        )
        lines = _rows_source(self.fixed_at, tuple(i for i, _ in self.var))
        if self.var:
            args = ", ".join(f"v{i}" for i in range(len(types)))
            parts = [
                [source.format(k=k, i=i) for source in _COLUMN_SOURCE[t]]
                for k, (i, t) in enumerate(self.var)
            ]
            kept = " ".join(part[1] for part in parts).replace(" ", ", ")
            lines += [
                f"def pack({args}):",
                f"    return fixed({', '.join(f'v{i}' for i in self.fixed_at)})",
                "def bind(columns, diagnose):",
                *(f"    d{k}, x{k}, p{k} = columns[{k}]" for k in range(len(parts))),
                f"    {kept} = {', '.join(['None'] * (kept.count(',') + 1))}",
                "    def prepare(row):",
                f"        nonlocal {kept}",
                "        try:",
                *(line for part in parts for line in _indent(part[0], 3)),
                "        except Exception as exc:",
                "            diagnose(row)",
                "            raise SerializationError('cannot encode the record') from exc",
                f"        return {' + '.join(part[3] for part in parts)}",
                "    def commit():",
                *(line for part in parts for line in _indent(part[2], 2)),
                "    return prepare, commit",
            ]
        exec("\n".join(lines), scope)  # noqa: S102 - source is built above
        #: ``pack(*values)``: one record's fixed-width fields as bytes.
        self.pack: Callable[..., bytes] = scope.get("pack", self.fixed.pack)
        #: ``bind(columns, diagnose)``: ``(prepare, commit)`` of a set
        #: of columns.
        self.bind = scope.get("bind")
        #: ``rows(codec, body, count)``: the compiled ``iter_decode``.
        self.rows = scope["rows"]


def _rows_source(fixed_at: tuple[int, ...], var_at: tuple[int, ...]) -> list[str]:
    """``rows(codec, body, count)``: ``iter_decode(reuse=True)`` itself.
    It zips the fixed block's tuples with the decoded columns (one slice
    assignment when the fixed-width fields are consecutive)."""
    cells = [f"a{k}" for k in range(len(var_at))]
    block = "iter_unpack(view[: count * size])" if fixed_at else "repeat((), count)"
    lines = [
        "def rows(codec, body, count):",
        "    view, count, columns = codec._open(body, count)",
        "    pkt = codec._reused_packet",
        "    row = pkt._values",
        f"    for {', '.join(['f', *cells])} in {f'zip({block}, *columns)' if cells else block}:",
    ]
    if not cells:
        lines.append("        row[:] = f")
    elif fixed_at and fixed_at[-1] - fixed_at[0] == len(fixed_at) - 1:
        lines.append(f"        row[{fixed_at[0]}:{fixed_at[-1] + 1}] = f")
    else:
        lines += [f"        row[{i}] = f[{k}]" for k, i in enumerate(fixed_at)]
    lines += [f"        row[{i}] = {cell}" for i, cell in zip(var_at, cells)]
    lines += ["        yield pkt", "    codec._close(view, count)"]
    return lines


@lru_cache(maxsize=256)
def _compile(types: tuple[FieldType, ...]) -> _Plan:
    return _Plan(types)


# -- the sender's columns ----------------------------------------------------


class _Columns:
    """The variable-width columns of the batch a sender is building.

    Per column a ``(dictionary, cells, payloads)`` triple: a STRING
    column maps each string of the batch to its entry ``(index,
    row-form size, u32 length + UTF-8)`` and its cells are indexes; any
    other column's cells are lengths and its payloads the bytes.  A
    record goes in by ``prepare(row)`` then ``commit()`` (see "code
    generated per schema"); :meth:`take` writes the batch.  ``taken``
    counts the takes: a sender whose ``prepare`` (outside the buffer's
    lock) a take overtook prepares again before its ``commit``.
    """

    __slots__ = ("prepare", "commit", "taken", "_schema", "_var", "_columns", "_kept")

    def __init__(self, schema: PacketSchema, var: tuple, bind: Callable | None) -> None:
        self._schema = schema
        self._var = var
        self._columns: list[tuple[dict, list, list]] = [({}, [], []) for _ in var]
        self._kept: list[tuple[Any, tuple]] = []
        self.taken = 0
        self.prepare: Callable[[list[Any]], int] = self._prepare
        self.commit: Callable[[], None] = self._commit
        if bind is not None:
            self.prepare, self.commit = bind(self._columns, self._prepare)

    def _prepare(self, row: list[Any]) -> int:
        """The per-field prepare: every value through ``encode_field``."""
        kept = []
        size = 0
        for (i, ftype), (index, _, _) in zip(self._var, self._columns):
            value = row[i]
            entry = index.get(value) if ftype is _STRING and isinstance(value, str) else None
            new = entry is None
            if new:
                blob = bytearray()
                _encode(self._schema, i, value, blob)
                if ftype is _STRING:
                    entry = (len(index), len(blob), bytes(blob))
                else:
                    entry = (_U32.unpack_from(blob)[0], len(blob), bytes(blob[4:]))
            kept.append((value if new else None, entry))
            size += entry[1]
        self._kept = kept
        return size

    def _commit(self) -> None:
        for (_, ftype), (index, cells, payloads), (key, entry) in zip(
            self._var, self._columns, self._kept
        ):
            if ftype is not _STRING:
                payloads.append(entry[2])
            elif key is not None:
                index[key] = entry
            cells.append(entry[0])

    def take(self, out: bytearray) -> None:
        """Append the batch's columns to ``out``, its fixed block, and
        start the next batch."""
        for (_, ftype), (index, cells, payloads) in zip(self._var, self._columns):
            if ftype is _STRING:
                out += _U32.pack(len(index))
                for entry in index.values():
                    out += entry[2]
                fmt = _index_format(len(index))
                out += bytes(cells) if fmt == "B" else struct.pack(f"<{len(cells)}{fmt}", *cells)
            else:
                out += struct.pack(f"<{len(cells)}I", *cells)
                out += b"".join(payloads)
        self.clear()

    def clear(self) -> None:
        """Drop the batch."""
        for index, cells, payloads in self._columns:
            index.clear()
            cells.clear()
            payloads.clear()
        self.taken += 1


# -- the receiver's columns --------------------------------------------------
#
# A u32, a lengths column or an indexes column read past the body raises
# struct.error, which ``iter_decode`` refuses like the rest.


def _read_strings(view: memoryview, at: int, count: int) -> tuple[list[str], int]:
    (distinct,) = _U32.unpack_from(view, at)
    if distinct > count:
        raise SerializationError(f"a dictionary of {distinct} strings at offset {at}")
    at += 4
    strings = []
    for _ in range(distinct):
        end = at + 4 + _U32.unpack_from(view, at)[0]
        if end > len(view):
            raise SerializationError(f"the string at offset {at} runs past the body")
        try:
            strings.append(str(view[at + 4 : end], "utf-8"))
        except UnicodeDecodeError as exc:
            raise SerializationError(f"invalid utf-8 in the string at offset {at}") from exc
        at = end
    indexes = struct.Struct(f"<{count}{_index_format(distinct)}")
    try:
        return list(map(strings.__getitem__, indexes.unpack_from(view, at))), at + indexes.size
    except IndexError:
        raise SerializationError(
            f"a string index past the {distinct} of the dictionary at offset {at}"
        ) from None


def _read_sized(
    view: memoryview, at: int, count: int, ftype: FieldType
) -> tuple[list[Any], int]:
    lengths = struct.unpack_from(f"<{count}I", view, at)
    start = at + 4 * count
    element = LIST_ELEMENTS.get(ftype)
    items = sum(lengths)
    end = start + items * (1 if element is None else 8)
    if end > len(view):
        raise SerializationError(f"{ftype.value} lengths at offset {at} run past the body")
    make: Callable[[Any], Any] = bytes
    seq: Any = view
    if element is not None:
        make, seq, start = list, struct.unpack_from(f"<{items}{element}", view, start), 0
    values = []
    for n in lengths:
        values.append(make(seq[start : start + n]))
        start += n
    return values, end


class PacketCodec:
    """Reusable encoder/decoder for one packet schema.

    ``compiled=True`` (default) runs the code generated for the schema;
    ``compiled=False`` the per-field reference (identical bytes,
    slower).
    """

    __slots__ = ("schema", "pack", "_plan", "_compiled", "_own", "_scratch", "_reused_packet")
    __slots__ += ("packets_encoded", "packets_decoded")

    def __init__(self, schema: PacketSchema, compiled: bool = True) -> None:
        self.schema = schema
        self._compiled = compiled
        plan = self._plan = _compile(schema.types)
        #: ``pack(*values)``: one record's fixed-width fields as bytes —
        #: for a schema of nothing else, ``Struct.pack`` itself.  It
        #: raises on anything it cannot pack; :meth:`refuse` says what.
        self.pack: Callable[..., bytes] = plan.pack if compiled else self._pack_fields
        # The columns of this codec's own bodies (``encode*``).
        self._own = self.columns()
        self._scratch = bytearray()
        self._reused_packet = StreamPacket(schema)
        self.packets_encoded = 0
        self.packets_decoded = 0

    def columns(self) -> _Columns | None:
        """Fresh columns for one sender's batches of this schema (see
        :class:`_Columns`); None when it has no variable-width field."""
        plan = self._plan
        if not plan.var:
            return None
        return _Columns(self.schema, plan.var, plan.bind if self._compiled else None)

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

    def refuse(self, values: list[Any]) -> NoReturn:
        """Raise for a record whose fixed-width fields ``pack`` refused,
        naming the first field ``encode_field`` refuses."""
        self._pack_fields(*values)
        raise SerializationError("cannot encode the record's fixed-width fields")

    def _pack_fields(self, *values: Any) -> bytes:
        out = bytearray()
        for i in self._plan.fixed_at:
            _encode(self.schema, i, values[i], out)
        return bytes(out)

    def _write(self, packets: list[StreamPacket], out: bytearray) -> None:
        """Append the body of ``packets`` to ``out``: all of it, or —
        raising what the first bad packet raises — nothing."""
        schema, pack, columns = self.schema, self.pack, self._own
        start = len(out)
        try:
            for packet in packets:
                values = packet._values
                if (packet.schema is not schema and packet.schema != schema) or None in values:
                    self.reject(packet)
                try:
                    record = pack(*values)
                except Exception:
                    self.refuse(values)
                if columns is not None:
                    columns.prepare(values)
                    columns.commit()
                out += record
        except BaseException:
            del out[start:]
            if columns is not None:
                columns.clear()
            raise
        if columns is not None:
            columns.take(out)
        self.packets_encoded += len(packets)

    def encode_into(self, packet: StreamPacket, out: bytearray) -> int:
        """Append the body of ``packet`` alone to ``out``; return its
        size.  A packet that fails to encode leaves ``out`` as it was."""
        start = len(out)
        self._write([packet], out)
        return len(out) - start

    def encode(self, packet: StreamPacket) -> bytes:
        """The body of ``packet`` alone (reusing the internal scratch)."""
        return self.encode_batch([packet])

    def encode_view(self, packet: StreamPacket) -> memoryview:
        """The body of ``packet`` alone, as a view of the internal scratch.

        Zero-copy variant of :meth:`encode`: the returned view is valid
        only until the next ``encode``/``encode_view``/``encode_batch``
        call on this codec, so the caller must copy it out (e.g.
        ``StreamBuffer.append`` does) before encoding again.  One codec
        belongs to one sender instance, whose executions are serialized
        — no locking needed.
        """
        scratch = self._clear_scratch()
        self._write([packet], scratch)
        return memoryview(scratch)

    def encode_batch(self, packets: list[StreamPacket]) -> bytes:
        """The body of a batch (reusing the internal scratch)."""
        scratch = self._clear_scratch()
        self._write(packets, scratch)
        return bytes(scratch)

    # -- decoding -----------------------------------------------------------
    def iter_decode(
        self,
        body: bytes | bytearray | memoryview,
        count: int | None = None,
        reuse: bool = True,
    ) -> Iterator[StreamPacket]:
        """Yield the ``count`` packets of ``body``.

        With ``reuse=True`` (NEPTUNE's frugal path) the same packet
        object is refilled and yielded each time.  ``count`` is the
        frame header's; the body is checked against it before the
        first yield, so a consumer that stops iterating early still
        observes a short or overlong batch.  Only a schema without a
        variable-width field may leave ``count`` out: its records are
        then walked until the body ends, and a partial last record
        raises once the whole ones are out.
        """
        rows = self._plan.rows if self._compiled else PacketCodec._fill_fields
        packets: Iterator[StreamPacket] = rows(self, body, count)
        return packets if reuse else (pkt.clone() for pkt in packets)

    def _open(
        self, body: bytes | bytearray | memoryview, count: int | None
    ) -> tuple[memoryview, int, list[list[Any]]]:
        """Check ``body`` against ``count`` and read its columns."""
        view = memoryview(body) if not isinstance(body, memoryview) else body
        total = len(view)
        plan = self._plan
        size = plan.fixed.size
        if count is None:
            if plan.var:
                raise SerializationError("a batch of variable-width records needs its count")
            count = total // size
        elif count * size > total or (count * size != total and not plan.var):
            raise SerializationError(
                f"batch declared {count} packets ({count * size} bytes), body has {total} bytes"
            )
        columns: list[list[Any]] = []
        at = count * size
        try:
            for _, ftype in plan.var:
                if ftype is _STRING:
                    values, at = _read_strings(view, at, count)
                else:
                    values, at = _read_sized(view, at, count, ftype)
                columns.append(values)
            if plan.var and at != total:
                raise SerializationError(f"{total - at} trailing bytes")
        except (SerializationError, struct.error) as exc:
            raise SerializationError(f"batch declared {count} packets: {exc}") from None
        return view, count, columns

    def _close(self, view: memoryview, count: int) -> None:
        """After the last record: count them, and refuse the partial
        record an all-fixed body without a count may end in."""
        self.packets_decoded += count
        if count * self._plan.fixed.size != len(view) and not self._plan.var:
            raise SerializationError(f"truncated record at offset {count * self._plan.fixed.size}")

    def _fill_fields(
        self, body: bytes | bytearray | memoryview, count: int | None
    ) -> Iterator[StreamPacket]:
        """The per-field reference of the generated ``rows``."""
        view, count, columns = self._open(body, count)
        types, fixed_at = self.schema.types, self._plan.fixed_at
        row = self._reused_packet._values
        offset = 0
        for r in range(count):
            for i in fixed_at:
                row[i], offset = decode_field(types[i], view, offset)
            for (i, _), values in zip(self._plan.var, columns):
                row[i] = values[r]
            yield self._reused_packet
        self._close(view, count)
