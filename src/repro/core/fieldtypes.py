"""Primitive field types for stream packets (paper §III-A1).

"NEPTUNE natively supports a set of primitive data types and data
structures to aid in defining data fields within a stream packet."

Each type knows its wire encoding.  Fixed-width types use
:mod:`struct`; variable-width types are length-prefixed with a u32.
Validation is strict: writing a value outside a type's domain raises
:class:`~repro.util.errors.SerializationError` at encode time, not a
corrupt packet at the receiver.
"""

from __future__ import annotations

import enum
import struct
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.util.errors import SerializationError

_I8 = struct.Struct("<b")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")


class FieldType(enum.Enum):
    """Wire types available for packet fields."""

    BOOL = "bool"
    INT32 = "int32"
    INT64 = "int64"
    FLOAT32 = "float32"
    FLOAT64 = "float64"
    STRING = "string"
    BYTES = "bytes"
    FLOAT64_LIST = "float64_list"
    INT64_LIST = "int64_list"

    @property
    def fixed_size(self) -> int | None:
        """Encoded size in bytes for fixed-width types, else None."""
        return _FIXED_SIZES.get(self)


_FIXED_SIZES = {
    FieldType.BOOL: 1,
    FieldType.INT32: 4,
    FieldType.INT64: 8,
    FieldType.FLOAT32: 4,
    FieldType.FLOAT64: 8,
}

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def encode_field(ftype: FieldType, value: Any, out: bytearray) -> None:
    """Append the wire encoding of ``value`` as ``ftype`` to ``out``."""
    try:
        if ftype is FieldType.BOOL:
            out += _I8.pack(1 if value else 0)
        elif ftype is FieldType.INT32:
            if not _INT32_MIN <= value <= _INT32_MAX:
                raise SerializationError(f"int32 out of range: {value}")
            out += _I32.pack(value)
        elif ftype is FieldType.INT64:
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise SerializationError(f"int64 out of range: {value}")
            out += _I64.pack(value)
        elif ftype is FieldType.FLOAT32:
            out += _F32.pack(value)
        elif ftype is FieldType.FLOAT64:
            out += _F64.pack(value)
        elif ftype is FieldType.STRING:
            raw = value.encode("utf-8")
            out += _U32.pack(len(raw))
            out += raw
        elif ftype is FieldType.BYTES:
            out += _U32.pack(len(value))
            out += value
        elif ftype is FieldType.FLOAT64_LIST:
            out += _U32.pack(len(value))
            for v in value:
                out += _F64.pack(v)
        elif ftype is FieldType.INT64_LIST:
            out += _U32.pack(len(value))
            for v in value:
                out += _I64.pack(v)
        else:  # pragma: no cover — exhaustive over the enum
            raise SerializationError(f"unsupported field type: {ftype}")
    except (struct.error, AttributeError, TypeError) as exc:
        raise SerializationError(f"cannot encode {value!r} as {ftype.value}") from exc


def decode_field(ftype: FieldType, buf: bytes | memoryview, offset: int) -> tuple[Any, int]:
    """Decode one ``ftype`` value at ``offset``; return (value, new_offset)."""
    try:
        if ftype is FieldType.BOOL:
            return buf[offset] != 0, offset + 1
        if ftype is FieldType.INT32:
            return _I32.unpack_from(buf, offset)[0], offset + 4
        if ftype is FieldType.INT64:
            return _I64.unpack_from(buf, offset)[0], offset + 8
        if ftype is FieldType.FLOAT32:
            return _F32.unpack_from(buf, offset)[0], offset + 4
        if ftype is FieldType.FLOAT64:
            return _F64.unpack_from(buf, offset)[0], offset + 8
        if ftype is FieldType.STRING:
            n = _U32.unpack_from(buf, offset)[0]
            start = offset + 4
            if start + n > len(buf):
                raise SerializationError("truncated string field")
            return bytes(buf[start : start + n]).decode("utf-8"), start + n
        if ftype is FieldType.BYTES:
            n = _U32.unpack_from(buf, offset)[0]
            start = offset + 4
            if start + n > len(buf):
                raise SerializationError("truncated bytes field")
            return bytes(buf[start : start + n]), start + n
        if ftype is FieldType.FLOAT64_LIST:
            n = _U32.unpack_from(buf, offset)[0]
            start = offset + 4
            end = start + 8 * n
            if end > len(buf):
                raise SerializationError("truncated float64 list")
            return [
                _F64.unpack_from(buf, start + 8 * i)[0] for i in range(n)
            ], end
        if ftype is FieldType.INT64_LIST:
            n = _U32.unpack_from(buf, offset)[0]
            start = offset + 4
            end = start + 8 * n
            if end > len(buf):
                raise SerializationError("truncated int64 list")
            return [
                _I64.unpack_from(buf, start + 8 * i)[0] for i in range(n)
            ], end
        raise SerializationError(f"unsupported field type: {ftype}")  # pragma: no cover
    except (struct.error, IndexError) as exc:
        raise SerializationError(f"truncated {ftype.value} field at offset {offset}") from exc


# -- schema compilation (hot-path codec, §III-B3) ---------------------------
#
# The per-field functions above dispatch on the FieldType enum once per
# field per packet.  For schemas dominated by fixed-width fields that
# dispatch *is* the encode cost, so a :class:`CompiledSchema` fuses every
# maximal run of consecutive fixed-width fields into one precompiled
# ``struct.Struct``: a record with k fixed fields costs one pack/unpack
# instead of k enum dispatches.  Variable-width fields fall back to the
# per-field path between runs.  The wire format is byte-identical to the
# per-field codec (little-endian standard sizes, no padding; BOOL uses
# the "?" format, which packs any truthy value as 0x01 — exactly what
# ``_I8.pack(1 if value else 0)`` produced).

_RUN_FORMATS = {
    FieldType.BOOL: "?",
    FieldType.INT32: "i",
    FieldType.INT64: "q",
    FieldType.FLOAT32: "f",
    FieldType.FLOAT64: "d",
}

# A step is ("F", struct.Struct, start, end) for a fused fixed-width run
# over schema fields [start, end), or ("V", FieldType, index, None) for
# one variable-width field.
_Step = tuple[str, Any, int, Any]

# Variable-width records, one shape at a time.  The u32 length prefixes
# of a record's variable fields are its *shape*, and every record of
# one shape has the same fixed layout (STRING fields of 9 and 7 bytes
# around a fixed run: ``<I9sq6fI7s``), so it is one ``Struct.pack`` /
# ``unpack_from`` like an all-fixed record.  In that layout a variable
# field is the pair (prefix, payload bytes); a list's payload is its
# elements packed with the format below.
LIST_ELEMENTS = {FieldType.FLOAT64_LIST: "d", FieldType.INT64_LIST: "q"}


def _picker(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``itemgetter`` that returns a tuple for a single position too."""
    if len(positions) == 1:
        only = positions[0]
        return lambda row: (row[only],)
    return itemgetter(*positions)


class CompiledSchema:
    """Fused encode/decode plan for one ordered tuple of field types.

    Obtain via :func:`compile_fieldtypes` (cached per type tuple — the
    plan is immutable and shared by every codec of the schema).
    """

    __slots__ = (
        "types",
        "steps",
        "fixed_total",
        "record_size",
        "record_struct",
        "var_items",
        "string_fields",
        "list_fields",
        "prefixes",
        "fields",
        "_layout_format",
        "_payload_widths",
    )

    def __init__(self, types: Sequence[FieldType]) -> None:
        self.types = tuple(types)
        steps: list[_Step] = []
        run_start = -1
        fmt = ""
        fixed_total = 0
        var_fields = 0
        for i, ftype in enumerate(self.types):
            ch = _RUN_FORMATS.get(ftype)
            if ch is not None:
                if run_start < 0:
                    run_start = i
                fmt += ch
                continue
            if run_start >= 0:
                s = struct.Struct("<" + fmt)
                steps.append(("F", s, run_start, i))
                fixed_total += s.size
                run_start, fmt = -1, ""
            steps.append(("V", ftype, i, None))
            var_fields += 1
        if run_start >= 0:
            s = struct.Struct("<" + fmt)
            steps.append(("F", s, run_start, len(self.types)))
            fixed_total += s.size
        self.steps: tuple[_Step, ...] = tuple(steps)
        #: Total bytes contributed by fixed-width fields per record.
        self.fixed_total = fixed_total
        #: Exact record size when every field is fixed-width, else None.
        self.record_size = fixed_total if var_fields == 0 else None
        #: The one ``struct.Struct`` covering a whole all-fixed record
        #: (a record is then one ``pack``, a batch one ``iter_unpack``).
        self.record_struct: struct.Struct | None = (
            steps[0][1] if var_fields == 0 else None
        )
        # -- shaped layouts (see LIST_ELEMENTS) --------------------------
        var = [(i, t) for i, t in enumerate(self.types) if t not in _RUN_FORMATS]
        # A layout's items are the record's values with each variable
        # field's prefix put before it: field i sits k places later
        # when k variable fields come before it.
        prefix_at = [i + k for k, (i, _) in enumerate(var)]
        #: ``(position of its prefix in a layout's items, type)`` of
        #: each variable field, in field order.
        self.var_items = tuple(zip(prefix_at, (t for _, t in var)))
        #: Fields that a layout's items hold as bytes still to convert.
        self.string_fields = tuple(i for i, t in var if t is FieldType.STRING)
        self.list_fields = tuple(
            (i, struct.Struct("<" + LIST_ELEMENTS[t]).iter_unpack)
            for i, t in var
            if t in LIST_ELEMENTS
        )
        #: Layout items -> the length prefixes / the field values
        #: (None for an all-fixed schema: it has no layouts).
        self.prefixes = self.fields = None
        if var:
            self.prefixes = _picker(prefix_at)
            self.fields = _picker(
                [p for p in range(len(self.types) + len(var)) if p not in prefix_at]
            )
        self._layout_format = "<" + "".join(
            a.format[1:] if kind == "F" else "I%ds" for kind, a, _, _ in steps
        )
        self._payload_widths = tuple(8 if t in LIST_ELEMENTS else 1 for _, t in var)

    def encode_values(self, values: Sequence[Any], out: bytearray) -> None:
        """Append the wire form of one record's ``values`` to ``out``.

        Raises :class:`SerializationError` on any bad value; the caller
        (``PacketCodec.encode_into``) truncates ``out`` back to the
        record start so a failed encode never leaves partial bytes.
        """
        for kind, a, start, end in self.steps:
            if kind == "F":
                try:
                    out += a.pack(*values[start:end])
                except (struct.error, OverflowError, TypeError) as exc:
                    # Replay the run per-field for the canonical
                    # diagnostic (names the first offending value).
                    for i in range(start, end):
                        encode_field(self.types[i], values[i], out)
                    raise SerializationError(
                        f"cannot encode fixed-width run at field {start}"
                    ) from exc  # pragma: no cover — per-field replay raises first
            else:
                encode_field(a, values[start], out)

    def layout(self, shape: tuple[int, ...]) -> struct.Struct:
        """The fixed layout of the records whose variable fields carry
        the length prefixes ``shape``."""
        return struct.Struct(
            self._layout_format
            % tuple(n * width for n, width in zip(shape, self._payload_widths))
        )

    def shape_at(
        self, buf: bytes | bytearray | memoryview, offset: int
    ) -> tuple[int, ...]:
        """The length prefixes of the well-formed record at ``offset``."""
        shape = []
        widths = iter(self._payload_widths)
        for kind, a, _, _ in self.steps:
            if kind == "F":
                offset += a.size
            else:
                n = _U32.unpack_from(buf, offset)[0]
                shape.append(n)
                offset += 4 + n * next(widths)
        return tuple(shape)

    def decode_into(
        self, values: list[Any], buf: bytes | bytearray | memoryview, offset: int
    ) -> int:
        """Fill ``values`` with one record decoded at ``offset``.

        Returns the offset one past the record.  Raises
        :class:`SerializationError` on truncation.
        """
        for kind, a, start, end in self.steps:
            if kind == "F":
                try:
                    values[start:end] = a.unpack_from(buf, offset)
                except struct.error as exc:
                    raise SerializationError(
                        f"truncated record at offset {offset}"
                    ) from exc
                offset += a.size
            else:
                values[start], offset = decode_field(a, buf, offset)
        return offset


@lru_cache(maxsize=256)
def compile_fieldtypes(types: tuple[FieldType, ...]) -> CompiledSchema:
    """The (cached) fused codec plan for an ordered field-type tuple."""
    return CompiledSchema(types)


# -- a hop without the bytes (operator chaining) -----------------------------
#
# A chained leg (``core/runtime.py::_ChainedLeg``) hands field values to
# the receiver without encoding them, so it owes the receiver what an
# encode followed by a decode would have done to each value besides
# moving it: refuse an int the wire type cannot hold, round a FLOAT32,
# make a float of an int in a float field, and snapshot a mutable value
# (``bytearray``/``memoryview``, a list) that the sender may go on
# changing.  It also wants to know what the record would have weighed,
# to hand over where a buffer would have flushed.  Both are one function
# per schema, generated like the codec's fused struct so that a packet
# pays one call and no per-field dispatch (as a loop over per-type
# functions this read +1.0 us a packet on the relay workloads,
# EXPERIMENTS.md "Chain 1:1 local links").  The statements below run
# with ``v`` bound to field ``I`` of ``row``; a field type that is not
# here comes back from a decode as it went in: BOOL (``set_at`` only
# lets a bool in).  A STRING is only weighed, at a byte a character: it
# is immutable, and the one thing skipped is utf-8 refusing a lone
# surrogate, which the next real buffer still does.

_AS_DECODED_SOURCE = {
    FieldType.INT32: (
        f"if not {_INT32_MIN} <= v <= {_INT32_MAX}:\n"
        "    raise SerializationError(f'int32 out of range: {v}')"
    ),
    FieldType.INT64: (
        f"if not {_INT64_MIN} <= v <= {_INT64_MAX}:\n"
        "    raise SerializationError(f'int64 out of range: {v}')"
    ),
    FieldType.FLOAT32: "row[I] = unpack_f32(pack_f32(v))[0]",
    FieldType.FLOAT64: "if type(v) is not float:\n    row[I] = float(v)",
    FieldType.STRING: "size += len(v)",
    FieldType.BYTES: "if type(v) is not bytes:\n    row[I] = v = bytes(v)\nsize += len(v)",
    FieldType.FLOAT64_LIST: "row[I] = v = [float(x) for x in v]\nsize += 8 * len(v)",
    FieldType.INT64_LIST: "row[I] = v = int64_list(v)\nsize += 8 * len(v)",
}


def _int64_list(value: Any) -> list[int]:
    out = list(value)
    if out and not (_INT64_MIN <= min(out) and max(out) <= _INT64_MAX):
        raise SerializationError(f"cannot encode {value!r} as int64_list")
    return out


@lru_cache(maxsize=256)
def compile_as_decoded(types: tuple[FieldType, ...]) -> Callable[[list[Any]], int]:
    """``as_decoded(row) -> size`` for records of ``types``: leaves in
    ``row`` (a list of validated, complete field values) what encoding
    and decoding it would have, raises what the encode would have
    raised for an int out of range, and returns the encoded size."""
    width = sum(ftype.fixed_size or 4 for ftype in types)
    lines = ["def as_decoded(row):", f"    size = {width}"]
    for i, ftype in enumerate(types):
        source = _AS_DECODED_SOURCE.get(ftype)
        if source is not None:
            lines.append(f"    v = row[{i}]")
            lines += ["    " + line for line in source.replace("row[I]", f"row[{i}]").split("\n")]
    lines.append("    return size")
    scope: dict[str, Any] = {
        "SerializationError": SerializationError,
        "pack_f32": _F32.pack,
        "unpack_f32": _F32.unpack,
        "int64_list": _int64_list,
    }
    exec("\n".join(lines), scope)  # noqa: S102 - source is the table above
    return scope["as_decoded"]  # type: ignore[no-any-return]


#: Classes whose instances :func:`validate_value` accepts without
#: looking any further, per field type: ``StreamPacket.set_at`` tests
#: ``type(value)`` against the schema's precomputed row of these and
#: only falls back to :func:`validate_value` for everything else
#: (subclasses, lists — whose elements need the scan — and rejects).
#: ``bool`` is deliberately absent from the numeric rows.
EXACT_TYPES: dict[FieldType, tuple[type, ...]] = {
    FieldType.BOOL: (bool,),
    FieldType.INT32: (int,),
    FieldType.INT64: (int,),
    FieldType.FLOAT32: (float, int),
    FieldType.FLOAT64: (float, int),
    FieldType.STRING: (str,),
    FieldType.BYTES: (bytes, bytearray, memoryview),
    FieldType.FLOAT64_LIST: (),
    FieldType.INT64_LIST: (),
}


def validate_value(ftype: FieldType, value: Any) -> bool:
    """Type check behind packet assignment (the reference rule)."""
    if ftype is FieldType.BOOL:
        return isinstance(value, bool)
    if ftype in (FieldType.INT32, FieldType.INT64):
        return isinstance(value, int) and not isinstance(value, bool)
    if ftype in (FieldType.FLOAT32, FieldType.FLOAT64):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if ftype is FieldType.STRING:
        return isinstance(value, str)
    if ftype is FieldType.BYTES:
        return isinstance(value, (bytes, bytearray, memoryview))
    if ftype is FieldType.FLOAT64_LIST:
        return isinstance(value, (list, tuple)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        )
    if ftype is FieldType.INT64_LIST:
        return isinstance(value, (list, tuple)) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        )
    return False  # pragma: no cover
