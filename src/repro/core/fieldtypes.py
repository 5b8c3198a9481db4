"""Primitive field types for stream packets (paper §III-A1).

"NEPTUNE natively supports a set of primitive data types and data
structures to aid in defining data fields within a stream packet."

Each type knows its encoding.  Fixed-width types use :mod:`struct`; a
variable-width value is its payload behind a u32 length (its *row
form*; :mod:`repro.core.serde` lays a batch's lengths and payloads out
in columns).  Validation is strict: writing a value outside a type's
domain raises :class:`~repro.util.errors.SerializationError` at encode
time, not a corrupt packet at the receiver.
"""

from __future__ import annotations

import enum
import re
import struct
from functools import lru_cache
from typing import Any, Callable

from repro.util.codegen import run_generated
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
            raw = memoryview(value).tobytes()
            out += _U32.pack(len(raw))
            out += raw
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
    except (struct.error, AttributeError, TypeError, OverflowError, UnicodeError) as exc:
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


#: The ``struct`` format of each fixed-width type: little-endian,
#: standard sizes, no padding.  BOOL's "?" packs any truthy value as
#: 0x01 — what ``_I8.pack(1 if value else 0)`` writes.
FIXED_FORMATS = {
    FieldType.BOOL: "?",
    FieldType.INT32: "i",
    FieldType.INT64: "q",
    FieldType.FLOAT32: "f",
    FieldType.FLOAT64: "d",
}

#: The ``struct`` format of one element of each list type.
LIST_ELEMENTS = {FieldType.FLOAT64_LIST: "d", FieldType.INT64_LIST: "q"}


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
# with ``v`` bound to field ``I`` of ``row`` and leave in ``v`` what the
# decode would have; every field's are run before any value is stored
# back, so a row that raises is left as it came (a chained leg may take
# a leased packet's own values list as its row).  A field type that is
# not here comes back from a decode as it went in: BOOL (``set_at``
# only lets a bool in).  A STRING is only weighed, at a byte a
# character: it is immutable, and the one thing skipped is utf-8
# refusing a lone surrogate, which the next real buffer still does.

_AS_DECODED_SOURCE = {
    FieldType.INT32: (
        f"if not {_INT32_MIN} <= v <= {_INT32_MAX}:\n"
        "    raise SerializationError(f'int32 out of range: {v}')"
    ),
    FieldType.INT64: (
        f"if not {_INT64_MIN} <= v <= {_INT64_MAX}:\n"
        "    raise SerializationError(f'int64 out of range: {v}')"
    ),
    FieldType.FLOAT32: "v = unpack_f32(pack_f32(v))[0]",
    FieldType.FLOAT64: "if type(v) is not float:\n    v = float(v)",
    FieldType.STRING: "size += len(v)",
    FieldType.BYTES: "if type(v) is not bytes:\n    v = bytes(v)\nsize += len(v)",
    FieldType.FLOAT64_LIST: "v = [float(x) for x in v]\nsize += 8 * len(v)",
    FieldType.INT64_LIST: "v = int64_list(v)\nsize += 8 * len(v)",
}

#: The field types whose value the statements above may replace.
_AS_DECODED_STORED = {FieldType.FLOAT32, FieldType.FLOAT64, FieldType.BYTES, *LIST_ELEMENTS}


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
    raised for an int out of range - with ``row`` untouched - and
    returns the encoded size."""
    width = sum(ftype.fixed_size or 4 for ftype in types)
    lines = ["def as_decoded(row):", f"    size = {width}"]
    stores = []
    for i, ftype in enumerate(types):
        source = _AS_DECODED_SOURCE.get(ftype)
        if source is not None:
            lines.append(f"    v{i} = row[{i}]")
            lines += ["    " + line for line in re.sub(r"\bv\b", f"v{i}", source).split("\n")]
        if ftype in _AS_DECODED_STORED:
            stores.append(f"    row[{i}] = v{i}")
    lines += stores
    lines.append("    return size")
    scope: dict[str, Any] = {
        "SerializationError": SerializationError,
        "pack_f32": _F32.pack,
        "unpack_f32": _F32.unpack,
        "int64_list": _int64_list,
    }
    run_generated(lines, "fieldtypes.as_decoded", ",".join(t.value for t in types), scope)
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
