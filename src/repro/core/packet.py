"""Stream packets and their schemas (paper §III-A1).

"A stream packet is the most fine grained element of data in NEPTUNE.
An ordered, unbounded set of stream packets forms a stream.  Users can
define stream packets by combining one or more data fields as required."

A :class:`PacketSchema` is an ordered list of named, typed fields.  A
:class:`StreamPacket` holds one value per field.  Packets are designed
for *reuse*: :meth:`StreamPacket.reset` clears values so pooled packets
can be recycled instead of reallocated (paper §III-B3).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.core.fieldtypes import EXACT_TYPES, FieldType, validate_value
from repro.util.errors import SerializationError


class PacketSchema:
    """Ordered, named, typed field layout shared by packets of a stream.

    Schemas are immutable and hashable; operators on both ends of a link
    must agree on the schema (enforced by graph validation).
    """

    __slots__ = ("_names", "_types", "_index", "_hash", "_exact", "_blank")

    def __init__(self, fields: Sequence[tuple[str, FieldType]]) -> None:
        if not fields:
            raise ValueError("schema needs at least one field")
        names = tuple(name for name, _ in fields)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate field names: {dupes}")
        for name in names:
            if not name or not isinstance(name, str):
                raise ValueError(f"invalid field name: {name!r}")
        self._names = names
        self._types = tuple(FieldType(t) for _, t in fields)
        self._index = {n: i for i, n in enumerate(names)}
        self._hash = hash((self._names, self._types))
        # Per-packet work resolved once per schema: the classes each
        # field accepts on sight (set_at) and a cleared value row (reset).
        self._exact = tuple(EXACT_TYPES[t] for t in self._types)
        self._blank = (None,) * len(names)

    @property
    def names(self) -> tuple[str, ...]:
        """Field names, in schema order."""
        return self._names

    @property
    def types(self) -> tuple[FieldType, ...]:
        """Field types, in schema order."""
        return self._types

    def index_of(self, name: str) -> int:
        """Index of a named field (KeyError when unknown)."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no field {name!r}; schema has {list(self._names)}") from None

    def type_of(self, name: str) -> FieldType:
        """Type of a named field."""
        return self._types[self.index_of(name)]

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[tuple[str, FieldType]]:
        return iter(zip(self._names, self._types))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PacketSchema)
            and self._names == other._names
            and self._types == other._types
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{t.value}" for n, t in self)
        return f"PacketSchema({inner})"

    # -- (de)serialization of the schema itself (for JSON descriptors) ------
    def to_dict(self) -> list[dict[str, str]]:
        """Plain-dict form (JSON-friendly)."""
        return [{"name": n, "type": t.value} for n, t in self]

    @classmethod
    def from_dict(cls, fields: Sequence[Mapping[str, str]]) -> "PacketSchema":
        """Rebuild from the to_dict() form."""
        return cls([(f["name"], FieldType(f["type"])) for f in fields])

    def new_packet(self, /, **values: Any) -> "StreamPacket":
        """Create a packet of this schema, optionally pre-filled."""
        pkt = StreamPacket(self)
        for name, value in values.items():
            pkt.set(name, value)
        return pkt


class StreamPacket:
    """One unit of stream data: a value per schema field.

    Mutable by design — NEPTUNE pools and reuses packet objects to
    reduce GC strain, so a packet must be cheap to ``reset``.
    Field access by name (``pkt.get("temp")``, ``pkt["temp"]``) or by
    index (``pkt.get_at(2)``, faster on hot paths).
    """

    __slots__ = ("schema", "_values", "_home")

    def __init__(self, schema: PacketSchema) -> None:
        self.schema = schema
        self._values: list[Any] = [None] * len(schema)
        #: The runtime free-list this packet is on lease from, if any
        #: (``ctx.new_packet``); a packet built by hand is never pooled.
        self._home: list[StreamPacket] | None = None

    # -- field access ---------------------------------------------------------
    def set(self, name: str, value: Any) -> "StreamPacket":
        """Assign a field by name (validates the value's type)."""
        return self.set_at(self.schema.index_of(name), value)

    def set_at(self, index: int, value: Any) -> "StreamPacket":
        """Assign a field by index (hot-path variant of set)."""
        schema = self.schema
        if type(value) not in schema._exact[index] and not validate_value(
            schema._types[index], value
        ):
            raise SerializationError(
                f"value {value!r} is not a valid {schema._types[index].value} "
                f"for field {schema._names[index]!r}"
            )
        self._values[index] = value
        return self

    def get(self, name: str) -> Any:
        """Read a field by name."""
        return self._values[self.schema.index_of(name)]

    def get_at(self, index: int) -> Any:
        """Read a field by index (hot-path variant of get)."""
        return self._values[index]

    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __setitem__(self, name: str, value: Any) -> None:
        self.set(name, value)

    @property
    def values(self) -> tuple[Any, ...]:
        """The field values, in schema order."""
        return tuple(self._values)

    def is_complete(self) -> bool:
        """Whether every field has been assigned (required to encode)."""
        return None not in self._values

    # -- reuse ------------------------------------------------------------------
    def reset(self) -> "StreamPacket":
        """Clear all values for reuse from a pool."""
        self._values[:] = self.schema._blank
        return self

    def copy_from(self, other: "StreamPacket") -> "StreamPacket":
        """Copy all field values from a same-schema packet."""
        if other.schema != self.schema:
            raise SerializationError("copy_from across different schemas")
        self._values[:] = other._values
        return self

    def clone(self) -> "StreamPacket":
        """A detached copy (for retaining a borrowed/pooled packet)."""
        fresh = StreamPacket(self.schema)
        fresh._values[:] = self._values
        return fresh

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-friendly)."""
        return dict(zip(self.schema.names, self._values))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StreamPacket)
            and self.schema == other.schema
            and self._values == other._values
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(self.schema.names, self._values))
        return f"StreamPacket({inner})"
