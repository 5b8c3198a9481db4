"""Stream partitioning schemes (paper §III-A6).

"Partitioning schemes define how a stream should be partitioned when it
is routed to different instances of the same stream processor. ...
NEPTUNE supports a set of partitioning schemes natively and also allows
users to design custom partitioning schemes."

A scheme maps a packet to the destination instance index (or indices,
for broadcast) among ``n`` instances of the downstream operator.
Custom schemes subclass :class:`PartitioningScheme` and register with
:func:`register_partitioning` so JSON graph descriptors can name them.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence

from repro.core.fieldtypes import FieldType
from repro.core.packet import PacketSchema, StreamPacket
from repro.lz4 import xxh32
from repro.util.errors import GraphValidationError, PartitioningError


class PartitioningScheme(ABC):
    """Maps each packet to destination instance indices."""

    #: Name used in JSON descriptors; subclasses override.
    name = "abstract"

    #: Whether routing is a pure function of (packet, n_instances) and
    #: prior routed packets — i.e. replaying the same packet sequence
    #: reproduces the same assignment.  Sharding an operator across
    #: worker processes rides on this: after a worker crash the source's
    #: replayed packets must land on the same instances or per-key order
    #: (and exactly-once accounting per shard) is lost.  Schemes whose
    #: routing draws on unseeded randomness set this to False
    #: (``repro analyze`` flags them on sharded links as NEPG122).
    deterministic: bool = True

    @abstractmethod
    def route(self, packet: StreamPacket, n_instances: int) -> Sequence[int]:
        """Destination instance indices in ``range(n_instances)``."""

    def describe(self) -> dict:
        """JSON-descriptor form of this scheme."""
        return {"scheme": self.name}


class RoundRobinPartitioning(PartitioningScheme):
    """Cycle through instances — even load, no key affinity.

    Stateful per link leg; NEPTUNE instantiates one scheme object per
    (sender instance, link), so no lock is needed (operator instances
    execute serialized).
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def route(self, packet: StreamPacket, n_instances: int) -> Sequence[int]:
        """Destination instance indices for one packet."""
        idx = self._next
        self._next = (idx + 1) % n_instances
        return (idx,)


class ShufflePartitioning(PartitioningScheme):
    """Uniformly random instance per packet (Storm's "shuffle grouping").

    Unseeded, routing differs run to run, which cannot be sharded
    across worker processes (replay after a crash would re-route
    packets); pass ``seed`` to make the stream reproducible and
    descriptor-portable.
    """

    name = "shuffle"

    def __init__(self, seed: int | None = None) -> None:
        self.seed = seed
        self.deterministic = seed is not None
        self._rng = random.Random(seed)

    def route(self, packet: StreamPacket, n_instances: int) -> Sequence[int]:
        """Destination instance indices for one packet."""
        return (self._rng.randrange(n_instances),)

    def describe(self) -> dict:
        """JSON-descriptor form of this scheme."""
        if self.seed is None:
            return {"scheme": self.name}
        return {"scheme": self.name, "seed": self.seed}


#: Key field types whose values are hashed as ``float``s.
_FLOATS = (FieldType.FLOAT32, FieldType.FLOAT64)

#: Distinct keys a :class:`FieldsPartitioning` remembers the hash of.
#: A full memo is emptied, not frozen: the keys in use may have moved on.
_KEY_MEMO_LIMIT = 4096


class FieldsPartitioning(PartitioningScheme):
    """Key-hash partitioning: same key fields → same instance.

    Required whenever a processor keeps per-key state (e.g. the DEBS
    monitoring job keys by sensor id).  The key's hash is xxh32 over
    the UTF-8 of each named field's ``repr``, chained through the seed
    — a stable, platform-independent assignment.  A FLOAT32/FLOAT64
    field is hashed as ``float(v)`` with ``-0.0`` taken as ``0.0``, so
    keys equal as floats (``1`` and ``1.0``, ``0.0`` and ``-0.0``) land
    on the same instance.

    The hash is computed once per distinct key: the field indices are
    resolved once per schema and the key's 32-bit hash is memoised
    (``_KEY_MEMO_LIMIT`` keys); the instance count is applied after
    the memo, so one entry serves any fan-out.
    """

    name = "fields"

    def __init__(self, fields: Sequence[str]) -> None:
        if not fields:
            raise GraphValidationError("fields partitioning needs at least one field")
        self.fields = tuple(fields)
        # (schema, indices of the key fields in it, which of those are
        # floats); one attribute so a reader never sees one schema's
        # indices beside another's.
        self._bound: tuple[PacketSchema | None, tuple[int, ...], tuple[int, ...]] = (None, (), ())
        self._hashes: dict[object, int] = {}

    def route(self, packet: StreamPacket, n_instances: int) -> Sequence[int]:
        """Destination instance indices for one packet."""
        schema, indices, floats = self._bound
        if packet.schema is not schema:
            schema = packet.schema
            indices = tuple(schema.index_of(fname) for fname in self.fields)
            floats = tuple(i for i in indices if schema.types[i] in _FLOATS)
            self._bound = (schema, indices, floats)
        values = packet._values
        # Two keys share a memo entry only if they hash alike: a str
        # stands for itself (equal strs have equal reprs); any other
        # value is entered under its repr, in a tuple no str equals.
        key: object
        if len(indices) == 1:
            key = values[indices[0]]
            if type(key) is not str:
                key = (repr(key),)
        else:
            key = tuple(
                [
                    v if type(v) is str else (repr(v),)
                    for v in [values[i] for i in indices]
                ]
            )
        h = self._hashes.get(key)
        if h is None:
            h = 0
            for i in indices:
                v = float(values[i]) + 0.0 if i in floats else values[i]  # -0.0 + 0.0 is 0.0
                h = xxh32(repr(v).encode("utf-8"), seed=h)
            if len(self._hashes) >= _KEY_MEMO_LIMIT:
                self._hashes.clear()
            self._hashes[key] = h
        return (h % n_instances,)

    def describe(self) -> dict:
        """JSON-descriptor form of this scheme."""
        return {"scheme": self.name, "fields": list(self.fields)}


class BroadcastPartitioning(PartitioningScheme):
    """Deliver every packet to every instance (control/config streams)."""

    name = "broadcast"

    def route(self, packet: StreamPacket, n_instances: int) -> Sequence[int]:
        """Destination instance indices for one packet."""
        return tuple(range(n_instances))


class DirectPartitioning(PartitioningScheme):
    """Sender names the instance explicitly via a packet field."""

    name = "direct"

    def __init__(self, index_field: str) -> None:
        self.index_field = index_field

    def route(self, packet: StreamPacket, n_instances: int) -> Sequence[int]:
        """Destination instance indices for one packet."""
        idx = packet.get(self.index_field)
        if not isinstance(idx, int) or not 0 <= idx < n_instances:
            raise GraphValidationError(
                f"direct partitioning field {self.index_field!r} = {idx!r} "
                f"is not a valid instance index (n={n_instances})"
            )
        return (idx,)

    def describe(self) -> dict:
        """JSON-descriptor form of this scheme."""
        return {"scheme": self.name, "index_field": self.index_field}


# -- registry (for JSON descriptors and user extensions) ---------------------

_REGISTRY: dict[str, type[PartitioningScheme]] = {}


def register_partitioning(cls: type[PartitioningScheme]) -> type[PartitioningScheme]:
    """Register a scheme class under its ``name`` (usable as decorator)."""
    if not getattr(cls, "name", None) or cls.name == "abstract":
        raise GraphValidationError(f"partitioning class {cls!r} needs a name")
    _REGISTRY[cls.name] = cls
    return cls


def resolve_partitioning(spec: dict | str | PartitioningScheme) -> PartitioningScheme:
    """Build a scheme from a descriptor: name, dict, or instance."""
    if isinstance(spec, PartitioningScheme):
        return spec
    if isinstance(spec, str):
        spec = {"scheme": spec}
    name = spec.get("scheme")
    cls = _REGISTRY.get(name)  # type: ignore[arg-type]
    if cls is None:
        raise PartitioningError(
            f"unknown partitioning scheme {name!r}; registered: {sorted(_REGISTRY)}"
        )
    kwargs = {k: v for k, v in spec.items() if k != "scheme"}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise PartitioningError(
            f"partitioning scheme {name!r} cannot be built "
            f"from {kwargs!r}: {exc}"
        ) from exc


for _cls in (
    RoundRobinPartitioning,
    ShufflePartitioning,
    FieldsPartitioning,
    BroadcastPartitioning,
    DirectPartitioning,
):
    register_partitioning(_cls)
