"""Stream-processing graphs (paper §III-A7).

"A stream processing graph in NEPTUNE comprises: (1) stream sources and
stream processors for different stages, (2) parallelism levels for
stream operators, (3) links connecting stream operators, and (4) stream
partitioning schemes for each link.  A stream processing graph can be
created by directly invoking the NEPTUNE API or through a JSON
descriptor file."

Operators are declared with a *factory* (each instance of a parallel
operator gets its own object).  Validation checks structure (names,
sources present, acyclic — backpressure over a pressure cycle would
deadlock), per-stream schemas, and partitioning specs.
"""

from __future__ import annotations

import copy
import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.config import NeptuneConfig
from repro.core.operators import StreamOperator
from repro.core.packet import PacketSchema
from repro.core.partitioning import PartitioningScheme, resolve_partitioning
from repro.util import dag
from repro.util.errors import (
    DescriptorError,
    DuplicateLinkError,
    GraphValidationError,
    UnknownOperatorError,
)

OperatorFactory = Callable[[], StreamOperator]


@dataclass
class OperatorSpec:
    """One declared operator: factory + parallelism (+ scheduling).

    ``scheduling`` optionally overrides the default data-driven
    strategy for processors with any Granules strategy — periodic,
    count-based, or combinations (§II).  It is a zero-argument factory
    (each instance needs its own strategy object).  A processor
    executed by a time-based trigger with no data pending receives an
    :meth:`~repro.core.operators.StreamProcessor.on_schedule` call.
    """

    name: str
    factory: OperatorFactory
    parallelism: int = 1
    is_source: bool = False
    scheduling: Callable[[], Any] | None = None

    def __post_init__(self) -> None:
        if self.parallelism <= 0:
            raise GraphValidationError(
                f"operator {self.name!r}: parallelism must be positive, got {self.parallelism}"
            )
        if self.scheduling is not None and self.is_source:
            raise GraphValidationError(
                f"operator {self.name!r}: sources control their own scheduling"
            )


@dataclass
class LinkSpec:
    """One declared link: a named stream between two operators (§III-A4)."""

    from_op: str
    to_op: str
    stream: str = "default"
    partitioning: Any = "round-robin"
    #: Per-link compression override: None = job default, True/False =
    #: force on/off.
    compression: bool | None = None
    #: False keeps a buffered leg where the link could be chained (see
    #: :func:`chain_barrier`): the receiver keeps its own thread.
    chain: bool = True
    link_id: int = -1  # assigned at validation
    schema: PacketSchema | None = None  # resolved at validation

    def resolved_partitioning(self) -> PartitioningScheme:
        """A scheme object of the caller's own for this link.

        The runtime asks once per sender instance: schemes keep
        per-sender state (a round-robin cursor, a seeded generator, a
        key-hash memo) and are written without locks.  A descriptor is
        instantiated afresh; a scheme *instance* given to the graph is
        the template each caller gets a deep copy of.
        """
        if isinstance(self.partitioning, PartitioningScheme):
            return copy.deepcopy(self.partitioning)
        return resolve_partitioning(self.partitioning)


class StreamProcessingGraph:
    """Builder + validator for one stream-processing job."""

    def __init__(self, name: str, config: NeptuneConfig | None = None) -> None:
        if not name:
            raise GraphValidationError("graph needs a non-empty name")
        self.name = name
        self.config = config or NeptuneConfig()
        self.operators: dict[str, OperatorSpec] = {}
        self.links: list[LinkSpec] = []
        self._validated = False

    # -- construction -----------------------------------------------------------
    def add_source(
        self, name: str, factory: OperatorFactory, parallelism: int = 1
    ) -> "StreamProcessingGraph":
        """Declare a stream source operator."""
        self._add(OperatorSpec(name, factory, parallelism, is_source=True))
        return self

    def add_processor(
        self,
        name: str,
        factory: OperatorFactory,
        parallelism: int = 1,
        scheduling: Callable[[], Any] | None = None,
    ) -> "StreamProcessingGraph":
        """Declare a processor.

        ``scheduling`` (optional) is a zero-arg factory returning a
        Granules :class:`~repro.granules.scheduler.SchedulingStrategy`
        for this operator's instances, e.g.
        ``lambda: CombinedStrategy(PeriodicStrategy(0.5), DataDrivenStrategy())``
        for the paper's "every 500 ms or when data is available" (§II).
        """
        self._add(
            OperatorSpec(name, factory, parallelism, is_source=False, scheduling=scheduling)
        )
        return self

    def _add(self, spec: OperatorSpec) -> None:
        if spec.name in self.operators:
            raise GraphValidationError(f"duplicate operator name {spec.name!r}")
        self.operators[spec.name] = spec
        self._validated = False

    def link(
        self,
        from_op: str,
        to_op: str,
        stream: str = "default",
        partitioning: Any = "round-robin",
        compression: bool | None = None,
        chain: bool = True,
    ) -> "StreamProcessingGraph":
        """Connect ``from_op``'s ``stream`` to ``to_op`` (§III-A4).

        A link between two single-instance operators on one resource is
        *chained* (:func:`chain_barrier`): the receiver runs on the
        sender's thread, batch by batch, with no buffer in between.
        That trades pipelining for hand-off cost.  Say ``chain=False``
        when ``to_op`` blocks outside the interpreter (sleeps, fsyncs,
        waits on a socket) and should overlap with its sender on a
        thread of its own.
        """
        self.links.append(
            LinkSpec(from_op, to_op, stream, partitioning, compression, chain)
        )
        self._validated = False
        return self

    # -- validation -----------------------------------------------------------
    def validate(self) -> "StreamProcessingGraph":
        """Check structure and resolve link schemas/ids.  Idempotent.

        Delegates to the static verifier
        (:class:`repro.analysis.graphcheck.GraphVerifier`) and raises
        :class:`GraphValidationError` with the first error-severity
        finding.  ``repro analyze --graph`` runs the same verifier with
        the advisory (warning) passes included and reports everything.
        """
        if self._validated:
            return self
        # Local import: repro.analysis depends on repro.core types.
        from repro.analysis.graphcheck import GraphVerifier

        report = GraphVerifier(self).run(deep=False)
        errors = report.errors()
        if errors:
            raise GraphValidationError(errors[0].message)
        self._validated = True
        return self

    # -- queries ---------------------------------------------------------------
    def outgoing_links(self, op: str) -> list[LinkSpec]:
        """Links whose sender is the named operator."""
        return [lk for lk in self.links if lk.from_op == op]

    def incoming_links(self, op: str) -> list[LinkSpec]:
        """Links whose receiver is the named operator."""
        return [lk for lk in self.links if lk.to_op == op]

    def stages(self) -> list[list[str]]:
        """Topological generations — the paper's processing *stages*."""
        self.validate()
        succ = dag.successor_map(
            self.operators, ((lk.from_op, lk.to_op) for lk in self.links)
        )
        return [sorted(gen) for gen in dag.generations(succ)]

    def total_instances(self) -> int:
        """Total operator instances across the graph."""
        return sum(s.parallelism for s in self.operators.values())

    # -- JSON descriptors -------------------------------------------------------
    def to_descriptor(self) -> dict:
        """JSON-able descriptor (operators referenced by import path)."""
        ops = []
        for spec in self.operators.values():
            target = getattr(spec.factory, "_descriptor_target", None)
            ops.append(
                {
                    "name": spec.name,
                    "type": "source" if spec.is_source else "processor",
                    "parallelism": spec.parallelism,
                    "class": target[0] if target else None,
                    "kwargs": target[1] if target else {},
                }
            )
        links = []
        for lk in self.links:
            part = lk.partitioning
            if isinstance(part, PartitioningScheme):
                part = part.describe()
            links.append(
                {
                    "from": lk.from_op,
                    "to": lk.to_op,
                    "stream": lk.stream,
                    "partitioning": part,
                    **({} if lk.chain else {"chain": False}),
                }
            )
        return {"name": self.name, "operators": ops, "links": links}

    def to_json(self, indent: int = 2) -> str:
        """JSON string of the descriptor."""
        return json.dumps(self.to_descriptor(), indent=indent)

    @classmethod
    def from_descriptor(
        cls,
        desc: dict,
        config: NeptuneConfig | None = None,
        validate_wiring: bool = True,
    ) -> "StreamProcessingGraph":
        """Build a graph from a parsed JSON descriptor.

        Operator classes are referenced as ``"pkg.module:ClassName"``
        and constructed with the descriptor's ``kwargs``.  A descriptor
        may carry a ``"config"`` object of :class:`NeptuneConfig`
        field overrides (ignored when an explicit ``config`` is given).

        With ``validate_wiring`` (the default), wiring mistakes raise
        typed errors at build time — :class:`UnknownOperatorError` for
        a link endpoint never declared, :class:`DuplicateLinkError` for
        a repeated (sender, receiver, stream) triple,
        :class:`~repro.util.errors.PartitioningError` for an unknown or
        unbuildable partitioning spec — instead of surfacing later as a
        bare ``KeyError``.  The static analyzer builds with it off so
        it can report *every* problem instead of stopping at the first.
        """
        if not isinstance(desc, dict):
            raise DescriptorError(
                f"descriptor must be an object, got {type(desc).__name__}"
            )
        try:
            name = desc["name"]
            operators = desc["operators"]
        except KeyError as exc:
            raise DescriptorError(
                f"descriptor is missing required key {exc.args[0]!r}"
            ) from exc
        if config is None and "config" in desc:
            overrides = desc["config"]
            if not isinstance(overrides, dict):
                raise DescriptorError(
                    "descriptor 'config' must be an object of NeptuneConfig fields"
                )
            try:
                config = NeptuneConfig(**overrides)
            except (TypeError, ValueError) as exc:
                raise DescriptorError(f"bad descriptor config: {exc}") from exc
        graph = cls(name, config=config)
        for op in operators:
            if not isinstance(op, dict) or not op.get("name"):
                raise DescriptorError(f"operator entry needs a 'name': {op!r}")
            path = op.get("class")
            if not path:
                raise DescriptorError(
                    f"operator {op.get('name')!r} has no class path in descriptor"
                )
            factory = descriptor_factory(path, **op.get("kwargs", {}))
            op_type = op.get("type")
            if op_type == "source":
                graph.add_source(op["name"], factory, op.get("parallelism", 1))
            elif op_type == "processor":
                graph.add_processor(op["name"], factory, op.get("parallelism", 1))
            else:
                raise DescriptorError(f"unknown operator type {op_type!r}")
        seen_links: set[tuple[str, str, str]] = set()
        for lk in desc.get("links", []):
            if not isinstance(lk, dict):
                raise DescriptorError(
                    f"link entry must be an object, got {type(lk).__name__}"
                )
            try:
                from_op, to_op = lk["from"], lk["to"]
            except KeyError as exc:
                raise DescriptorError(
                    f"link entry is missing required key {exc.args[0]!r}: {lk!r}"
                ) from exc
            stream = lk.get("stream", "default")
            partitioning = lk.get("partitioning", "round-robin")
            chain = lk.get("chain", True)
            if not isinstance(chain, bool):
                raise DescriptorError(
                    f"link 'chain' must be true or false, got {chain!r}: {lk!r}"
                )
            compression = lk.get("compression")
            if compression is not None and not isinstance(compression, bool):
                raise DescriptorError(
                    f"link {from_op!r}->{to_op!r}: 'compression' must be "
                    f"true, false or null, got {compression!r}"
                )
            if validate_wiring:
                for endpoint in (from_op, to_op):
                    if endpoint not in graph.operators:
                        raise UnknownOperatorError(
                            f"link references undeclared operator {endpoint!r}"
                        )
                key = (from_op, to_op, stream)
                if key in seen_links:
                    raise DuplicateLinkError(
                        f"duplicate link {from_op!r}->{to_op!r} on stream {stream!r}"
                    )
                seen_links.add(key)
                resolve_partitioning(partitioning)  # PartitioningError on bad spec
            graph.link(
                from_op,
                to_op,
                stream=stream,
                partitioning=partitioning,
                compression=compression,
                chain=chain,
            )
        return graph

    @classmethod
    def from_json(cls, text: str, config: NeptuneConfig | None = None) -> "StreamProcessingGraph":
        """Build a graph from a JSON descriptor string."""
        return cls.from_descriptor(json.loads(text), config=config)


def chain_barrier(
    graph: StreamProcessingGraph,
    link: LinkSpec,
    placed: Callable[[str, int], object] | None = None,
) -> str | None:
    """Why ``link`` is wired as a buffered leg, or None when it is
    chained (DESIGN.md section 6).

    A chained receiver runs on its sender's thread, so a link chains
    only where a thread of its own buys the receiver nothing and costs
    nobody else: one sender instance, one receiver instance, nobody
    else sending to it, no schedule of its own, both on one resource.
    ``placed(op, index)`` says where an instance runs - a worker id
    under a plan, or, asked by the resource doing the wiring, whether
    the instance is its own; None is one resource hosting everything.
    The one predicate: the runtime wires by it and ``repro analyze``
    reports it (NEPG140).
    """
    sender, receiver = graph.operators[link.from_op], graph.operators[link.to_op]
    if not link.chain:
        return "chain=False"
    if sender.parallelism != 1 or receiver.parallelism != 1:
        return "parallelism"
    if len(graph.incoming_links(link.to_op)) != 1:
        return "fan-in"
    if receiver.scheduling is not None:
        return "scheduled receiver"
    if placed is not None and placed(link.from_op, 0) != placed(link.to_op, 0):
        return "crosses resources"
    return None


def descriptor_factory(class_path: str, /, **kwargs: Any) -> OperatorFactory:
    """Factory from an import path ``"pkg.module:ClassName"``.

    The returned callable carries its target so :meth:`to_descriptor`
    can round-trip the graph.  ``class_path`` is positional-only so
    operator constructors may themselves take keywords named like it
    (e.g. ``FileSink(path=...)``).
    """
    module_name, _, class_name = class_path.partition(":")
    if not module_name or not class_name:
        raise GraphValidationError(
            f"operator class path must be 'module:Class', got {class_path!r}"
        )

    def factory() -> StreamOperator:
        """Build the operator instance."""
        module = importlib.import_module(module_name)
        cls_obj = getattr(module, class_name)
        return cls_obj(**kwargs)

    factory._descriptor_target = (class_path, kwargs)  # type: ignore[attr-defined]
    return factory
