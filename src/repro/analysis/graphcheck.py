"""Multi-pass static verifier for stream-processing graphs.

NEPTUNE graphs come from the fluent API or a JSON descriptor and are
deployed onto a runtime whose failure modes — schema mismatches,
partitioning on absent fields, watermark misconfiguration, latency
overruns — otherwise surface only while a job is live.  This verifier
front-loads them into structured diagnostics *before* scheduling:

===========  ========  =====================================================
code         severity  meaning
===========  ========  =====================================================
NEPG101      error     malformed descriptor structure (missing/bad keys)
NEPG102      error     duplicate operator name
NEPG103      error     link references an undeclared operator
NEPG104      error     link delivers into a stream source
NEPG105      error     duplicate link (same sender, receiver, and stream)
NEPG106      error     graph has no stream source
NEPG107      error     cycle — backpressure over a pressure cycle deadlocks
NEPG108      error     operator unreachable from any source
NEPG109      error     unknown/unbuildable partitioning scheme
NEPG110      error     fields partitioning keys on a field absent upstream
NEPG111      warning   fields partitioning keyed on a float field
NEPG112      error     direct partitioning index field absent/non-integer
NEPG113      error     consumer's declared input contract unsatisfied
NEPG114      warning   fan-in schema divergence on one stream name
NEPG115      error     operator factory/schema resolution failure
NEPG116      warning   watermark hysteresis gap too narrow (oscillation)
NEPG117      error     one flush batch overruns the inbound high watermark
NEPG118      warning   fan-in flush overshoot far beyond the high watermark
NEPG119      error     latency budget infeasible for the deepest path
NEPG120      warning   partitioning scheme pointless at parallelism 1
NEPG121      warning   source has no outgoing links
NEPG122      warning   non-deterministic partitioning cannot be sharded
NEPG140      info      a link's chain verdict (``repro analyze`` adds them)
===========  ========  =====================================================

``StreamProcessingGraph.validate()`` delegates its structural, schema,
and partitioning checking here (the error-severity passes) and raises
:class:`~repro.util.errors.GraphValidationError` on the first error;
``repro analyze --graph`` runs every pass and renders the full report,
with each link's chain verdict (:func:`chain_verdicts`: is the link
chained, and if not, which barrier of
:func:`repro.core.graph.chain_barrier` - the predicate the runtime
wires by - stands in the way).
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.analysis.schemaflow import (
    FLOAT_TYPES,
    INTEGER_TYPES,
    describe_schema,
    unsatisfied_requirements,
)
from repro.core.config import NeptuneConfig
from repro.core.operators import StreamOperator, StreamProcessor, StreamSource
from repro.core.packet import PacketSchema
from repro.core.partitioning import (
    DirectPartitioning,
    FieldsPartitioning,
    PartitioningScheme,
)
from repro.util import dag
from repro.util.errors import GraphValidationError


def _link_where(from_op: str, to_op: str, stream: str) -> str:
    return f"link {from_op!r}->{to_op!r}/{stream!r}"


class GraphVerifier:
    """Runs the verification passes over one graph.

    Parameters
    ----------
    graph:
        A (possibly not-yet-validated) ``StreamProcessingGraph``.
    """

    def __init__(self, graph: Any) -> None:
        self.graph = graph
        self.report = DiagnosticReport(subject=f"graph {graph.name!r}")
        #: Operator name -> the object its factory built to read schemas
        #: and contracts (None when building it failed).
        #: ``StreamProcessingGraph.validate()`` keeps the ones that built,
        #: and each becomes its operator's instance 0 when the graph is
        #: wired.
        self.probes: dict[str, StreamOperator | None] = {}

    # -- entry points --------------------------------------------------------
    def run(self, deep: bool = True) -> DiagnosticReport:
        """Run the passes; ``deep=False`` stops after the passes
        ``validate()`` gates on (structure, schemas, partitioning)."""
        structural_ok = self.check_structure()
        if structural_ok:
            # Schema resolution walks links in declaration order and
            # needs every endpoint declared; skip it on broken wiring.
            self.check_schemas()
        if deep:
            self.check_backpressure()
            self.check_latency()
        return self.report

    # -- pass 1: structure ---------------------------------------------------
    def check_structure(self) -> bool:
        """Wiring soundness.  Returns False when later passes cannot run."""
        g = self.graph
        rep = self.report
        ok = True
        if not g.operators:
            rep.add(
                "NEPG101",
                Severity.ERROR,
                "graph has no operators",
                hint="declare at least one source and wire it",
            )
            return False
        if not any(s.is_source for s in g.operators.values()):
            rep.add(
                "NEPG106",
                Severity.ERROR,
                "graph has no stream source",
                hint="every graph needs an ingestion point (add_source)",
            )
            ok = False

        edges: list[tuple[str, str]] = []
        seen_links: set[tuple[str, str, str]] = set()
        for lk in g.links:
            endpoints_ok = True
            for endpoint in (lk.from_op, lk.to_op):
                if endpoint not in g.operators:
                    rep.add(
                        "NEPG103",
                        Severity.ERROR,
                        f"link references undeclared operator {endpoint!r}",
                        where=_link_where(lk.from_op, lk.to_op, lk.stream),
                        hint="declare the operator before linking it, or fix the name",
                    )
                    ok = endpoints_ok = False
            if not endpoints_ok:
                continue
            if g.operators[lk.to_op].is_source:
                rep.add(
                    "NEPG104",
                    Severity.ERROR,
                    f"link {lk.from_op!r}->{lk.to_op!r}: sources cannot receive streams",
                    where=_link_where(lk.from_op, lk.to_op, lk.stream),
                    hint=f"declare {lk.to_op!r} as a processor if it consumes data",
                )
                ok = False
            key = (lk.from_op, lk.to_op, lk.stream)
            if key in seen_links:
                rep.add(
                    "NEPG105",
                    Severity.ERROR,
                    f"duplicate link {lk.from_op!r}->{lk.to_op!r} on stream "
                    f"{lk.stream!r} — packets would be delivered twice",
                    where=_link_where(lk.from_op, lk.to_op, lk.stream),
                    hint="remove the repeated link() call",
                )
                ok = False
            seen_links.add(key)
            edges.append((lk.from_op, lk.to_op))

        if not ok:
            return False
        succ = dag.successor_map(g.operators, edges)
        cycle = dag.find_cycle(succ)
        if cycle:
            rep.add(
                "NEPG107",
                Severity.ERROR,
                f"graph contains a cycle {cycle}; backpressure over a "
                "pressure cycle would deadlock",
                hint="break the cycle (feedback must leave the pressure domain)",
            )
            return False
        sources = [n for n, s in g.operators.items() if s.is_source]
        reachable = set(sources)
        for s in sources:
            reachable |= dag.descendants(succ, s)
        unreachable = set(g.operators) - reachable
        if unreachable:
            rep.add(
                "NEPG108",
                Severity.ERROR,
                f"operators unreachable from any source: {sorted(unreachable)}",
                hint="wire them into the graph or remove them",
            )
            return False
        for s in sources:
            if not succ[s] and len(g.operators) > 1:
                rep.add(
                    "NEPG121",
                    Severity.WARNING,
                    f"source {s!r} has no outgoing links; everything it "
                    "emits is unroutable",
                    where=f"operator {s!r}",
                    hint="link the source or drop it from the graph",
                )
        return True

    # -- pass 2: schemas + partitioning --------------------------------------
    def check_schemas(self) -> None:
        """Resolve link schemas via operator probes; check partitioning
        field soundness and consumer input contracts.

        Side effect (mirroring the legacy ``validate()``): assigns
        ``link_id`` and ``schema`` on every link it can resolve.
        """
        g = self.graph
        rep = self.report
        fan_in: dict[tuple[str, str], dict[PacketSchema, str]] = {}
        for idx, lk in enumerate(g.links):
            lk.link_id = idx
            where = _link_where(lk.from_op, lk.to_op, lk.stream)
            probe = self._probe(lk.from_op)
            if probe is None:
                continue
            try:
                schema = probe.output_schema(lk.stream)
            except KeyError:
                rep.add(
                    "NEPG115",
                    Severity.ERROR,
                    f"operator {lk.from_op!r} declares no schema for stream {lk.stream!r}",
                    where=where,
                    hint="output_schema() must cover every linked stream name",
                )
                continue
            if not isinstance(schema, PacketSchema):
                rep.add(
                    "NEPG115",
                    Severity.ERROR,
                    f"output_schema of {lk.from_op!r} for {lk.stream!r} returned "
                    f"{type(schema).__name__}",
                    where=where,
                    hint="output_schema() must return a PacketSchema",
                )
                continue
            lk.schema = schema
            scheme = self._check_partitioning(lk, schema, where)
            self._check_parallelism(lk, scheme, where)
            self._check_input_contract(lk, schema, where)
            fan_in.setdefault((lk.to_op, lk.stream), {}).setdefault(
                schema, lk.from_op
            )
        for (to_op, stream), schemas in fan_in.items():
            if len(schemas) > 1:
                detail = "; ".join(
                    f"{sender!r} sends {describe_schema(schema)}"
                    for schema, sender in schemas.items()
                )
                rep.add(
                    "NEPG114",
                    Severity.WARNING,
                    f"operator {to_op!r} receives stream {stream!r} with "
                    f"divergent schemas: {detail}",
                    where=f"operator {to_op!r}",
                    hint="align the producers or declare an input contract "
                    "covering the common fields",
                )

    def _probe(self, name: str) -> StreamOperator | None:
        """Instantiate (once) an operator for schema/contract probing."""
        if name in self.probes:
            return self.probes[name]
        spec = self.graph.operators[name]
        probe: StreamOperator | None
        try:
            built = spec.factory()
        except Exception as exc:  # noqa: BLE001 — any factory fault is a finding
            self.report.add(
                "NEPG115",
                Severity.ERROR,
                f"factory for {name!r} failed: {exc!r}",
                where=f"operator {name!r}",
                hint="the factory must build an operator with no side effects",
            )
            self.probes[name] = None
            return None
        if not isinstance(built, StreamOperator):
            self.report.add(
                "NEPG115",
                Severity.ERROR,
                f"factory for {name!r} returned {type(built).__name__}, "
                "not a StreamOperator",
                where=f"operator {name!r}",
            )
            probe = None
        else:
            expected = StreamSource if spec.is_source else StreamProcessor
            if not isinstance(built, expected):
                self.report.add(
                    "NEPG115",
                    Severity.ERROR,
                    f"operator {name!r} declared as "
                    f"{'source' if expected is StreamSource else 'processor'} "
                    f"but factory built a {type(built).__name__}",
                    where=f"operator {name!r}",
                )
                probe = None
            else:
                probe = built
        self.probes[name] = probe
        return probe

    def _check_partitioning(
        self, lk: Any, schema: PacketSchema, where: str
    ) -> PartitioningScheme | None:
        try:
            scheme = lk.resolved_partitioning()
        except GraphValidationError as exc:
            self.report.add(
                "NEPG109",
                Severity.ERROR,
                str(exc),
                where=where,
                hint="use a registered scheme name or register the custom one",
            )
            return None
        if isinstance(scheme, FieldsPartitioning):
            for fname in scheme.fields:
                try:
                    ftype = schema.type_of(fname)
                except KeyError:
                    self.report.add(
                        "NEPG110",
                        Severity.ERROR,
                        f"fields partitioning keys on {fname!r}, which the "
                        f"upstream schema {describe_schema(schema)} does not carry",
                        where=where,
                        hint="key on a field the producer actually emits",
                    )
                    continue
                if ftype in FLOAT_TYPES:
                    self.report.add(
                        "NEPG111",
                        Severity.WARNING,
                        f"fields partitioning keys on float field {fname!r}; "
                        "representation noise scatters equal readings across "
                        "instances",
                        where=where,
                        hint="key on a stable identifier (string/int) instead",
                    )
        elif isinstance(scheme, DirectPartitioning):
            try:
                ftype = schema.type_of(scheme.index_field)
            except KeyError:
                self.report.add(
                    "NEPG112",
                    Severity.ERROR,
                    f"direct partitioning reads index field "
                    f"{scheme.index_field!r}, which the upstream schema "
                    f"{describe_schema(schema)} does not carry",
                    where=where,
                )
                return scheme
            if ftype not in INTEGER_TYPES:
                self.report.add(
                    "NEPG112",
                    Severity.ERROR,
                    f"direct partitioning index field {scheme.index_field!r} "
                    f"is {ftype.value}; an instance index must be an integer",
                    where=where,
                )
        return scheme

    def _check_parallelism(
        self, lk: Any, scheme: PartitioningScheme | None, where: str
    ) -> None:
        if scheme is None:
            return
        dest = self.graph.operators[lk.to_op]
        if dest.parallelism == 1 and isinstance(
            scheme, (FieldsPartitioning, DirectPartitioning)
        ):
            self.report.add(
                "NEPG120",
                Severity.WARNING,
                f"{scheme.name} partitioning into {lk.to_op!r} with "
                "parallelism 1 routes every packet to the same instance",
                where=where,
                hint="raise the consumer's parallelism or use round-robin",
            )
        if dest.parallelism > 1 and not getattr(scheme, "deterministic", True):
            self.report.add(
                "NEPG122",
                Severity.WARNING,
                f"{scheme.name} partitioning into {lk.to_op!r} "
                f"(parallelism {dest.parallelism}) routes "
                "non-deterministically; the link cannot be sharded across "
                "worker processes because replay after a crash would "
                "re-route packets to different instances",
                where=where,
                hint="seed the scheme (e.g. shuffle with an explicit seed) "
                "or switch to round-robin/fields partitioning",
            )

    def _check_input_contract(
        self, lk: Any, schema: PacketSchema, where: str
    ) -> None:
        probe = self._probe(lk.to_op)
        if probe is None:
            return
        contract_fn = getattr(probe, "input_schema", None)
        if contract_fn is None:
            return
        try:
            required = contract_fn(lk.stream)
        except Exception:  # noqa: BLE001 — a contract probe must never abort analysis
            return
        if required is None:
            return
        problems = unsatisfied_requirements(schema, required)
        if problems:
            self.report.add(
                "NEPG113",
                Severity.ERROR,
                f"operator {lk.to_op!r} requires "
                f"{describe_schema(required)} on stream {lk.stream!r} but "
                f"{lk.from_op!r} emits {describe_schema(schema)}: "
                + "; ".join(problems),
                where=where,
                hint="emit the required fields upstream or widen the contract",
            )

    # -- pass 3: backpressure / watermark consistency ------------------------
    def check_backpressure(self) -> None:
        """Watermark and buffer-capacity consistency along every path."""
        cfg: NeptuneConfig = self.graph.config
        rep = self.report
        high = cfg.inbound_high_watermark
        low = cfg.low_watermark()
        gap = high - low
        if gap < high * 0.25:
            rep.add(
                "NEPG116",
                Severity.WARNING,
                f"watermark hysteresis gap is {gap} bytes "
                f"({gap / high:.0%} of the high mark {high}); the gate will "
                "oscillate between open and closed",
                where="config",
                hint="keep the low watermark at or below 75% of the high "
                "watermark (the paper: 'set sufficiently apart')",
            )
        if cfg.buffer_capacity > high:
            rep.add(
                "NEPG117",
                Severity.ERROR,
                f"buffer_capacity ({cfg.buffer_capacity}) exceeds the "
                f"inbound high watermark ({high}): every capacity flush "
                "trips the gate by itself, collapsing batching into "
                "stop-and-go admission",
                where="config",
                hint="keep one flush batch within the watermark band "
                "(buffer_capacity <= inbound_high_watermark)",
            )
        # Fan-in: legs that can all flush at once into one instance.
        for name, spec in self.graph.operators.items():
            if spec.is_source:
                continue
            legs = sum(
                self.graph.operators[lk.from_op].parallelism
                for lk in self.graph.incoming_links(name)
                if lk.from_op in self.graph.operators
            )
            if legs and legs * cfg.buffer_capacity > 2 * high:
                rep.add(
                    "NEPG118",
                    Severity.WARNING,
                    f"operator {name!r} has {legs} inbound link legs; "
                    f"simultaneous capacity flushes can land "
                    f"{legs * cfg.buffer_capacity} bytes against a "
                    f"{high}-byte high watermark",
                    where=f"operator {name!r}",
                    hint="shrink buffer_capacity or raise the high watermark "
                    "for wide fan-in stages",
                )

    # -- pass 4: latency-budget feasibility ----------------------------------
    def check_latency(self) -> None:
        """Flush-timer feasibility against the configured latency budget."""
        cfg: NeptuneConfig = self.graph.config
        budget = cfg.latency_budget
        if budget is None:
            return
        succ = dag.successor_map(
            self.graph.operators,
            ((lk.from_op, lk.to_op) for lk in self.graph.links),
        )
        if dag.find_cycle(succ):
            return  # cycle already reported; path depth is meaningless
        path = dag.longest_path(succ)
        hops = max(len(path) - 1, 0)
        if hops == 0:
            return
        worst = hops * cfg.buffer_max_delay
        if worst > budget:
            self.report.add(
                "NEPG119",
                Severity.ERROR,
                f"latency budget {budget * 1e3:.1f} ms is infeasible: the "
                f"deepest path {' -> '.join(path)} crosses {hops} links; "
                f"a packet spends buffer_max_delay="
                f"{cfg.buffer_max_delay * 1e3:.1f} ms once per resource, and "
                f"any placement may put a socket on every link, for a "
                f"worst-case queuing delay of {worst * 1e3:.1f} ms",
                where="config",
                hint=f"set buffer_max_delay below {budget / hops * 1e3:.2f} ms "
                "or shorten the pipeline",
            )


# -- module-level entry points ------------------------------------------------


def verify_graph(graph: Any, deep: bool = True) -> DiagnosticReport:
    """Verify an already-built ``StreamProcessingGraph``."""
    return GraphVerifier(graph).run(deep=deep)


def chain_verdicts(report: DiagnosticReport) -> None:
    """NEPG140: one info finding per link of the graph ``report``
    verified, if it built and has no error, saying whether the runtime
    chains the link - under the plan that was verified with it (a
    ``DeploymentPlan``), on one resource otherwise."""
    from repro.core.graph import chain_barrier

    if report.verified is None or report.errors():
        return
    graph, plan = report.verified
    for lk in graph.links:
        barrier = chain_barrier(graph, lk, plan.worker_of if plan is not None else None)
        hint = ""
        if barrier is None:
            where_to = "" if plan is None else f" on worker {plan.worker_of(lk.to_op, 0)}"
            message = (
                f"chained{where_to}: {lk.to_op!r} runs on the thread of "
                f"{lk.from_op!r}, its batches handed over as rows"
            )
            hint = (
                f"declare chain=False on this link if {lk.to_op!r} blocks "
                "outside the interpreter (sleep, fsync, a socket)"
            )
        elif barrier == "crosses resources":
            message = (
                f"split by the plan: {lk.from_op}\u2192w{plan.worker_of(lk.from_op, 0)}, "
                f"{lk.to_op}\u2192w{plan.worker_of(lk.to_op, 0)}; a buffered leg over a socket"
            )
        else:
            message = f"not chained ({barrier}): a buffered leg"
        report.add(
            "NEPG140",
            Severity.INFO,
            message,
            where=_link_where(lk.from_op, lk.to_op, lk.stream),
            hint=hint,
        )


def verify_descriptor(
    desc: Any, config: NeptuneConfig | None = None
) -> DiagnosticReport:
    """Verify a parsed JSON descriptor.

    Structural problems in the raw dict (missing keys, wrong types) are
    reported as NEPG101 without importing any operator code; a
    well-formed descriptor is then built and run through every pass.
    """
    report = DiagnosticReport(subject="descriptor")
    if not _descriptor_shape_ok(desc, report):
        return report
    report.subject = f"descriptor {desc['name']!r}"
    from repro.core.graph import StreamProcessingGraph

    try:
        graph = StreamProcessingGraph.from_descriptor(
            desc, config=config, validate_wiring=False
        )
    except GraphValidationError as exc:
        report.add(
            "NEPG101",
            Severity.ERROR,
            str(exc),
            hint="fix the descriptor; see the JSON descriptor docs",
        )
        return report
    verifier = GraphVerifier(graph)
    verifier.report = report
    verifier.run(deep=True)
    report.verified = (graph, None)
    return report


def verify_descriptor_file(
    path: str, config: NeptuneConfig | None = None
) -> DiagnosticReport:
    """Verify a JSON descriptor file (parse errors become NEPG101)."""
    report = DiagnosticReport(subject=path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            desc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        report.add(
            "NEPG101",
            Severity.ERROR,
            f"cannot read descriptor: {exc}",
            where=path,
        )
        return report
    inner = verify_descriptor(desc, config=config)
    inner.subject = path
    return inner


def _descriptor_shape_ok(desc: Any, report: DiagnosticReport) -> bool:
    """Dict-shape validation; every problem is one NEPG101 finding."""
    ok = True

    def bad(message: str, where: str = "") -> None:
        nonlocal ok
        ok = False
        report.add("NEPG101", Severity.ERROR, message, where=where)

    if not isinstance(desc, dict):
        bad(f"descriptor must be an object, got {type(desc).__name__}")
        return False
    if not isinstance(desc.get("name"), str) or not desc.get("name"):
        bad("descriptor needs a non-empty string 'name'")
    if "config" in desc and not isinstance(desc["config"], dict):
        bad("'config' must be an object of NeptuneConfig fields")
    ops = desc.get("operators")
    if not isinstance(ops, list):
        bad("descriptor needs an 'operators' list")
        return False
    seen_names: set[str] = set()
    for i, op in enumerate(ops):
        where = f"operators[{i}]"
        if not isinstance(op, dict):
            bad(f"operator entry must be an object, got {type(op).__name__}", where)
            continue
        if not isinstance(op.get("name"), str) or not op.get("name"):
            bad("operator entry needs a non-empty string 'name'", where)
        elif op["name"] in seen_names:
            ok = False
            report.add(
                "NEPG102",
                Severity.ERROR,
                f"duplicate operator name {op['name']!r}",
                where=where,
                hint="operator names must be unique within a graph",
            )
        else:
            seen_names.add(op["name"])
        if op.get("type") not in ("source", "processor"):
            bad(
                f"unknown operator type {op.get('type')!r} "
                "(expected 'source' or 'processor')",
                where,
            )
        parallelism = op.get("parallelism", 1)
        if not isinstance(parallelism, int) or isinstance(parallelism, bool):
            bad(f"parallelism must be an integer, got {parallelism!r}", where)
        elif parallelism <= 0:
            bad(f"parallelism must be positive, got {parallelism}", where)
    links = desc.get("links", [])
    if not isinstance(links, list):
        bad("'links' must be a list")
        return ok
    for i, lk in enumerate(links):
        where = f"links[{i}]"
        if not isinstance(lk, dict):
            bad(f"link entry must be an object, got {type(lk).__name__}", where)
            continue
        for key in ("from", "to"):
            if not isinstance(lk.get(key), str) or not lk.get(key):
                bad(f"link entry needs a non-empty string {key!r}", where)
    return ok
