"""Chained legs: a link between two single-instance operators on one
resource has no buffer, and the receiver runs on the sender's thread.

What must not change when a hop disappears: the rows the sink sees and
their order, every operator's counters and batch hooks, ``born``, where
a failure is recorded, checkpoints.  No test sleeps and hopes: the jobs
that are launched run to completion and are then compared (the one
operator that naps is the subject of the doctor's advisory).
"""

import os
import struct
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.graphcheck import chain_verdicts
from repro.analysis.plancheck import verify_cluster
from repro.core import (
    FieldType,
    JobState,
    NeptuneConfig,
    NeptuneRuntime,
    PacketSchema,
    StreamBuffer,
    StreamProcessingGraph,
    StreamProcessor,
    StreamSource,
)
from repro.core.buffering import FlushTimerService
from repro.core.distributed import round_robin_plan
from repro.core.fieldtypes import compile_as_decoded, encode_field
from repro.core.graph import chain_barrier
from repro.core.runtime import _ChainedLeg, _JobRuntime, _wire_partition
from repro.core.serde import PacketCodec
from repro.granules.scheduler import CountBasedStrategy
from repro.observe import RuntimeObserver, bridge
from repro.observe.doctor import diagnose, render_report
from repro.observe.export import snapshot as observer_snapshot
from repro.util.errors import SerializationError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)  # the benchmark's auditor lives beside src/
from perf.audit import audit  # noqa: E402

#: ``seq`` numbers what the source made; ``sub`` tells apart the copies
#: a flat-map stage makes of one packet.
ROW = PacketSchema([("seq", FieldType.INT64), ("sub", FieldType.INT64)])


class _Numbers(StreamSource):
    def __init__(self, total, on_emit=None):
        super().__init__()
        self.total = total
        self.seq = 0
        self.on_emit = on_emit

    def output_schema(self, stream):
        return ROW

    def generate(self, ctx):
        if self.seq >= self.total:
            ctx.finish()
            return
        ctx.emit(ctx.new_packet().set_at(0, self.seq).set_at(1, 0))
        self.seq += 1
        if self.on_emit is not None:
            self.on_emit(self, ctx)

    # A replayable source: its position is its state.
    def snapshot_state(self):
        return {"seq": self.seq}

    def restore_state(self, state):
        self.seq = state["seq"]


class _Stage(StreamProcessor):
    """A relay, a filter or a 1→k flat-map (``fold`` is its reference
    on plain rows) that logs its batch hooks."""

    def __init__(self, kind, arg, log):
        super().__init__()
        self.kind, self.arg = kind, arg
        self.log = log  # ("start", size) / ("row",) / ("end",), in call order

    def output_schema(self, stream):
        return ROW

    @staticmethod
    def fold(kind, arg, row):
        seq, sub = row
        if kind == "filter":
            return [] if seq % arg == 0 else [row]
        if kind == "flatmap":
            return [(seq, sub * arg + j) for j in range(arg)]
        return [row]

    def on_batch_start(self, size, ctx):
        self.log.append(("start", size))

    def process(self, packet, ctx):
        self.log.append(("row",))
        for seq, sub in self.fold(self.kind, self.arg, (packet.get_at(0), packet.get_at(1))):
            ctx.emit(ctx.new_packet().set_at(0, seq).set_at(1, sub))

    def on_batch_end(self, ctx):
        self.log.append(("end",))


class _Rows(StreamProcessor):
    def __init__(self, rows, log=None):
        super().__init__()
        self.rows = rows
        self.log = [] if log is None else log

    def output_schema(self, stream):
        raise KeyError(stream)

    def on_batch_start(self, size, ctx):
        self.log.append(("start", size))

    def process(self, packet, ctx):
        self.log.append(("row",))
        self.rows.append(packet.values)

    def on_batch_end(self, ctx):
        self.log.append(("end",))


def _pipeline(total, stages, capacity, chain, rows, logs):
    graph = StreamProcessingGraph(
        "chain-prop", config=NeptuneConfig(buffer_capacity=capacity)
    )
    graph.add_source("src", lambda: _Numbers(total))
    last = "src"
    for i, (kind, arg) in enumerate(stages):
        name = f"s{i}"
        graph.add_processor(
            name, lambda k=kind, a=arg, n=name: _Stage(k, a, logs.setdefault(n, []))
        )
        graph.link(last, name, chain=chain)
        last = name
    graph.add_processor("sink", lambda: _Rows(rows, logs.setdefault("sink", [])))
    graph.link(last, "sink", chain=chain)
    return graph


def _run(graph):
    with NeptuneRuntime() as rt:
        handle = rt.submit(graph)
        legs = (len(handle._job.chains), len(handle._job.buffers))
        assert handle.await_completion(timeout=60) and not handle.failures
        return handle.metrics(), legs


def _check_hooks(log, packets_in):
    """start/end strictly paired, rows only inside a batch, and the
    sizes announced add up to what was processed."""
    announced = rows = 0
    open_size = None
    for event in log:
        if event[0] == "start":
            assert open_size is None
            open_size, seen = event[1], 0
            announced += event[1]
        elif event[0] == "row":
            assert open_size is not None
            seen += 1
            rows += 1
        else:
            assert open_size is not None and seen == open_size
            open_size = None
    assert open_size is None
    assert announced == rows == packets_in


STAGE = st.one_of(
    st.just(("relay", 0)),
    st.tuples(st.just("filter"), st.integers(2, 4)),
    st.tuples(st.just("flatmap"), st.integers(2, 3)),
)


@given(
    total=st.integers(1, 400),
    stages=st.lists(STAGE, min_size=0, max_size=2),
    capacity=st.integers(16, 4096),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_chained_and_buffered_runs_are_row_for_row_equal(total, stages, capacity):
    expected = [(seq, 0) for seq in range(total)]
    for kind, arg in stages:
        expected = [out for row in expected for out in _Stage.fold(kind, arg, row)]
    index_of = {row: i for i, row in enumerate(expected)}
    runs = {}
    for chain in (True, False):
        rows, logs = [], {}
        metrics, legs = _run(_pipeline(total, stages, capacity, chain, rows, logs))
        # Every link chains, or none does.
        assert legs == ((len(stages) + 1, 0) if chain else (0, len(stages) + 1))
        result = audit({0: expected}, ((0, index_of.get(row, -1), row) for row in rows))
        assert result.failed == 0 and result.delivered == len(expected)
        for name, log in logs.items():
            _check_hooks(log, metrics[name]["packets_in"])
        runs[chain] = (
            rows,
            {op: (m["packets_in"], m["packets_out"]) for op, m in metrics.items()},
        )
    assert runs[True] == runs[False]


# -- a value after a hop that has no bytes -----------------------------------------
#
# Encode and decode do more than move a value: they refuse what the
# wire type cannot hold, round a FLOAT32, make floats of ints, and
# snapshot what is mutable.  A chained leg owes its receiver all of it.


class _Replay(StreamSource):
    """Emits ``records`` (one value per field of ``schema``), each value
    first passed through ``before_emit`` if given."""

    def __init__(self, schema, records):
        super().__init__()
        self.schema, self.records = schema, iter(records)

    def output_schema(self, stream):
        return self.schema

    def generate(self, ctx):
        record = next(self.records, None)
        if record is None:
            ctx.finish()
            return
        packet = ctx.new_packet()
        for i, value in enumerate(record):
            packet.set_at(i, value)
        ctx.emit(packet)


class _Forward(StreamProcessor):
    def __init__(self, schema):
        super().__init__()
        self.schema = schema

    def output_schema(self, stream):
        return self.schema

    def process(self, packet, ctx):
        ctx.emit(ctx.new_packet().copy_from(packet))


def _typed(value):
    """``value`` with its class, and its elements' classes: 1 == 1.0,
    but a hop that delivers one for the other has changed the row."""
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_typed(v) for v in value]
    return type(value).__name__, value


class _TypedRows(_Rows):
    def process(self, packet, ctx):
        self.rows.append([_typed(v) for v in packet.values])


def _relay_of(schema, records, chain, rows, capacity=4096):
    graph = StreamProcessingGraph("values", config=NeptuneConfig(buffer_capacity=capacity))
    graph.add_source("src", lambda: _Replay(schema, records))
    graph.add_processor("relay", lambda: _Forward(schema))
    graph.add_processor("sink", lambda: _TypedRows(rows))
    graph.link("src", "relay", chain=chain).link("relay", "sink", chain=chain)
    return graph


def _either(values):
    """A drawn list, as a list or as a tuple."""
    return values.flatmap(lambda v: st.sampled_from([v, tuple(v)]))


_REALS = st.one_of(st.integers(-1000, 1000), st.floats(allow_nan=False))
VALUES = {
    FieldType.BOOL: st.booleans(),
    FieldType.INT32: st.integers(-(2**31), 2**31 - 1),
    FieldType.INT64: st.integers(-(2**63), 2**63 - 1),
    # Mostly not float32 values: the hop rounds them.
    FieldType.FLOAT32: st.one_of(st.integers(-1000, 1000), st.floats(-1e30, 1e30)),
    FieldType.FLOAT64: _REALS,
    FieldType.STRING: st.text(max_size=12),
    FieldType.BYTES: st.binary(max_size=24).flatmap(
        lambda b: st.sampled_from([b, bytearray(b), memoryview(b)])
    ),
    FieldType.FLOAT64_LIST: _either(st.lists(_REALS, max_size=4)),
    FieldType.INT64_LIST: _either(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4)),
}


@st.composite
def _schema_and_records(draw):
    types = draw(st.lists(st.sampled_from(list(FieldType)), min_size=1, max_size=5))
    schema = PacketSchema([(f"f{i}", ftype) for i, ftype in enumerate(types)])
    record = st.tuples(*(VALUES[ftype] for ftype in types))
    return schema, draw(st.lists(record, min_size=1, max_size=20))


@given(drawn=_schema_and_records())
@settings(max_examples=200, deadline=None)
def test_as_decoded_is_what_the_codec_does_without_the_bytes(drawn):
    schema, records = drawn
    as_decoded = compile_as_decoded(schema.types)
    codec = PacketCodec(schema)
    for record in records:
        body = codec.encode(schema.new_packet(**dict(zip(schema.names, record))))
        (decoded,) = codec.iter_decode(body, count=1, reuse=False)
        row = list(record)
        size = as_decoded(row)
        assert [_typed(v) for v in row] == [_typed(v) for v in decoded.values]
        # The weight is the record's row form, what a buffer counts
        # against its capacity.  A str weighs a byte a character: exact
        # for ASCII, under for the rest.
        row_form = bytearray()
        for ftype, value in zip(schema.types, record):
            encode_field(ftype, value, row_form)
        text = [v for v in record if isinstance(v, str)]
        assert size <= len(row_form)
        assert size == len(row_form) or not all(v.isascii() for v in text)


@given(drawn=_schema_and_records(), capacity=st.integers(16, 4096))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_chained_hop_delivers_every_field_type_as_a_buffered_hop_does(drawn, capacity):
    schema, records = drawn
    runs = {}
    for chain in (True, False):
        rows = runs[chain] = []
        _, legs = _run(_relay_of(schema, records, chain, rows, capacity))
        assert legs == ((2, 0) if chain else (0, 2))
    assert runs[True] == runs[False] and len(runs[True]) == len(records)


@pytest.mark.parametrize("chain", [True, False])
def test_a_sender_may_reuse_a_mutable_value_between_emits(chain):
    schema = PacketSchema(
        [
            ("seq", FieldType.INT64),
            ("battery", FieldType.FLOAT32),
            ("blob", FieldType.BYTES),
            ("vec", FieldType.FLOAT64_LIST),
            ("ids", FieldType.INT64_LIST),
        ]
    )
    blob, vec, ids = bytearray(4), [0.0], [0]

    def records():
        for seq in range(40):
            blob[:] = seq.to_bytes(4, "little")
            vec[0] = ids[0] = seq  # an int in a float list: a float at the sink
            yield seq, 99.9, blob, vec, ids

    rows = []
    _, legs = _run(_relay_of(schema, records(), chain, rows))
    assert legs == ((2, 0) if chain else (0, 2))
    battery = struct.unpack("<f", struct.pack("<f", 99.9))[0]  # 99.9000015...
    assert rows == [
        [
            ("int", seq),
            ("float", battery),
            ("bytes", seq.to_bytes(4, "little")),
            ("list", [("float", float(seq))]),
            ("list", [("int", seq)]),
        ]
        for seq in range(40)
    ]


@pytest.mark.parametrize("chain", [True, False])
@pytest.mark.parametrize(
    "ftype, bad",
    [
        (FieldType.INT32, 2**31),
        (FieldType.INT64, -(2**63) - 1),
        (FieldType.INT64_LIST, [0, 2**63]),
    ],
)
def test_a_value_the_wire_type_cannot_hold_fails_the_sender_at_the_emit(chain, ftype, bad):
    schema = PacketSchema([("n", ftype)])
    good = [[7]] if ftype is FieldType.INT64_LIST else [7]
    rows = []
    with NeptuneRuntime() as rt:
        handle = rt.submit(_relay_of(schema, [good, good, [bad], good], chain, rows))
        handle.await_completion(timeout=30)
        failures = handle.failures
        assert handle.state is JobState.FAILED
    # Refused where it was emitted, not one operator later.
    assert list(failures) == ["src[0]"]
    assert isinstance(failures["src[0]"], SerializationError)
    # It never arrived; what a chain was handed before it did (a failed
    # job does not flush its buffers).
    assert len(rows) == 2 if chain else len(rows) <= 2


def test_a_hand_over_is_as_many_bytes_as_a_buffer_would_have_flushed():
    # 8 + 4 + 1000 bytes a row: the fifth reaches 4096, as it would
    # have filled a StreamBuffer - not the 341 rows that 12-byte rows
    # (a variable field counted as its length prefix) would allow.
    schema = PacketSchema([("seq", FieldType.INT64), ("payload", FieldType.BYTES)])
    log = []
    graph = StreamProcessingGraph("bytes", config=NeptuneConfig(buffer_capacity=4096))
    graph.add_source("src", lambda: _Replay(schema, ((seq, bytes(1000)) for seq in range(23))))
    graph.add_processor("sink", lambda: _Rows([], log))
    graph.link("src", "sink")
    _run(graph)
    sizes = [event[1] for event in log if event[0] == "start"]
    assert sum(sizes) == 23 and set(sizes[:-1]) == {5} and sizes[-1] <= 5


def test_every_chained_receiver_is_set_up_before_any_task_runs():
    """``setup`` comes before ``process``: a source launched while a
    later chained receiver was still in ``setup`` would hand it rows."""
    order = []
    emitted = threading.Event()

    class SlowToSetUp(_Rows):
        def setup(self, ctx):
            # A source that is already running gets all the time it
            # needs to hand a row over (one row fills the leg) before
            # this returns; one that is not costs the wait.
            emitted.wait(0.2)
            order.append("setup")

        def process(self, packet, ctx):
            order.append("process")

    graph = StreamProcessingGraph("setup-first", config=NeptuneConfig(buffer_capacity=16))
    # Declared first, so launched first.
    graph.add_source("src", lambda: _Numbers(50, lambda source, ctx: emitted.set()))
    graph.add_processor("sink", lambda: SlowToSetUp([]))
    graph.link("src", "sink")
    _run(graph)
    assert order == ["setup"] + ["process"] * 50


# -- the predicate, and what each barrier wires ---------------------------------


def _wire(graph, hosts=lambda op, idx: True, observer=None):
    graph.validate()
    job = _JobRuntime(graph, observer=observer)
    _wire_partition(job, hosts, "", lambda op, idx: None, FlushTimerService())
    return job


def _two_stage(**link):
    graph = StreamProcessingGraph("barrier")
    graph.add_source("src", lambda: _Numbers(10))
    graph.add_processor("sink", lambda: _Rows([]))
    graph.link("src", "sink", **link)
    return graph


class TestBarriers:
    def _legs(self, job):
        return [type(leg) for out in job.instances["src"][0].out_links["default"]
                for leg in out.buffers]

    def test_no_barrier_chains(self):
        graph = _two_stage()
        job = _wire(graph)
        assert chain_barrier(graph, graph.links[0]) is None
        assert self._legs(job) == [_ChainedLeg] and job.buffers == []
        (sink,) = job.instances["sink"]
        assert sink.channel is None and sink.chained_from is job.instances["src"][0]
        assert [i.op_label for i in job.tasks()] == ["src[0]"]  # no thread for the sink

    def test_chain_false(self):
        graph = _two_stage(chain=False)
        job = _wire(graph)
        assert chain_barrier(graph, graph.links[0]) == "chain=False"
        assert self._legs(job) == [StreamBuffer] and job.chains == []

    def test_parallelism(self):
        graph = StreamProcessingGraph("barrier")
        graph.add_source("src", lambda: _Numbers(10))
        graph.add_processor("sink", lambda: _Rows([]), parallelism=2)
        graph.link("src", "sink")
        job = _wire(graph)
        assert chain_barrier(graph, graph.links[0]) == "parallelism"
        assert self._legs(job) == [StreamBuffer, StreamBuffer] and job.chains == []

    def test_fan_in(self):
        graph = StreamProcessingGraph("barrier")
        graph.add_source("src", lambda: _Numbers(10))
        graph.add_source("other", lambda: _Numbers(10))
        graph.add_processor("sink", lambda: _Rows([]))
        graph.link("src", "sink").link("other", "sink")
        job = _wire(graph)
        assert [chain_barrier(graph, lk) for lk in graph.links] == ["fan-in"] * 2
        assert self._legs(job) == [StreamBuffer] and job.chains == []

    def test_scheduled_receiver(self):
        graph = StreamProcessingGraph("barrier")
        graph.add_source("src", lambda: _Numbers(10))
        graph.add_processor(
            "sink", lambda: _Rows([]), scheduling=lambda: CountBasedStrategy(threshold=4)
        )
        graph.link("src", "sink")
        job = _wire(graph)
        assert chain_barrier(graph, graph.links[0]) == "scheduled receiver"
        assert self._legs(job) == [StreamBuffer] and job.chains == []

    def test_a_link_the_plan_splits(self):
        graph = _two_stage()
        plan = round_robin_plan(graph, 2)  # src -> w0, sink -> w1
        assert chain_barrier(graph, graph.links[0], plan.worker_of) == "crosses resources"
        for me in (0, 1):
            job = _wire(graph, hosts=lambda op, idx: plan.worker_of(op, idx) == me)
            assert job.chains == []
            if me == 0:
                assert self._legs(job) == [StreamBuffer]
            else:
                assert job.instances["sink"][0].channel is not None
        # One worker hosting both: chained there, and said so.
        together = round_robin_plan(graph, 1)
        assert chain_barrier(graph, graph.links[0], together.worker_of) is None

    def test_analyze_reports_each_links_verdict(self):
        descriptor = {
            "name": "verdicts",
            "operators": [
                {"name": "src", "type": "source",
                 "class": "repro.workloads.operators:CountingSource"},
                {"name": "relay", "type": "processor",
                 "class": "repro.workloads.operators:RelayProcessor"},
                {"name": "sink", "type": "processor",
                 "class": "repro.workloads.operators:CollectingSink"},
            ],
            "links": [{"from": "src", "to": "relay"},
                      {"from": "relay", "to": "sink", "chain": False}],
        }
        spec = {"descriptor": descriptor, "workers": 2, "pin": {"src": 0, "relay": 0, "sink": 1}}
        report = verify_cluster(spec)
        assert not report.diagnostics  # clean; the verdicts are a pass of their own
        chain_verdicts(report)
        assert report.codes() == ["NEPG140", "NEPG140"] and report.exit_code() == 0
        first, second = (d.message for d in report)
        assert first.startswith("chained on worker 0")
        assert second == "not chained (chain=False): a buffered leg"
        descriptor["links"][1].pop("chain")
        report = verify_cluster(spec)
        chain_verdicts(report)
        (_, second) = (d.message for d in report)
        assert second.startswith("split by the plan: relay→w0, sink→w1")

    def test_chain_round_trips_through_a_descriptor(self):
        graph = StreamProcessingGraph.from_descriptor(
            {
                "name": "rt",
                "operators": [
                    {"name": "src", "type": "source",
                     "class": "repro.workloads.operators:CountingSource"},
                    {"name": "sink", "type": "processor",
                     "class": "repro.workloads.operators:CollectingSink"},
                ],
                "links": [{"from": "src", "to": "sink", "chain": False}],
            }
        )
        assert graph.links[0].chain is False
        desc = graph.to_descriptor()
        assert desc["links"][0]["chain"] is False
        assert StreamProcessingGraph.from_descriptor(desc).links[0].chain is False
        desc["links"][0].pop("chain")  # the default is not written out
        again = StreamProcessingGraph.from_descriptor(desc)
        assert again.links[0].chain is True and "chain" not in again.to_descriptor()["links"][0]


# -- born --------------------------------------------------------------------------


def test_a_chain_feeding_a_real_buffer_inherits_the_heads_born():
    graph = StreamProcessingGraph(
        "born", config=NeptuneConfig(buffer_max_delay=60.0)
    )
    graph.add_source("src", lambda: _Numbers(5))
    graph.add_processor("relay", lambda: _Stage("relay", 0, []))
    graph.add_processor("sink", lambda: _Rows([]), parallelism=2)
    graph.link("src", "relay").link("relay", "sink")
    job = _wire(graph)
    src, relay = job.instances["src"][0], job.instances["relay"][0]
    for inst in job.all_instances():
        inst.initialize()
    before = time.monotonic()
    src._framework_execute()
    after = time.monotonic()
    (leg,) = job.chains
    assert leg.handoffs >= 1 and before <= leg.born <= after
    pending = [buf for buf in relay._out_buffers if buf.pending_count]
    assert len(pending) == 2  # round-robin over both sink instances
    # The chain spent none of the budget: the first real buffer is as
    # old as the first row the source made.
    assert all(buf.born == leg.born for buf in pending)


# -- failure -----------------------------------------------------------------------


def test_a_chained_operator_that_raises_fails_the_job_under_its_own_label():
    class Dies(_Stage):
        def process(self, packet, ctx):
            if packet.get_at(0) == 5:
                raise RuntimeError("relay died")
            super().process(packet, ctx)

    rows = []
    graph = StreamProcessingGraph("raise")
    graph.add_source("src", lambda: _Numbers(50))
    graph.add_processor("relay", lambda: Dies("relay", 0, []))
    graph.add_processor("sink", lambda: _Rows(rows))
    graph.link("src", "relay").link("relay", "sink")
    with NeptuneRuntime() as rt:
        handle = rt.submit(graph)
        assert len(handle._job.chains) == 2
        handle.await_completion(timeout=30)
        failures = handle.failures
        assert handle.state is JobState.FAILED
    assert list(failures) == ["relay[0]"]
    assert isinstance(failures["relay[0]"], RuntimeError)
    # What the relay emitted before it raised arrived; nothing after.
    assert rows == [(seq, 0) for seq in range(5)]


# -- checkpoint and restore ----------------------------------------------------------


class _Counting(_Rows):
    def snapshot_state(self):
        return {"rows": list(self.rows)}

    def restore_state(self, state):
        self.rows[:] = state["rows"]


def test_a_chained_pipeline_checkpoints_and_restores_exactly_once():
    total = 3_000

    def build(rows, on_emit=None):
        graph = StreamProcessingGraph("ckpt-chain")
        graph.add_source("src", lambda: _Numbers(total, on_emit))
        graph.add_processor("relay", lambda: _Stage("relay", 0, []))
        graph.add_processor("sink", lambda: _Counting(rows))
        graph.link("src", "relay").link("relay", "sink")
        return graph

    first_rows = []
    with NeptuneRuntime() as rt:
        # The source pauses itself after packet 999 - what the quiesce
        # does to it - so the cut falls mid-stream without a sleep; the
        # checkpoint un-pauses it.
        reached = threading.Event()

        def park(source, ctx):
            if source.seq == 1_000:
                ctx.paused = True
                reached.set()

        handle = rt.submit(build(first_rows, park))
        assert len(handle._job.chains) == 2
        assert reached.wait(30)
        ckpt = handle.checkpoint()
        assert handle.await_completion(timeout=60) and not handle.failures
    assert ckpt.state_for("src", 0) == {"seq": 1_000}
    # A consistent cut: everything the source had made was at the sink.
    assert ckpt.state_for("sink", 0)["rows"] == [(seq, 0) for seq in range(1_000)]
    assert first_rows == [(seq, 0) for seq in range(total)]
    # Recovery: a fresh job from the cut replays the rest, once.
    restored_rows = []
    with NeptuneRuntime() as rt:
        handle = rt.submit(build(restored_rows), restore_from=ckpt)
        assert handle.await_completion(timeout=60) and not handle.failures
    assert restored_rows == [(seq, 0) for seq in range(total)]


# -- metrics, observability ---------------------------------------------------------


NAP = 0.005


class _Sleeper(_Rows):
    def on_batch_start(self, size, ctx):
        time.sleep(NAP)  # off the CPU, on its sender's thread


class _Tens(_Numbers):
    """Ten rows a call: one 160-byte capacity batch, so a source quantum
    can end only between batches (never with a part-filled hand-over)."""

    def generate(self, ctx):
        if self.seq >= self.total:
            ctx.finish()
            return
        for _ in range(10):
            ctx.emit(ctx.new_packet().set_at(0, self.seq).set_at(1, 0))
            self.seq += 1


def _sleepy_job(observer=None):
    rows = []
    # Ten 16-byte rows to a hand-over: twenty naps.
    graph = StreamProcessingGraph("sleepy", config=NeptuneConfig(buffer_capacity=160))
    graph.add_source("src", lambda: _Tens(200))
    graph.add_processor("sink", lambda: _Sleeper(rows))
    graph.link("src", "sink")
    with NeptuneRuntime(observer=observer) as rt:
        handle = rt.submit(graph)
        assert handle.await_completion(timeout=60) and not handle.failures
        if observer is not None:
            bridge.scrape_job(observer.registry, handle)
        return handle.metrics(), handle, rows


def test_metrics_of_a_chained_hop():
    metrics, _, rows = _sleepy_job()
    assert len(rows) == 200
    sink, src = metrics["sink"], metrics["src"]
    assert sink["bytes_in"] == 0 and sink["packets_in"] == 200
    # Twenty hand-overs and no frame: batches_in counts frames drained.
    assert sink["batches_in"] == 0 and sink["executions"] == 20
    assert src["packets_out"] == 200 and src["bytes_out"] == 0
    # The sender was held up by its receiver, and says so.
    assert src["emit_block_seconds"] >= NAP * 20


def test_the_bridge_shows_where_the_buffers_went_and_the_doctor_who_sleeps():
    obs = RuntimeObserver(sample_every=0)
    metrics, handle, _ = _sleepy_job(obs)
    series = {
        s.name: s.value
        for s in obs.registry.collect()
        if dict(s.labels).get("leg") == "src[0]->sink[0]/default"
    }
    assert series["neptune_chain_handoffs_total"] == metrics["sink"]["executions"]
    assert series["neptune_chain_packets_total"] == 200
    wall = series["neptune_chain_receiver_wall_seconds_total"]
    cpu = series["neptune_chain_receiver_cpu_seconds_total"]
    assert wall >= NAP * 20 and cpu < wall / 2
    # batch_executed survives fusing.
    events = obs.timeline.snapshot("runtime", "batch_executed")
    assert {e.attrs["operator"] for e in events} == {"sink[0]"}
    assert sum(e.attrs["packets"] for e in events) == 200
    report = diagnose(observer_snapshot(obs))
    (advisory,) = report["advisories"]
    assert advisory["type"] == "chained_off_cpu" and advisory["operator"] == "sink"
    assert "chain=False" in advisory["fix"] and "'src'->'sink'" in advisory["fix"]
    assert "chained_off_cpu" in render_report(report)


def test_a_cpu_bound_chain_gets_no_advisory():
    obs = RuntimeObserver(sample_every=0)
    rows = []
    with NeptuneRuntime(observer=obs) as rt:
        handle = rt.submit(_pipeline(2_000, [("relay", 0)], 4096, True, rows, {}))
        assert handle.await_completion(timeout=60)
        bridge.scrape_job(obs.registry, handle)
    assert diagnose(observer_snapshot(obs))["advisories"] == []


def test_retune_that_matches_only_chained_legs_says_so():
    rows = []
    graph = StreamProcessingGraph("retune")
    graph.add_source("src", lambda: _Numbers(10))
    graph.add_processor("relay", lambda: _Stage("relay", 0, []))
    graph.add_processor("sink", lambda: _Rows(rows), parallelism=2)
    graph.link("src", "relay").link("relay", "sink")
    with NeptuneRuntime() as rt:
        handle = rt.submit(graph)
        into_relay = rt.reconfigure({"retune": {"operator": "relay", "capacity": 4096}})
        into_sink = rt.reconfigure({"retune": {"operator": "sink", "capacity": 4096}})
        nobody = rt.reconfigure({"retune": {"operator": "nobody", "capacity": 4096}})
        assert handle.await_completion(timeout=30)
    assert into_relay["applied"] == [
        {"kind": "retune", "skipped": "chained", "legs": ["src[0]->relay[0]/default"]}
    ]
    assert [entry["buffer"] for entry in into_sink["applied"]] == [
        "relay[0]->sink[0]/default",
        "relay[0]->sink[1]/default",
    ]
    assert nobody["applied"] == []


def test_sampled_traces_still_tile_across_a_chained_hop():
    obs = RuntimeObserver(sample_every=10)
    rows = []
    with NeptuneRuntime(observer=obs) as rt:
        handle = rt.submit(_pipeline(500, [("relay", 0)], 4096, True, rows, {}))
        assert handle.await_completion(timeout=60) and not handle.failures
    traces = obs.collector.traces()
    assert len(traces) == 50
    for spans in traces.values():
        assert [s.hop for s in spans] == [0] * 6 + [1] * 6
        # Contiguous: each stage starts where the one before ended.
        for before, after in zip(spans, spans[1:]):
            assert after.start == pytest.approx(before.end, abs=1e-9)
        by_stage = {(s.hop, s.stage): s.duration for s in spans}
        # Nothing is taken, sent or drained on a chained hop.
        assert by_stage[(0, "flush")] == by_stage[(0, "wire")] == 0.0
