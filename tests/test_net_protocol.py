"""The wire protocol without sockets: :class:`Sender` and :class:`Receiver`
unit tests, and a model-based test that drives one of each through an
in-memory pipe under the chaos plane's wire faults, lost acks, refused
sinks, refused reconnects and stalls."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultAction, FaultPlan
from repro.net.framing import HEADER_SIZE, FrameDecoder, FrameEncoder
from repro.net.protocol import ACK, DELIVER, GAP, Receiver, RetryPolicy, Sender
from repro.util.errors import SerializationError


def _send(sender, link, body):
    """Number and keep one frame, as the transport does; its wire bytes."""
    seq, wire = sender.encode(link, body, 1)
    sender.keep(link, seq, wire)
    return wire


class TestSender:
    def test_window_holds_frames_until_acked(self):
        sender = Sender("h:1", RetryPolicy(replay_window_bytes=3 * (HEADER_SIZE + 4)))
        wires = [_send(sender, 1, b"abcd") for _ in range(3)]
        assert sender.window_full(HEADER_SIZE + 4)  # the wait-for-window verdict
        assert sender.on_acks(ACK.pack(1, 1), now=5.0) == ACK.size
        assert sender.unacked_frames == 1 and sender.acked_frames == 2
        assert not sender.window_full(HEADER_SIZE + 4)
        assert sender.replay() == wires[2:]

    def test_ack_records_split_across_reads(self):
        sender = Sender("h:1", RetryPolicy())
        for _ in range(3):
            _send(sender, 7, b"x")
        stream = ACK.pack(7, 0) + ACK.pack(7, 2)
        buf = bytearray(stream[:5])
        assert sender.on_acks(buf, now=1.0) == 0  # no whole record yet
        buf += stream[5:17]
        used = sender.on_acks(buf, now=1.0)
        assert used == ACK.size and sender.unacked_frames == 2
        del buf[:used]
        buf += stream[17:]
        assert sender.on_acks(buf, now=1.0) == ACK.size
        assert sender.unacked_frames == 0

    def test_window_is_pruned_in_send_order_across_links(self):
        sender = Sender("h:1", RetryPolicy())
        _send(sender, 1, b"a")
        _send(sender, 2, b"b")
        sender.on_acks(ACK.pack(2, 0), now=1.0)
        assert sender.unacked_frames == 2  # link 1's frame heads the window
        sender.on_acks(ACK.pack(1, 0), now=1.0)
        assert sender.unacked_frames == 0

    def test_stall_is_the_sever_verdict(self):
        sender = Sender("h:1", RetryPolicy())
        sender.connected(now=10.0)
        assert not sender.stalled(now=20.0, stall=0.5)  # nothing outstanding
        _send(sender, 1, b"a")
        assert not sender.stalled(now=10.4, stall=0.5)
        assert sender.stalled(now=10.6, stall=0.5)
        sender.on_acks(ACK.pack(1, 0), now=10.6)
        assert not sender.stalled(now=10.7, stall=0.5)

    def test_stall_clock_restarts_once_the_replay_is_written(self):
        sender = Sender("h:1", RetryPolicy())
        sender.connected(now=10.0)
        _send(sender, 1, b"a")
        assert sender.replay() and sender.stalled(now=11.0, stall=0.5)
        sender.connected(now=11.0)  # the replay took a second to write
        assert not sender.stalled(now=11.4, stall=0.5)
        assert sender.stalled(now=11.6, stall=0.5)

    def test_retry_budget_then_give_up(self):
        policy = RetryPolicy(max_retries=3, backoff_base=0.1, backoff_max=0.3)
        sender = Sender("h:1", policy)
        at = [sender.retry_at(n, now=100.0) for n in (1, 2, 3)]
        for n, t in enumerate(at):
            raw = min(0.3, 0.1 * 2**n)
            assert 100.0 + raw * 0.75 <= t <= 100.0 + raw * 1.25
        assert sender.retry_at(4, now=100.0) is None  # the give-up verdict

    def test_backoff_is_seeded_by_the_whole_endpoint(self):
        """Endpoints that share their last four bytes (every unix-fabric
        worker endpoint ends in "ck:0"; ports 40001 and 50001 share
        "0001") must not back off in lockstep under one seed."""
        policy = RetryPolicy(seed=7)
        for a, b in (
            ("unix:/run/job/w0.sock:0", "unix:/run/job/w1.sock:0"),
            ("127.0.0.1:40001", "127.0.0.1:50001"),
        ):
            assert a[-4:] == b[-4:]
            delays = [
                [Sender(e, policy).retry_at(n, now=0.0) for n in range(1, 6)]
                for e in (a, b)
            ]
            assert delays[0] != delays[1]
        # ... and one endpoint under one seed backs off reproducibly.
        again = [Sender("127.0.0.1:40001", policy).retry_at(n, 0.0) for n in range(1, 6)]
        assert again == [
            Sender("127.0.0.1:40001", policy).retry_at(n, 0.0) for n in range(1, 6)
        ]


class TestReceiver:
    def test_a_sink_that_raises_leaves_the_frame_expected(self):
        receiver = Receiver()
        (frame,) = FrameDecoder().feed(FrameEncoder().encode(3, b"f0", 1))

        def refuse(frame):
            assert receiver.expected(3) == 0  # not committed while in the sink
            raise RuntimeError("sink refused")

        with pytest.raises(RuntimeError):
            receiver.receive(frame, refuse)
        assert receiver.expected(3) == 0 and receiver.delivered == 0
        got = []
        assert receiver.receive(frame, got.append)[0] == DELIVER
        assert got == [frame]


# ---------------------------------------------------------------------------
# The model: one sender, one receiver, connections as in-memory pipes
# ---------------------------------------------------------------------------

SITE = "model.send"
STALL = 0.5
POLICY = RetryPolicy(
    max_retries=3, backoff_base=0.01, backoff_max=0.04, replay_window_bytes=1500
)
# No fault half the time: a gap needs a later frame on the same link
# to arrive on the same connection.
WIRE_FAULTS = [
    *[None] * 5,
    FaultAction.DROP,
    FaultAction.DUPLICATE,
    FaultAction.TRUNCATE,
    FaultAction.BITFLIP,
    FaultAction.KILL_CONNECTION,
]


class SinkRefused(Exception):
    pass


class Pipe:
    """One connection.  The receiver may go on reading what was written
    to it after the sender has moved to a newer connection."""

    def __init__(self):
        self.down = bytearray()  # frames in flight to the receiver
        self.up = bytearray()  # acks in flight to the sender
        self.acks_read = bytearray()  # read by the sender, not a whole record
        self.decoder = FrameDecoder()
        self.reading = True  # the receiver has not hung up


class WireProtocolMachine(RuleBasedStateMachine):
    """Invariants: each link's delivered frames are a prefix of its sent
    frames, with no duplicate, and only delivered frames have left the
    replay window.  Once the faults stop, everything sent is delivered
    after at most one reconnect, or the sender gave up."""

    def __init__(self):
        super().__init__()
        self.sender = Sender("model:0", POLICY)
        self.receiver = Receiver()
        self.injector = FaultInjector(FaultPlan(seed=0), sleep=lambda s: None)
        self.sent = {}
        self.delivered = {}
        self.now = 0.0
        self.pipes = []  # connections the receiver may still read
        self.current = None  # the sender's connection
        self.refused_connects = 0
        self.refused_sinks = 0
        self.lost_acks = 0
        self.gave_up = False
        self._connect()

    # -- what the transport and listener do ------------------------------------
    def _connect(self):
        """TcpTransport._recover: attempts until one connects, backing
        off as the sender says, or the sender gives up."""
        failures, at = 0, self.now
        while True:
            self.now = max(self.now, at)
            if self.refused_connects:
                self.refused_connects -= 1
                failures += 1
                at = self.sender.retry_at(failures, self.now)
                if at is None:
                    self.gave_up = True
                    return
                continue
            self.current = Pipe()
            self.pipes.append(self.current)
            for wire in self.sender.replay():
                self.current.down += wire
            self.sender.connected(self.now)
            return

    def _sender_hangs_up(self):
        # What the sender wrote may still arrive; the acks are lost.
        self.current.up.clear()
        self.current = None

    def _receiver_hangs_up(self, pipe):
        pipe.reading = False
        pipe.down.clear()

    def _sink(self, frame):
        if self.refused_sinks:
            self.refused_sinks -= 1
            raise SinkRefused
        self.delivered.setdefault(frame.link_id, []).append(bytes(frame.body))

    def _receive(self, pipe, n):
        """TcpListener._reader_loop over ``n`` bytes of ``pipe``."""
        data = bytes(pipe.down[:n])
        del pipe.down[:n]
        try:
            frames = pipe.decoder.feed(data)
        except SerializationError:
            self._receiver_hangs_up(pipe)
            return
        for frame in frames:
            try:
                verdict, ack = self.receiver.receive(frame, self._sink)
            except SinkRefused:
                self._receiver_hangs_up(pipe)
                return
            if ack:
                if self.lost_acks:
                    self.lost_acks -= 1
                else:
                    pipe.up += ack
            if verdict == GAP:
                self._receiver_hangs_up(pipe)
                return

    def _read_acks(self, n):
        """TcpTransport._ack_loop: ``n`` bytes, or EOF."""
        pipe = self.current
        if pipe is None or self.gave_up:
            return
        if not pipe.up and not pipe.reading:
            # EOF: recover at once only with frames outstanding.
            self.current = None
            if self.sender.unacked_frames:
                self._connect()
            return
        pipe.acks_read += pipe.up[:n]
        del pipe.up[:n]
        used = self.sender.on_acks(pipe.acks_read, self.now)
        del pipe.acks_read[:used]

    # -- rules ------------------------------------------------------------------
    @rule(
        link=st.integers(0, 1),
        size=st.integers(0, 300),
        fault=st.sampled_from(WIRE_FAULTS),
        param=st.floats(0.0, 1.0),
        more=st.integers(0, 2),
    )
    def send(self, link, size, fault, param, more):
        """One frame with ``fault``, then ``more`` clean ones on its link
        (a burst: after a drop, what lets the receiver see the gap)."""
        for fault in [fault] + [None] * more:
            if self.gave_up:
                return
            if self.current is None:
                self._connect()
                if self.gave_up:
                    return
            if self.sender.window_full(HEADER_SIZE + size):
                return  # the transport would wait for acks
            seq = len(self.sent.get(link, []))
            body = (b"%d:%d;" % (link, seq) * (size // 4 + 1))[:size]
            wire = _send(self.sender, link, body)
            self.sent.setdefault(link, []).append(body)
            if fault is not None:
                at = self.injector.interceptions(SITE)
                self.injector.plan.at(SITE, at, fault, param)
            chunks, kill_after, _ = self.injector.apply_to_wire(SITE, wire)
            if self.current.reading:
                for chunk in chunks:
                    self.current.down += chunk
            if kill_after:
                self._sender_hangs_up()
                self._connect()

    @rule(which=st.integers(0, 3), n=st.integers(1, 400))
    def receive(self, which, n):
        readable = [p for p in self.pipes if p.reading and p.down]
        if readable:
            self._receive(readable[which % len(readable)], n)
        self.pipes = [p for p in self.pipes if p is self.current or (p.reading and p.down)]

    @rule(n=st.integers(1, 40))
    def read_acks(self, n):
        self._read_acks(n)

    @rule(n=st.integers(1, 3))
    def lose_acks(self, n):
        self.lost_acks += n

    @rule()
    def refuse_sink(self):
        self.refused_sinks += 1

    @rule(k=st.integers(1, 4))
    def refuse_connects(self, k):
        self.refused_connects += k

    @rule()
    def kill_connection(self):
        """The network loses the connection and everything in flight."""
        if self.current is None or self.gave_up:
            return
        self._receiver_hangs_up(self.current)
        self._sender_hangs_up()
        if self.sender.unacked_frames:
            self._connect()

    @rule(dt=st.floats(0.05, 0.3))
    def tick(self, dt):
        """TcpTransport.ensure_delivered: a stalled window is severed
        and replayed."""
        self.now += dt
        if not self.gave_up and self.sender.stalled(self.now, STALL):
            if self.current is not None:
                self._sender_hangs_up()
            self._connect()

    # -- the contract -------------------------------------------------------------
    @invariant()
    def delivered_is_a_prefix_of_sent(self):
        for link, got in self.delivered.items():
            assert got == self.sent.get(link, [])[: len(got)], link

    @invariant()
    def only_delivered_frames_leave_the_window(self):
        # Each link's frames leave the window in order, so what is left
        # of a link is its sent frames from the oldest one still held.
        held = {}
        for frame in FrameDecoder().feed(b"".join(self.sender.replay())):
            held.setdefault(frame.link_id, frame.seq)
        for link, sent in self.sent.items():
            released = held.get(link, len(sent))
            assert released <= len(self.delivered.get(link, [])), link

    def _settle(self):
        moved, rounds = True, 0
        while moved and not self.gave_up:
            rounds += 1
            assert rounds < 1000, "the pipes never settle"
            moved = False
            for pipe in list(self.pipes):
                if pipe.reading and pipe.down:
                    self._receive(pipe, len(pipe.down))
                    moved = True
            if self.current is not None and (self.current.up or not self.current.reading):
                self._read_acks(len(self.current.up) or 1)
                moved = True

    def teardown(self):
        self.refused_connects = self.refused_sinks = self.lost_acks = 0
        self._settle()
        if not self.gave_up and self.sender.unacked_frames:
            self.now += 2 * STALL
            assert self.sender.stalled(self.now, STALL)
            if self.current is not None:
                self._sender_hangs_up()
            self._connect()
            self._settle()
        if self.gave_up:
            return
        assert self.sender.unacked_frames == 0
        assert self.delivered == {k: v for k, v in self.sent.items() if v}


WireProtocolMachine.TestCase.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None
)
TestWireProtocol = WireProtocolMachine.TestCase
