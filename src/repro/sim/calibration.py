"""Cost-model constants for the cluster simulator.

Every constant is a *mechanism cost* the paper's argument depends on.
Values are calibrated to commodity 2012-era Xeon servers (HP DL160,
E5620) on Linux with a 1 Gbps LAN — the paper's testbed — drawn from
the paper's own measurements where available (e.g. context-switch
counts in Table I, the 0.937 Gbps bandwidth ceiling) and from standard
micro-architecture folklore otherwise.  The ablation benchmark
(`benchmarks/bench_ablation_calibration.py`) sweeps the key constants
to show which conclusions are sensitive to them (none of the *shapes*
are; only absolute numbers move).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Calibration:
    """Simulator cost constants (all times in seconds, sizes in bytes)."""

    # -- CPU ------------------------------------------------------------------
    #: Cores per node (paper nodes expose 8 virtual cores).
    cores_per_node: int = 8
    #: Direct + indirect cost of one thread context switch (cache/TLB
    #: refill included).  ~3-7 µs on the testbed's era of hardware.
    context_switch: float = 5e-6
    #: Kernel crossing for one socket send/recv call.
    syscall: float = 1.5e-6
    #: Full cost of pushing one application send through the network
    #: stack (syscall + TCP/IP traversal + driver doorbell + the
    #: sender-side share of netty pipeline work).  Charged per flush in
    #: NEPTUNE (one send per buffer) and per tuple in the Storm model —
    #: this asymmetry is §III-B1's "reduced number of traversals of the
    #: networking stack".
    send_call_cpu: float = 30e-6
    #: Receive-side counterpart per kernel→application delivery unit.
    recv_call_cpu: float = 8e-6
    #: User CPU to handle one small stream packet (deserialize, field
    #: access, domain logic of a cheap operator).
    per_message_cpu: float = 0.35e-6
    #: Additional CPU per payload byte (serialization/copy).
    per_byte_cpu: float = 0.35e-9
    #: Queue handoff between two threads in the same process (lock +
    #: wakeup), excluding the context switch itself.
    thread_handoff: float = 0.7e-6
    #: Instruction-cache warm-up amortized away by batched execution:
    #: extra per-message CPU when each message is scheduled alone.
    cold_schedule_penalty: float = 0.6e-6
    #: Probability that one individually-scheduled message dispatch
    #: incurs a real (non-voluntary) context switch because another
    #: runnable thread interleaves.  Calibrated so the relay's
    #: batched-vs-individual contrast lands in Table I's regime
    #: (~4.1e3 vs ~9.0e4 switches per 5 s, a ~22x ratio).
    individual_dispatch_switch_prob: float = 0.017
    #: Housekeeping wake-ups per second per process (flush-timer poll,
    #: JVM/runtime daemons) — the context-switch noise floor an idle
    #: managed runtime shows.
    housekeeping_hz: float = 500.0
    #: CPU per housekeeping wake-up.
    housekeeping_cpu: float = 1e-6
    #: Extra thread handoffs a message crosses inside a Storm worker
    #: beyond NEPTUNE's two-tier path ("every message to go through
    #: four different threads", §IV-C vs NEPTUNE's 2).
    storm_extra_handoffs: int = 2
    #: Storm executor/transfer internal batch (tuples moved per
    #: disruptor publish); Storm 0.9.5 still *sends* per tuple.
    storm_internal_batch: int = 1
    #: Per-tuple send-path CPU inside a Storm worker (serialization,
    #: disruptor publish, netty enqueue) — cheaper than a full NEPTUNE
    #: flush because netty coalesces writes, but paid per tuple.
    storm_tuple_send_cpu: float = 7e-6
    #: Wire bytes of tuple framing Storm adds per tuple (stream id,
    #: task ids, serialization envelope).
    storm_tuple_overhead_bytes: int = 60
    #: Cores one Storm worker burns regardless of load: Storm 0.9.x's
    #: disruptor consumers and spout nextTuple loops busy-spin.  This
    #: is the paper's Fig. 10 observation that Storm's cluster-wide CPU
    #: stays high ("due to its threading model") even though its
    #: throughput is lower.
    storm_idle_spin_cores_per_worker: float = 1.2

    # -- memory / GC -------------------------------------------------------------
    #: Bytes of short-lived garbage created per message *without*
    #: object reuse (packet object + serde scratch + boxing).
    garbage_per_message_no_reuse: int = 160
    #: With object reuse: only transient envelope bytes remain.
    garbage_per_message_reuse: int = 12
    #: GC throughput of the collector (bytes of garbage retired per
    #: second of GC CPU time); young-gen collections on a 1 GB heap.
    gc_bytes_per_second: float = 4.0e9
    #: Heap size (Storm workers and Granules resources both use 1 GB).
    heap_bytes: int = 1 << 30

    # -- network -------------------------------------------------------------------
    #: Link rate, bits/second (1 Gbps LAN).
    link_rate_bps: float = 1e9
    #: One-way propagation + switching delay between two nodes.
    propagation: float = 100e-6
    #: Ethernet L1/L2 overhead per frame: preamble 8 + header 14 +
    #: FCS 4 + interframe gap 12.
    ethernet_overhead: int = 38
    #: IPv4 (20) + TCP (20) headers per segment.
    ip_tcp_overhead: int = 40
    #: MSS: MTU 1500 minus IP+TCP headers.
    mss: int = 1460
    #: Default TCP receive window / kernel receive buffer.
    tcp_window: int = 128 * 1024

    # -- helpers -------------------------------------------------------------------
    def wire_bytes(self, payload: int) -> int:
        """Bytes on the wire for ``payload`` bytes of TCP stream data."""
        if payload <= 0:
            return 0
        frames = -(-payload // self.mss)  # ceil
        return payload + frames * (self.ip_tcp_overhead + self.ethernet_overhead)

    def goodput_efficiency(self, message_size: int, batch: int) -> float:
        """Fraction of link bits that are application payload when
        ``batch`` messages of ``message_size`` share TCP segments."""
        payload = message_size * batch
        return payload / self.wire_bytes(payload) if payload else 0.0

    def with_overrides(self, **kw) -> "Calibration":
        """A copy with selected constants replaced (ablation studies)."""
        return replace(self, **kw)


DEFAULT_CALIBRATION = Calibration()
