"""Runtime configuration (paper §IV-A defaults).

"For NEPTUNE, we have used the default configurations where the buffer
size is set to 1 MB.  Thread pool sizes are determined automatically
depending on the number of cores in the machine it is running on."
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass
class NeptuneConfig:
    """Knobs for one NEPTUNE runtime / stream-processing job.

    Attributes
    ----------
    buffer_capacity:
        Application-level buffer size in bytes (paper default 1 MB).
    buffer_max_delay:
        Queuing-latency budget in seconds, spent once per resource: a
        buffer flushes at most this long after its first pending packet
        arrived (the paper's timer), and on a path that stays on one
        resource the later buffers do not charge it again - an operator
        that runs out of input flushes output whose packets have
        already waited this long since entering the job there.  Each
        socket crossing starts a fresh budget (DESIGN.md §10).
    inbound_high_watermark / inbound_low_watermark:
        Byte watermarks on each operator instance's inbound channel;
        the backpressure gate (§III-B4).  The low mark defaults to half
        the high mark — "set sufficiently apart ... to avoid the system
        oscillating between the two states rapidly."
    worker_threads:
        Worker-pool size; None = automatic (cores, floored at the
        number of hosted operator instances so a backpressure-blocked
        emit can never starve the consumer it is waiting on — the
        single-process analogue of the paper's multi-machine setup).
    compression_enabled / compression_entropy_threshold:
        Per-job defaults for the selective compression policy; each
        stream may override (§III-B5).
    emit_timeout:
        How long a blocked emit waits before raising
        :class:`~repro.util.errors.BackpressureTimeout`.  None = wait
        forever (the paper's semantics: never drop).
    transport_backoff_base / transport_backoff_max:
        Cross-resource TCP links always run the recovery protocol
        (ack-pruned replay window, reconnect with backoff, receiver
        duplicate suppression); this is its reconnect schedule: attempt
        ``n`` backs off ``min(max, base * 2**n)`` seconds, with
        :class:`~repro.net.transport.RetryPolicy`'s retry count, jitter
        (seeded — see ``fault_seed``) and send timeout.
    transport_replay_window:
        Replay-buffer capacity in bytes per TCP peer; unacknowledged
        frames beyond it block the sender (never evicted — eviction
        would forfeit the zero-loss guarantee).
    fault_seed:
        Seed for transport jitter and chaos scenarios; pinning it makes
        a failure run reproducible.
    latency_budget:
        Optional end-to-end queuing-latency budget in seconds for one
        packet traversing the deepest source→sink path.  Purely a
        declared intent: the static analyzer checks that
        ``buffer_max_delay`` can honour it under any placement, i.e.
        with a socket - a fresh ``buffer_max_delay`` - on every hop
        (``repro analyze`` code NEPG119).  None = no declared bound.
    """

    buffer_capacity: int = 1 << 20
    buffer_max_delay: float = 0.010
    inbound_high_watermark: int = 4 << 20
    inbound_low_watermark: int | None = None
    worker_threads: int | None = None
    compression_enabled: bool = False
    compression_entropy_threshold: float = 6.0
    compression_min_size: int = 64
    emit_timeout: float | None = None
    transport_backoff_base: float = 0.05
    transport_backoff_max: float = 2.0
    transport_replay_window: int = 8 << 20
    fault_seed: int = 0
    latency_budget: float | None = None

    def __post_init__(self) -> None:
        if self.buffer_capacity <= 0:
            raise ValueError(f"buffer_capacity must be positive: {self.buffer_capacity}")
        if self.buffer_max_delay <= 0:
            raise ValueError(f"buffer_max_delay must be positive: {self.buffer_max_delay}")
        if self.inbound_high_watermark <= 0:
            raise ValueError(
                f"inbound_high_watermark must be positive: {self.inbound_high_watermark}"
            )
        low = self.inbound_low_watermark
        if low is not None and not 0 <= low < self.inbound_high_watermark:
            raise ValueError(
                f"inbound_low_watermark must be in [0, high): {low}"
            )
        if self.worker_threads is not None and self.worker_threads <= 0:
            raise ValueError(f"worker_threads must be positive: {self.worker_threads}")
        if self.transport_replay_window <= 0:
            raise ValueError(
                f"transport_replay_window must be positive: {self.transport_replay_window}"
            )
        if self.latency_budget is not None and self.latency_budget <= 0:
            raise ValueError(
                f"latency_budget must be positive when set: {self.latency_budget}"
            )

    def effective_workers(self, hosted_instances: int) -> int:
        """Resolve the worker-pool size for a runtime hosting
        ``hosted_instances`` operator instances."""
        if self.worker_threads is not None:
            return max(self.worker_threads, hosted_instances)
        return max(os.cpu_count() or 1, hosted_instances, 1)

    def low_watermark(self) -> int:
        """Resolve the effective inbound low watermark."""
        if self.inbound_low_watermark is not None:
            return self.inbound_low_watermark
        return self.inbound_high_watermark // 2

    def retry_policy(self):
        """The transport :class:`~repro.net.transport.RetryPolicy` these
        knobs describe."""
        from repro.net.transport import RetryPolicy

        return RetryPolicy(
            backoff_base=self.transport_backoff_base,
            backoff_max=self.transport_backoff_max,
            replay_window_bytes=self.transport_replay_window,
            seed=self.fault_seed,
        )
