"""Synthetic DEBS-2012 Grand Challenge manufacturing telemetry.

The paper's application benchmark (Figs. 8-9) and its compression study
use "the manufacturing equipment monitoring use case presented in DEBS
Grand Challenge": high-frequency telemetry from sensors attached to
manufacturing equipment.  The original dataset is not redistributable,
so this module generates a synthetic stream preserving the properties
the paper relies on:

- a wide record (the original has 66 data fields; we generate all 66,
  though like the paper's job only 6 + timestamp are consumed),
- three *chemical additive* sensors whose states change rarely,
- three corresponding *valves* that actuate shortly after their
  sensor's state changes (the monitored delay),
- very low temporal entropy: consecutive readings are nearly
  identical, which is why buffered batches compress so well.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.fieldtypes import FieldType
from repro.core.packet import PacketSchema, StreamPacket

N_EXTRA_FIELDS = 59  # 66 total: ts + 3 sensors + 3 valves = 7 named

_fields: list[tuple[str, FieldType]] = [("ts", FieldType.INT64)]
for _i in range(1, 4):
    _fields.append((f"additive_sensor_{_i}", FieldType.BOOL))
    _fields.append((f"valve_{_i}", FieldType.BOOL))
for _i in range(N_EXTRA_FIELDS):
    _fields.append((f"aux_{_i:02d}", FieldType.FLOAT32))

#: The full 66-field manufacturing record.
MANUFACTURING_SCHEMA = PacketSchema(_fields)

#: Mean sensor→valve actuation delay being monitored (the job's output
#: metric); jittered ±50 %.
ACTUATION_DELAY_MS = 40.0


class ManufacturingStream:
    """Generates the synthetic equipment-telemetry stream.

    Parameters
    ----------
    period_ms:
        Sampling interval (the original records at ~100 Hz; default
        10 ms).
    state_change_prob:
        Per-record probability that one additive sensor flips state.
        Low by design — "sensor readings do not change frequently over
        time which results in a low entropy" (§III-B5).
    """

    def __init__(
        self,
        period_ms: int = 10,
        state_change_prob: float = 0.001,
        start_ms: int = 1_600_000_000_000,
        seed: int = 11,
    ) -> None:
        if period_ms <= 0:
            raise ValueError(f"period_ms must be positive: {period_ms}")
        if not 0 <= state_change_prob <= 1:
            raise ValueError(f"state_change_prob must be in [0,1]: {state_change_prob}")
        self.period_ms = period_ms
        self.state_change_prob = state_change_prob
        self.start_ms = start_ms
        self._rng = random.Random(seed)
        self._sensor_state = [False, False, False]
        self._valve_state = [False, False, False]
        #: sensor index → time its valve will actuate.
        self._pending_actuation: dict[int, int] = {}
        #: ground truth of (sensor_idx, change_ms, actuation_ms) pairs,
        #: recorded so tests can verify the monitoring job's output.
        self.actuation_log: list[tuple[int, int, int]] = []
        self._aux = [round(self._rng.uniform(0, 100), 1) for _ in range(N_EXTRA_FIELDS)]

    def packets(self, count: int) -> Iterator[StreamPacket]:
        """Yield ``count`` sequential telemetry records."""
        rng = self._rng
        for i in range(count):
            t_ms = self.start_ms + i * self.period_ms
            # Occasionally flip one additive sensor; schedule its valve.
            if rng.random() < self.state_change_prob:
                s = rng.randrange(3)
                if s not in self._pending_actuation:
                    self._sensor_state[s] = not self._sensor_state[s]
                    jitter = rng.uniform(0.5, 1.5)
                    delay = max(self.period_ms, int(ACTUATION_DELAY_MS * jitter))
                    self._pending_actuation[s] = t_ms + delay
                    self.actuation_log.append((s, t_ms, t_ms + delay))
            # Fire due actuations.
            for s, due in list(self._pending_actuation.items()):
                if t_ms >= due:
                    self._valve_state[s] = self._sensor_state[s]
                    del self._pending_actuation[s]
            # Slow drift on a couple of aux channels keeps the stream
            # realistic without raising entropy much.
            if i % 50 == 0:
                j = rng.randrange(N_EXTRA_FIELDS)
                self._aux[j] = round(
                    min(100.0, max(0.0, self._aux[j] + rng.gauss(0, 0.1))), 1
                )
            pkt = StreamPacket(MANUFACTURING_SCHEMA)
            pkt.set("ts", t_ms)
            for s in range(3):
                pkt.set(f"additive_sensor_{s + 1}", self._sensor_state[s])
                pkt.set(f"valve_{s + 1}", self._valve_state[s])
            for j, v in enumerate(self._aux):
                pkt.set(f"aux_{j:02d}", v)
            yield pkt

    def serialized_stream(self, count: int) -> bytes:
        """The packets' concatenated wire form (compression studies)."""
        from repro.core.serde import PacketCodec

        codec = PacketCodec(MANUFACTURING_SCHEMA)
        return codec.encode_batch(list(self.packets(count)))
