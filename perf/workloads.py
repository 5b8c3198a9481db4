"""The four workloads: what each offers the system.

Everything here is plain data made from ``--seed``; the program under
test only ever sees the generated packets.  A seed changes readings,
the order in which keys arrive and nothing else: packet counts and
encoded sizes are the same for every seed, so the relays'
``wire_bytes_per_packet`` does not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: ``run_seconds`` of BENCHMARK.json: the job time, summed over the
#: timed trials of one run, that the packet counts below are sized for.
RUN_SECONDS = 18

#: Sensors, and packets per tumbling window, of ``sensor_keyed``.
N_KEYS = 64
WINDOW = 16
STATUSES = ("nominal", "warning", "service")  # equal length: equal wire size


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``packets`` is per trial at ``RUN_SECONDS``."""

    name: str
    packets: int
    trials: int
    #: Offered packets/s (open loop), or None for a closed loop where
    #: the source emits as fast as backpressure admits.
    rate: float | None = None
    cluster: bool = False
    keyed: bool = False


# BENCHMARK.json says why each exists; README.md says which
# optimisation each should and should not reward.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("relay_sat", packets=30_000, trials=16),
        Workload("relay_paced", packets=8_000, trials=15, rate=8_000.0),
        Workload("wire_sat", packets=22_000, trials=13, cluster=True),
        Workload("sensor_keyed", packets=14_400, trials=15, keyed=True),
    )
}

#: Ticks of the open-loop generator, and packets due at each.
PACED_TICK = 0.002


def scaled_packets(workload: Workload, seconds: float) -> int:
    """Packets per trial when a run is to measure for ``seconds``,
    rounded so ``sensor_keyed`` keeps whole windows and ``relay_paced``
    whole ticks."""
    scaled = workload.packets * seconds / RUN_SECONDS
    return max(WINDOW, round(scaled / WINDOW) * WINDOW)


def relay_readings(seed: int, count: int) -> list[float]:
    """The ``reading`` field of the relay workloads' packet ``seq``."""
    rng = random.Random(seed)
    return [rng.uniform(-50.0, 150.0) for _ in range(count)]


def sensor_records(seed: int, count: int) -> list[tuple]:
    """``count`` DEBS-like records ``(key, r0..r5, status)``, in arrival order.

    Keys follow Zipf(1.0) over ``N_KEYS`` sensors, apportioned in whole
    windows so that every packet contributes to exactly one summary.
    Readings are eighths that step rarely, so they are exact in float32
    and low in entropy, as sensor telemetry is.
    """
    if count % WINDOW:
        raise ValueError(f"sensor_keyed needs whole windows, got {count} packets")
    windows = count // WINDOW
    weights = [1.0 / (rank + 1) for rank in range(N_KEYS)]
    scale = windows / sum(weights)
    shares = [int(w * scale) for w in weights]
    # Largest remainders take the windows that rounding down left over.
    by_remainder = sorted(
        range(N_KEYS), key=lambda k: weights[k] * scale - shares[k], reverse=True
    )
    for k in by_remainder[: windows - sum(shares)]:
        shares[k] += 1
    rng = random.Random(seed)
    arrivals = [k for k, share in enumerate(shares) for _ in range(share * WINDOW)]
    rng.shuffle(arrivals)
    levels = [[rng.randrange(160, 640) for _ in range(6)] for _ in range(N_KEYS)]
    records = []
    for key in arrivals:
        level = levels[key]
        if rng.random() < 0.05:
            level[rng.randrange(6)] += rng.choice((-1, 1))
        status = 0 if rng.random() < 0.97 else rng.randrange(1, len(STATUSES))
        records.append((key, *(v / 8.0 for v in level), status))
    return records


def sensor_name(key: int) -> str:
    return f"sensor-{key:02d}"


def reference_fold(records: list[tuple]) -> dict[str, list[tuple[int, float]]]:
    """Single-threaded fold of ``sensor_keyed``: per sensor, the
    ``(count, mean of r0)`` of each tumbling window in order."""
    open_windows: dict[int, list[float]] = {}
    out: dict[str, list[tuple[int, float]]] = {}
    for record in records:
        key = record[0]
        window = open_windows.setdefault(key, [])
        window.append(record[1])
        if len(window) == WINDOW:
            out.setdefault(sensor_name(key), []).append(
                (WINDOW, sum(window) / WINDOW)
            )
            window.clear()
    return out
