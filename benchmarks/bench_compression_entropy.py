"""COMP — entropy-based selective compression (paper §III-B5).

The paper compares a low-entropy sensor stream (DEBS manufacturing
telemetry) against a synthetic random stream of the same packet sizes,
with compression on/off, validating with Tukey's HSD:

- random data: "clear improvement in performance when the compression
  is completely disabled" (p < 0.0001 per comparison) — forcing
  compression on incompressible data costs real throughput;
- sensor data: "no strong evidence to support any negative or positive
  impact" (p > 0.1561) — with the paper's *native* LZ4 (GB/s class)
  compression is essentially free on compressible data.

This benchmark runs the *real* codec + policy path (not the simulator):
each arm round-trips batches through ``CompressionPolicy`` and then
performs the receiver's real work (decoding every packet with the
reusable codec), timing actual CPython throughput, then applies Tukey's HSD
(``scipy.stats.tukey_hsd``, Tukey-Kramer).

Substitution note (DESIGN.md §2): the codec is CPython's C ``zlib`` as
raw deflate at level 1 (~15 ns/B to compress, ~4 ns/B to decode), a
native codec in the paper's LZ4 role, so compressing a sensor batch
costs a fraction of decoding its packets in Python.  Compression is
cheap on sensor data, not free: ``selective`` keeps over half of
``off``'s throughput there (the pure-Python LZ4 it replaced kept 17 %),
and that shape is asserted, but the paper's "no evidence of any impact"
is not.  The *decision structure* reproduces and is asserted: forcing
compression on random data is significantly worse; the entropy gate
removes almost all of that penalty (selective ≈ off on random data,
relative to the forced penalty); and the sensor stream's wire bytes
collapse while the random stream's are untouched.
"""

import random
import statistics
import time

from scipy import stats

from repro.compression import CompressionPolicy
from repro.core.serde import PacketCodec
from repro.sim.experiments import format_rows
from repro.workloads.debs import MANUFACTURING_SCHEMA, ManufacturingStream

PACKETS_PER_BATCH = 400
N_BATCHES = 6
REPEATS = 8


def _make_batches(kind: str) -> list[bytes]:
    codec = PacketCodec(MANUFACTURING_SCHEMA)
    if kind == "sensor":
        stream = ManufacturingStream(seed=7)
        return [
            codec.encode_batch(list(stream.packets(PACKETS_PER_BATCH)))
            for _ in range(N_BATCHES)
        ]
    # Random: same record framing, incompressible aux payloads → the
    # serialized stream has near-maximal entropy.
    rng = random.Random(13)
    stream = ManufacturingStream(seed=7)
    batches = []
    for _ in range(N_BATCHES):
        pkts = list(stream.packets(PACKETS_PER_BATCH))
        for pkt in pkts:
            for j in range(59):
                pkt.set(f"aux_{j:02d}", rng.uniform(-1e4, 1e4))
            pkt.set("ts", rng.getrandbits(60))
        batches.append(codec.encode_batch(pkts))
    return batches


def _run_arm(batches: list[bytes], policy: CompressionPolicy | None) -> tuple[float, int]:
    """Round-trip + receiver decode; return (packets/s, wire bytes)."""
    codec = PacketCodec(MANUFACTURING_SCHEMA)
    t0 = time.perf_counter()
    wire = 0
    packets = 0
    for body in batches:
        encoded = (b"\x00" + body) if policy is None else policy.encode(body)
        wire += len(encoded)
        decoded = CompressionPolicy.decode(encoded)
        for _pkt in codec.iter_decode(decoded, count=PACKETS_PER_BATCH, reuse=True):
            packets += 1
    elapsed = time.perf_counter() - t0
    return packets / elapsed, wire


def _policy_for(mode: str) -> CompressionPolicy | None:
    if mode == "off":
        return None
    if mode == "selective":
        return CompressionPolicy(enabled=True, entropy_threshold=6.0)
    return CompressionPolicy(enabled=True, entropy_threshold=8.0, min_size=0)


def _measure_all(batches) -> dict:
    """Interleave repeats across modes so clock drift, cache state, and
    allocator warm-up are balanced between arms."""
    modes = ("off", "selective", "forced")
    samples = {m: [] for m in modes}
    wires = {}
    _run_arm(batches, None)  # warm-up pass
    for _ in range(REPEATS):
        for mode in modes:
            rate, wires[mode] = _run_arm(batches, _policy_for(mode))
            samples[mode].append(rate)
    return {m: (samples[m], wires[m]) for m in modes}


def test_compression_entropy_study(benchmark):
    def run():
        out = {}
        for kind in ("sensor", "random"):
            batches = _make_batches(kind)
            for mode, res in _measure_all(batches).items():
                out[(kind, mode)] = res
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for (kind, mode), (samples, wire) in results.items():
        rows.append(
            {
                "dataset": kind,
                "compression": mode,
                "throughput_pkt_s_mean": statistics.fmean(samples),
                "throughput_pkt_s_std": statistics.stdev(samples),
                "wire_bytes": wire,
            }
        )
    print()
    print(format_rows(rows, title="COMP: selective compression study"))

    # --- omnibus ANOVA, then Tukey HSD (the paper's validation) ---
    random_groups = [
        results[("random", mode)][0] for mode in ("off", "selective", "forced")
    ]
    omnibus = stats.f_oneway(*random_groups)
    print(f"\nrandom data omnibus ANOVA: F={omnibus.statistic:.1f}, "
          f"p={omnibus.pvalue:.2e}")
    assert omnibus.pvalue < 0.05  # the forced arm separates the groups
    # tukey_hsd(...).statistic[i, j] is mean(group i) - mean(group j).
    res_random = stats.tukey_hsd(*random_groups)
    p_forced = res_random.pvalue[0, 2]
    p_selective = res_random.pvalue[0, 1]
    print(f"\nrandom data: off vs forced    p = {p_forced:.2e}")
    print(f"random data: off vs selective p = {p_selective:.4f}")

    # Paper: forcing compression on random data is significantly worse.
    assert p_forced < 0.05 and res_random.statistic[0, 2] > 0
    # The entropy gate removes almost all of that penalty: whatever
    # throughput the probe costs is a small fraction of the forced loss.
    selective_penalty = res_random.statistic[0, 1]
    forced_penalty = res_random.statistic[0, 2]
    assert selective_penalty < 0.25 * forced_penalty

    sensor_groups = [results[("sensor", mode)][0] for mode in ("off", "selective")]
    res_sensor = stats.tukey_hsd(*sensor_groups)
    p_sensor = res_sensor.pvalue[0, 1]
    print(f"sensor data: off vs selective p = {p_sensor:.4f} "
          "(paper: >0.1561 with native-speed LZ4; see docstring)")
    # A native codec: compressing the sensor stream costs under half of
    # the uncompressed arm's throughput.
    sensor_off = statistics.fmean(sensor_groups[0])
    sensor_cost = res_sensor.statistic[0, 1] / sensor_off
    print(f"sensor data: selective costs {sensor_cost:.0%} of off's throughput")
    assert sensor_cost < 0.5

    # Wire bytes: selective compression slashes the sensor stream but
    # leaves the random stream untouched.
    wire_sensor_off = results[("sensor", "off")][1]
    wire_sensor_sel = results[("sensor", "selective")][1]
    wire_random_off = results[("random", "off")][1]
    wire_random_sel = results[("random", "selective")][1]
    print(f"sensor wire bytes: {wire_sensor_off} -> {wire_sensor_sel} (selective)")
    assert wire_sensor_sel < 0.4 * wire_sensor_off
    assert abs(wire_random_sel - wire_random_off) < 0.01 * wire_random_off
