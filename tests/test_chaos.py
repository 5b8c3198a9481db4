"""Chaos subsystem tests: deterministic fault plans, the injector's
wire mutations, simulator faults, and the seeded end-to-end scenarios
(same seed → byte-identical fault trace; faults → exactly-once
delivery after recovery)."""

import pytest

from repro.chaos import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRates,
    ScriptedFault,
    SimFault,
    schedule_sim_faults,
)
from repro.chaos.scenario import (
    run_pipeline_scenario,
    run_wire_scenario,
    wire_payload,
)
from repro.net.framing import HEADER_SIZE, FrameDecoder, FrameEncoder
from repro.chaos import plan as chaos_plan
from repro.net import protocol
from repro.net.protocol import DELIVER, DUPLICATE, GAP, Receiver, RetryPolicy
from repro.sim.engine import Interrupt, Simulator


# ---------------------------------------------------------------------------
# FaultPlan: seeded decisions
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_scripted_fault_fires_at_exact_index_only(self):
        plan = FaultPlan(seed=1).at("tcp.send", 5, FaultAction.KILL_CONNECTION)
        for i in range(10):
            d = plan.decide("tcp.send", i)
            if i == 5:
                assert d is not None and d.action == FaultAction.KILL_CONNECTION
            else:
                assert d is None

    def test_scripted_overrides_rates(self):
        plan = FaultPlan(seed=1).with_rates("s", FaultRates(drop=1.0))
        plan.at("s", 3, FaultAction.DUPLICATE)
        assert plan.decide("s", 3).action == FaultAction.DUPLICATE
        assert plan.decide("s", 4).action == FaultAction.DROP

    def test_rate_one_always_fires_rate_zero_never(self):
        always = FaultPlan(seed=9).with_rates("s", FaultRates(drop=1.0))
        never = FaultPlan(seed=9).with_rates("s", FaultRates())
        for i in range(50):
            assert always.decide("s", i).action == FaultAction.DROP
            assert never.decide("s", i) is None

    def test_same_seed_same_decisions(self):
        rates = FaultRates(drop=0.1, duplicate=0.1, bitflip=0.1)
        a = FaultPlan(seed=42).with_rates("s", rates)
        b = FaultPlan(seed=42).with_rates("s", rates)
        decisions_a = [a.decide("s", i) for i in range(200)]
        decisions_b = [b.decide("s", i) for i in range(200)]
        assert decisions_a == decisions_b
        assert any(d is not None for d in decisions_a)

    def test_different_seed_different_decisions(self):
        rates = FaultRates(drop=0.2)
        a = FaultPlan(seed=1).with_rates("s", rates)
        b = FaultPlan(seed=2).with_rates("s", rates)
        assert [a.decide("s", i) for i in range(200)] != [
            b.decide("s", i) for i in range(200)
        ]

    def test_sites_are_independent(self):
        plan = FaultPlan(seed=3).with_rates("a", FaultRates(drop=1.0))
        assert plan.decide("b", 0) is None

    def test_delay_param_bounded(self, monkeypatch):
        monkeypatch.setattr(chaos_plan, "DELAY_SECONDS", 0.01)
        plan = FaultPlan(seed=0).with_rates("s", FaultRates(delay=1.0))
        for i in range(100):
            d = plan.decide("s", i)
            assert d.action == FaultAction.DELAY
            assert 0.005 <= d.param <= 0.015

    def test_truncate_param_strictly_partial(self):
        plan = FaultPlan(seed=0).with_rates("s", FaultRates(truncate=1.0))
        for i in range(100):
            d = plan.decide("s", i)
            assert 0.1 <= d.param <= 0.9

    def test_rates_validation(self):
        with pytest.raises(ValueError):
            FaultRates(drop=1.5)

    def test_scripted_validation(self):
        with pytest.raises(ValueError):
            ScriptedFault("s", 0, "explode")
        with pytest.raises(ValueError):
            ScriptedFault("s", -1, FaultAction.DROP)

    def test_describe_mentions_seed_and_sites(self):
        plan = FaultPlan(seed=7).with_rates("tcp.send", FaultRates(drop=0.1))
        text = plan.describe()
        assert "seed=7" in text and "tcp.send" in text


# ---------------------------------------------------------------------------
# FaultInjector: interception counters, trace, wire mutations
# ---------------------------------------------------------------------------


def _scripted_injector(*faults, sleep=lambda s: None):
    plan = FaultPlan(seed=0)
    for site, index, action, *param in faults:
        plan.at(site, index, action, param[0] if param else 0.0)
    return FaultInjector(plan, sleep=sleep)


class TestFaultInjector:
    def test_per_site_counters_independent(self):
        inj = FaultInjector(FaultPlan(seed=0))
        for _ in range(3):
            inj.intercept("a")
        inj.intercept("b")
        assert inj.interceptions("a") == 3
        assert inj.interceptions("b") == 1

    def test_trace_records_only_fired_faults(self):
        inj = _scripted_injector(("s", 1, FaultAction.DROP))
        for _ in range(4):
            inj.intercept("s")
        assert len(inj.trace) == 1
        rec = inj.trace.records[0]
        assert (rec.site, rec.index, rec.action) == ("s", 1, FaultAction.DROP)

    def test_trace_digest_stable(self):
        a = _scripted_injector(("s", 0, FaultAction.DROP))
        b = _scripted_injector(("s", 0, FaultAction.DROP))
        a.intercept("s")
        b.intercept("s")
        assert a.trace.to_bytes() == b.trace.to_bytes()
        assert a.trace.digest() == b.trace.digest()

    def test_apply_to_wire_drop(self):
        inj = _scripted_injector(("s", 0, FaultAction.DROP))
        chunks, kill, decision = inj.apply_to_wire("s", b"payload")
        assert chunks == [] and not kill and decision.action == FaultAction.DROP

    def test_apply_to_wire_duplicate(self):
        inj = _scripted_injector(("s", 0, FaultAction.DUPLICATE))
        chunks, kill, _ = inj.apply_to_wire("s", b"payload")
        assert chunks == [b"payload", b"payload"] and not kill

    def test_apply_to_wire_truncate_kills(self):
        inj = _scripted_injector(("s", 0, FaultAction.TRUNCATE, 0.5))
        chunks, kill, _ = inj.apply_to_wire("s", b"0123456789")
        assert kill
        assert len(chunks) == 1 and 1 <= len(chunks[0]) < 10
        assert b"0123456789".startswith(chunks[0])

    def test_apply_to_wire_bitflip_flips_exactly_one_bit(self):
        inj = _scripted_injector(("s", 0, FaultAction.BITFLIP, 0.37))
        wire = bytes(range(32))
        chunks, kill, _ = inj.apply_to_wire("s", wire)
        assert not kill and len(chunks) == 1 and len(chunks[0]) == len(wire)
        diff = [a ^ b for a, b in zip(wire, chunks[0])]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_apply_to_wire_kill_connection_sends_then_kills(self):
        inj = _scripted_injector(("s", 0, FaultAction.KILL_CONNECTION))
        chunks, kill, _ = inj.apply_to_wire("s", b"payload")
        assert chunks == [b"payload"] and kill

    def test_apply_to_wire_clean_passthrough(self):
        inj = FaultInjector(FaultPlan(seed=0))
        chunks, kill, decision = inj.apply_to_wire("s", b"payload")
        assert chunks == [b"payload"] and not kill and decision is None

    def test_maybe_delay_sleeps_with_param(self):
        slept = []
        inj = _scripted_injector(
            ("ch", 0, FaultAction.DELAY, 0.123), sleep=slept.append
        )
        inj.maybe_delay("ch")
        assert slept == [0.123]

    def test_should_kill_connection(self):
        inj = _scripted_injector(("r", 1, FaultAction.KILL_CONNECTION))
        assert not inj.should_kill_connection("r")
        assert inj.should_kill_connection("r")

    def test_should_kill_node(self):
        inj = _scripted_injector(("n", 0, FaultAction.KILL_NODE))
        assert inj.should_kill_node("n")
        assert not inj.should_kill_node("n")


# ---------------------------------------------------------------------------
# Sequence tracking: the protocol Receiver's cross-connection verdicts
# ---------------------------------------------------------------------------


def _frame(link_id, seq):
    encoder = FrameEncoder()
    for _ in range(seq):
        encoder.encode(link_id, b"", 0)
    return FrameDecoder().feed(encoder.encode(link_id, b"x", 1))[0]


def _check(receiver, link_id, seq):
    return receiver.receive(_frame(link_id, seq), lambda frame: None)[0]


class TestSequenceTracker:
    def test_in_order_delivery(self):
        t = Receiver()
        assert [_check(t, 1, s) for s in range(3)] == [DELIVER] * 3
        assert t.delivered == 3 and t.expected(1) == 3

    def test_replay_is_duplicate(self):
        t = Receiver()
        _check(t, 1, 0)
        assert _check(t, 1, 0) == DUPLICATE
        assert t.duplicates == 1
        assert t.expected(1) == 1  # expectation did not advance

    def test_skip_is_gap(self):
        t = Receiver()
        assert _check(t, 1, 2) == GAP
        assert t.gaps == 1 and t.expected(1) == 0

    def test_links_tracked_independently(self):
        t = Receiver()
        _check(t, 1, 0)
        assert _check(t, 2, 0) == DELIVER


# ---------------------------------------------------------------------------
# RetryPolicy: backoff shape
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_exponential_and_capped(self, monkeypatch):
        import random

        monkeypatch.setattr(protocol, "BACKOFF_JITTER", 0.0)
        p = RetryPolicy(backoff_base=0.1, backoff_max=0.5)
        rng = random.Random(0)
        delays = [p.backoff(n, rng) for n in range(6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_jitter_bounds_and_determinism(self):
        import random

        p = RetryPolicy(backoff_base=0.1, backoff_max=10.0)
        a = [p.backoff(n, random.Random(7)) for n in range(8)]
        b = [p.backoff(n, random.Random(7)) for n in range(8)]
        assert a == b  # same seed, same jitter sequence
        for n, d in enumerate(a):
            raw = min(10.0, 0.1 * 2**n)
            assert raw * 0.75 <= d <= raw * 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=1.0, backoff_max=0.5)


# ---------------------------------------------------------------------------
# Simulator faults: node kill + link partition on the virtual clock
# ---------------------------------------------------------------------------


class TestSimFaults:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimFault(1.0, FaultAction.DROP, "n")  # not a simulator action
        with pytest.raises(ValueError):
            SimFault(-1.0, FaultAction.KILL_NODE, "n")

    def test_kill_node_interrupts_at_virtual_time(self):
        sim = Simulator()
        log = []

        def worker():
            try:
                while True:
                    yield sim.timeout(1.0)
                    log.append(("tick", sim.now))
            except Interrupt as exc:
                log.append(("killed", sim.now, exc.cause))

        proc = sim.process(worker(), name="node-a")
        schedule_sim_faults(
            sim,
            [SimFault(2.5, FaultAction.KILL_NODE, "node-a")],
            processes={"node-a": proc},
        )
        sim.run(until=10.0)
        assert ("tick", 1.0) in log and ("tick", 2.0) in log
        assert log[-1] == ("killed", 2.5, "chaos:kill")
        assert not any(t == "tick" and at > 2.5 for t, at, *_ in log)

    def test_partition_and_heal_toggle_link(self):
        sim = Simulator()
        states = []
        schedule_sim_faults(
            sim,
            [
                SimFault(1.0, FaultAction.PARTITION, "uplink"),
                SimFault(3.0, FaultAction.HEAL, "uplink"),
            ],
            links={"uplink": lambda up: states.append((sim.now, up))},
        )
        sim.run(until=5.0)
        assert states == [(1.0, True), (3.0, False)]

    def test_missing_target_raises_immediately(self):
        sim = Simulator()
        with pytest.raises(KeyError):
            schedule_sim_faults(
                sim, [SimFault(1.0, FaultAction.KILL_NODE, "ghost")]
            )

    def test_faults_recorded_in_trace(self):
        sim = Simulator()
        inj = FaultInjector(FaultPlan(seed=0))
        schedule_sim_faults(
            sim,
            [SimFault(1.0, FaultAction.PARTITION, "l")],
            links={"l": lambda up: None},
            injector=inj,
        )
        assert [r.site for r in inj.trace.records] == ["sim.link"]


# ---------------------------------------------------------------------------
# End-to-end scenarios: determinism regression + exactly-once recovery
# ---------------------------------------------------------------------------


class TestWirePayload:
    def test_content_checkable_and_distinct(self):
        a = wire_payload(1, 0, 64)
        assert a == wire_payload(1, 0, 64)  # deterministic
        assert len(a) == 64
        assert a != wire_payload(1, 1, 64)
        assert a != wire_payload(2, 0, 64)


@pytest.mark.chaos
class TestWireScenario:
    def test_faulty_wire_recovers_exactly_once(self):
        result = run_wire_scenario(seed=7, frames=60)
        assert result.exactly_once, result.summary()
        assert result.delivered == result.frames_sent == 60
        assert result.reconnects > 0  # the scenario actually hurt
        assert result.trace_lines  # and the faults were traced

    # Bit offsets within the wire frame: seq's low byte is byte 7,
    # count's is byte 15.
    @pytest.mark.parametrize(
        "bit", [7 * 8 + 1, 15 * 8], ids=["seq-3-to-1", "count-1-to-0"]
    )
    def test_header_bitflip_heals_by_reset_and_replay(self, bit):
        """A flipped bit in a frame's header is corruption like any
        other: refused by the checksum, healed by reset + replay —
        never classified by the corrupted ``seq`` (lowered: acked as a
        duplicate) nor delivered with the corrupted ``count``."""
        payload_size = 256
        bits = (HEADER_SIZE + payload_size) * 8
        # The injector maps param -> bit int(param * bits).
        plan = FaultPlan(seed=0).at(
            "tcp.send", 3, FaultAction.BITFLIP, (bit + 0.5) / bits
        )
        result = run_wire_scenario(
            seed=0, frames=12, payload_size=payload_size, links=1, plan=plan
        )
        assert result.exactly_once, result.summary()
        assert result.corruption_resets == 1, result.summary()
        assert result.duplicates_suppressed == 0, result.summary()
        assert len(result.trace_lines) == 1

    def test_same_seed_byte_identical_trace(self):
        """The determinism regression: two runs with the same seed must
        produce byte-identical fault traces and the same delivery audit,
        despite real sockets, real threads, and real reconnect timing."""
        a = run_wire_scenario(seed=11, frames=50)
        b = run_wire_scenario(seed=11, frames=50)
        assert a.trace_lines == b.trace_lines
        assert a.trace_digest == b.trace_digest
        assert a.exactly_once and b.exactly_once
        assert (a.delivered, a.duplicated, a.lost) == (
            b.delivered,
            b.duplicated,
            b.lost,
        )

    def test_different_seed_different_trace(self):
        a = run_wire_scenario(seed=1, frames=50)
        b = run_wire_scenario(seed=2, frames=50)
        assert a.trace_lines != b.trace_lines
        assert a.exactly_once and b.exactly_once  # recovery is seed-proof


@pytest.mark.chaos
class TestPipelineScenario:
    def test_mid_stream_socket_kill_recovers_exactly_once(self):
        """E2E acceptance: kill the inter-worker sockets mid-stream on a
        two-resource pipeline; the job must still deliver every packet
        exactly once and in order."""
        result = run_pipeline_scenario(seed=3, total=800, kill_frames=(3, 9))
        assert result.exactly_once, result.summary()
        assert result.reconnects > 0
        assert result.drained and not result.failures

    def test_scripted_kills_trace_deterministically(self):
        a = run_pipeline_scenario(seed=5, total=400, kill_frames=(2, 6))
        b = run_pipeline_scenario(seed=5, total=400, kill_frames=(2, 6))
        assert a.exactly_once and b.exactly_once
        assert a.trace_lines == b.trace_lines
        assert a.trace_digest == b.trace_digest


# ---------------------------------------------------------------------------
# S3: injected faults are observable on the event timeline
# ---------------------------------------------------------------------------


class TestChaosTimeline:
    def test_node_kill_event_in_exported_timeline(self):
        from repro.observe import RuntimeObserver
        from repro.observe.export import snapshot

        obs = RuntimeObserver()
        plan = FaultPlan(seed=0).at("node.relay", 0, FaultAction.KILL_NODE)
        injector = FaultInjector(plan, observer=obs)
        assert injector.should_kill_node("node.relay")

        events = snapshot(obs)["events"]
        kills = [
            e for e in events
            if e["category"] == "chaos" and e["name"] == "node_killed"
        ]
        assert kills and kills[0]["attrs"]["site"] == "node.relay"
        # The plan decision itself is also on the timeline.
        assert any(
            e["category"] == "chaos" and e["name"] == "fault_injected"
            for e in events
        )

    def test_sim_node_kill_recorded_at_fire_time(self):
        from repro.observe import RuntimeObserver

        obs = RuntimeObserver()
        sim = Simulator()

        def worker():
            try:
                while True:
                    yield sim.timeout(1.0)
            except Interrupt:
                pass

        proc = sim.process(worker(), name="node-a")
        schedule_sim_faults(
            sim,
            [
                SimFault(2.5, FaultAction.KILL_NODE, "node-a"),
                SimFault(4.0, FaultAction.PARTITION, "uplink"),
                SimFault(6.0, FaultAction.HEAL, "uplink"),
            ],
            processes={"node-a": proc},
            links={"uplink": lambda up: None},
            observer=obs,
        )
        # Nothing is on the timeline until the virtual clock reaches
        # the fault: events record at fire time, not schedule time.
        assert obs.timeline.counts() == {}
        sim.run(until=10.0)
        counts = obs.timeline.counts()
        assert counts["chaos.node_killed"] == 1
        assert counts["chaos.link_partitioned"] == 1
        assert counts["chaos.link_healed"] == 1
        killed = obs.timeline.snapshot(category="chaos", name="node_killed")
        assert killed[0].attrs == {"target": "node-a", "sim_time": 2.5}

    def test_wire_scenario_faults_on_timeline(self):
        from repro.observe import RuntimeObserver

        obs = RuntimeObserver()
        result = run_wire_scenario(seed=0, frames=40, observer=obs)
        assert result.exactly_once, result.summary()
        fired = obs.timeline.counts().get("chaos.fault_injected", 0)
        assert fired == len(result.trace_lines)
