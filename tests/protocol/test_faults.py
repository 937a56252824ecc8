"""Unit tests for the fault-injection channel wrapper."""

import random

import pytest

from repro.errors import FaultInjected, ParameterError
from repro.protocol.faults import (
    DECRYPT_BOUNDARIES,
    DELAY,
    DROP,
    PERIOD_BOUNDARIES,
    REFRESH_BOUNDARIES,
    TRUNCATE,
    FaultRule,
    FaultyTransport,
)
from repro.protocol.transport import InMemoryTransport
from repro.utils.bits import BitString


class TestFaultRule:
    def test_defaults(self):
        rule = FaultRule()
        assert rule.mode == DROP
        assert rule.label is None
        assert rule.occurrence == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            FaultRule(mode="explode")

    def test_zero_occurrence_rejected(self):
        with pytest.raises(ParameterError):
            FaultRule(occurrence=0)

    def test_negative_keep_bits_rejected(self):
        with pytest.raises(ParameterError):
            FaultRule(mode=TRUNCATE, keep_bits=-1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ParameterError):
            FaultRule(mode=DELAY, delay_ticks=-1)


class TestBoundaryConstants:
    def test_refresh_boundaries_include_commit(self):
        assert "ref.commit" in REFRESH_BOUNDARIES

    def test_period_boundaries_superset(self):
        assert set(DECRYPT_BOUNDARIES) <= set(PERIOD_BOUNDARIES)
        assert set(REFRESH_BOUNDARIES) <= set(PERIOD_BOUNDARIES)


class TestDrop:
    def test_matching_label_raises_and_nothing_on_wire(self):
        channel = FaultyTransport.dropping("b")
        channel.send("P1", "P2", "a", BitString(1, 1))
        with pytest.raises(FaultInjected) as info:
            channel.send("P1", "P2", "b", BitString(1, 1))
        assert info.value.label == "b"
        assert info.value.mode == DROP
        assert [m.label for m in channel.transcript()] == ["a"]

    def test_occurrence_counts_matching_sends(self):
        channel = FaultyTransport.dropping("x", occurrence=3)
        channel.send("P1", "P2", "x", BitString(1, 1))
        channel.send("P1", "P2", "y", BitString(1, 1))  # non-matching
        channel.send("P1", "P2", "x", BitString(1, 1))
        with pytest.raises(FaultInjected):
            channel.send("P1", "P2", "x", BitString(1, 1))

    def test_rules_are_one_shot(self):
        channel = FaultyTransport.dropping("x")
        with pytest.raises(FaultInjected):
            channel.send("P1", "P2", "x", BitString(1, 1))
        # Spent: the same label now goes through.
        channel.send("P1", "P2", "x", BitString(1, 1))
        assert len(channel.transcript()) == 1

    def test_period_restriction(self):
        channel = FaultyTransport()
        channel.add_rule(FaultRule(mode=DROP, label="x", period=1))
        channel.send("P1", "P2", "x", BitString(1, 1))  # period 0: safe
        channel.advance_period()
        with pytest.raises(FaultInjected):
            channel.send("P1", "P2", "x", BitString(1, 1))

    def test_wildcard_label_matches_anything(self):
        channel = FaultyTransport(rules=[FaultRule(mode=DROP)])
        with pytest.raises(FaultInjected):
            channel.send("P1", "P2", "whatever", BitString(1, 1))


class TestTruncate:
    def test_partial_frame_reaches_transcript(self):
        channel = FaultyTransport()
        channel.add_rule(FaultRule(mode=TRUNCATE, label="x", keep_bits=3))
        with pytest.raises(FaultInjected) as info:
            channel.send("P1", "P2", "x", BitString(0b10110, 5))
        assert info.value.mode == TRUNCATE
        (partial,) = channel.transcript()
        assert partial.label == "x.truncated"
        assert partial.payload == BitString(0b101, 3)

    def test_keep_bits_clamped_to_payload(self):
        channel = FaultyTransport()
        channel.add_rule(FaultRule(mode=TRUNCATE, label="x", keep_bits=999))
        with pytest.raises(FaultInjected):
            channel.send("P1", "P2", "x", BitString(0b11, 2))
        (partial,) = channel.transcript()
        assert partial.payload == BitString(0b11, 2)


class TestDelay:
    def test_message_still_delivered(self):
        channel = FaultyTransport()
        channel.add_rule(FaultRule(mode=DELAY, label="x", delay_ticks=5))
        payload = BitString(1, 1)
        assert channel.send("P1", "P2", "x", payload) == payload
        assert channel.delay_ticks == 5
        assert [m.label for m in channel.transcript()] == ["x"]


class TestRepeat:
    def test_repeat_fires_bounded_number_of_times(self):
        channel = FaultyTransport()
        channel.add_rule(FaultRule(mode=DROP, label="x", repeat=3))
        for _ in range(3):
            with pytest.raises(FaultInjected):
                channel.send("P1", "P2", "x", BitString(1, 1))
        # Spent after the third firing.
        channel.send("P1", "P2", "x", BitString(1, 1))
        assert len(channel.transcript()) == 1
        assert len(channel.injected) == 3

    def test_repeat_none_is_unlimited(self):
        channel = FaultyTransport()
        channel.add_rule(FaultRule(mode=DROP, label="x", repeat=None))
        for _ in range(10):
            with pytest.raises(FaultInjected):
                channel.send("P1", "P2", "x", BitString(1, 1))

    def test_repeat_respects_occurrence_warmup(self):
        """The occurrence countdown still decides *when* the rule gets
        ripe; repeat only decides how many firings follow."""
        channel = FaultyTransport()
        channel.add_rule(FaultRule(mode=DROP, label="x", occurrence=2, repeat=2))
        channel.send("P1", "P2", "x", BitString(1, 1))  # occurrence 1: safe
        with pytest.raises(FaultInjected):
            channel.send("P1", "P2", "x", BitString(1, 1))
        with pytest.raises(FaultInjected):
            channel.send("P1", "P2", "x", BitString(1, 1))
        channel.send("P1", "P2", "x", BitString(1, 1))  # spent
        assert len(channel.injected) == 2

    def test_invalid_repeat_rejected(self):
        with pytest.raises(ParameterError):
            FaultRule(repeat=0)


class TestProbability:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ParameterError):
            FaultRule(probability=0.0)
        with pytest.raises(ParameterError):
            FaultRule(probability=1.5)

    def test_seeded_coin_flips_replay_exactly(self):
        """Two transports with the same seed make identical fire/pass
        decisions -- the property every chaos soak leans on."""

        def firing_pattern(seed):
            channel = FaultyTransport(seed=seed)
            channel.add_rule(
                FaultRule(mode=DROP, label="x", probability=0.5, repeat=None)
            )
            pattern = []
            for _ in range(40):
                try:
                    channel.send("P1", "P2", "x", BitString(1, 1))
                    pattern.append(False)
                except FaultInjected:
                    pattern.append(True)
            return pattern

        first = firing_pattern(1234)
        assert first == firing_pattern(1234)
        assert any(first) and not all(first)  # p=0.5 over 40 flips
        assert first != firing_pattern(999)

    def test_coin_matches_reference_rng(self):
        """The gate is exactly ``rng.random() < p`` on the transport's
        own seeded generator -- one draw per ripe offer, none during the
        occurrence warm-up."""
        seed, p = 77, 0.3
        channel = FaultyTransport(seed=seed)
        channel.add_rule(
            FaultRule(mode=DROP, label="x", occurrence=2, probability=p, repeat=None)
        )
        reference = random.Random(seed)
        channel.send("P1", "P2", "x", BitString(1, 1))  # warm-up: no draw
        for _ in range(20):
            expected_fire = reference.random() < p
            if expected_fire:
                with pytest.raises(FaultInjected):
                    channel.send("P1", "P2", "x", BitString(1, 1))
            else:
                channel.send("P1", "P2", "x", BitString(1, 1))

    def test_tails_leaves_rule_ripe(self):
        """A probability miss must not consume the rule: it keeps
        offering on later sends until repeat runs out."""
        channel = FaultyTransport(seed=5)
        channel.add_rule(FaultRule(mode=DROP, label="x", probability=0.2, repeat=1))
        fired = 0
        for _ in range(200):
            try:
                channel.send("P1", "P2", "x", BitString(1, 1))
            except FaultInjected:
                fired += 1
        assert fired == 1  # eventually fired exactly once, then spent


class TestDelaySeconds:
    def test_negative_delay_seconds_rejected(self):
        with pytest.raises(ParameterError):
            FaultRule(mode=DELAY, delay_seconds=-0.1)

    def test_delay_seconds_stalls_then_delivers(self):
        import time

        channel = FaultyTransport()
        channel.add_rule(FaultRule(mode=DELAY, label="x", delay_seconds=0.05))
        start = time.monotonic()
        payload = BitString(1, 1)
        assert channel.send("P1", "P2", "x", payload) == payload
        assert time.monotonic() - start >= 0.05
        assert [m.label for m in channel.transcript()] == ["x"]


class TestChannelDelegation:
    def test_is_drop_in_for_channel(self):
        inner = InMemoryTransport()
        channel = FaultyTransport(inner=inner)
        channel.send("P1", "P2", "a", BitString(0b10, 2))
        channel.advance_period()
        channel.send("P2", "P1", "b", BitString(1, 1))
        assert channel.current_period == inner.current_period == 1
        assert channel.bits_on_wire() == 3
        assert channel.bits_by_label(0) == {"a": 2}
        assert channel.transcript_bits(1) == BitString(1, 1)
        assert channel.messages is inner.messages

    def test_prune_drops_old_periods_of_the_inner_transcript(self):
        inner = InMemoryTransport()
        channel = FaultyTransport(inner=inner)
        channel.send("P1", "P2", "a", BitString(0b10, 2))
        channel.advance_period()
        channel.send("P2", "P1", "b", BitString(1, 1))
        assert channel.prune(1) == 1
        assert [m.label for m in inner.messages] == ["b"]

    def test_step_hook_runs_before_each_recorded_send(self):
        inner = InMemoryTransport()
        channel = FaultyTransport(inner=inner)
        seen = []
        channel.step_hook = seen.append
        channel.send("P1", "P2", "a", BitString(0b10, 2))
        assert seen == ["a"]
        assert inner.step_hook is channel.step_hook
        channel.step_hook = None
        channel.send("P1", "P2", "b", BitString(1, 1))
        assert seen == ["a"] and inner.step_hook is None

    def test_clear_rules_disarms(self):
        channel = FaultyTransport.dropping("x")
        channel.clear_rules()
        channel.send("P1", "P2", "x", BitString(1, 1))
        assert len(channel.transcript()) == 1

    def test_injected_log_records_fired_rules(self):
        channel = FaultyTransport.dropping("x")
        with pytest.raises(FaultInjected):
            channel.send("P1", "P2", "x", BitString(1, 1))
        assert len(channel.injected) == 1
        rule, label = channel.injected[0]
        assert label == "x"
        assert rule.mode == DROP
