"""Unit tests for the public channel."""

from repro.protocol.transport import InMemoryTransport
from repro.utils.bits import BitString


class TestChannel:
    def test_send_returns_decoded_copy(self):
        """The receiver gets an equal payload, but never the sender's
        object -- everything crosses the channel as wire bytes."""
        channel = InMemoryTransport()
        payload = BitString(0b1, 1)
        delivered = channel.send("P1", "P2", "msg", payload)
        assert delivered == payload
        assert delivered is not payload

    def test_transcript_records_everything(self):
        channel = InMemoryTransport()
        channel.send("P1", "P2", "a", BitString(1, 1))
        channel.send("P2", "P1", "b", BitString(0, 1))
        transcript = channel.transcript()
        assert [m.label for m in transcript] == ["a", "b"]
        assert transcript[0].sender == "P1"
        assert transcript[1].recipient == "P1"

    def test_period_tagging(self):
        channel = InMemoryTransport()
        channel.send("P1", "P2", "first", BitString(1, 1))
        channel.advance_period()
        channel.send("P1", "P2", "second", BitString(1, 1))
        assert [m.label for m in channel.transcript(0)] == ["first"]
        assert [m.label for m in channel.transcript(1)] == ["second"]

    def test_transcript_bits_concatenation(self):
        channel = InMemoryTransport()
        channel.send("P1", "P2", "a", BitString(0b10, 2))
        channel.send("P2", "P1", "b", BitString(0b1, 1))
        assert channel.transcript_bits() == BitString(0b101, 3)

    def test_bits_on_wire(self):
        channel = InMemoryTransport()
        channel.send("P1", "P2", "a", BitString(0, 8))
        assert channel.bits_on_wire() == 8

    def test_prune_drops_committed_periods(self):
        channel = InMemoryTransport()
        channel.send("P1", "P2", "first", BitString(1, 1))
        channel.advance_period()
        channel.send("P1", "P2", "second", BitString(1, 1))
        assert channel.prune(before_period=1) == 1
        assert channel.transcript(0) == []
        assert [m.label for m in channel.transcript()] == ["second"]
        assert channel.bits_on_wire() == 1

    def test_structured_payloads_encodable(self, small_group, rng):
        channel = InMemoryTransport()
        element = small_group.random_g(rng)
        channel.send("P1", "P2", "g", (element, element))
        assert channel.bits_on_wire() == 2 * small_group.g_element_bits()


class TestBitsByLabel:
    def test_breakdown_sums_to_total(self):
        channel = InMemoryTransport()
        channel.send("P1", "P2", "a", BitString(0b10, 2))
        channel.send("P2", "P1", "b", BitString(0b1, 1))
        channel.send("P1", "P2", "a", BitString(0b111, 3))
        breakdown = channel.bits_by_label()
        assert breakdown == {"a": 5, "b": 1}
        assert sum(breakdown.values()) == channel.bits_on_wire()

    def test_per_period_breakdown(self):
        channel = InMemoryTransport()
        channel.send("P1", "P2", "x", BitString(1, 1))
        channel.advance_period()
        channel.send("P1", "P2", "x", BitString(0b11, 2))
        assert channel.bits_by_label(0) == {"x": 1}
        assert channel.bits_by_label(1) == {"x": 2}

    def test_protocol_breakdown_shape(self, small_group, rng):
        """One DLR period: the dec.d message dominates (it carries
        (ell+2) HPSKE ciphertexts of (kappa+1) GT elements each)."""
        import random as _random

        from repro.core.dlr import DLR
        from repro.core.params import DLRParams
        from repro.protocol.device import Device

        params = DLRParams(group=small_group, lam=32)
        scheme = DLR(params)
        generation = scheme.generate(_random.Random(1))
        p1 = Device("P1", small_group, _random.Random(2))
        p2 = Device("P2", small_group, _random.Random(2))
        scheme.install(p1, p2, generation.share1, generation.share2)
        channel = InMemoryTransport()
        ciphertext = scheme.encrypt(generation.public_key, small_group.random_gt(rng), rng)
        scheme.run_period(p1, p2, channel, ciphertext)
        breakdown = channel.bits_by_label(0)
        assert breakdown["dec.d"] > breakdown["dec.c_prime"]
        assert breakdown["ref.f"] > breakdown["ref.f_combined"]
