"""Tests for multiple decryptions per time period (section 3.3 extension)."""

import random

import pytest

from repro.core.dlr import DLR
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport


@pytest.fixture()
def scheme(small_params):
    return DLR(small_params)


@pytest.fixture()
def setting(scheme):
    rng = random.Random(1)
    generation = scheme.generate(rng)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    return generation, p1, p2, InMemoryTransport(), rng


class TestMultiDecryption:
    def test_all_plaintexts_correct(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        messages = [scheme.group.random_gt(rng) for _ in range(4)]
        ciphertexts = [scheme.encrypt(generation.public_key, m, rng) for m in messages]
        record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert record.plaintexts == messages

    def test_zero_decryptions_is_a_pure_refresh(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        old_share2 = scheme.share2_of(p2)
        record = scheme.run_period_multi(p1, p2, channel, [])
        assert record.plaintexts == []
        assert scheme.share2_of(p2) != old_share2
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)
        assert scheme.decrypt_protocol(p1, p2, channel, ciphertext) == message

    def test_single_matches_run_period(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)
        record = scheme.run_period_multi(p1, p2, channel, [ciphertext])
        assert record.plaintexts == [message]

    def test_snapshot_shape_unchanged(self, scheme, setting):
        """More decryptions per period do NOT grow the leakage input:
        the only secrets are the share and one sk_comm, regardless of
        how many ciphertexts were served."""
        generation, p1, p2, channel, rng = setting
        few = scheme.run_period_multi(
            p1, p2, channel,
            [scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)],
        )
        many = scheme.run_period_multi(
            p1, p2, channel,
            [scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
             for _ in range(4)],
        )
        for key in few.snapshots:
            assert few.snapshots[key].size_bits() == many.snapshots[key].size_bits()

    def test_refresh_still_happens(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        before1 = scheme.share1_of(p1)
        ciphertexts = [
            scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
            for _ in range(2)
        ]
        scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert scheme.share1_of(p1) != before1
        assert channel.current_period == 1

    def test_consecutive_multi_periods(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        for t in range(2):
            messages = [scheme.group.random_gt(rng) for _ in range(2)]
            ciphertexts = [scheme.encrypt(generation.public_key, m, rng) for m in messages]
            record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
            assert record.plaintexts == messages
            assert record.period == t
