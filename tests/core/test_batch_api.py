"""Scheme-level batch API tests: ``encrypt_batch`` / ``run_period_multi``.

The batch entry points are amortisation, not new cryptography: one
shared window decision and one fixed-``A`` pairing schedule per vector,
but every output must match what the corresponding singleton calls
produce, and the share rotation at the end of a batch period must leave
the devices as healthy as a normal period does.
"""

import random

import pytest

from repro.core.dlr import DLR, MultiPeriodRecord
from repro.core.optimal import OptimalDLR
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

SCHEMES = [DLR, OptimalDLR]


def _p1_share(scheme, device):
    """Device-1 share state, across both layouts (OptimalDLR keeps P1's
    share HPSKE-encrypted rather than as a plain ``Share1``)."""
    if isinstance(scheme, OptimalDLR):
        return scheme.encrypted_share_of(device)
    return scheme.share1_of(device)


def _installed(small_params, scheme_cls, seed=11):
    scheme = scheme_cls(small_params)
    rng = random.Random(seed)
    generation = scheme.generate(rng)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    return scheme, generation, p1, p2, InMemoryTransport(), rng


class TestEncryptBatch:
    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_round_trip(self, small_params, scheme_cls, rng):
        scheme, generation, p1, p2, channel, _ = _installed(
            small_params, scheme_cls
        )
        messages = [scheme.group.random_gt(rng) for _ in range(5)]
        ciphertexts = scheme.encrypt_batch(generation.public_key, messages, rng)
        assert len(ciphertexts) == len(messages)
        record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert list(record.plaintexts) == messages

    def test_empty_batch_encrypt(self, small_params, rng):
        scheme, generation, *_ = _installed(small_params, DLR)
        assert scheme.encrypt_batch(generation.public_key, [], rng) == []

    def test_each_ciphertext_decrypts_standalone(self, small_params, rng):
        """Batch-encrypted ciphertexts are ordinary ciphertexts: any one
        of them decrypts through the singleton protocol."""
        scheme, generation, p1, p2, channel, _ = _installed(small_params, DLR)
        messages = [scheme.group.random_gt(rng) for _ in range(3)]
        ciphertexts = scheme.encrypt_batch(generation.public_key, messages, rng)
        assert (
            scheme.decrypt_protocol(p1, p2, channel, ciphertexts[1]) == messages[1]
        )


class TestDecryptBatch:
    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_is_one_period_and_rotates_shares(self, small_params, scheme_cls, rng):
        scheme, generation, p1, p2, channel, _ = _installed(
            small_params, scheme_cls
        )
        before1 = _p1_share(scheme, p1)
        messages = [scheme.group.random_gt(rng) for _ in range(4)]
        ciphertexts = scheme.encrypt_batch(generation.public_key, messages, rng)
        record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert isinstance(record, MultiPeriodRecord)
        assert record.period == 0
        assert channel.current_period == 1
        # The whole batch cost exactly one share rotation.
        assert _p1_share(scheme, p1) != before1

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    def test_shares_stay_healthy_across_batch_periods(
        self, small_params, scheme_cls, rng
    ):
        scheme, generation, p1, p2, channel, _ = _installed(
            small_params, scheme_cls
        )
        for period in range(3):
            messages = [scheme.group.random_gt(rng) for _ in range(2 + period)]
            ciphertexts = scheme.encrypt_batch(
                generation.public_key, messages, rng
            )
            record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
            assert list(record.plaintexts) == messages
            assert record.period == period

    def test_batch_of_one_matches_run_period(self, small_params, rng):
        scheme, generation, p1, p2, channel, _ = _installed(small_params, DLR)
        message = scheme.group.random_gt(rng)
        [ciphertext] = scheme.encrypt_batch(generation.public_key, [message], rng)
        record = scheme.run_period_multi(p1, p2, channel, [ciphertext])
        assert record.plaintexts == [message]

    def test_reference_decrypt_agrees_after_batch(self, small_params, rng):
        """The rotated shares reconstruct the same secret key: reference
        decryption still works after a batch period."""
        scheme, generation, p1, p2, channel, _ = _installed(small_params, DLR)
        messages = [scheme.group.random_gt(rng) for _ in range(3)]
        ciphertexts = scheme.encrypt_batch(generation.public_key, messages, rng)
        scheme.run_period_multi(p1, p2, channel, ciphertexts)
        probe = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generation.public_key, probe, rng)
        assert (
            scheme.reference_decrypt(
                scheme.share1_of(p1), scheme.share2_of(p2), ct
            )
            == probe
        )
