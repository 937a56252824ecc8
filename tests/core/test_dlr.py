"""Unit and protocol tests for DLR (Construction 5.3)."""

import random

import pytest

from repro.core.dlr import DLR, SK1_SLOT, SK2_SLOT
from repro.core.keys import Ciphertext, Share1, Share2
from repro.errors import ProtocolError
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport


@pytest.fixture()
def scheme(small_params):
    return DLR(small_params)


@pytest.fixture()
def generated(scheme):
    return scheme.generate(random.Random(1))


def fresh_devices(scheme, generated, seed=2):
    rng = random.Random(seed)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generated.share1, generated.share2)
    return p1, p2, InMemoryTransport()


class TestGen:
    def test_share_shapes(self, scheme, generated):
        assert len(generated.share1.a) == scheme.params.ell
        assert len(generated.share2.s) == scheme.params.ell

    def test_public_key_consistency(self, scheme, generated):
        """pk carries z = e(g1, g2) = e(g, msk); the Pi_ss sharing hides
        exactly that msk = g2^alpha."""
        group = scheme.group
        msk = generated.share1.phi
        for a_i, s_i in zip(generated.share1.a, generated.share2.s):
            msk = msk / (a_i ** s_i)
        assert group.pair(group.g, msk) == generated.public_key.z

    def test_generation_randomness_recorded(self, generated):
        names = set(generated.randomness.names())
        assert {"alpha", "g2", "s", "a"} <= names

    def test_distinct_generations_distinct_keys(self, scheme):
        a = scheme.generate(random.Random(1))
        b = scheme.generate(random.Random(2))
        assert a.public_key.z != b.public_key.z


class TestEncDec:
    def test_ciphertext_is_two_group_elements(self, scheme, generated, rng):
        message = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generated.public_key, message, rng)
        assert ct.size_group_elements() == 2

    def test_reference_roundtrip(self, scheme, generated, rng):
        message = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generated.public_key, message, rng)
        assert scheme.reference_decrypt(generated.share1, generated.share2, ct) == message

    def test_protocol_roundtrip(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        message = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generated.public_key, message, rng)
        assert scheme.decrypt_protocol(p1, p2, channel, ct) == message

    def test_protocol_matches_reference(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        for _ in range(3):
            ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
            assert scheme.decrypt_protocol(p1, p2, channel, ct) == \
                scheme.reference_decrypt(generated.share1, generated.share2, ct)

    def test_encryption_randomized(self, scheme, generated, rng):
        message = scheme.group.random_gt(rng)
        a = scheme.encrypt(generated.public_key, message, rng)
        b = scheme.encrypt(generated.public_key, message, rng)
        assert a != b

    def test_protocol_erases_sk_comm(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        scheme.decrypt_protocol(p1, p2, channel, ct)
        assert not p1.secret.has("dec.sk_comm")

    def test_two_messages_on_channel(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        scheme.decrypt_protocol(p1, p2, channel, ct)
        assert [m.label for m in channel.transcript()] == ["dec.d", "dec.c_prime"]


class TestRefresh:
    def test_decryption_still_works_after_refresh(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        message = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generated.public_key, message, rng)
        scheme.refresh_protocol(p1, p2, channel)
        assert scheme.decrypt_protocol(p1, p2, channel, ct) == message

    def test_many_refreshes(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        message = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generated.public_key, message, rng)
        for _ in range(5):
            scheme.refresh_protocol(p1, p2, channel)
        assert scheme.decrypt_protocol(p1, p2, channel, ct) == message

    def test_public_key_unchanged(self, scheme, generated, rng):
        """The refreshed shares still share the *same* msk: a post-refresh
        encryption under the original pk decrypts correctly."""
        p1, p2, channel = fresh_devices(scheme, generated)
        scheme.refresh_protocol(p1, p2, channel)
        message = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generated.public_key, message, rng)
        assert scheme.decrypt_protocol(p1, p2, channel, ct) == message

    def test_shares_change(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        old1 = scheme.share1_of(p1)
        old2 = scheme.share2_of(p2)
        scheme.refresh_protocol(p1, p2, channel)
        assert scheme.share1_of(p1) != old1
        assert scheme.share2_of(p2) != old2

    def test_old_share_erased(self, scheme, generated, rng):
        """Definition 3.1: by termination the old share is erased -- the
        slot holds only the new value."""
        p1, p2, channel = fresh_devices(scheme, generated)
        old2 = scheme.share2_of(p2)
        scheme.refresh_protocol(p1, p2, channel)
        assert p2.secret.read(SK2_SLOT) != old2
        assert not p1.secret.has("ref.sk_comm")
        assert not p1.secret.has("ref.a_next")

    def test_new_shares_reconstruct_same_msk(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        group = scheme.group

        def msk_of(share1, share2):
            value = share1.phi
            for a_i, s_i in zip(share1.a, share2.s):
                value = value / (a_i ** s_i)
            return value

        before = msk_of(scheme.share1_of(p1), scheme.share2_of(p2))
        scheme.refresh_protocol(p1, p2, channel)
        after = msk_of(scheme.share1_of(p1), scheme.share2_of(p2))
        assert before == after


class TestRunPeriod:
    def test_period_output_correct(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        message = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generated.public_key, message, rng)
        record = scheme.run_period(p1, p2, channel, ct)
        assert record.plaintext == message

    def test_period_advances(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        scheme.run_period(p1, p2, channel, ct)
        assert channel.current_period == 1

    def test_snapshots_present(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        record = scheme.run_period(p1, p2, channel, ct)
        assert set(record.snapshots) == {
            (1, "normal"), (1, "refresh"), (2, "normal"), (2, "refresh")
        }

    def test_p2_snapshot_sizes_match_paper(self, scheme, generated, rng):
        """P2's secret memory: m2 normally, 2 m2 during refresh."""
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        record = scheme.run_period(p1, p2, channel, ct)
        m2 = scheme.params.sk2_bits()
        assert record.snapshots[(2, "normal")].size_bits() == m2
        assert record.snapshots[(2, "refresh")].size_bits() == 2 * m2

    def test_consecutive_periods(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        for t in range(3):
            message = scheme.group.random_gt(rng)
            ct = scheme.encrypt(generated.public_key, message, rng)
            record = scheme.run_period(p1, p2, channel, ct)
            assert record.plaintext == message
            assert record.period == t


class TestInstallValidation:
    def test_missing_share_detected(self, scheme, small_group, rng):
        device = Device("P1", small_group, rng)
        with pytest.raises(ProtocolError):
            scheme.share1_of(device)

    def test_wrong_type_detected(self, scheme, small_group, rng):
        device = Device("P1", small_group, rng)
        device.secret.store(SK1_SLOT, "not a share")
        with pytest.raises(ProtocolError):
            scheme.share1_of(device)


class TestShareVerification:
    def test_healthy_shares_verify(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        assert scheme.verify_shares(generated.public_key, p1, p2, channel, rng)

    def test_verify_after_refresh(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        scheme.refresh_protocol(p1, p2, channel)
        assert scheme.verify_shares(generated.public_key, p1, p2, channel, rng)

    def test_mixed_generations_fail_verification(self, scheme, generated, rng):
        other = scheme.generate(random.Random(77))
        p1, p2, channel = fresh_devices(scheme, generated)
        p2.secret.store(SK2_SLOT, other.share2)
        assert not scheme.verify_shares(generated.public_key, p1, p2, channel, rng)

    def test_corrupt_share_fails_verification(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        p1.secret.store(SK1_SLOT, "garbage")
        assert not scheme.verify_shares(generated.public_key, p1, p2, channel, rng)

    def test_wrong_public_key_fails_verification(self, scheme, generated, rng):
        other = scheme.generate(random.Random(88))
        p1, p2, channel = fresh_devices(scheme, generated)
        assert not scheme.verify_shares(other.public_key, p1, p2, channel, rng)
