"""Tests for the optimal-leakage-rate variant (section 5.2 remarks)."""

import random

import pytest

from repro.core.optimal import ENC_SHARE_SLOT, SK_COMM_SLOT, OptimalDLR
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport


@pytest.fixture()
def scheme(small_params):
    return OptimalDLR(small_params)


@pytest.fixture()
def generated(scheme):
    return scheme.generate(random.Random(1))


def fresh_devices(scheme, generated, seed=2):
    rng = random.Random(seed)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generated.share1, generated.share2)
    return p1, p2, InMemoryTransport()


class TestInstall:
    def test_p1_secret_is_only_sk_comm(self, scheme, generated):
        p1, p2, _ = fresh_devices(scheme, generated)
        assert p1.secret.names() == [SK_COMM_SLOT]
        assert p1.secret.size_bits() == scheme.params.sk_comm_bits()

    def test_encrypted_share_in_public_memory(self, scheme, generated):
        p1, _, _ = fresh_devices(scheme, generated)
        encrypted = p1.public.read(ENC_SHARE_SLOT)
        assert len(encrypted) == scheme.params.ell + 1

    def test_encrypted_share_decrypts_to_sk1(self, scheme, generated):
        p1, _, _ = fresh_devices(scheme, generated)
        recovered = scheme.recover_share1(p1)
        assert recovered == generated.share1


class TestProtocols:
    def test_decrypt_roundtrip(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        message = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generated.public_key, message, rng)
        assert scheme.decrypt_protocol(p1, p2, channel, ct) == message

    def test_refresh_then_decrypt(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        message = scheme.group.random_gt(rng)
        ct = scheme.encrypt(generated.public_key, message, rng)
        for _ in range(3):
            scheme.refresh_protocol(p1, p2, channel)
            assert scheme.decrypt_protocol(p1, p2, channel, ct) == message

    def test_refresh_changes_sk_comm_and_share(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        old_key = p1.secret.read(SK_COMM_SLOT)
        old_encrypted = p1.public.read(ENC_SHARE_SLOT)
        old_sk1 = scheme.recover_share1(p1)
        scheme.refresh_protocol(p1, p2, channel)
        assert p1.secret.read(SK_COMM_SLOT) != old_key
        assert p1.public.read(ENC_SHARE_SLOT) != old_encrypted
        assert scheme.recover_share1(p1) != old_sk1

    def test_refresh_preserves_msk(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)

        def msk(share1, share2):
            value = share1.phi
            for a_i, s_i in zip(share1.a, share2.s):
                value = value / (a_i ** s_i)
            return value

        before = msk(scheme.recover_share1(p1), scheme.share2_of(p2))
        scheme.refresh_protocol(p1, p2, channel)
        after = msk(scheme.recover_share1(p1), scheme.share2_of(p2))
        assert before == after

    def test_no_transient_secrets_left(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        scheme.refresh_protocol(p1, p2, channel)
        assert p1.secret.names() == [SK_COMM_SLOT]


class TestPaperAccounting:
    """The Theorem 4.1 memory sizes, measured."""

    def test_normal_snapshot_is_m1(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        record = scheme.run_period(p1, p2, channel, ct)
        assert record.snapshots[(1, "normal")].size_bits() == scheme.params.sk_comm_bits()

    def test_refresh_snapshot_is_2m1(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        record = scheme.run_period(p1, p2, channel, ct)
        assert record.snapshots[(1, "refresh")].size_bits() == 2 * scheme.params.sk_comm_bits()

    def test_p2_sizes(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        record = scheme.run_period(p1, p2, channel, ct)
        m2 = scheme.params.sk2_bits()
        assert record.snapshots[(2, "normal")].size_bits() == m2
        assert record.snapshots[(2, "refresh")].size_bits() == 2 * m2

    def test_measured_rates_match_theorem(self, scheme):
        """rho1 = b1/m1 -> 1 - o(1); rho1_ref = b1/2m1 -> 1/2 - o(1);
        rho2 = 1; rho2_ref = 1/2."""
        params = scheme.params
        b1, b2 = params.theorem_b1(), params.theorem_b2()
        m1, m2 = params.sk_comm_bits(), params.sk2_bits()
        lam, n = params.lam, params.n
        assert b1 / m1 == pytest.approx(lam / (lam + 3 * n), abs=1e-9)
        assert 0 < b1 / m1 < 1.0
        assert b1 / (2 * m1) < 0.5
        assert b2 / m2 == 1.0
        assert b2 / (2 * m2) == 0.5

    def test_run_period_correctness(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        for _ in range(2):
            message = scheme.group.random_gt(rng)
            ct = scheme.encrypt(generated.public_key, message, rng)
            assert scheme.run_period(p1, p2, channel, ct).plaintext == message


class TestDeviceAsymmetry:
    def test_p2_does_no_pairings(self, scheme, generated, rng):
        """The 'simple auxiliary device' property (section 1.1 item 4):
        P2 only samples scalars and computes products-of-powers."""
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        scheme.run_period(p1, p2, channel, ct)
        assert p2.ops.pairings == 0
        assert p2.ops.pairings_precomp == 0
        # P1 carries all pairing work (full or precomputed-schedule).
        assert p1.ops.pairings + p1.ops.pairings_precomp > 0

    def test_p2_samples_no_group_elements(self, scheme, generated, rng):
        p1, p2, channel = fresh_devices(scheme, generated)
        ct = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
        scheme.run_period(p1, p2, channel, ct)
        assert p2.ops.g_samples == 0
        assert p2.ops.gt_samples == 0
