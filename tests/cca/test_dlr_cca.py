"""Tests for DLRCCA2: the BCHK transform and its rejection paths."""

import random

import pytest

from repro.cca.dlr_cca import CCACiphertext, DLRCCA2
from repro.cca.ots import Signature
from repro.errors import DecryptionError
from repro.ibe.boneh_boyen import IBECiphertext
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

N_ID = 4


@pytest.fixture()
def cca(small_params):
    return DLRCCA2(small_params, n_id=N_ID)


@pytest.fixture()
def setup(cca):
    return cca.setup(random.Random(1))


def fresh_devices(cca, setup, seed=2):
    rng = random.Random(seed)
    group = cca.params.group
    p1 = Device("P1", group, rng)
    p2 = Device("P2", group, rng)
    cca.install(p1, p2, setup.share1, setup.share2)
    return p1, p2, InMemoryTransport()


class TestRoundtrip:
    def test_encrypt_decrypt(self, cca, setup, rng):
        p1, p2, channel = fresh_devices(cca, setup)
        message = cca.params.group.random_gt(rng)
        ct = cca.encrypt(setup, message, rng)
        assert cca.decrypt_protocol(setup, p1, p2, channel, ct) == message

    def test_fresh_identity_per_encryption(self, cca, setup, rng):
        message = cca.params.group.random_gt(rng)
        a = cca.encrypt(setup, message, rng)
        b = cca.encrypt(setup, message, rng)
        assert a.identity() != b.identity()

    def test_identity_shares_erased_after_decryption(self, cca, setup, rng):
        from repro.ibe.dlr_ibe import _id_slot

        p1, p2, channel = fresh_devices(cca, setup)
        ct = cca.encrypt(setup, cca.params.group.random_gt(rng), rng)
        cca.decrypt_protocol(setup, p1, p2, channel, ct)
        assert not p1.secret.has(_id_slot(1, ct.identity()))
        assert not p2.secret.has(_id_slot(2, ct.identity()))

    def test_multiple_decryptions(self, cca, setup, rng):
        p1, p2, channel = fresh_devices(cca, setup)
        group = cca.params.group
        for _ in range(3):
            message = group.random_gt(rng)
            ct = cca.encrypt(setup, message, rng)
            assert cca.decrypt_protocol(setup, p1, p2, channel, ct) == message

    def test_decryption_after_master_refresh(self, cca, setup, rng):
        p1, p2, channel = fresh_devices(cca, setup)
        message = cca.params.group.random_gt(rng)
        ct = cca.encrypt(setup, message, rng)
        cca.ibe.refresh_protocol(p1, p2, channel)
        assert cca.decrypt_protocol(setup, p1, p2, channel, ct) == message


class TestRejection:
    """The CCA2 mauling defenses."""

    def test_tampered_body_rejected(self, cca, setup, rng):
        p1, p2, channel = fresh_devices(cca, setup)
        group = cca.params.group
        ct = cca.encrypt(setup, group.random_gt(rng), rng)
        mauled_inner = IBECiphertext(ct.inner.a, ct.inner.c, ct.inner.b * group.random_gt(rng))
        mauled = CCACiphertext(ct.verify_key, mauled_inner, ct.signature)
        with pytest.raises(DecryptionError):
            cca.decrypt_protocol(setup, p1, p2, channel, mauled)

    def test_swapped_signature_rejected(self, cca, setup, rng):
        p1, p2, channel = fresh_devices(cca, setup)
        group = cca.params.group
        ct1 = cca.encrypt(setup, group.random_gt(rng), rng)
        ct2 = cca.encrypt(setup, group.random_gt(rng), rng)
        frankenstein = CCACiphertext(ct1.verify_key, ct1.inner, ct2.signature)
        with pytest.raises(DecryptionError):
            cca.decrypt_protocol(setup, p1, p2, channel, frankenstein)

    def test_rewrapped_vk_changes_plaintext(self, cca, setup, rng):
        """Re-signing a stolen inner ciphertext under the attacker's own
        vk passes the signature check but decrypts under a *different*
        identity, yielding garbage -- the BCHK argument in action."""
        p1, p2, channel = fresh_devices(cca, setup)
        group = cca.params.group
        message = group.random_gt(rng)
        ct = cca.encrypt(setup, message, rng)
        attacker_keys = cca.ots.keygen(rng)
        new_sig = cca.ots.sign(attacker_keys, ct.inner.to_bits().to_bytes())
        rewrapped = CCACiphertext(attacker_keys.verify_key, ct.inner, new_sig)
        result = cca.decrypt_protocol(setup, p1, p2, channel, rewrapped)
        assert result != message

    def test_malformed_vk_rejected(self, cca, setup, rng):
        p1, p2, channel = fresh_devices(cca, setup)
        ct = cca.encrypt(setup, cca.params.group.random_gt(rng), rng)
        broken = CCACiphertext(((b"bad",), (b"key",)), ct.inner, ct.signature)
        with pytest.raises(DecryptionError):
            cca.decrypt_protocol(setup, p1, p2, channel, broken)

    def test_truncated_signature_rejected(self, cca, setup, rng):
        p1, p2, channel = fresh_devices(cca, setup)
        ct = cca.encrypt(setup, cca.params.group.random_gt(rng), rng)
        broken = CCACiphertext(ct.verify_key, ct.inner, Signature(ct.signature.preimages[:10]))
        with pytest.raises(DecryptionError):
            cca.decrypt_protocol(setup, p1, p2, channel, broken)
