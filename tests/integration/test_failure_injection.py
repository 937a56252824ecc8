"""Failure injection: wrong wiring, tampered messages, misuse of the
memory discipline.  A production library must fail loudly (or garble
verifiably) rather than silently mis-decrypt.
"""

import random

import pytest

from repro.core.dlr import DLR, SK1_SLOT, SK2_SLOT, combine_decrypt
from repro.core.hpske import HPSKECiphertext
from repro.core.optimal import OptimalDLR
from repro.errors import GroupError, ProtocolError
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


class TestWrongWiring:
    def test_swapped_shares_detected(self, scheme, setting):
        """Installing Share2 where Share1 belongs raises, not garbles."""
        generation, p1, p2, channel, rng = setting
        q1 = Device("P1", scheme.group, rng)
        q2 = Device("P2", scheme.group, rng)
        q1.secret.store(SK1_SLOT, generation.share2)  # wrong type
        q2.secret.store(SK2_SLOT, generation.share1)
        ciphertext = scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
        with pytest.raises(ProtocolError):
            scheme.decrypt_protocol(q1, q2, channel, ciphertext)

    def test_missing_share_detected(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        bare = Device("P2", scheme.group, rng)
        ciphertext = scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
        with pytest.raises(ProtocolError):
            scheme.decrypt_protocol(p1, bare, channel, ciphertext)

    def test_shares_from_different_generations_garble(self, scheme, setting):
        """Mixing shares of two key pairs completes but yields garbage --
        the msk relation is broken, never silently 'fixed'."""
        generation, p1, p2, channel, rng = setting
        other = scheme.generate(random.Random(99))
        q1 = Device("P1", scheme.group, rng)
        q2 = Device("P2", scheme.group, rng)
        scheme.install(q1, q2, generation.share1, other.share2)
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)
        assert scheme.decrypt_protocol(q1, q2, channel, ciphertext) != message

    def test_cross_group_elements_rejected(self, scheme, setting, toy_group):
        generation, p1, p2, channel, rng = setting
        foreign = toy_group.random_g(random.Random(1))
        with pytest.raises(GroupError):
            foreign * generation.share1.a[0]

    def test_optimal_devices_not_interchangeable_with_basic(self, small_params, setting):
        """An OptimalDLR P1 (no plain sk1 in memory) cannot serve the
        basic protocol."""
        scheme = DLR(small_params)
        generation, p1, p2, channel, rng = setting
        optimal = OptimalDLR(small_params)
        o1 = Device("P1", small_params.group, rng)
        o2 = Device("P2", small_params.group, rng)
        optimal.install(o1, o2, generation.share1, generation.share2)
        ciphertext = scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
        with pytest.raises(ProtocolError):
            scheme.decrypt_protocol(o1, o2, channel, ciphertext)


class TestMessageTampering:
    """A man-in-the-middle flips protocol messages.  The paper's model
    assumes an authenticated channel (devices 'trust each other to follow
    the protocols'); these tests document what integrity failure costs:
    decryption garbles -- crucially *without* revealing secrets."""

    def _p1_decryption_inputs(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)
        share1 = scheme.share1_of(p1)
        sk_comm = scheme.hpske_gt.keygen(p1.rng)
        d_list = tuple(
            scheme.hpske_gt.encrypt(sk_comm, scheme.group.pair(ciphertext.a, a_i), p1.rng)
            for a_i in share1.a
        )
        d_phi = scheme.hpske_gt.encrypt(
            sk_comm, scheme.group.pair(ciphertext.a, share1.phi), p1.rng
        )
        d_b = scheme.hpske_gt.encrypt(sk_comm, ciphertext.b, p1.rng)
        return message, sk_comm, d_list, d_phi, d_b, p2

    def test_tampered_d_vector_garbles_output(self, scheme, setting):
        message, sk_comm, d_list, d_phi, d_b, p2 = self._p1_decryption_inputs(scheme, setting)
        rng = random.Random(5)
        evil = scheme.group.random_gt(rng)
        tampered = (
            HPSKECiphertext(d_list[0].coins, d_list[0].body * evil),
        ) + d_list[1:]
        with p2.computing():
            response = combine_decrypt(scheme.share2_of(p2), tampered, d_phi, d_b)
        assert scheme.hpske_gt.decrypt(sk_comm, response) != message

    def test_tampered_response_garbles_output(self, scheme, setting):
        message, sk_comm, d_list, d_phi, d_b, p2 = self._p1_decryption_inputs(scheme, setting)
        with p2.computing():
            response = combine_decrypt(scheme.share2_of(p2), d_list, d_phi, d_b)
        rng = random.Random(6)
        tampered = HPSKECiphertext(
            response.coins, response.body * scheme.group.random_gt(rng)
        )
        assert scheme.hpske_gt.decrypt(sk_comm, tampered) != message

    def test_replayed_old_response_garbles(self, scheme, setting):
        """Replaying a response from an earlier decryption (different
        sk_comm) yields garbage, not the earlier plaintext."""
        generation, p1, p2, channel, rng = setting
        message1 = scheme.group.random_gt(rng)
        ct1 = scheme.encrypt(generation.public_key, message1, rng)
        scheme.decrypt_protocol(p1, p2, channel, ct1)
        old_response = channel.transcript()[-1].payload

        message2 = scheme.group.random_gt(rng)
        ct2 = scheme.encrypt(generation.public_key, message2, rng)
        share1 = scheme.share1_of(p1)
        sk_comm = scheme.hpske_gt.keygen(p1.rng)
        recovered = scheme.hpske_gt.decrypt(sk_comm, old_response)
        assert recovered != message1
        assert recovered != message2


class TestMemoryDiscipline:
    def test_double_erase_raises(self, scheme, setting):
        _, p1, _, _, _ = setting
        p1.secret.store("tmp", scheme.group.g)
        p1.secret.erase("tmp")
        with pytest.raises(ProtocolError):
            p1.secret.erase("tmp")

    def test_phase_left_open_is_detected(self, scheme, setting):
        _, p1, _, _, _ = setting
        p1.secret.open_phase("forgotten")
        with pytest.raises(ProtocolError):
            p1.secret.open_phase("another")
        p1.secret.close_phase()

    def test_refresh_after_tampered_state_does_not_crash_silently(self, scheme, setting):
        """If P1's share slot holds junk, refresh raises immediately."""
        generation, p1, p2, channel, rng = setting
        p1.secret.store(SK1_SLOT, b"corrupted")
        with pytest.raises(ProtocolError):
            scheme.refresh_protocol(p1, p2, channel)
