"""Property-based tests: DIBE and CCA2 end-to-end invariants (toy group)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cca.dlr_cca import DLRCCA2
from repro.core.params import DLRParams
from repro.groups import preset_group
from repro.ibe.dlr_ibe import DLRIBE
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

GROUP = preset_group(16)
PARAMS = DLRParams(group=GROUP, lam=16)
N_ID = 4

seeds = st.integers(min_value=0, max_value=2**30)
identities = st.text(
    alphabet="abcdefghij0123456789", min_size=1, max_size=12
)


def dibe_setting(seed):
    scheme = DLRIBE(PARAMS, n_id=N_ID)
    rng = random.Random(seed)
    setup = scheme.setup(rng)
    p1 = Device("P1", GROUP, rng)
    p2 = Device("P2", GROUP, rng)
    scheme.install(p1, p2, setup.share1, setup.share2)
    return scheme, setup, p1, p2, InMemoryTransport(), rng


class TestDIBEProperties:
    @given(seed=seeds, identity=identities)
    @settings(max_examples=8, deadline=None)
    def test_extract_decrypt_roundtrip(self, seed, identity):
        scheme, setup, p1, p2, channel, rng = dibe_setting(seed)
        scheme.extract_protocol(setup.public_params, p1, p2, channel, identity)
        message = GROUP.random_gt(rng)
        ciphertext = scheme.encrypt_to(setup.public_params, identity, message, rng)
        assert scheme.decrypt_protocol_id(p1, p2, channel, identity, ciphertext) == message

    @given(seed=seeds, identity=identities)
    @settings(max_examples=6, deadline=None)
    def test_refresh_preserves_identity_decryption(self, seed, identity):
        scheme, setup, p1, p2, channel, rng = dibe_setting(seed)
        scheme.extract_protocol(setup.public_params, p1, p2, channel, identity)
        message = GROUP.random_gt(rng)
        ciphertext = scheme.encrypt_to(setup.public_params, identity, message, rng)
        scheme.refresh_identity_protocol(setup.public_params, p1, p2, channel, identity)
        scheme.refresh_protocol(p1, p2, channel)
        assert scheme.decrypt_protocol_id(p1, p2, channel, identity, ciphertext) == message

    @given(seed=seeds, id_a=identities, id_b=identities)
    @settings(max_examples=6, deadline=None)
    def test_identity_separation(self, seed, id_a, id_b):
        """Different identities' shares never open each other's mail
        (unless the hashed identities collide, which we exclude)."""
        from repro.ibe.identity_hash import hash_identity

        if hash_identity(id_a, N_ID) == hash_identity(id_b, N_ID):
            return
        scheme, setup, p1, p2, channel, rng = dibe_setting(seed)
        scheme.extract_protocol(setup.public_params, p1, p2, channel, id_a)
        scheme.extract_protocol(setup.public_params, p1, p2, channel, id_b)
        message = GROUP.random_gt(rng)
        ciphertext = scheme.encrypt_to(setup.public_params, id_a, message, rng)
        assert scheme.decrypt_protocol_id(p1, p2, channel, id_b, ciphertext) != message


class TestCCA2Properties:
    @given(seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_encrypt_decrypt_roundtrip(self, seed):
        scheme = DLRCCA2(PARAMS, n_id=N_ID)
        rng = random.Random(seed)
        setup = scheme.setup(rng)
        p1 = Device("P1", GROUP, rng)
        p2 = Device("P2", GROUP, rng)
        scheme.install(p1, p2, setup.share1, setup.share2)
        message = GROUP.random_gt(rng)
        ciphertext = scheme.encrypt(setup, message, rng)
        assert scheme.decrypt_protocol(setup, p1, p2, InMemoryTransport(), ciphertext) == message

    @given(seed=seeds)
    @settings(max_examples=5, deadline=None)
    def test_any_body_tampering_rejected(self, seed):
        from repro.cca.dlr_cca import CCACiphertext
        from repro.errors import DecryptionError
        from repro.ibe.boneh_boyen import IBECiphertext

        scheme = DLRCCA2(PARAMS, n_id=N_ID)
        rng = random.Random(seed)
        setup = scheme.setup(rng)
        p1 = Device("P1", GROUP, rng)
        p2 = Device("P2", GROUP, rng)
        scheme.install(p1, p2, setup.share1, setup.share2)
        ciphertext = scheme.encrypt(setup, GROUP.random_gt(rng), rng)
        mauled = CCACiphertext(
            ciphertext.verify_key,
            IBECiphertext(
                ciphertext.inner.a,
                ciphertext.inner.c,
                ciphertext.inner.b * GROUP.random_gt(rng),
            ),
            ciphertext.signature,
        )
        try:
            scheme.decrypt_protocol(setup, p1, p2, InMemoryTransport(), mauled)
            raise AssertionError("tampered ciphertext accepted")
        except DecryptionError:
            pass
