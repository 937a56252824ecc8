"""Property-based tests: DLR scheme invariants end to end (hypothesis).

All on the 16-bit toy preset so every example is cheap.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dlr import DLR
from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.groups import preset_group
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

GROUP = preset_group(16)
PARAMS = DLRParams(group=GROUP, lam=16)
SCHEME = DLR(PARAMS)
OPTIMAL = OptimalDLR(PARAMS)

seeds = st.integers(min_value=0, max_value=2**30)


def setup_devices(scheme, seed):
    rng = random.Random(seed)
    generation = scheme.generate(rng)
    p1 = Device("P1", GROUP, rng)
    p2 = Device("P2", GROUP, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    return generation, p1, p2, rng


class TestDLRProperties:
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_decrypt_of_encrypt_is_identity(self, seed):
        generation, p1, p2, rng = setup_devices(SCHEME, seed)
        message = GROUP.random_gt(rng)
        ciphertext = SCHEME.encrypt(generation.public_key, message, rng)
        assert SCHEME.decrypt_protocol(p1, p2, InMemoryTransport(), ciphertext) == message

    @given(seed=seeds, refreshes=st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_decryption_invariant_under_refresh(self, seed, refreshes):
        generation, p1, p2, rng = setup_devices(SCHEME, seed)
        message = GROUP.random_gt(rng)
        ciphertext = SCHEME.encrypt(generation.public_key, message, rng)
        channel = InMemoryTransport()
        for _ in range(refreshes):
            SCHEME.refresh_protocol(p1, p2, channel)
        assert SCHEME.decrypt_protocol(p1, p2, channel, ciphertext) == message

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_protocol_agrees_with_reference(self, seed):
        generation, p1, p2, rng = setup_devices(SCHEME, seed)
        ciphertext = SCHEME.encrypt(generation.public_key, GROUP.random_gt(rng), rng)
        assert SCHEME.decrypt_protocol(p1, p2, InMemoryTransport(), ciphertext) == \
            SCHEME.reference_decrypt(generation.share1, generation.share2, ciphertext)

    @given(seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_optimal_variant_agrees_with_basic(self, seed):
        generation, p1, p2, rng = setup_devices(SCHEME, seed)
        o1 = Device("P1", GROUP, rng)
        o2 = Device("P2", GROUP, rng)
        OPTIMAL.install(o1, o2, generation.share1, generation.share2)
        message = GROUP.random_gt(rng)
        ciphertext = SCHEME.encrypt(generation.public_key, message, rng)
        assert SCHEME.decrypt_protocol(p1, p2, InMemoryTransport(), ciphertext) == \
            OPTIMAL.decrypt_protocol(o1, o2, InMemoryTransport(), ciphertext)

    @given(seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_msk_invariant_under_refresh(self, seed):
        generation, p1, p2, rng = setup_devices(SCHEME, seed)
        channel = InMemoryTransport()

        def msk():
            share1, share2 = SCHEME.share1_of(p1), SCHEME.share2_of(p2)
            value = share1.phi
            for a_i, s_i in zip(share1.a, share2.s):
                value = value / (a_i ** s_i)
            return value

        before = msk()
        SCHEME.refresh_protocol(p1, p2, channel)
        assert msk() == before

    @given(seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_homomorphic_rerandomization_of_ciphertexts(self, seed):
        """(A g^t', B z^t') decrypts to the same plaintext -- the storage
        refresh relies on this."""
        generation, p1, p2, rng = setup_devices(SCHEME, seed)
        message = GROUP.random_gt(rng)
        ciphertext = SCHEME.encrypt(generation.public_key, message, rng)
        t_prime = GROUP.random_scalar(rng)
        from repro.core.keys import Ciphertext

        rerandomized = Ciphertext(
            a=ciphertext.a * (GROUP.g ** t_prime),
            b=ciphertext.b * (generation.public_key.z ** t_prime),
        )
        assert SCHEME.decrypt_protocol(p1, p2, InMemoryTransport(), rerandomized) == message
