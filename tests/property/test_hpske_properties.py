"""Property-based tests: HPSKE homomorphisms and scheme invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hpske import HPSKE
from repro.groups import preset_group

GROUP = preset_group(16)
P = GROUP.p
KAPPA = 2
SCHEME_G = HPSKE(GROUP, KAPPA, "G")
SCHEME_GT = HPSKE(GROUP, KAPPA, "GT")

seeds = st.integers(min_value=0, max_value=2**30)
scalars = st.integers(min_value=0, max_value=P - 1)

COMMON = dict(max_examples=25, deadline=None)


class TestHPSKEProperties:
    @given(seed=seeds)
    @settings(**COMMON)
    def test_roundtrip(self, seed):
        rng = random.Random(seed)
        key = SCHEME_G.keygen(rng)
        message = GROUP.random_g(rng)
        assert SCHEME_G.decrypt(key, SCHEME_G.encrypt(key, message, rng)) == message

    @given(seed=seeds)
    @settings(**COMMON)
    def test_product_homomorphism(self, seed):
        rng = random.Random(seed)
        key = SCHEME_G.keygen(rng)
        m0, m1 = GROUP.random_g(rng), GROUP.random_g(rng)
        c0 = SCHEME_G.encrypt(key, m0, rng)
        c1 = SCHEME_G.encrypt(key, m1, rng)
        assert SCHEME_G.decrypt(key, c0 * c1) == m0 * m1

    @given(seed=seeds, s=scalars)
    @settings(**COMMON)
    def test_scalar_homomorphism(self, seed, s):
        rng = random.Random(seed)
        key = SCHEME_G.keygen(rng)
        m = GROUP.random_g(rng)
        assert SCHEME_G.decrypt(key, SCHEME_G.encrypt(key, m, rng) ** s) == m ** s

    @given(seed=seeds)
    @settings(**COMMON)
    def test_pairing_transport(self, seed):
        rng = random.Random(seed)
        key = SCHEME_G.keygen(rng)
        m = GROUP.random_g(rng)
        a_point = GROUP.random_g(rng)
        d = SCHEME_G.encrypt(key, m, rng).pair_with(GROUP.pairing_precomp(a_point))
        assert SCHEME_GT.decrypt(key, d) == GROUP.pair(a_point, m)

    @given(seed=seeds, s0=scalars, s1=scalars)
    @settings(**COMMON)
    def test_combined_homomorphism(self, seed, s0, s1):
        """Dec(c0^{s0} c1^{s1} / c2) = m0^{s0} m1^{s1} / m2: the combined
        product/power/quotient shape every protocol message uses."""
        rng = random.Random(seed)
        key = SCHEME_G.keygen(rng)
        messages = [GROUP.random_g(rng) for _ in range(3)]
        cts = [SCHEME_G.encrypt(key, m, rng) for m in messages]
        combined = (cts[0] ** s0) * (cts[1] ** s1) / cts[2]
        expected = (messages[0] ** s0) * (messages[1] ** s1) / messages[2]
        assert SCHEME_G.decrypt(key, combined) == expected
