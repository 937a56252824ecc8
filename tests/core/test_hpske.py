"""Unit tests for HPSKE (Definition 5.1 / Lemma 5.2)."""

import random

import pytest

from repro.core.hpske import HPSKE, HPSKECiphertext, HPSKEKey
from repro.errors import ParameterError

KAPPA = 3


@pytest.fixture()
def hpske_g(small_group):
    return HPSKE(small_group, KAPPA, space="G")


@pytest.fixture()
def hpske_gt(small_group):
    return HPSKE(small_group, KAPPA, space="GT")


class TestBasics:
    def test_roundtrip_g(self, hpske_g, small_group, rng):
        key = hpske_g.keygen(rng)
        message = small_group.random_g(rng)
        assert hpske_g.decrypt(key, hpske_g.encrypt(key, message, rng)) == message

    def test_roundtrip_gt(self, hpske_gt, small_group, rng):
        key = hpske_gt.keygen(rng)
        message = small_group.random_gt(rng)
        assert hpske_gt.decrypt(key, hpske_gt.encrypt(key, message, rng)) == message

    def test_wrong_key_garbles(self, hpske_g, small_group, rng):
        key1, key2 = hpske_g.keygen(rng), hpske_g.keygen(rng)
        message = small_group.random_g(rng)
        assert hpske_g.decrypt(key2, hpske_g.encrypt(key1, message, rng)) != message

    def test_randomized_encryption(self, hpske_g, small_group, rng):
        key = hpske_g.keygen(rng)
        message = small_group.random_g(rng)
        a = hpske_g.encrypt(key, message, rng)
        b = hpske_g.encrypt(key, message, rng)
        assert a != b

    def test_explicit_coins_deterministic(self, hpske_g, small_group, rng):
        key = hpske_g.keygen(rng)
        message = small_group.random_g(rng)
        coins = hpske_g.sample_coins(rng)
        assert hpske_g.encrypt(key, message, coins=coins) == hpske_g.encrypt(
            key, message, coins=coins
        )

    def test_key_width_checked(self, hpske_g, small_group, rng):
        other = HPSKE(small_group, KAPPA + 1, space="G").keygen(rng)
        with pytest.raises(ParameterError):
            hpske_g.encrypt(other, small_group.random_g(rng), rng)

    def test_needs_rng_or_coins(self, hpske_g, small_group, rng):
        key = hpske_g.keygen(rng)
        with pytest.raises(ParameterError):
            hpske_g.encrypt(key, small_group.random_g(rng))

    def test_invalid_space(self, small_group):
        with pytest.raises(ParameterError):
            HPSKE(small_group, 2, space="H")

    def test_invalid_kappa(self, small_group):
        with pytest.raises(ParameterError):
            HPSKE(small_group, 0)

    def test_same_key_works_in_both_groups(self, small_group, rng):
        """'HPSKE for ell, G, GT': one key, two carrier groups."""
        g_scheme = HPSKE(small_group, KAPPA, space="G")
        gt_scheme = HPSKE(small_group, KAPPA, space="GT")
        key = g_scheme.keygen(rng)
        mg = small_group.random_g(rng)
        mt = small_group.random_gt(rng)
        assert g_scheme.decrypt(key, g_scheme.encrypt(key, mg, rng)) == mg
        assert gt_scheme.decrypt(key, gt_scheme.encrypt(key, mt, rng)) == mt


class TestHomomorphisms:
    def test_product_homomorphism(self, hpske_g, small_group, rng):
        """Definition 5.1, part 1: Dec(c0 * c1) = m0 * m1."""
        key = hpske_g.keygen(rng)
        m0, m1 = small_group.random_g(rng), small_group.random_g(rng)
        c0 = hpske_g.encrypt(key, m0, rng)
        c1 = hpske_g.encrypt(key, m1, rng)
        assert hpske_g.decrypt(key, c0 * c1) == m0 * m1

    def test_quotient_homomorphism(self, hpske_g, small_group, rng):
        key = hpske_g.keygen(rng)
        m0, m1 = small_group.random_g(rng), small_group.random_g(rng)
        c0 = hpske_g.encrypt(key, m0, rng)
        c1 = hpske_g.encrypt(key, m1, rng)
        assert hpske_g.decrypt(key, c0 / c1) == m0 / m1

    def test_scalar_homomorphism(self, hpske_g, small_group, rng):
        """Enc(m)^s decrypts to m^s -- what P2's combination step uses."""
        key = hpske_g.keygen(rng)
        m = small_group.random_g(rng)
        s = small_group.random_scalar(rng)
        assert hpske_g.decrypt(key, hpske_g.encrypt(key, m, rng) ** s) == m ** s

    def test_p2_combination_shape(self, hpske_g, small_group, rng):
        """Dec(prod c_i^{s_i} * c0) = prod m_i^{s_i} * m0 -- the exact
        expression P2 computes in Dec and Ref."""
        key = hpske_g.keygen(rng)
        messages = [small_group.random_g(rng) for _ in range(4)]
        scalars = [small_group.random_scalar(rng) for _ in range(4)]
        cts = [hpske_g.encrypt(key, m, rng) for m in messages]
        base = hpske_g.encrypt(key, small_group.random_g(rng), rng)
        combined = base
        expected = hpske_g.decrypt(key, base)
        for ct, m, s in zip(cts, messages, scalars):
            combined = combined * (ct ** s)
            expected = expected * (m ** s)
        assert hpske_g.decrypt(key, combined) == expected

    def test_width_mismatch_rejected(self, hpske_g, small_group, rng):
        key = hpske_g.keygen(rng)
        ct = hpske_g.encrypt(key, small_group.random_g(rng), rng)
        other = HPSKE(small_group, KAPPA + 1, "G")
        key2 = other.keygen(rng)
        ct2 = other.encrypt(key2, small_group.random_g(rng), rng)
        from repro.errors import GroupError

        with pytest.raises(GroupError):
            ct * ct2


class TestWeightedProduct:
    """The fused multi-exponentiation form of the combine expression."""

    def test_matches_sequential_ops(self, hpske_g, small_group, rng):
        from repro.core.hpske import weighted_product

        key = hpske_g.keygen(rng)
        messages = [small_group.random_g(rng) for _ in range(5)]
        scalars = [small_group.random_scalar(rng) for _ in range(5)]
        cts = [hpske_g.encrypt(key, m, rng) for m in messages]
        fused = weighted_product(cts, scalars)
        sequential = cts[0] ** scalars[0]
        for ct, s in zip(cts[1:], scalars[1:]):
            sequential = sequential * (ct ** s)
        assert fused == sequential

    def test_division_folds_as_p_minus_one(self, hpske_g, small_group, rng):
        """An exponent of p - 1 is a division -- the combine steps'
        trailing ``/ d_Phi`` in fused form."""
        from repro.core.hpske import weighted_product

        p = small_group.p
        key = hpske_g.keygen(rng)
        c0 = hpske_g.encrypt(key, small_group.random_g(rng), rng)
        c1 = hpske_g.encrypt(key, small_group.random_g(rng), rng)
        assert weighted_product((c0, c1), (1, p - 1)) == c0 / c1

    def test_decrypts_to_weighted_message_product(self, hpske_g, small_group, rng):
        from repro.core.hpske import weighted_product

        key = hpske_g.keygen(rng)
        messages = [small_group.random_g(rng) for _ in range(4)]
        scalars = [small_group.random_scalar(rng) for _ in range(4)]
        cts = [hpske_g.encrypt(key, m, rng) for m in messages]
        combined = weighted_product(cts, scalars)
        expected = None
        for m, s in zip(messages, scalars):
            term = m ** s
            expected = term if expected is None else expected * term
        assert hpske_g.decrypt(key, combined) == expected

    def test_empty_rejected(self):
        from repro.core.hpske import weighted_product

        with pytest.raises(ParameterError):
            weighted_product((), ())

    def test_length_mismatch_rejected(self, hpske_g, small_group, rng):
        from repro.core.hpske import weighted_product

        key = hpske_g.keygen(rng)
        ct = hpske_g.encrypt(key, small_group.random_g(rng), rng)
        with pytest.raises(ParameterError):
            weighted_product((ct,), (1, 2))

    def test_width_mismatch_rejected(self, hpske_g, small_group, rng):
        from repro.core.hpske import weighted_product
        from repro.errors import GroupError

        key = hpske_g.keygen(rng)
        ct = hpske_g.encrypt(key, small_group.random_g(rng), rng)
        other = HPSKE(small_group, KAPPA + 1, "G")
        ct2 = other.encrypt(other.keygen(rng), small_group.random_g(rng), rng)
        with pytest.raises(GroupError):
            weighted_product((ct, ct2), (1, 1))

    def test_matches_reference_mode(self, hpske_gt, small_group, rng):
        from repro.core.hpske import weighted_product
        from repro.groups import fastops

        key = hpske_gt.keygen(rng)
        cts = [
            hpske_gt.encrypt(key, small_group.random_gt(rng), rng) for _ in range(6)
        ]
        scalars = [small_group.random_scalar(rng) for _ in range(6)]
        fast = weighted_product(cts, scalars)
        with fastops.reference_mode():
            reference = weighted_product(cts, scalars)
        assert fast == reference


class TestPairingTransport:
    def test_pair_with_transports_to_gt(self, small_group, rng):
        """The f_i -> d_i reuse (section 5.2 remark): a G-ciphertext of m
        paired with A is a GT-ciphertext of e(A, m) under the same key."""
        g_scheme = HPSKE(small_group, KAPPA, "G")
        gt_scheme = HPSKE(small_group, KAPPA, "GT")
        key = g_scheme.keygen(rng)
        m = small_group.random_g(rng)
        a_point = small_group.random_g(rng)
        transported = g_scheme.encrypt(key, m, rng).pair_with(
            small_group.pairing_precomp(a_point)
        )
        assert gt_scheme.decrypt(key, transported) == small_group.pair(a_point, m)

    def test_transport_preserves_homomorphism(self, small_group, rng):
        g_scheme = HPSKE(small_group, KAPPA, "G")
        gt_scheme = HPSKE(small_group, KAPPA, "GT")
        key = g_scheme.keygen(rng)
        m = small_group.random_g(rng)
        s = small_group.random_scalar(rng)
        a_point = small_group.random_g(rng)
        d = g_scheme.encrypt(key, m, rng).pair_with(
            small_group.pairing_precomp(a_point)
        )
        assert gt_scheme.decrypt(key, d ** s) == small_group.pair(a_point, m) ** s


class TestSizes:
    def test_ciphertext_bits(self, small_group):
        g_scheme = HPSKE(small_group, KAPPA, "G")
        assert g_scheme.ciphertext_bits() == (KAPPA + 1) * small_group.g_element_bits()

    def test_key_bits(self, small_group, rng):
        key = HPSKE(small_group, KAPPA, "G").keygen(rng)
        assert key.size_bits() == KAPPA * small_group.scalar_bits()

    def test_key_reduction(self, small_group):
        p = small_group.p
        key = HPSKEKey((p + 1, 2 * p + 5), p)
        assert key.sigma == (1, 5)


class TestResidualEntropy:
    def test_definition_5_1_part_2_toy(self, toy_group):
        """On a toy group: even given the ciphertext coins and kappa-1 of
        the kappa key scalars (heavy leakage), the plaintext's mask still
        takes many values -> residual entropy in the plaintext.

        This checks the *mechanism* behind Definition 5.1 part 2: the
        mask prod b_j^{sigma_j} depends on the unleaked key material.
        """
        rng = random.Random(1)
        scheme = HPSKE(toy_group, kappa=2, space="GT")
        message = toy_group.random_gt(rng)
        coins = scheme.sample_coins(rng)
        # Leak sigma_1 entirely; sigma_2 unknown. Count distinct possible
        # plaintexts consistent with the ciphertext body over sigma_2.
        sigma1 = 7
        bodies = set()
        for sigma2 in range(64):
            key = HPSKEKey((sigma1, sigma2), toy_group.p)
            ct = scheme.encrypt(key, message, coins=coins)
            bodies.add(ct.body)
        assert len(bodies) == 64  # each key guess -> distinct body
