"""Property tests for the fast group-arithmetic kernels.

Every kernel is pinned against the naive reference it replaces:
``multiexp`` against the per-term product of powers, the precomputed
pairing schedule against :func:`~repro.groups.pairing.tate_pairing`, the
projective Miller loop against the affine one.  The kernels must be
*invisible* -- bit-identical values, and the only observable difference
the operation-counter profile.
"""

import random

import pytest

from repro.errors import GroupError
from repro.groups import fastops, preset_group
from repro.groups.bilinear import G1Element, GTElement
from repro.groups.pairing import (
    PairingPrecomp,
    final_exponentiation,
    miller_loop,
    miller_loop_affine,
    tate_pairing,
)


def naive_product(bases, exponents):
    result = None
    for base, exponent in zip(bases, exponents):
        term = base ** exponent
        result = term if result is None else result * term
    return result


@pytest.fixture()
def rng():
    return random.Random(0xFA57)


# ---------------------------------------------------------------------------
# multiexp == naive product of powers


class TestMultiexpMatchesNaive:
    @pytest.mark.parametrize("terms", [1, 2, 3, 7, 26, 64, 130])
    def test_g1(self, small_group, rng, terms):
        bases = [small_group.random_g(rng) for _ in range(terms)]
        exponents = [rng.randrange(1, small_group.p) for _ in range(terms)]
        assert G1Element.multiexp(bases, exponents) == naive_product(bases, exponents)

    @pytest.mark.parametrize("terms", [1, 2, 3, 7, 26, 64, 130])
    def test_gt(self, small_group, rng, terms):
        bases = [small_group.random_gt(rng) for _ in range(terms)]
        exponents = [rng.randrange(1, small_group.p) for _ in range(terms)]
        assert GTElement.multiexp(bases, exponents) == naive_product(bases, exponents)

    def test_matches_reference_mode(self, small_group, rng):
        """The fast path and the reference path agree on identical inputs."""
        bases = [small_group.random_g(rng) for _ in range(9)]
        exponents = [rng.randrange(1, small_group.p) for _ in range(9)]
        fast = G1Element.multiexp(bases, exponents)
        with fastops.reference_mode():
            reference = G1Element.multiexp(bases, exponents)
        assert fast == reference

    def test_small_exponents(self, small_group, rng):
        bases = [small_group.random_g(rng) for _ in range(6)]
        exponents = [1, 2, 3, 1, 5, 8]
        assert G1Element.multiexp(bases, exponents) == naive_product(bases, exponents)

    def test_group_dispatch(self, small_group, rng):
        g_bases = [small_group.random_g(rng) for _ in range(4)]
        gt_bases = [small_group.random_gt(rng) for _ in range(4)]
        exponents = [rng.randrange(1, small_group.p) for _ in range(4)]
        assert small_group.multiexp(g_bases, exponents) == naive_product(
            g_bases, exponents
        )
        assert small_group.multiexp(gt_bases, exponents) == naive_product(
            gt_bases, exponents
        )


class TestMultiexpEdgeCases:
    def test_no_bases_raises(self, small_group):
        with pytest.raises(GroupError):
            G1Element.multiexp([], [])
        with pytest.raises(GroupError):
            small_group.multiexp([], [])

    def test_length_mismatch_raises(self, small_group, rng):
        bases = [small_group.random_g(rng) for _ in range(3)]
        with pytest.raises(GroupError):
            G1Element.multiexp(bases, [1, 2])

    def test_zero_exponents_dropped(self, small_group, rng):
        bases = [small_group.random_g(rng) for _ in range(5)]
        exponents = [0, 7, 0, 11, 0]
        assert G1Element.multiexp(bases, exponents) == bases[1] ** 7 * bases[3] ** 11

    def test_identity_bases_dropped(self, small_group, rng):
        u = small_group.random_g(rng)
        bases = [small_group.g_identity(), u, small_group.g_identity()]
        assert G1Element.multiexp(bases, [3, 5, 9]) == u ** 5

    def test_all_trivial_terms_give_identity(self, small_group, rng):
        bases = [small_group.g_identity(), small_group.random_g(rng)]
        assert G1Element.multiexp(bases, [4, 0]) == small_group.g_identity()
        gt_bases = [small_group.gt_identity()]
        assert GTElement.multiexp(gt_bases, [12]) == small_group.gt_identity()

    def test_exponents_fold_mod_p(self, small_group, rng):
        """Order-p subgroup: e and e mod p give the same element, so the
        division-folding trick (exponent p - s) is sound."""
        p = small_group.p
        u, v = small_group.random_g(rng), small_group.random_g(rng)
        s = rng.randrange(1, p)
        assert G1Element.multiexp([u, v], [p + 3, 2 * p + s]) == u ** 3 * v ** s
        # x ** (p - s) == x ** -s: the folded form of a division.
        assert G1Element.multiexp([u, v], [1, p - s]) == u / v ** s


class TestKernelAgreement:
    """The fast kernels agree with the naive per-term ladder."""

    def test_large_term_counts_match_naive(self, small_group, rng):
        """Term counts above any scheme period's agree with naive."""
        for terms in (63, 64):
            bases = [small_group.random_g(rng) for _ in range(terms)]
            exponents = [rng.randrange(1, small_group.p) for _ in range(terms)]
            assert G1Element.multiexp(bases, exponents) == naive_product(
                bases, exponents
            )
            gt_bases = [small_group.random_gt(rng) for _ in range(terms)]
            assert GTElement.multiexp(gt_bases, exponents) == naive_product(
                gt_bases, exponents
            )


# ---------------------------------------------------------------------------
# Fixed-argument pairing precomputation


class TestPairingPrecomp:
    def test_matches_tate_pairing(self, small_group, rng):
        left = small_group.random_g(rng).point
        precomp = PairingPrecomp(left, small_group.params)
        for _ in range(10):
            right = small_group.random_g(rng).point
            assert precomp.pair_with(right) == tate_pairing(
                left, right, small_group.params
            )

    def test_element_handle_matches_group_pair(self, small_group, rng):
        left = small_group.random_g(rng)
        handle = small_group.pairing_precomp(left)
        for _ in range(5):
            right = small_group.random_g(rng)
            assert handle.pair(right) == small_group.pair(left, right)

    def test_infinity_left(self, small_group, rng):
        left = small_group.g_identity()
        handle = small_group.pairing_precomp(left)
        right = small_group.random_g(rng)
        assert handle.pair(right) == small_group.gt_identity()

    def test_infinity_right(self, small_group, rng):
        left = small_group.random_g(rng)
        handle = small_group.pairing_precomp(left)
        assert handle.pair(small_group.g_identity()) == small_group.gt_identity()

    def test_reference_mode_same_values(self, small_group, rng):
        left = small_group.random_g(rng)
        right = small_group.random_g(rng)
        fast = small_group.pairing_precomp(left).pair(right)
        with fastops.reference_mode():
            reference = small_group.pairing_precomp(left).pair(right)
        assert fast == reference

    def test_bilinearity_through_schedule(self, small_group, rng):
        """e(P, aQ + bR) == e(P,Q)^a * e(P,R)^b through the cached lines."""
        u = small_group.random_g(rng)
        v, w = small_group.random_g(rng), small_group.random_g(rng)
        a, b = rng.randrange(1, small_group.p), rng.randrange(1, small_group.p)
        handle = small_group.pairing_precomp(u)
        assert handle.pair(v ** a * w ** b) == handle.pair(v) ** a * handle.pair(w) ** b


class TestMillerLoop:
    def test_projective_matches_affine(self, small_group, rng):
        """The inversion-free loop differs from the affine one only by
        F_q factors, which the final exponentiation kills."""
        params = small_group.params
        for _ in range(8):
            left = small_group.random_g(rng).point
            right = small_group.random_g(rng).point
            projective = final_exponentiation(miller_loop(left, right, params), params)
            affine = final_exponentiation(
                miller_loop_affine(left, right, params), params
            )
            assert projective == affine


# ---------------------------------------------------------------------------
# Counter contract


class TestCounterContract:
    def test_fast_multiexp_counts_terms(self, rng):
        group = preset_group(32)
        bases = [group.random_g(rng) for _ in range(6)]
        exponents = [rng.randrange(1, group.p) for _ in range(6)]
        before = group.counter.snapshot()
        G1Element.multiexp(bases, exponents)
        moved = group.counter.diff(before)
        assert moved.g_multiexp == 6
        assert moved.g_exp == 0

    def test_trivial_terms_not_counted(self, rng):
        group = preset_group(32)
        bases = [group.g_identity()] + [group.random_g(rng) for _ in range(3)]
        before = group.counter.snapshot()
        G1Element.multiexp(bases, [5, 9, 0, 7])
        moved = group.counter.diff(before)
        assert moved.g_multiexp == 2  # only the two real terms

    def test_single_surviving_term_uses_plain_exp(self, rng):
        """A one-term multiexp degenerates to ``**`` (classic profile)."""
        group = preset_group(32)
        bases = [group.g_identity(), group.random_g(rng)]
        before = group.counter.snapshot()
        G1Element.multiexp(bases, [5, 7])
        moved = group.counter.diff(before)
        assert moved.g_multiexp == 0
        assert moved.g_exp == 1

    def test_reference_mode_counts_classic_profile(self, rng):
        group = preset_group(32)
        bases = [group.random_g(rng) for _ in range(6)]
        exponents = [rng.randrange(1, group.p) for _ in range(6)]
        before = group.counter.snapshot()
        with fastops.reference_mode():
            G1Element.multiexp(bases, exponents)
        moved = group.counter.diff(before)
        assert moved.g_multiexp == 0
        assert moved.g_exp == 6
        assert moved.g_mul == 5

    def test_precomp_counter(self, rng):
        group = preset_group(32)
        handle = group.pairing_precomp(group.random_g(rng))
        right = group.random_g(rng)
        before = group.counter.snapshot()
        handle.pair(right)
        moved = group.counter.diff(before)
        assert moved.pairings_precomp == 1
        assert moved.pairings == 0

    def test_precomp_counter_reference_mode(self, rng):
        group = preset_group(32)
        right = group.random_g(rng)
        with fastops.reference_mode():
            handle = group.pairing_precomp(group.random_g(rng))
            before = group.counter.snapshot()
            handle.pair(right)
        moved = group.counter.diff(before)
        assert moved.pairings == 1
        assert moved.pairings_precomp == 0

    def test_reference_mode_restores_flag(self):
        assert fastops.enabled()
        with fastops.reference_mode():
            assert not fastops.enabled()
            with fastops.reference_mode():
                assert not fastops.enabled()
            assert not fastops.enabled()
        assert fastops.enabled()
