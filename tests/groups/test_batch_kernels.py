"""Equivalence suite for the amortized batch kernels.

``batch_multiexp_points`` runs a vector of multiexp instances in
lockstep affine coordinates (one Montgomery-trick inversion per round)
and ``batch_multiexp_fq2`` shares one window decision; ``evaluate_many`` /
``pair_many`` serve a vector of right points from one cached Miller
schedule.  All of them are *pure reorganizations*: every output must be
bit-identical to the sequential loop they replace and to the naive
per-term ladder, on both kernel sets (Python and compiled), from one
term up to 67.
"""

import random

import pytest

from repro.groups import fastops, preset_group
from repro.groups.bilinear import G1Element, GTElement
from repro.groups.pairing import PairingPrecomp
from tests.conftest import KERNEL_SETS, kernel_set

#: Instance sizes one shared window must serve: single-term, small, and
#: larger than any scheme period produces.
SIZES = [1, 2, 5, 63, 64, 67]


@pytest.fixture()
def rng():
    return random.Random(0xBA7C4)


def _g1_instances(group, rng, sizes):
    return [
        (
            tuple(group.random_g(rng) for _ in range(size)),
            tuple(rng.randrange(1, group.p) for _ in range(size)),
        )
        for size in sizes
    ]


def _gt_instances(group, rng, sizes):
    return [
        (
            tuple(group.random_gt(rng) for _ in range(size)),
            tuple(rng.randrange(1, group.p) for _ in range(size)),
        )
        for size in sizes
    ]


class TestMultiexpBatchEquivalence:
    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    def test_g1_matches_sequential(self, small_group, rng, kernels):
        with kernel_set(kernels):
            instances = _g1_instances(small_group, rng, SIZES)
            batched = G1Element.multiexp_batch(instances)
            sequential = [
                G1Element.multiexp(bases, exponents) for bases, exponents in instances
            ]
        with fastops.reference_mode():
            naive = [
                G1Element.multiexp(bases, exponents) for bases, exponents in instances
            ]
        assert batched == sequential == naive

    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    def test_gt_matches_sequential(self, small_group, rng, kernels):
        with kernel_set(kernels):
            instances = _gt_instances(small_group, rng, SIZES)
            batched = GTElement.multiexp_batch(instances)
            sequential = [
                GTElement.multiexp(bases, exponents) for bases, exponents in instances
            ]
        with fastops.reference_mode():
            naive = [
                GTElement.multiexp(bases, exponents) for bases, exponents in instances
            ]
        assert batched == sequential == naive

    def test_empty_batch(self):
        assert G1Element.multiexp_batch([]) == []
        assert GTElement.multiexp_batch([]) == []

    def test_empty_instance_raises_like_sequential(self, small_group, rng):
        from repro.errors import GroupError

        good = _g1_instances(small_group, rng, [3])
        with pytest.raises(GroupError):
            G1Element.multiexp_batch([good[0], ((), ())])

    def test_batch_of_one(self, small_group, rng):
        instances = _g1_instances(small_group, rng, [7])
        [result] = G1Element.multiexp_batch(instances)
        assert result == G1Element.multiexp(*instances[0])

    def test_reference_mode_matches(self, small_group, rng):
        instances = _g1_instances(small_group, rng, [3, 9])
        fast = G1Element.multiexp_batch(instances)
        with fastops.reference_mode():
            reference = G1Element.multiexp_batch(instances)
        assert fast == reference

    def test_counter_totals_match_sequential(self, small_group, rng):
        """The batch kernel must book the same folded-term totals as the
        per-instance loop, or the BENCH_ops baselines drift."""
        instances = _g1_instances(small_group, rng, [2, 5, 64])
        small_group.counter.reset()
        G1Element.multiexp_batch(instances)
        batched = small_group.counter.as_dict()
        small_group.counter.reset()
        for bases, exponents in instances:
            G1Element.multiexp(bases, exponents)
        sequential = small_group.counter.as_dict()
        small_group.counter.reset()
        assert batched == sequential


class TestEvaluateManyEquivalence:
    def _schedule(self, group, rng):
        left = group.random_g(rng).point
        return PairingPrecomp(left, group.params)

    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    def test_matches_pair_with_loop(self, small_group, rng, kernels):
        with kernel_set(kernels):
            precomp = self._schedule(small_group, rng)
            rights = [small_group.random_g(rng).point for _ in range(9)]
            many = precomp.pair_with_many(rights)
            loop = [precomp.pair_with(right) for right in rights]
        assert many == loop

    def test_empty_and_single(self, small_group, rng):
        precomp = self._schedule(small_group, rng)
        assert precomp.pair_with_many([]) == []
        right = small_group.random_g(rng).point
        assert precomp.pair_with_many([right]) == [precomp.pair_with(right)]

    def test_infinity_entries_pass_through(self, small_group, rng):
        from repro.groups.curve import INFINITY

        precomp = self._schedule(small_group, rng)
        rights = [
            small_group.random_g(rng).point,
            INFINITY,
            small_group.random_g(rng).point,
        ]
        many = precomp.pair_with_many(rights)
        assert many == [precomp.pair_with(right) for right in rights]

    def test_pair_many_handle_matches_and_counts(self, small_group, rng):
        left = small_group.random_g(rng)
        rights = [small_group.random_g(rng) for _ in range(6)]
        handle = small_group.pairing_precomp(left)
        small_group.counter.reset()
        many = handle.pair_many(rights)
        counted = small_group.counter.pairings_precomp
        small_group.counter.reset()
        loop = [small_group.pairing_precomp(left).pair(right) for right in rights]
        assert many == loop
        assert counted == len(rights)

    def test_pair_many_reference_mode_matches(self, small_group, rng):
        left = small_group.random_g(rng)
        rights = [small_group.random_g(rng) for _ in range(4)]
        fast = small_group.pairing_precomp(left).pair_many(rights)
        with fastops.reference_mode():
            reference = small_group.pairing_precomp(left).pair_many(rights)
        assert fast == reference

