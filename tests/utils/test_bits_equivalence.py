"""Integer-arithmetic BitString operations against bit-by-bit oracles.

Slicing, ``concat_all`` and the group-element encoders build their
results with shifts and masks.  The reference oracles below are the
straightforward bit-at-a-time (or piece-at-a-time) definitions; every
fast path must agree with them exactly, including on the edge cases
(empty, negative and clamped slice bounds, empty concatenations, the
identity point).
"""

import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.groups import preset_group
from repro.utils.bits import BitString, concat_all
from repro.utils.serialization import int_width

COMMON = dict(max_examples=150, deadline=None)

bitstrings = st.integers(min_value=0, max_value=200).flatmap(
    lambda n: st.builds(BitString, st.integers(min_value=0, max_value=(1 << n) - 1), st.just(n))
)
bounds = st.one_of(st.none(), st.integers(min_value=-260, max_value=260))


def reference_slice(bits: BitString, start, stop) -> BitString:
    """The bit-by-bit slice: one ``bit()`` call per kept position."""
    lo, hi, _ = slice(start, stop).indices(len(bits))
    return BitString.from_bits(bits.bit(i) for i in range(lo, hi))


def reference_concat_all(pieces) -> BitString:
    """A left fold of pairwise ``concat``."""
    return reduce(BitString.concat, pieces, BitString.empty())


class TestSliceEquivalence:
    @given(bits=bitstrings, start=bounds, stop=bounds)
    @settings(**COMMON)
    def test_every_slice_matches_the_bitwise_slice(self, bits, start, stop):
        assert bits[start:stop] == reference_slice(bits, start, stop)

    @given(bits=bitstrings, start=bounds, stop=bounds, step=st.sampled_from([1, None]))
    @settings(**COMMON)
    def test_explicit_unit_step_is_contiguous(self, bits, start, stop, step):
        assert bits[start:stop:step] == reference_slice(bits, start, stop)

    @given(bits=bitstrings, step=st.sampled_from([-1, 2, 3, -2]))
    @settings(**COMMON)
    def test_non_unit_step_raises(self, bits, step):
        with pytest.raises(ParameterError):
            bits[::step]

    def test_edge_cases(self):
        bits = BitString(0b1011_0010, 8)
        assert bits[3:3] == BitString.empty()
        assert bits[6:2] == BitString.empty()  # start > stop
        assert bits[-3:] == BitString(0b010, 3)
        assert bits[:-5] == BitString(0b101, 3)
        assert bits[-100:100] == bits  # clamped both ends
        assert bits[8:] == BitString.empty()
        assert BitString.empty()[0:5] == BitString.empty()
        assert bits[0:1] == BitString(1, 1)
        assert bits[7:8] == BitString(0, 1)

    def test_leading_zeros_are_kept(self):
        bits = BitString(1, 12)
        assert bits[0:11] == BitString(0, 11)
        assert len(bits[2:]) == 10


class TestConcatAllEquivalence:
    @given(pieces=st.lists(bitstrings, max_size=12))
    @settings(**COMMON)
    def test_matches_a_left_fold_of_concat(self, pieces):
        assert concat_all(pieces) == reference_concat_all(pieces)

    def test_empty_input(self):
        assert concat_all([]) == BitString.empty()
        assert concat_all(iter(())) == BitString.empty()

    def test_empty_pieces_keep_the_length(self):
        pieces = [BitString.empty(), BitString(0, 3), BitString.empty(), BitString(1, 2)]
        result = concat_all(pieces)
        assert result == reference_concat_all(pieces)
        assert len(result) == 5

    def test_accepts_a_generator(self):
        pieces = [BitString(i % 4, 2) for i in range(9)]
        assert concat_all(p for p in pieces) == reference_concat_all(pieces)


@pytest.fixture(scope="module", params=[16, 32])
def group(request):
    return preset_group(request.param)


def reference_g1_bits(element) -> BitString:
    """The three-piece encoding: infinity flag, x, parity of y."""
    q = element.group.params.q
    width = int_width(q)
    if element.point.is_infinity():
        return BitString(0, 1) + BitString(0, width) + BitString(0, 1)
    return (
        BitString(1, 1)
        + BitString(element.point.x % q, width)
        + BitString(element.point.y % 2, 1)
    )


def reference_gt_bits(element) -> BitString:
    """The two-piece encoding: both ``F_{q^2}`` coordinates."""
    width = int_width(element.group.params.q)
    return BitString(element.value.a, width) + BitString(element.value.b, width)


class TestElementEncodingEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_g1_matches_the_three_piece_concat(self, group, seed):
        element = group.random_g(random.Random(seed))
        for candidate in (element, element.inverse()):
            assert candidate.to_bits() == reference_g1_bits(candidate)

    def test_g1_identity(self, group):
        identity = group.g_identity()
        bits = identity.to_bits()
        assert bits == reference_g1_bits(identity)
        assert len(bits) == group.g_element_bits() and int(bits) == 0

    def test_g1_generator(self, group):
        assert group.g.to_bits() == reference_g1_bits(group.g)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_gt_matches_the_two_piece_concat(self, group, seed):
        element = group.random_gt(random.Random(seed))
        assert element.to_bits() == reference_gt_bits(element)

    def test_gt_identity_and_generator(self, group):
        for element in (group.gt_identity(), group.gt_generator()):
            assert element.to_bits() == reference_gt_bits(element)
            assert len(element.to_bits()) == group.gt_element_bits()
