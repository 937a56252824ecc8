"""Unit tests for group-element decoding (the persistence substrate)."""

import random

import pytest

from repro.errors import GroupError
from repro.groups.curve import Point
from repro.groups.encoding import (
    decode_g1,
    decode_g1_batch,
    decode_gt,
    g1_roundtrip,
    gt_roundtrip,
)
from repro.utils.bits import BitString
from repro.utils.serialization import int_width


class TestG1Decoding:
    def test_roundtrip_random_points(self, small_group, rng):
        for _ in range(10):
            element = small_group.random_g(rng)
            assert g1_roundtrip(small_group, element) == element

    def test_roundtrip_identity(self, small_group):
        identity = small_group.g_identity()
        assert g1_roundtrip(small_group, identity) == identity

    def test_roundtrip_both_parities(self, small_group, rng):
        element = small_group.random_g(rng)
        assert g1_roundtrip(small_group, element.inverse()) == element.inverse()

    def test_wrong_length_rejected(self, small_group):
        with pytest.raises(GroupError):
            decode_g1(small_group, BitString(0, 5))

    def test_garbage_x_rejected(self, small_group):
        """An x off the curve must be refused."""
        width = int_width(small_group.params.q)
        rejected = 0
        for x in range(40):
            bits = BitString(1, 1) + BitString(x, width) + BitString(0, 1)
            try:
                decode_g1(small_group, bits)
            except GroupError:
                rejected += 1
        # About half of all x are non-residues, plus subgroup checks.
        assert rejected > 10

    def test_out_of_field_x_rejected(self, small_group):
        width = int_width(small_group.params.q)
        bits = BitString(1, 1) + BitString((1 << width) - 1, width) + BitString(0, 1)
        with pytest.raises(GroupError):
            decode_g1(small_group, bits)

    def test_malformed_identity_rejected(self, small_group):
        width = int_width(small_group.params.q)
        bits = BitString(0, 1) + BitString(7, width) + BitString(1, 1)
        with pytest.raises(GroupError):
            decode_g1(small_group, bits)

    def test_wrong_subgroup_rejected(self, small_group, rng):
        """A curve point outside the order-p subgroup must be refused."""
        from repro.groups.curve import Point
        from repro.math.modular import is_quadratic_residue, sqrt_mod

        params = small_group.params
        q = params.q
        width = int_width(q)
        # Find a point NOT in the subgroup: random curve point without
        # cofactor clearing, checked to have full-ish order.
        import random as _random

        search = _random.Random(1)
        from repro.groups import curve as curve_mod

        while True:
            x = search.randrange(q)
            rhs = (x * x * x + x) % q
            if rhs and is_quadratic_residue(rhs, q):
                y = sqrt_mod(rhs, q)
                point = Point(x, y, False)
                if not curve_mod.scalar_mul(point, params.p, q).is_infinity():
                    break
        bits = BitString(1, 1) + BitString(x, width) + BitString(y % 2, 1)
        with pytest.raises(GroupError):
            decode_g1(small_group, bits)


class TestGTDecoding:
    def test_roundtrip(self, small_group, rng):
        for _ in range(10):
            element = small_group.random_gt(rng)
            assert gt_roundtrip(small_group, element) == element

    def test_roundtrip_pairing_output(self, small_group, rng):
        element = small_group.pair(small_group.random_g(rng), small_group.g)
        assert gt_roundtrip(small_group, element) == element

    def test_roundtrip_identity(self, small_group):
        identity = small_group.gt_identity()
        assert gt_roundtrip(small_group, identity) == identity

    def test_wrong_length_rejected(self, small_group):
        with pytest.raises(GroupError):
            decode_gt(small_group, BitString(0, 3))

    def test_zero_rejected(self, small_group):
        width = int_width(small_group.params.q)
        with pytest.raises(GroupError):
            decode_gt(small_group, BitString(0, 2 * width))

    def test_wrong_subgroup_rejected(self, small_group):
        """A random field element is (whp) not in the mu_p subgroup."""
        width = int_width(small_group.params.q)
        bits = BitString(2, width) + BitString(3, width)
        with pytest.raises(GroupError):
            decode_gt(small_group, bits)

    def test_out_of_field_rejected(self, small_group):
        width = int_width(small_group.params.q)
        bits = BitString((1 << width) - 1, width) + BitString(0, width)
        with pytest.raises(GroupError):
            decode_gt(small_group, bits)


def _g1_bits(x: int, parity: int, width: int) -> BitString:
    return BitString(1, 1) + BitString(x, width) + BitString(parity, 1)


class TestG1DecodeRejections:
    """Each rejection path of ``decode_g1`` after the one-exponentiation
    square root."""

    def test_non_abscissa_x(self, small_group):
        from repro.math.modular import legendre_symbol

        q = small_group.params.q
        width = int_width(q)
        non_abscissas = [
            x for x in range(1, 200) if legendre_symbol(x * x * x + x, q) == -1
        ]
        assert len(non_abscissas) > 50
        for x in non_abscissas:
            for parity in (0, 1):
                with pytest.raises(GroupError, match="not the abscissa"):
                    decode_g1(small_group, _g1_bits(x, parity, width))

    def test_x_at_or_above_q(self, small_group):
        q = small_group.params.q
        width = int_width(q)
        for x in (q, q + 1, (1 << width) - 1):
            with pytest.raises(GroupError, match="out of field range"):
                decode_g1(small_group, _g1_bits(x, 0, width))

    def test_two_torsion(self, small_group):
        """x = 0 is the only root of x^3 + x for q = 3 (mod 4)."""
        width = int_width(small_group.params.q)
        for parity in (0, 1):
            with pytest.raises(GroupError, match="2-torsion"):
                decode_g1(small_group, _g1_bits(0, parity, width))

    def test_wrong_subgroup_only_with_the_check(self, small_group):
        """Curve points outside the order-p subgroup pass every other
        check, so the subgroup check alone rejects them."""
        from repro.groups import curve as curve_mod
        from repro.math.modular import sqrt_mod_or_none

        params = small_group.params
        q = params.q
        width = int_width(q)
        found = 0
        for x in range(1, 400):
            y = sqrt_mod_or_none((x * x * x + x) % q, q)
            if y is None:
                continue
            point = Point(x, y, False)
            if curve_mod.scalar_mul(point, params.p, q).is_infinity():
                continue
            assert curve_mod.is_on_curve(point, q)
            with pytest.raises(GroupError, match="order-p subgroup"):
                decode_g1(small_group, _g1_bits(x, y % 2, width))
            found += 1
        assert found > 10

    def test_parity_selects_the_root(self, small_group, rng):
        for _ in range(10):
            element = small_group.random_g(rng)
            for candidate in (element, element.inverse()):
                assert decode_g1(small_group, candidate.to_bits()) == candidate


def _bad_encodings(group) -> dict[str, BitString]:
    """One encoding per rejection path of ``decode_g1``."""
    from repro.groups import curve as curve_mod
    from repro.math.modular import sqrt_mod_or_none

    q = group.params.q
    width = int_width(q)
    bad = {
        "wrong length": BitString(0, width),
        "malformed identity": BitString(0, 1) + BitString(7, width) + BitString(1, 1),
        "out of field": _g1_bits(q, 0, width),
        "2-torsion": _g1_bits(0, 1, width),
    }
    for x in range(1, 400):
        y = sqrt_mod_or_none((x * x * x + x) % q, q)
        if y is None:
            bad.setdefault("off the curve", _g1_bits(x, 0, width))
        elif not curve_mod.scalar_mul(Point(x, y, False), group.params.p, q).is_infinity():
            bad.setdefault("wrong subgroup", _g1_bits(x, y % 2, width))
    assert len(bad) == 6
    return bad


@pytest.fixture(params=["native", "python"])
def kernel_set(request):
    """Run the test on each kernel set the host has."""
    from repro.groups import native

    if request.param == "python":
        with native._python_kernels():
            yield request.param
        return
    if native.kernels() is None:
        pytest.skip("the native kernels cannot be built here")
    yield request.param


class TestG1DecodeBatch:
    def test_matches_decode_g1_one_by_one(self, small_group, rng, kernel_set):
        elements = [small_group.random_g(rng) for _ in range(12)]
        elements[3] = small_group.g_identity()
        elements.append(elements[0].inverse())
        encodings = [element.to_bits() for element in elements]
        assert decode_g1_batch(small_group, encodings) == elements
        assert decode_g1_batch(small_group, encodings) == [
            decode_g1(small_group, bits) for bits in encodings
        ]
        assert decode_g1_batch(small_group, []) == []

    @pytest.mark.parametrize("kind", [
        "wrong length", "malformed identity", "out of field", "2-torsion",
        "off the curve", "wrong subgroup",
    ])
    @pytest.mark.parametrize("position", [0, 4, 8])
    def test_a_bad_encoding_anywhere_raises_decode_g1s_error(
        self, small_group, kind, position, kernel_set
    ):
        bad = _bad_encodings(small_group)[kind]
        with pytest.raises(GroupError) as lone:
            decode_g1(small_group, bad)
        search = random.Random(position)
        encodings = [small_group.random_g(search).to_bits() for _ in range(9)]
        encodings[position] = bad
        with pytest.raises(GroupError) as batched:
            decode_g1_batch(small_group, encodings)
        assert str(batched.value) == str(lone.value)

    def test_load_share1_round_trips(self, small_group, rng, kernel_set):
        from repro.core.keys import Share1
        from repro.utils import persist

        share = Share1(
            a=tuple(small_group.random_g(rng) for _ in range(21)),
            phi=small_group.random_g(rng),
        )
        assert persist.load_share1(small_group, persist.dump_share1(share)) == share
