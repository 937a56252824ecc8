"""Field arithmetic on plain ints: the contract and the two kernel sets.

Three layers of assurance:

1. **Canonical outputs** -- every value that leaves the field, curve,
   multiexp and pairing code is *exactly* ``int``, on the Python
   kernels and on the compiled ones (:mod:`repro.groups.native`), so
   stored and serialized forms never depend on which kernels ran.
2. **Cross-kernel equivalence** -- seeded algebra laws (fields, curve,
   multiexp, pairings, batch inversion) on each kernel set, each
   pinned bit-for-bit to the Python kernels.
3. **The contract of the plain functions** in :mod:`repro.math.modular`
   -- zero inverses raise, unitary ``F_{q^2}`` elements invert by
   conjugation -- and of the trusted constructors.
"""

import random

import pytest

from repro.errors import GroupError, ParameterError
from repro.groups import native, preset_group
from repro.groups.bilinear import G1Element, GTElement, OperationCounter
from repro.groups.curve import batch_to_affine, scalar_mul, scalar_mul_affine
from repro.groups.pairing import (
    PairingPrecomp,
    final_exponentiation,
    miller_loop_affine,
    tate_pairing,
)
from repro.math import modular
from repro.math.fields import Fq, Fq2
from tests.conftest import KERNEL_SETS, built_kernel_sets, kernel_set


def exact_int(value) -> bool:
    return type(value) is int


@pytest.fixture()
def rng():
    return random.Random(0xBACC)


# ---------------------------------------------------------------------------
# Canonical outputs: nothing but exact ints escapes, on either kernel set


class TestUnliftDiscipline:
    def test_fq_arithmetic_stays_canonical(self):
        a, b = Fq(1234567, 1000003), Fq(7654321, 1000003)
        for result in (a * b, a ** 977, a.inverse(), a / b):
            assert exact_int(result.value), result

    def test_fq2_arithmetic_stays_canonical(self):
        q = 1000003
        u, v = Fq2(123456, 654321, q), Fq2(31337, 271828, q)
        for result in (u * v, u.square(), u ** 12345, u.inverse(), u / v):
            assert exact_int(result.a) and exact_int(result.b), result

    def test_modular_helpers_stay_canonical(self):
        q = 1000003
        assert exact_int(modular.pow_mod(12345, 678, q))
        assert exact_int(modular.inv_mod(12345, q))
        assert exact_int(modular.mul_mod(12345, 678, q))
        inverses = modular.batch_inv([3, 5, 7, 11], q)
        assert all(exact_int(v) for v in inverses)
        for raw in (
            modular.fq2_mul((3, 4), (5, 6), q),
            modular.fq2_square((3, 4), q),
            modular.fq2_pow((3, 4), 99, q),
            modular.fq2_inverse((3, 4), q),
        ):
            assert exact_int(raw[0]) and exact_int(raw[1]), raw

    def test_curve_kernels_stay_canonical(self, small_group, rng):
        point = small_group.random_g(rng).point
        q, p = small_group.q, small_group.p
        for name in built_kernel_sets():
            with kernel_set(name):
                for result in (
                    scalar_mul(point, 123456789, q, p),
                    scalar_mul_affine(point, 123456789, q),
                ):
                    assert exact_int(result.x) and exact_int(result.y), (name, result)

    def test_multiexp_outputs_stay_canonical(self, small_group, rng):
        g_bases = [small_group.random_g(rng) for _ in range(9)]
        gt_bases = [small_group.random_gt(rng) for _ in range(9)]
        exponents = [rng.randrange(1, small_group.p) for _ in range(9)]
        for name in built_kernel_sets():
            with kernel_set(name):
                g_out = G1Element.multiexp(g_bases, exponents)
                gt_out = GTElement.multiexp(gt_bases, exponents)
            assert exact_int(g_out.point.x) and exact_int(g_out.point.y), name
            assert exact_int(gt_out.value.a) and exact_int(gt_out.value.b), name

    def test_pairing_outputs_stay_canonical(self, small_group, rng):
        left = small_group.random_g(rng).point
        right = small_group.random_g(rng).point
        params = small_group.params
        for name in built_kernel_sets():
            with kernel_set(name):
                for raw in (
                    miller_loop_affine(left, right, params),
                    final_exponentiation(miller_loop_affine(left, right, params), params),
                ):
                    assert exact_int(raw[0]) and exact_int(raw[1]), (name, raw)
                paired = tate_pairing(left, right, params)
                assert exact_int(paired.a) and exact_int(paired.b)
                precomp = PairingPrecomp(left, params)
                for dbl_coeffs, add_coeffs in precomp.steps:
                    for coeffs in (dbl_coeffs, add_coeffs):
                        if coeffs is not None:
                            assert exact_int(coeffs[0]) and exact_int(coeffs[1])
                via_precomp = precomp.pair_with(right)
                assert exact_int(via_precomp.a) and exact_int(via_precomp.b)
                assert via_precomp == paired
                lone = small_group.pair(
                    G1Element(small_group, left), G1Element(small_group, right)
                ).value
                assert exact_int(lone.a) and exact_int(lone.b)


# ---------------------------------------------------------------------------
# Cross-kernel equivalence: each kernel set agrees with the Python kernels


def _with_python(fn):
    with native._python_kernels():
        return fn()


@pytest.mark.parametrize("kernels", KERNEL_SETS)
class TestCrossBackendEquivalence:
    def test_fq_laws(self, small_group, rng, kernels):
        q = small_group.q
        with kernel_set(kernels):
            for _ in range(25):
                a = Fq(rng.randrange(1, q), q)
                b = Fq(rng.randrange(1, q), q)
                c = Fq(rng.randrange(1, q), q)
                assert (a * b) * c == a * (b * c)
                assert a * a.inverse() == Fq(1, q)
                k = rng.randrange(1, q)
                assert (a ** k).value == pow(a.value, k, q)
                assert a ** -2 == (a.inverse()) ** 2

    def test_fq2_laws(self, small_group, rng, kernels):
        q = small_group.q
        with kernel_set(kernels):
            for _ in range(25):
                u = Fq2(rng.randrange(q), rng.randrange(1, q), q)
                v = Fq2(rng.randrange(q), rng.randrange(1, q), q)
                w = Fq2(rng.randrange(q), rng.randrange(1, q), q)
                assert (u * v) * w == u * (v * w)
                assert u.square() == u * u
                assert u * u.inverse() == Fq2.one(q)
                assert u ** 5 == u * u * u * u * u
                assert (u * v).conjugate() == u.conjugate() * v.conjugate()

    def test_fq2_pow_matches_reference(self, small_group, rng, kernels):
        q = small_group.q
        u = Fq2(rng.randrange(q), rng.randrange(1, q), q)
        exponent = rng.randrange(1, q * q)
        expected = _with_python(lambda: u ** exponent)
        with kernel_set(kernels):
            assert u ** exponent == expected

    def test_scalar_mul_agrees(self, small_group, rng, kernels):
        point = small_group.random_g(rng).point
        scalar = rng.randrange(1, small_group.p)
        q, p = small_group.q, small_group.p
        expected = _with_python(lambda: scalar_mul(point, scalar, q, p))
        with kernel_set(kernels):
            assert scalar_mul(point, scalar, q, p) == expected
            assert scalar_mul_affine(point, scalar, q) == expected

    @pytest.mark.parametrize("terms", [2, 7, 40])
    def test_multiexp_agrees(self, small_group, rng, kernels, terms):
        g_bases = [small_group.random_g(rng) for _ in range(terms)]
        gt_bases = [small_group.random_gt(rng) for _ in range(terms)]
        exponents = [rng.randrange(1, small_group.p) for _ in range(terms)]
        g_expected = _with_python(lambda: G1Element.multiexp(g_bases, exponents))
        gt_expected = _with_python(lambda: GTElement.multiexp(gt_bases, exponents))
        with kernel_set(kernels):
            assert G1Element.multiexp(g_bases, exponents) == g_expected
            assert GTElement.multiexp(gt_bases, exponents) == gt_expected

    def test_pairing_agrees_and_is_bilinear(self, rng, kernels):
        """``group.pair`` -- a schedule of one on the compiled kernels,
        the affine loop on the Python ones -- equals the affine
        reference bit for bit, on the toy group, the word field (n=32)
        and ``mpz_t`` (n=64), with either argument at infinity, and
        counts one ``pairings`` and no ``pairings_precomp``."""
        for bits in (16, 32, 64):
            group = preset_group(bits)
            params = group.params
            a = rng.randrange(2, group.p)
            b = rng.randrange(2, group.p)
            g, identity = group.g, group.g_identity()
            expected = _with_python(lambda: group.pair(g ** a, g ** b))
            pairs = [(g ** a, g ** b), (g, g), (identity, g), (g, identity)]
            pairs += [(group.random_g(rng), group.random_g(rng)) for _ in range(3)]
            with kernel_set(kernels):
                paired = group.pair(g ** a, g ** b)
                assert paired == expected
                assert paired == group.pair(g, g) ** (a * b)
                for left, right in pairs:
                    before = group.counter.snapshot()
                    value = group.pair(left, right).value
                    moved = group.counter.diff(before)
                    assert (moved.pairings, moved.pairings_precomp) == (1, 0)
                    assert value == tate_pairing(left.point, right.point, params)
                    precomp = PairingPrecomp(left.point, params)
                    assert precomp.pair_with(right.point) == value, bits

    def test_batch_inv_agrees_and_reports_zero_index(
        self, small_group, rng, kernels
    ):
        q = small_group.q
        values = [rng.randrange(1, q) for _ in range(17)]
        expected = [pow(value, -1, q) for value in values]
        with kernel_set(kernels):
            result = modular.batch_inv(values, q)
            assert result == expected
            assert all(type(v) is int for v in result)
            assert modular.batch_inv([], q) == []
            with pytest.raises(ParameterError, match=r"index 2"):
                modular.batch_inv([3, 5, 2 * q, 7], q)
            assert modular.batch_inv([3, 0, 5], q, skip_zero=True) == [
                pow(3, -1, q), 0, pow(5, -1, q)
            ]

    def test_batch_to_affine_agrees(self, small_group, rng, kernels):
        q = small_group.q
        jacobians = []
        for _ in range(6):
            point = small_group.random_g(rng).point
            z = rng.randrange(2, q)
            jacobians.append(
                (point.x * z * z % q, point.y * z * z * z % q, z)
            )
        expected = _with_python(lambda: batch_to_affine(jacobians, q))
        with kernel_set(kernels):
            affine = batch_to_affine(jacobians, q)
            assert affine == expected
            for point in affine:
                assert type(point.x) is int and type(point.y) is int


# ---------------------------------------------------------------------------
# Trusted constructors (skip re-reduction, keep invariants)


class TestTrustedConstructors:
    def test_from_reduced_skips_reduction(self):
        # Deliberately out-of-range input: the trusted constructor must
        # store it verbatim (callers guarantee canonicity; the public
        # constructor is the one that reduces).
        element = Fq._from_reduced(7, 5)
        assert element.value == 7
        assert Fq(7, 5).value == 2

    def test_fq2_from_reduced_skips_validation(self):
        # q = 5 is 1 mod 4: the public constructor rejects it, the
        # trusted one (used only with pre-validated group parameters)
        # does not re-check.
        with pytest.raises(ParameterError):
            Fq2(1, 2, 5)
        element = Fq2._from_reduced(1, 2, 5)
        assert (element.a, element.b) == (1, 2)

    def test_public_and_trusted_agree_on_canonical_input(self):
        q = 1000003
        assert Fq._from_reduced(123, q) == Fq(123, q)
        assert Fq2._from_reduced(12, 34, q) == Fq2(12, 34, q)


# ---------------------------------------------------------------------------
# The contract of the plain functions in repro.math.modular


class TestBackendContract:
    def test_inv_mod_zero_raises(self):
        with pytest.raises(ParameterError, match="not invertible"):
            modular.inv_mod(0, 97)
        with pytest.raises(ParameterError, match="not invertible"):
            modular.inv_mod(97 * 3, 97)

    def test_fq2_inverse_zero_raises(self):
        with pytest.raises(ParameterError, match="not invertible"):
            modular.fq2_inverse((0, 0), 97)
        with pytest.raises(ParameterError, match="not invertible"):
            modular.fq2_inverse((97, 2 * 97), 97)

    def test_fq2_element_inverse_keeps_group_error(self):
        with pytest.raises(GroupError, match="not invertible"):
            Fq2.zero(1000003).inverse()

    def test_fq2_unitary_inverse_is_conjugation(self, small_group, rng):
        """Norm-1 elements (the whole pairing subgroup) invert by
        conjugation; others take one modular inversion of the norm."""
        unit = small_group.random_gt(rng).value
        q = unit.q
        assert unit.norm() == 1
        assert modular.fq2_inverse((unit.a, unit.b), q) == (unit.a, (-unit.b) % q)
        u = (3, 4)
        inverse = modular.fq2_inverse(u, q)
        assert modular.fq2_mul(u, inverse, q) == (1, 0)
        assert modular.fq2_pow(u, -5, q) == modular.fq2_pow(inverse, 5, q)


# ---------------------------------------------------------------------------
# OperationCounter: one weight table, no backend tag


class TestCounterBackendTag:
    def test_backend_tag_excluded_from_counts(self):
        counter = OperationCounter()
        counter.g_exp += 3
        as_dict = counter.as_dict()
        assert "backend" not in as_dict
        assert "backend" not in OperationCounter.__dataclass_fields__
        assert as_dict["g_exp"] == 3

    def test_total_cost_overrides_still_win(self):
        counter = OperationCounter()
        counter.pairings += 2
        assert counter.total_cost(weights={"pairings": 100.0}) == 200.0
