"""Unit tests for the BilinearGroup element API and operation counters."""

import contextlib
import random

import pytest

from repro.errors import GroupError
from repro.groups import bilinear, fastops, native, preset_group


class TestG1Element:
    def test_group_law(self, small_group, rng):
        a, b = small_group.random_g(rng), small_group.random_g(rng)
        assert a * b == b * a
        assert (a * b) / b == a

    def test_identity(self, small_group, rng):
        e = small_group.g_identity()
        a = small_group.random_g(rng)
        assert a * e == a
        assert e.is_identity()

    def test_pow_zero_is_identity(self, small_group, rng):
        a = small_group.random_g(rng)
        assert (a ** 0).is_identity()

    def test_pow_negative_is_inverse_pow(self, small_group, rng):
        a = small_group.random_g(rng)
        assert a ** -1 == a.inverse()
        assert a ** -3 == (a ** 3).inverse()

    def test_pow_reduced_mod_p(self, small_group, rng):
        a = small_group.random_g(rng)
        k = rng.randrange(small_group.p)
        assert a ** (k + small_group.p) == a ** k

    def test_order_p(self, small_group, rng):
        a = small_group.random_g(rng)
        assert (a ** small_group.p).is_identity()

    def test_hashable_consistent_with_eq(self, small_group, rng):
        a = small_group.random_g(rng)
        b = a ** 1
        assert a == b
        assert hash(a) == hash(b)

    def test_cross_group_rejected(self, small_group, toy_group, rng):
        a = small_group.random_g(rng)
        b = toy_group.random_g(rng)
        with pytest.raises(GroupError):
            a * b


class TestGTElement:
    def test_group_law(self, small_group, rng):
        a, b = small_group.random_gt(rng), small_group.random_gt(rng)
        assert a * b == b * a
        assert (a * b) / b == a

    def test_inverse(self, small_group, rng):
        a = small_group.random_gt(rng)
        assert (a * a.inverse()).is_identity()

    def test_pow(self, small_group, rng):
        a = small_group.random_gt(rng)
        assert a ** 2 == a * a
        assert a ** -1 == a.inverse()

    def test_order_p(self, small_group, rng):
        a = small_group.random_gt(rng)
        assert (a ** small_group.p).is_identity()

    def test_gt_generator_cached(self, small_group):
        assert small_group.gt_generator() is small_group.gt_generator()

    def test_gt_generator_is_pairing(self, small_group):
        assert small_group.gt_generator() == small_group.pair(small_group.g, small_group.g)


class TestCounters:
    def test_pairing_counted(self, small_group, rng):
        before = small_group.counter.snapshot()
        small_group.pair(small_group.g, small_group.g)
        delta = small_group.counter.diff(before)
        assert delta.pairings == 1
        assert delta.pairings_precomp == 0

    def test_exponentiation_counted(self, small_group, rng):
        before = small_group.counter.snapshot()
        _ = small_group.g ** 5
        _ = small_group.gt_generator() ** 3
        delta = small_group.counter.diff(before)
        assert delta.g_exp == 1
        assert delta.gt_exp == 1

    def test_multiplication_counted(self, small_group, rng):
        a, b = small_group.random_g(rng), small_group.random_g(rng)
        before = small_group.counter.snapshot()
        _ = a * b
        delta = small_group.counter.diff(before)
        assert delta.g_mul == 1

    def test_reset(self):
        group = preset_group(16)
        group.pair(group.g, group.g)
        group.counter.reset()
        assert group.counter.pairings == 0

    def test_exponentiations_property(self, small_group, rng):
        before = small_group.counter.snapshot()
        _ = small_group.g ** 2
        _ = small_group.g ** 3
        delta = small_group.counter.diff(before)
        assert delta.exponentiations == 2


class TestDeterminism:
    def test_preset_group_generator_stable(self):
        a = preset_group(16)
        from repro.groups.bilinear import BilinearGroup

        b = BilinearGroup(a.params)
        assert a.g == b.g

    def test_scalar_bits(self, small_group):
        assert small_group.scalar_bits() == small_group.params.p.bit_length()

    def test_random_scalar_in_range(self, small_group, rng):
        for _ in range(10):
            assert 0 <= small_group.random_scalar(rng) < small_group.p


class TestLonePairingPath:
    @pytest.mark.parametrize(
        "path, context",
        [
            ("native", contextlib.nullcontext),
            ("python", native._python_kernels),
            ("reference", fastops.reference_mode),
        ],
    )
    def test_reference_loop_runs_only_without_the_kernels(
        self, small_group, monkeypatch, path, context
    ):
        """``group.pair`` runs a schedule of one on the compiled kernels
        and the affine reference loop on the Python kernels or inside
        ``reference_mode()``; the value is the same on every path."""
        if path == "native" and native.kernels() is None:
            pytest.skip("the native kernels cannot be built here")
        expected = small_group.pair(small_group.g, small_group.g)
        calls = []
        reference = bilinear.tate_pairing
        monkeypatch.setattr(
            bilinear, "tate_pairing", lambda *args: calls.append(args) or reference(*args)
        )
        with context():
            assert small_group.pair(small_group.g, small_group.g) == expected
        assert len(calls) == (0 if path == "native" else 1)
