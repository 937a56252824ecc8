"""Pickle round-trips for field and curve values on both kernel sets.

The :mod:`repro.parallel` process pool ships group data to worker
processes, so every value that can cross that boundary needs a stable
pickled form: ``Fq``/``Fq2`` (frozen+slots dataclasses -- no default
pickle support before Python 3.11) and affine :class:`Point`.  The
pickled bytes must not depend on which kernel set produced the value:
a pool parent on the compiled kernels and a worker on the Python ones
reconstruct the identical value.
"""

import pickle
import random

import pytest

from repro.groups.curve import Point, batch_to_affine
from repro.groups.bilinear import GTElement
from repro.math.fields import Fq, Fq2
from tests.conftest import KERNEL_SETS, built_kernel_sets, kernel_set

Q = 2**31 - 1  # any prime-ish modulus works: pickling never reduces


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestFieldPickle:
    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    def test_fq_roundtrip(self, kernels):
        with kernel_set(kernels):
            value = Fq(123456789, Q) * Fq(987654321, Q)
            copy = roundtrip(value)
        assert copy == value
        assert type(copy.value) is int
        assert type(copy.q) is int

    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    def test_fq2_roundtrip(self, kernels):
        with kernel_set(kernels):
            value = Fq2(12345, 67890, Q) * Fq2(222, 333, Q)
            copy = roundtrip(value)
        assert copy == value
        assert type(copy.a) is int and type(copy.b) is int

    def test_cross_backend_wire_form_identical(self, small_group):
        """The pickled bytes must not depend on the producing kernel
        set: a pool parent and worker may disagree only in performance."""
        rng = random.Random(5)
        bases = [small_group.random_gt(rng) for _ in range(4)]
        exponents = [rng.randrange(1, small_group.p) for _ in range(4)]
        blobs = {}
        for name in built_kernel_sets():
            with kernel_set(name):
                value = Fq(98765, Q) ** 12345
                product = GTElement.multiexp(bases, exponents).value
                blobs[name] = pickle.dumps((value, Fq2(value.value, 7, Q), product))
        reference = blobs.pop("python")
        for name, blob in blobs.items():
            assert blob == reference, name


class TestPointPickle:
    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    def test_affine_point_roundtrip(self, small_group, kernels):
        rng = random.Random(7)
        with kernel_set(kernels):
            point = small_group.random_g(rng).point
            copy = roundtrip(point)
        assert copy == point
        assert type(copy.x) is int and type(copy.y) is int

    def test_infinity_roundtrip(self):
        infinity = Point(0, 0, True)
        copy = roundtrip(infinity)
        assert copy.is_infinity()

    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    def test_raw_jacobian_coordinates_unlift_to_int(self, small_group, kernels):
        """The pool workers exchange raw Jacobian triples as plain int
        tuples; normalising on either kernel set must yield plain int
        coordinates that pickle identically."""
        rng = random.Random(11)
        points = [small_group.random_g(rng).point for _ in range(5)]
        q = small_group.q
        with kernel_set(kernels):
            jacobians = [(p.x, p.y, 1) for p in points]
            affine = batch_to_affine(jacobians, q)
            raw = [(p.x, p.y) for p in affine]
        blob = pickle.dumps(raw)
        restored = pickle.loads(blob)
        assert restored == [(p.x, p.y) for p in points]
        for x, y in restored:
            assert type(x) is int and type(y) is int
