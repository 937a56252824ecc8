"""Property tests for the batch-affine period kernels.

``batch_multiexp_points`` evaluates every ``G`` instance in lockstep
affine coordinates (signed digits, one shared inversion per doubling or
addition round; a lone instance is a batch of one), ``batch_scalar_mul``
clears cofactors the same way, and ``evaluate_schedule_chunk`` evaluates
Miller lines scaled by ``-1/y_Q``.  Each is a reorganisation with
per-element special cases (equal abscissas, inverse pairs, infinity),
so each is pinned against an independent path: the ``reference_mode()``
per-term ladder, the Jacobian ladder, and the full Tate pairing.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.groups import fastops, preset_group
from repro.groups.bilinear import G1Element
from repro.groups.curve import INFINITY, Point, batch_scalar_mul, scalar_mul
from repro.groups.fastops import batch_multiexp_points, wnaf_digits
from repro.groups.pairing import PairingPrecomp, tate_pairing

#: The 16-bit toy group: small ``p`` and ``q`` make abscissa collisions
#: inside a round likely enough for the examples to reach them.
TOY = preset_group(16)
SMALL = preset_group(32)

COMMON = dict(max_examples=40, deadline=None)

seeds = st.integers(min_value=0, max_value=2**30)

#: One term: how its base relates to the instance's earlier bases, and
#: which exponent it carries.
term_shapes = st.tuples(
    st.sampled_from(["fresh", "fresh", "duplicate", "negated", "identity"]),
    st.sampled_from(["one", "p-1", "full", "narrow", "zero"]),
)
instance_shapes = st.lists(
    st.lists(term_shapes, min_size=1, max_size=9), min_size=1, max_size=6
)


def build_instances(group, shapes, seed):
    """Element-level instances from drawn shapes: duplicate bases, a
    base next to its inverse, identities, and exponents 0, 1, ``p - 1``,
    full-width and narrow, in one vector."""
    rng = random.Random(seed)
    p = group.p
    instances = []
    for terms in shapes:
        bases, exponents = [], []
        for base_kind, exponent_kind in terms:
            if base_kind == "identity":
                base = group.g_identity()
            elif base_kind == "duplicate" and bases:
                base = rng.choice(bases)
            elif base_kind == "negated" and bases:
                base = rng.choice(bases).inverse()
            else:
                base = group.random_g(rng)
            exponent = {
                "one": 1,
                "p-1": p - 1,
                "full": rng.randrange(1, p),
                "narrow": rng.randrange(1, 256),
                "zero": 0,
            }[exponent_kind]
            bases.append(base)
            exponents.append(exponent)
        instances.append((bases, exponents))
    return instances


def raw_instances(group, instances):
    """The kernel contract: exponents in ``[1, p)``, no identity terms."""
    raw = []
    for bases, exponents in instances:
        kept = [
            (base.raw, exponent % group.p)
            for base, exponent in zip(bases, exponents)
            if exponent % group.p and not base.is_identity()
        ]
        if kept:
            raw.append(([pt for pt, _ in kept], [e for _, e in kept]))
    return raw


def reference_ladder(group, raw):
    """Raw kernel instances on the ``reference_mode()`` per-term ladder."""
    with fastops.reference_mode():
        return [
            G1Element.multiexp(
                [G1Element.from_raw(group, pt) for pt in points], exponents
            ).raw
            if points
            else None
            for points, exponents in raw
        ]


class TestBatchAffineMultiexp:
    @given(shapes=instance_shapes, seed=seeds)
    @settings(**COMMON)
    def test_kernel_matches_reference_ladder(self, shapes, seed):
        raw = raw_instances(TOY, build_instances(TOY, shapes, seed))
        assert batch_multiexp_points(raw, TOY.params.q) == reference_ladder(TOY, raw)

    @given(shapes=instance_shapes, seed=seeds)
    @settings(**COMMON)
    def test_elements_match_reference_mode(self, shapes, seed):
        instances = build_instances(TOY, shapes, seed)
        before = TOY.counter.snapshot()
        fast = G1Element.multiexp_batch(instances)
        middle = TOY.counter.snapshot()
        sequential = [G1Element.multiexp(b, e) for b, e in instances]
        assert middle.diff(before).as_dict() == TOY.counter.diff(middle).as_dict()
        with fastops.reference_mode():
            reference = G1Element.multiexp_batch(instances)
        assert fast == sequential == reference

    @given(seed=seeds, count=st.integers(min_value=2, max_value=12))
    @settings(**COMMON)
    def test_shared_exponent_vector(self, seed, count):
        """The period shape: every instance uses one exponent vector."""
        rng = random.Random(seed)
        p, q = SMALL.p, SMALL.params.q
        exponents = [1, p - 1] + [rng.randrange(1, p) for _ in range(rng.randrange(1, 6))]
        raw = [
            ([SMALL.random_g(rng).raw for _ in exponents], exponents)
            for _ in range(count)
        ]
        assert batch_multiexp_points(raw, q) == reference_ladder(SMALL, raw)

    def test_inverse_pair_and_duplicates_cancel(self):
        rng = random.Random(3)
        q, p = TOY.params.q, TOY.p
        a_point, b_point = TOY.random_g(rng).point, TOY.random_g(rng).point
        a, b = (a_point.x, a_point.y), (b_point.x, b_point.y)
        minus_a = (a_point.x, -a_point.y % q)
        raw = [
            ([a, minus_a], [5, 5]),  # a^5 * a^-5 = identity
            ([a, a, b], [1, p - 1, 7]),  # duplicates cancel to b^7
            ([a, minus_a, a], [3, 3, p - 1]),
        ]
        got = batch_multiexp_points(raw, q)
        assert got[0] is None
        seven_b = scalar_mul(b_point, 7, q)
        assert got[1] == (seven_b.x, seven_b.y)
        assert got == reference_ladder(TOY, raw)

    def test_single_instance_and_mixed_dispatch(self):
        """A lone instance is a batch of one: alone or beside instances
        of other term counts, each gets the ladder's value."""
        rng = random.Random(4)
        q, p = SMALL.params.q, SMALL.p

        def instance(size):
            return (
                [SMALL.random_g(rng).raw for _ in range(size)],
                [rng.randrange(1, p) for _ in range(size)],
            )

        mixed = [instance(n) for n in (0, 1, 3, 64, 7, 2)]
        assert batch_multiexp_points(mixed, q) == reference_ladder(SMALL, mixed)
        for lone in mixed:
            assert batch_multiexp_points([lone], q) == reference_ladder(SMALL, [lone])


class TestWnafDigits:
    @given(exponent=st.integers(min_value=1, max_value=2**80), w=st.integers(2, 7))
    @settings(max_examples=200, deadline=None)
    def test_digits_recompose_and_are_sparse(self, exponent, w):
        digits = wnaf_digits(exponent, w)
        assert sum(digit << position for position, digit in digits) == exponent
        for position, digit in digits:
            assert digit % 2 == 1 and abs(digit) < 1 << (w - 1)
        positions = [position for position, _ in digits]
        assert all(b - a >= w for a, b in zip(positions, positions[1:]))


class TestBatchScalarMul:
    @given(seed=seeds, scalar_kind=st.sampled_from(["h", "p", "order", "small", "random"]))
    @settings(**COMMON)
    def test_matches_ladder_on_any_curve_point(self, seed, scalar_kind):
        """Raw curve points (cofactor not cleared) include small-order
        points, so rounds hit infinity, doublings of 2-torsion and
        ``P + (-P)`` along the way."""
        rng = random.Random(seed)
        params = TOY.params
        q = params.q
        points = []
        while len(points) < 12:
            x = rng.randrange(q)
            rhs = (x * x * x + x) % q
            y = pow(rhs, (q + 1) // 4, q)
            if y * y % q == rhs:
                points.append(Point(x, y, False))
        points += [INFINITY, Point(0, 0, False)]  # 2-torsion doubles to infinity
        scalar = {
            "h": params.h,
            "p": params.p,
            "order": params.h * params.p,
            "small": rng.randrange(1, 30),
            "random": rng.randrange(1, params.h * params.p),
        }[scalar_kind]
        assert batch_scalar_mul(points, scalar, q) == [
            scalar_mul(point, scalar, q) for point in points
        ]


class TestNormalisedMillerLines:
    @given(seed=seeds, count=st.integers(min_value=1, max_value=8))
    @settings(**COMMON)
    def test_matches_tate_pairing(self, seed, count):
        rng = random.Random(seed)
        params = TOY.params
        left = TOY.random_g(rng).point
        rights = [TOY.random_g(rng).point for _ in range(count)]
        rights += [INFINITY, left, left.negate(params.q), Point(0, 0, False)]
        precomp = PairingPrecomp(left, params)
        assert precomp.pair_with_many(rights) == [
            tate_pairing(left, right, params) for right in rights
        ]

    def test_trivial_schedule(self):
        precomp = PairingPrecomp(INFINITY, SMALL.params)
        right = SMALL.random_g(random.Random(1)).point
        assert precomp.pair_with(right) == tate_pairing(INFINITY, right, SMALL.params)

