"""Sampling group elements *directly*, with unknown discrete logarithm.

Paper section 5.2 ("Reusing ciphertexts and hiding discrete logs of
random coins") requires the random coins ``b_ij`` and the ``a_i`` to be
sampled as random group elements **without** going through a random
exponent -- otherwise their discrete logs would sit in secret memory and
be exposed to leakage.  "This is feasible in the groups used in our
scheme":

* in ``G`` we pick a random ``x`` until ``x^3 + x`` is a square, lift to
  a curve point, and clear the cofactor ``h`` -- nobody learns a discrete
  log;
* in ``GT`` we pick a random ``F_{q^2}^*`` element and raise it to
  ``(q^2 - 1)/p``.

Both are retried on the (probability ``~1/p``) identity outcome.

A vector of ``G`` draws (:func:`random_subgroup_points`) runs as one
compiled call (:mod:`repro.groups.native`) when the kernels are built
and the generator is an exact :class:`random.Random`;
it returns the same points and leaves the generator in the same state
as the Python loop here, which stays the reference.  A lone draw stays
in Python: saving and restoring the generator state costs about what
the Python draw does.
"""

from __future__ import annotations

import random

from repro.groups import curve, native
from repro.groups.curve import Point
from repro.groups.pairing_params import PairingParams
from repro.math.fields import Fq2
from repro.math.modular import sqrt_mod_or_none


def _random_curve_point(params: PairingParams, rng: random.Random) -> Point:
    """A uniformly random affine point of ``E(F_q)`` minus 2-torsion:
    a random abscissa until ``x^3 + x`` is a nonzero square, then a
    random sign for ``y``."""
    q = params.q
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + x) % q
        if rhs == 0:
            continue
        y = sqrt_mod_or_none(rhs, q)
        if y is None:
            continue
        if rng.getrandbits(1):
            y = (-y) % q
        return Point(x, y, False)


def random_subgroup_point(params: PairingParams, rng: random.Random) -> Point:
    """Return a uniformly random point of the order-``p`` subgroup, excluding
    the identity, with discrete log unknown even to the caller."""
    while True:
        candidate = curve.scalar_mul(_random_curve_point(params, rng), params.h, params.q)
        if not candidate.is_infinity():
            return candidate


def random_subgroup_points(
    params: PairingParams, rng: random.Random, count: int
) -> list[Point]:
    """``count`` draws of :func:`random_subgroup_point`: the same points
    from the same RNG stream, with the cofactors cleared as one lockstep
    vector (:func:`~repro.groups.curve.batch_scalar_mul`).

    When the compiled kernels are built and ``rng`` is an exact
    :class:`random.Random`, the whole vector is one native call
    (:func:`_native_subgroup_points`); RNG subclasses keep the Python
    loop, which stays the reference.

    The sequential sampler redraws right after a candidate whose
    cofactor multiple is the identity (probability about ``h / q`` per
    draw).  A vector that hits one would consume the stream in a
    different order, so the RNG state is restored and the whole vector
    is drawn sequentially instead.
    """
    if count <= 0:
        return []
    compiled = native.kernels()
    if compiled is not None and type(rng) is random.Random:
        points = _native_subgroup_points(compiled, params, rng, count)
    else:
        state = rng.getstate()
        candidates = [_random_curve_point(params, rng) for _ in range(count)]
        points = curve.batch_scalar_mul(candidates, params.h, params.q)
        if any(point.is_infinity() for point in points):
            rng.setstate(state)
            points = None
    if points is None:
        return [random_subgroup_point(params, rng) for _ in range(count)]
    return points


def _native_subgroup_points(
    compiled, params: PairingParams, rng: random.Random, count: int
) -> list[Point] | None:
    """The vector of :func:`random_subgroup_points` as one native call,
    or ``None`` (with ``rng`` untouched) if a candidate clears to the
    identity.

    ``rng``'s raw 32-bit output words are drawn ahead: ``4 * ceil(k /
    32) + 2`` per point (``k = q.bit_length()``) plus 64, against an
    expected two abscissas per point of at most two tries each and one
    sign word.  The kernel consumes them exactly as ``randrange`` and
    ``getrandbits(1)`` would and reports how many it used.  The RNG is
    then reset and advanced by just those words.  A budget that runs
    out is doubled and redrawn from the same state.
    """
    q = params.q
    state = rng.getstate()
    budget = count * (4 * -(-q.bit_length() // 32) + 2) + 64
    while True:
        words = rng.getrandbits(32 * budget).to_bytes(4 * budget, "little")
        rng.setstate(state)
        drawn = compiled.sample_points(q, params.h, count, words)
        if drawn is not None:
            break
        budget *= 2
    raws, used = drawn
    if raws is None:
        return None
    rng.getrandbits(32 * used)
    return curve.from_raw_affine(raws)


def random_gt_value(params: PairingParams, rng: random.Random) -> Fq2:
    """Return a uniformly random non-identity element of the order-``p``
    subgroup of ``F_{q^2}^*`` with unknown discrete log."""
    q = params.q
    exponent = params.gt_exponent()
    while True:
        candidate = Fq2(rng.randrange(q), rng.randrange(q), params.q)
        if candidate.is_zero():
            continue
        value = candidate ** exponent
        if not value.is_one():
            return value
