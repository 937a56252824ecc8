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
  ``(q^2 - 1)/p = (q - 1) * h``.  That is the pairing's final
  exponentiation (:func:`~repro.groups.pairing.final_exponentiation_many`):
  Frobenius is conjugation, so the power is ``(conj(x) / x)^h``, and a
  vector of candidates shares one batched inversion of their norms.

Both are retried on the (probability ``~1/p``) identity outcome.

**Vectors and the refill rule.**  The sequential sampler returns, for
each output, the next candidate in the RNG stream that does not map to
the identity.  A vector draws one candidate per missing output, maps
them together, drops any identity result and draws again for the
outputs still missing.  Every candidate it draws is one the sequential
sampler would draw, in the same order, so the vector returns the same
elements and leaves the generator in the same state, with no saving or
restoring of its state.  :func:`random_subgroup_points` and
:func:`random_gt_values` both work this way; a lone draw is a vector
of one for ``GT``, while :func:`random_subgroup_point` stays the
per-point ``G`` reference.

A vector of ``G`` draws runs as one compiled call
(:mod:`repro.groups.native`) when the kernels are built and the
generator is an exact :class:`random.Random`; it returns the same points
and leaves the generator in the same state as the Python vector.
"""

from __future__ import annotations

import random

from repro.groups import curve, native
from repro.groups.curve import Point
from repro.groups.pairing import final_exponentiation_many
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
    vector (:func:`~repro.groups.curve.batch_scalar_mul`).  A candidate
    whose cofactor multiple is the identity (probability about ``h / q``
    per draw) is dropped and the vector refilled from the stream, which
    is the order the sequential sampler draws in.

    When the compiled kernels are built and ``rng`` is an exact
    :class:`random.Random`, the whole vector is one native call
    (:func:`_native_subgroup_points`); if that call meets the identity
    outcome the vector is drawn sequentially from the untouched
    generator.  RNG subclasses keep the Python vector.
    """
    if count <= 0:
        return []
    compiled = native.kernels()
    if compiled is not None and type(rng) is random.Random:
        points = _native_subgroup_points(compiled, params, rng, count)
        if points is None:
            return [random_subgroup_point(params, rng) for _ in range(count)]
        return points
    points = []
    while len(points) < count:
        candidates = [
            _random_curve_point(params, rng) for _ in range(count - len(points))
        ]
        cleared = curve.batch_scalar_mul(candidates, params.h, params.q)
        points.extend(point for point in cleared if not point.is_infinity())
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


def random_gt_values(
    params: PairingParams, rng: random.Random, count: int
) -> list[Fq2]:
    """``count`` uniformly random non-identity elements of the order-``p``
    subgroup of ``F_{q^2}^*``, with unknown discrete logs.

    Each candidate is a random ``(a, b)``, redrawn in place while it is
    zero; the candidates go through one shared final exponentiation
    (:func:`~repro.groups.pairing.final_exponentiation_many`), and an
    identity result is dropped and refilled from the stream.  Output
    ``k`` is therefore the ``k``-th candidate of the stream that is
    neither zero nor mapped to the identity, exactly as ``count`` calls
    of :func:`random_gt_value` draw it.
    """
    q, h = params.q, params.h
    values: list[Fq2] = []
    while len(values) < count:
        candidates = []
        while len(values) + len(candidates) < count:
            a, b = rng.randrange(q), rng.randrange(q)
            if a or b:
                candidates.append((a, b))
        values.extend(
            Fq2._from_reduced(a, b, q)
            for a, b in final_exponentiation_many(candidates, q, h)
            if b or a != 1
        )
    return values


def random_gt_value(params: PairingParams, rng: random.Random) -> Fq2:
    """One uniformly random non-identity element of the order-``p``
    subgroup of ``F_{q^2}^*`` with unknown discrete log: a random
    nonzero ``F_{q^2}`` element through the final exponentiation,
    redrawn on the identity outcome (:func:`random_gt_values` of one)."""
    return random_gt_values(params, rng, 1)[0]
