"""The modified Tate pairing on ``y^2 = x^3 + x / F_q`` via Miller's algorithm.

For a supersingular curve with embedding degree 2 the pairing of two
points of the order-``p`` subgroup of ``E(F_q)`` is::

    e(P, Q) = f_{p,P}(phi(Q)) ^ ((q^2 - 1) / p)

where ``phi(x, y) = (-x, i*y)`` is the distortion map into
``E(F_{q^2})`` (``i^2 = -1``) and ``f_{p,P}`` is the Miller function with
divisor ``p(P) - p(O)``.  Properties (verified by the test-suite):

* bilinear: ``e(P^a, Q^b) = e(P, Q)^{a b}`` (multiplicative notation);
* symmetric: ``e(P, Q) = e(Q, P)`` (type-1 pairing);
* non-degenerate: ``e(g, g)`` generates the order-``p`` subgroup of
  ``F_{q^2}^*``.

Implementation notes: we use *denominator elimination* -- any factor
lying in ``F_q`` is annihilated by the final exponentiation
``(q - 1) * h`` (as ``(q^2-1)/p = (q-1)(q+1)/p = (q-1) h``, and
``x^{q-1} = 1`` for ``x`` in ``F_q^*``) -- and the Frobenius
``z -> z^q`` is plain conjugation in ``F_{q^2}``, so the final
exponentiation is ``(conj(z) / z)^h``.

There are two Miller loops.  :class:`PairingPrecomp` is the fast one:
it runs the Miller doubling schedule of ``P`` once
(:func:`miller_schedule`: point arithmetic in Jacobian form, normalised
to affine with batched inversions), caches the affine line coefficients
``(lambda, ty - lambda*tx)`` per step, and then evaluates against each
``Q`` without touching the curve: each line, scaled by the ``F_q``
factor ``-1/y_Q``, is ``c + i`` and multiplies ``f`` with two products
(:func:`evaluate_schedule_chunk`).  It serves the "one fixed ``P``
against many ``Q``" pattern (the DLR decryption protocols pair one
ciphertext component ``A`` against every share element), and with the
compiled kernels a lone pairing
(:meth:`~repro.groups.bilinear.BilinearGroup.pair`) is a schedule of
one.  :func:`miller_loop_affine`, with one
:func:`~repro.math.modular.inv_mod` per step, is the reference:
:func:`tate_pairing` runs it, and the tests pin the schedule to it bit
for bit.
"""

from __future__ import annotations

from repro.groups import native
from repro.groups.curve import (
    Point,
    _jacobian_add_affine,
    _jacobian_double,
    batch_to_affine,
)
from repro.groups.pairing_params import PairingParams
from repro.math.fields import Fq2
from repro.math.modular import (
    batch_inv,
    fq2_inverse,
    fq2_mul,
    fq2_pow,
    fq2_square,
    inv_mod,
)

_RawFq2 = tuple[int, int]


def miller_loop_affine(p_point: Point, q_point: Point, params: PairingParams) -> _RawFq2:
    """The affine Miller loop: one modular inversion per doubling/add step.

    The reference implementation: :class:`PairingPrecomp` must agree with
    it exactly after final exponentiation.
    """
    order = params.p
    if p_point.is_infinity() or q_point.is_infinity():
        return (1, 0)
    q = params.q
    # phi(Q) = (-x_Q, i * y_Q): affine x in F_q, purely imaginary y.
    phi_x = -q_point.x % q
    phi_y = q_point.y % q
    neg_phi_y = (-phi_y) % q

    f: _RawFq2 = (1, 0)
    tx, ty = p_point.x % q, p_point.y % q
    px, py = tx, ty
    t_infinity = False

    bits = bin(order)[3:]  # skip the leading 1: T already equals P
    for bit in bits:
        if not t_infinity:
            # Doubling step: tangent line at T evaluated at phi(Q).
            slope = (3 * tx * tx + 1) * inv_mod(2 * ty, q) % q
            line = ((slope * (phi_x - tx) + ty) % q, neg_phi_y)
            f = fq2_mul(fq2_square(f, q), line, q)
            # T <- 2T
            x3 = (slope * slope - 2 * tx) % q
            ty = (slope * (tx - x3) - ty) % q
            tx = x3
        else:
            f = fq2_square(f, q)
        if bit == "1" and not t_infinity:
            if tx == px and (ty + py) % q == 0:
                # T = -P: the chord is vertical, lies in F_q, eliminated.
                t_infinity = True
            else:
                slope = (py - ty) * inv_mod(px - tx, q) % q
                line = ((slope * (phi_x - tx) + ty) % q, neg_phi_y)
                f = fq2_mul(f, line, q)
                x3 = (slope * slope - tx - px) % q
                ty = (slope * (tx - x3) - ty) % q
                tx = x3
    return f


_Line = tuple[int, int]
_Schedule = list[tuple[_Line | None, _Line | None]]


class PairingPrecomp:
    """The fixed-argument Miller schedule of one point ``P``.

    Holds the per-step affine line coefficients of ``f_{p, P}``
    (:func:`miller_schedule`); :meth:`pair_with` then evaluates
    ``e(P, Q)`` for any ``Q`` without touching the curve again.

    The cached schedule is ``O(log p)`` integer pairs; it pays for
    itself from the second ``Q`` onwards (see docs/performance.md).
    """

    __slots__ = ("params", "steps")

    def __init__(self, p_point: Point, params: PairingParams) -> None:
        self.params = params
        #: Per loop iteration: (dbl_coeffs | None, add_coeffs | None);
        #: ``None`` means the step only squares ``f`` (T at infinity) /
        #: has no addition.  Coeffs are (lambda, ty - lambda * tx).
        self.steps: _Schedule = miller_schedule(p_point, params)

    def pair_with(self, q_point: Point) -> Fq2:
        """The full pairing ``e(P, Q)`` via the cached schedule."""
        return self.pair_with_many([q_point])[0]

    def evaluate_many(self, q_points: "list[tuple[int, int] | None]") -> list[_RawFq2]:
        """``e(P, Q_i)`` for a whole vector of raw affine points
        (``(x, y)``, or ``None`` at infinity), as canonical raw pairs.

        The cached schedule serves every ``Q_i`` in one
        :func:`evaluate_schedule_chunk` call (``P`` at infinity has no
        steps, so every value is 1).  Results are bit-identical to --
        and ordered like -- mapping :meth:`pair_with` over the vector.
        """
        return evaluate_schedule_chunk(
            self.steps, self.params.q, self.params.h, list(q_points)
        )

    def pair_with_many(self, q_points: "list[Point]") -> list[Fq2]:
        """:meth:`evaluate_many` of :class:`Point` values, as ``F_{q^2}``
        elements."""
        q = self.params.q
        raws = [None if pt.infinity else (pt.x, pt.y) for pt in q_points]
        return [Fq2._from_reduced(a, b, q) for a, b in self.evaluate_many(raws)]


def miller_schedule(p_point: Point, params: PairingParams) -> _Schedule:
    """The Miller schedule of ``P``: per bit of ``p`` below the top one,
    the affine line coefficients ``(lambda, ty - lambda * tx)`` of its
    doubling and of its addition, each ``None`` where the step has none
    (``[]`` for ``P`` at infinity).

    The walk runs in Jacobian form, recording the point *before* each
    doubling / addition; an addition that meets ``T = -P`` has a
    vertical chord in ``F_q``, which the final exponentiation
    eliminates, and ``T`` stays at infinity from there on.  The step
    points are normalised with one :func:`~repro.math.modular.batch_inv`
    and every slope denominator is inverted with a second.  Runs as one
    :mod:`native <repro.groups.native>` call when the compiled kernels
    are built; the kernel hands the walks it does not cover (``T``
    doubled at ``y = 0``, ``T = P`` at an addition, a non-unit) back to
    this build, which reports them.
    """
    if p_point.is_infinity():
        return []
    q = params.q
    compiled = native.kernels()
    if compiled is not None:
        steps = compiled.miller_schedule(q, params.p, (p_point.x, p_point.y))
        if steps is not None:
            return steps
    px, py = p_point.x % q, p_point.y % q

    # Pass 1: walk the schedule in Jacobian form, recording the point
    # *before* each doubling / addition plus the step layout.
    jac = (px, py, 1)
    layout: list[tuple[bool, bool]] = []  # (has_double, has_add)
    dbl_points = []
    add_points = []
    t_infinity = False
    bits = bin(params.p)[3:]
    for bit in bits:
        has_double = not t_infinity
        if has_double:
            dbl_points.append(jac)
            jac = _jacobian_double(jac, q)
        has_add = False
        if bit == "1" and not t_infinity:
            zz = jac[2] * jac[2] % q
            if (px * zz - jac[0]) % q == 0 and (jac[1] + py * zz * jac[2]) % q == 0:
                t_infinity = True  # T = -P: vertical chord, eliminated
            else:
                has_add = True
                add_points.append(jac)
                jac = _jacobian_add_affine(jac, px, py, q)
        layout.append((has_double, has_add))

    # One batched normalisation for every step point ...
    affine = batch_to_affine(dbl_points + add_points, q)
    dbl_affine = affine[: len(dbl_points)]
    add_affine = affine[len(dbl_points):]
    # ... and one batched inversion for every slope denominator.
    denominators = [2 * pt.y % q for pt in dbl_affine] + [
        (px - pt.x) % q for pt in add_affine
    ]
    inverses = batch_inv(denominators, q)
    dbl_inv = inverses[: len(dbl_affine)]
    add_inv = inverses[len(dbl_affine):]

    steps: _Schedule = []
    dbl_iter = iter(zip(dbl_affine, dbl_inv))
    add_iter = iter(zip(add_affine, add_inv))
    for has_double, has_add in layout:
        dbl_coeffs = None
        if has_double:
            pt, d_inv = next(dbl_iter)
            slope = (3 * pt.x * pt.x + 1) * d_inv % q
            dbl_coeffs = (slope, (pt.y - slope * pt.x) % q)
        add_coeffs = None
        if has_add:
            pt, d_inv = next(add_iter)
            slope = (py - pt.y) * d_inv % q
            add_coeffs = (slope, (pt.y - slope * pt.x) % q)
        steps.append((dbl_coeffs, add_coeffs))
    return steps


def evaluate_schedule_chunk(
    steps: _Schedule,
    q: int,
    h: int,
    xys: list[tuple[int, int] | None],
) -> list[_RawFq2]:
    """Evaluate one cached schedule at many ``Q``, final exponentiation
    included; the kernel of :meth:`PairingPrecomp.evaluate_many`.

    ``xys`` holds the affine ``(x, y)`` of each ``Q`` as canonical ints,
    or ``None`` for the point at infinity / a trivial schedule.

    **Normalised lines.**  A cached line evaluated at ``phi(Q)`` is
    ``(slope * phi_x + offset) - y_Q i``.  Each one is scaled by the
    ``F_q`` factor ``-1/y_Q``, which the final exponentiation kills
    exactly like the eliminated denominators, making it ``c + i`` with
    ``c = slope * (x_Q/y_Q) + offset * (-1/y_Q)``.  Multiplying ``f`` by
    it takes two products instead of a full ``F_{q^2}`` product, and a
    doubling step fuses with the square of ``f`` under one reduction.
    At ``y_Q = 0`` (the 2-torsion point ``(0, 0)``) every line lies in
    ``F_q``, so the pairing is 1.

    The ``y_Q`` inverses of the whole chunk share one batch inversion,
    and the final exponentiations run as one
    :func:`final_exponentiation_many`.  Runs as one
    :mod:`native <repro.groups.native>` call when the compiled kernels
    are built.
    """
    compiled = native.kernels()
    if compiled is not None:
        return compiled.schedule_chunk(list(steps), q, h, list(xys))
    results: list[_RawFq2] = [(1, 0)] * len(xys)
    live = [k for k, xy in enumerate(xys) if xy is not None and xy[1] % q]
    inv_ys = batch_inv([xys[k][1] for k in live], q)
    values = []
    for k, inv_y in zip(live, inv_ys):
        u = xys[k][0] * inv_y % q  # x_Q / y_Q
        v = -inv_y % q  # -1 / y_Q
        a, b = 1, 0
        for dbl_coeffs, add_coeffs in steps:
            # f^2, left unreduced until the line multiply.
            s0 = (a - b) * (a + b)
            s1 = 2 * a * b
            if dbl_coeffs is None:
                a, b = s0 % q, s1 % q
            else:
                c = dbl_coeffs[0] * u + dbl_coeffs[1] * v  # reduced below
                a, b = (s0 * c - s1) % q, (s0 + s1 * c) % q
            if add_coeffs is not None:
                c = add_coeffs[0] * u + add_coeffs[1] * v
                a, b = (a * c - b) % q, (a + b * c) % q
        values.append((a, b))
    for k, value in zip(live, final_exponentiation_many(values, q, h)):
        results[k] = value
    return results


def final_exponentiation_many(
    values: list[_RawFq2], q: int, h: int
) -> list[_RawFq2]:
    """Raise every nonzero ``f`` in ``values`` to ``(q^2 - 1)/p = (q - 1) * h``:
    the final exponentiation of :func:`evaluate_schedule_chunk`, and the
    map that sends a random ``F_{q^2}^*`` element into ``GT``
    (:func:`~repro.groups.sampling.random_gt_values`).

    Frobenius is conjugation, so ``f^(q-1) = conj(f) / f = conj(f)^2 /
    N(f)`` with ``N(f) = a^2 + b^2``; the norms of the whole vector
    share one :func:`~repro.math.modular.batch_inv`.  ``f^(q-1)`` is
    unitary (norm 1), so raising it to ``h`` squares as ``(a + bi)^2 =
    (2a^2 - 1) + 2ab i``.  Equal to :func:`final_exponentiation` on
    every entry, as canonical raw pairs.
    """
    inv_norms = batch_inv([a * a + b * b for a, b in values], q)
    bits = bin(h)[3:]
    results = []
    for (a, b), inv_norm in zip(values, inv_norms):
        x0, x1 = (a - b) * (a + b) * inv_norm % q, -2 * a * b * inv_norm % q
        r0, r1 = x0, x1
        for bit in bits:
            r0, r1 = (2 * r0 * r0 - 1) % q, 2 * r0 * r1 % q
            if bit == "1":
                r0, r1 = (r0 * x0 - r1 * x1) % q, (r0 * x1 + r1 * x0) % q
        results.append((r0, r1))
    return results


def final_exponentiation(value: _RawFq2, params: PairingParams) -> _RawFq2:
    """Raise to ``(q^2 - 1)/p = (q - 1) * h`` using Frobenius = conjugation."""
    q = params.q
    a, b = value[0] % q, value[1] % q
    conjugate: _RawFq2 = (a, (-b) % q)
    powered_q_minus_1 = fq2_mul(conjugate, fq2_inverse((a, b), q), q)
    return fq2_pow(powered_q_minus_1, params.h, q)


def tate_pairing(p_point: Point, q_point: Point, params: PairingParams) -> Fq2:
    """The full modified Tate pairing ``e(P, Q)`` as an ``F_{q^2}``
    element, on the affine reference loop."""
    raw = final_exponentiation(miller_loop_affine(p_point, q_point, params), params)
    return Fq2._from_reduced(raw[0], raw[1], params.q)
