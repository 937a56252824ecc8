"""Affine arithmetic on the supersingular curve ``y^2 = x^3 + x`` over ``F_q``.

For ``q = 3 (mod 4)`` this curve is supersingular with ``#E(F_q) = q + 1``
and embedding degree 2 -- the classic pairing-friendly setting (Boneh-
Franklin).  Points are lightweight frozen tuples of integers; the group
of interest is the order-``p`` subgroup with ``p | q + 1``.

Arithmetic is plain affine addition with one modular inverse per
operation; scalar multiplication is double-and-add.  This is deliberately
simple, constant-factor-honest Python -- adequate for the parameter sizes
the reproduction targets and easy to audit against the textbook formulas.

The Jacobian kernels are written against plain integer operators, so
they run unchanged on whatever type the active
:mod:`field backend <repro.math.backend>` computes with: each kernel
entry point lifts the modulus and coordinates once
(:meth:`~repro.math.backend.FieldBackend.lift`), and every value that
escapes into a :class:`Point` is unlifted back to a canonical
:class:`int`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GroupError
from repro.groups import native
from repro.math.backend import active_backend
from repro.math.modular import inv_mod


@dataclass(frozen=True, slots=True)
class Point:
    """A point on ``y^2 = x^3 + x`` over ``F_q``, or the point at infinity.

    The point at infinity is represented with ``infinity=True`` and zeroed
    coordinates so that equality and hashing stay structural.
    """

    x: int
    y: int
    infinity: bool = False

    @classmethod
    def at_infinity(cls) -> "Point":
        return cls(0, 0, True)

    def is_infinity(self) -> bool:
        return self.infinity

    def negate(self, q: int) -> "Point":
        if self.infinity:
            return self
        return Point(self.x, (-self.y) % q, False)

    def __reduce__(self):
        # Explicit recipe: frozen+slots dataclasses only gained default
        # pickle support in 3.11, and the int() coercion guarantees a
        # backend-independent wire form for the repro.parallel pool.
        return (Point, (int(self.x), int(self.y), self.infinity))


INFINITY = Point.at_infinity()


def is_on_curve(point: Point, q: int) -> bool:
    """Check the curve equation ``y^2 = x^3 + x``."""
    if point.infinity:
        return True
    x, y = point.x % q, point.y % q
    return (y * y - (x * x * x + x)) % q == 0


def add(p1: Point, p2: Point, q: int) -> Point:
    """Return ``p1 + p2`` on the curve."""
    if p1.infinity:
        return p2
    if p2.infinity:
        return p1
    if p1.x == p2.x:
        if (p1.y + p2.y) % q == 0:
            return INFINITY
        return double(p1, q)
    slope = (p2.y - p1.y) * inv_mod(p2.x - p1.x, q) % q
    x3 = (slope * slope - p1.x - p2.x) % q
    y3 = (slope * (p1.x - x3) - p1.y) % q
    return Point(x3, y3, False)


def double(point: Point, q: int) -> Point:
    """Return ``2 * point`` on the curve (a = 1, b = 0 in Weierstrass form)."""
    if point.infinity:
        return point
    if point.y % q == 0:
        return INFINITY
    slope = (3 * point.x * point.x + 1) * inv_mod(2 * point.y, q) % q
    x3 = (slope * slope - 2 * point.x) % q
    y3 = (slope * (point.x - x3) - point.y) % q
    return Point(x3, y3, False)


def scalar_mul(point: Point, scalar: int, q: int, order: int | None = None) -> Point:
    """Return ``scalar * point``.

    Uses Jacobian projective coordinates internally (one modular
    inversion total, instead of one per group operation), falling back
    to the affine ladder for tiny scalars.  If ``order`` is given the
    scalar is first reduced modulo it.
    """
    if order is not None:
        scalar %= order
    if scalar < 0:
        raise GroupError("negative scalar without known order")
    if scalar == 0 or point.infinity:
        return INFINITY
    if scalar < 4:
        return scalar_mul_affine(point, scalar, q)
    return _jacobian_to_affine(_jacobian_scalar_mul(point, scalar, q), q)


def scalar_mul_affine(point: Point, scalar: int, q: int) -> Point:
    """The plain affine double-and-add ladder (reference implementation;
    the Jacobian path is property-tested against it)."""
    result = INFINITY
    addend = point
    while scalar:
        if scalar & 1:
            result = add(result, addend, q)
        addend = double(addend, q)
        scalar >>= 1
    return result


# -- Jacobian projective arithmetic (x = X/Z^2, y = Y/Z^3, a = 1) ----------

_JacPoint = tuple[int, int, int]  # Z = 0 encodes infinity


def _jacobian_double(p: _JacPoint, q: int) -> _JacPoint:
    x, y, z = p
    if z == 0 or y == 0:
        return (1, 1, 0)
    ysq = y * y % q
    s = 4 * x * ysq % q
    z2 = z * z % q
    m = (3 * x * x + z2 * z2) % q  # a = 1 for y^2 = x^3 + x
    x3 = (m * m - 2 * s) % q
    y3 = (m * (s - x3) - 8 * ysq * ysq) % q
    z3 = 2 * y * z % q
    return (x3, y3, z3)


def _jacobian_add_affine(p: _JacPoint, ax: int, ay: int, q: int) -> _JacPoint:
    """Mixed addition: Jacobian ``p`` plus the affine point ``(ax, ay)``."""
    x1, y1, z1 = p
    if z1 == 0:
        return (ax, ay, 1)
    z1z1 = z1 * z1 % q
    u2 = ax * z1z1 % q
    s2 = ay * z1z1 * z1 % q
    h = (u2 - x1) % q
    r = (s2 - y1) % q
    if h == 0:
        if r == 0:
            return _jacobian_double(p, q)
        return (1, 1, 0)
    hh = h * h % q
    hhh = h * hh % q
    v = x1 * hh % q
    x3 = (r * r - hhh - 2 * v) % q
    y3 = (r * (v - x3) - y1 * hhh) % q
    z3 = z1 * h % q
    return (x3, y3, z3)


def _jacobian_scalar_mul(point: Point, scalar: int, q: int) -> _JacPoint:
    lift = active_backend().lift
    q = lift(q)
    ax, ay = lift(point.x) % q, lift(point.y) % q
    result: _JacPoint = (1, 1, 0)
    for bit in bin(scalar)[2:]:
        result = _jacobian_double(result, q)
        if bit == "1":
            result = _jacobian_add_affine(result, ax, ay, q)
    return result


def _jacobian_to_affine(p: _JacPoint, q: int) -> Point:
    x, y, z = p
    if z == 0:
        return INFINITY
    backend = active_backend()
    z_inv = backend.inv_mod(z, q)
    z_inv2 = z_inv * z_inv % q
    unlift = backend.unlift
    return Point(unlift(x * z_inv2 % q), unlift(y * z_inv2 * z_inv % q), False)


def batch_to_affine(points: list[_JacPoint], q: int) -> list[Point]:
    """Normalize many Jacobian points to affine with *one* modular
    inversion (Montgomery's trick), instead of one per point.

    Infinity entries (``Z = 0``) pass through as :data:`INFINITY`.
    """
    backend = active_backend()
    unlift = backend.unlift
    q = backend.lift(q)
    # skip_zero backfills 0 for every Z = 0 entry, so infinity points can
    # ride in the mixed vector without a pre-filtering pass (and without
    # the ParameterError the strict contract would raise).
    inverses = backend.batch_inv([p[2] for p in points], q, skip_zero=True)
    result: list[Point] = [INFINITY] * len(points)
    for i, ((x, y, z), z_inv) in enumerate(zip(points, inverses)):
        if z_inv == 0:
            continue
        z_inv2 = z_inv * z_inv % q
        result[i] = Point(unlift(x * z_inv2 % q), unlift(y * z_inv2 * z_inv % q), False)
    return result


# -- Lockstep affine vectors (one inversion per round) ---------------------
#
# A vector of *independent* affine additions or doublings shares one
# modular inversion (Montgomery's trick): each slope denominator is
# inverted from the running prefix product, so a round of ``n``
# operations costs one :meth:`~repro.math.backend.FieldBackend.inv_mod`
# plus ``3(n - 1)`` multiplications -- cheaper per element than a
# Jacobian step once ``n`` is a handful.  Entries are raw ``(x, y)``
# pairs already lifted onto the active backend and reduced mod ``q``,
# or ``None`` for the point at infinity.

_RawAffine = tuple[int, int] | None


def batch_double_affine(points: "list[_RawAffine]", q) -> "list[_RawAffine]":
    """``2P`` for every entry of a raw affine vector, one inversion."""
    out: list[_RawAffine] = [None] * len(points)
    pending: list[int] = []
    prefix: list = []  # product of the earlier denominators
    acc = 1
    for i, point in enumerate(points):
        # Infinity, or 2-torsion (y = 0), doubles to infinity.
        if point is not None and point[1]:
            pending.append(i)
            prefix.append(acc)
            acc = acc * 2 * point[1] % q
    if pending:
        inv = active_backend().inv_mod(acc, q)
        for i, before in zip(reversed(pending), reversed(prefix)):
            x, y = points[i]
            slope = (3 * x * x + 1) * inv * before % q  # a = 1
            inv = inv * (y + y) % q
            x3 = (slope * slope - x - x) % q
            out[i] = (x3, (slope * (x - x3) - y) % q)
    return out


def batch_add_affine(
    lefts: "list[_RawAffine]", rights: "list[_RawAffine]", q
) -> "list[_RawAffine]":
    """``lefts[k] + rights[k]`` for every ``k``, one inversion.

    Each element takes its own special case: an infinity operand passes
    the other through, ``P + (-P)`` is infinity and ``P + P`` uses the
    tangent slope inside the same batch.  Only indices and prefix
    products are kept between the passes, so a wide round stays small
    in memory."""
    out: list[_RawAffine] = [None] * len(lefts)
    pending: list[int] = []
    prefix: list = []  # product of the earlier denominators
    acc = 1
    for i, (left, right) in enumerate(zip(lefts, rights)):
        if left is None:
            out[i] = right
        elif right is None:
            out[i] = left
        elif left[0] != right[0]:
            pending.append(i)
            prefix.append(acc)
            acc = acc * (right[0] - left[0]) % q
        elif left[1] == right[1] and left[1]:
            pending.append(i)
            prefix.append(acc)
            acc = acc * 2 * left[1] % q
        # else P + (-P), or a 2-torsion point doubled: infinity.
    if pending:
        inv = active_backend().inv_mod(acc, q)
        for i, before in zip(reversed(pending), reversed(prefix)):
            x1, y1 = lefts[i]
            x2, y2 = rights[i]
            if x1 != x2:
                slope = (y2 - y1) * inv * before % q
                inv = inv * (x2 - x1) % q
            else:
                slope = (3 * x1 * x1 + 1) * inv * before % q
                inv = inv * (y1 + y1) % q
            x3 = (slope * slope - x1 - x2) % q
            out[i] = (x3, (slope * (x1 - x3) - y1) % q)
    return out


def lift_affine(points: list[Point], q) -> "list[_RawAffine]":
    """Points as raw affine entries on the active backend."""
    lift = active_backend().lift
    return [
        None if point.infinity else (lift(point.x) % q, lift(point.y) % q)
        for point in points
    ]


def unlift_affine(raws: "list[_RawAffine]") -> list[Point]:
    """Raw affine entries back to canonical :class:`Point` values."""
    unlift = active_backend().unlift
    return [
        INFINITY if raw is None else Point(unlift(raw[0]), unlift(raw[1]), False)
        for raw in raws
    ]


def batch_scalar_mul(points: list[Point], scalar: int, q: int) -> list[Point]:
    """``scalar * P`` for every point, as one lockstep affine vector.

    Left-to-right double-and-add shared by the whole vector: each
    doubling and each addition round costs one inversion in total, so
    clearing the cofactor of many sampled points costs a few inversions
    instead of one per point.  ``scalar`` must be positive.  Runs as
    one :mod:`native <repro.groups.native>` call when the compiled
    kernels serve the active backend.
    """
    if scalar < 1:
        raise GroupError("batch_scalar_mul needs a positive scalar")
    compiled = native.kernels()
    if compiled is not None:
        return unlift_affine(
            compiled.scalar_mul_vector(
                q,
                scalar,
                [None if point.infinity else (point.x, point.y) for point in points],
            )
        )
    lifted_q = active_backend().lift(q)
    base = lift_affine(points, lifted_q)
    acc = base
    for bit in bin(scalar)[3:]:
        acc = batch_double_affine(acc, lifted_q)
        if bit == "1":
            acc = batch_add_affine(acc, base, lifted_q)
    return unlift_affine(acc)
