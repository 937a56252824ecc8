"""Decoding group elements from their canonical bit encodings.

`G1Element.to_bits` / `GTElement.to_bits` (compressed point; coordinate
pair) are defined in :mod:`repro.groups.bilinear`; this module provides
the inverse direction, which persistence (:mod:`repro.utils.persist`)
and the CLI need:

* ``decode_g1``: flag bit, x coordinate, y parity -> curve point (y is
  recovered as ``sqrt(x^3 + x)`` and sign-corrected); ``decode_g1_batch``
  decodes many and checks their orders as one vector;
* ``decode_gt``: two coordinates -> ``F_{q^2}`` element.

Both validate group membership: the decoded element must be on the
curve / in the field *and* of order dividing ``p`` -- malformed or
wrong-subgroup encodings raise :class:`~repro.errors.GroupError`.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import GroupError
from repro.groups import curve
from repro.groups.bilinear import BilinearGroup, G1Element, GTElement
from repro.groups.curve import INFINITY, Point
from repro.math.fields import Fq2
from repro.math.modular import sqrt_mod_or_none
from repro.utils.bits import BitString
from repro.utils.serialization import int_width


def decode_g1(group: BilinearGroup, bits: BitString) -> G1Element:
    """Inverse of :meth:`G1Element.to_bits` (compressed encoding): the
    :func:`decode_g1_batch` of one."""
    return decode_g1_batch(group, [bits])[0]


def decode_g1_batch(
    group: BilinearGroup, encodings: Sequence[BitString]
) -> list[G1Element]:
    """:func:`decode_g1` of every encoding, with the subgroup checks of
    all the points run as one lockstep vector
    (:func:`~repro.groups.curve.batch_scalar_mul` by ``p``, a single
    native call when the compiled kernels serve the active backend).

    Every encoding is lifted to a curve point first, so a malformed one
    raises before any order is checked."""
    q = group.params.q
    points = [_lift_g1(q, bits) for bits in encodings]
    finite = [point for point in points if not point.is_infinity()]
    if finite and not all(
        point.is_infinity()
        for point in curve.batch_scalar_mul(finite, group.params.p, q)
    ):
        raise GroupError("decoded point is not in the order-p subgroup")
    return [G1Element(group, point) for point in points]


def _lift_g1(q: int, bits: BitString) -> Point:
    """The curve point a compressed encoding names, its order unchecked."""
    width = int_width(q)
    if len(bits) != width + 2:
        raise GroupError(
            f"G encoding must be {width + 2} bits, got {len(bits)}"
        )
    raw = int(bits)
    if not raw >> (width + 1):
        if raw:
            raise GroupError("malformed identity encoding")
        return INFINITY
    x = (raw >> 1) & ((1 << width) - 1)
    parity = raw & 1
    if x >= q:
        raise GroupError("x coordinate out of field range")
    rhs = (x * x * x + x) % q
    if rhs == 0:
        # y = 0 would be a 2-torsion point: not in the odd-order subgroup.
        raise GroupError("encoded point is 2-torsion, not in G")
    y = sqrt_mod_or_none(rhs, q)
    if y is None:
        raise GroupError("x is not the abscissa of a curve point")
    if y % 2 != parity:
        y = (-y) % q
    return Point(x, y, False)


def decode_gt(group: BilinearGroup, bits: BitString) -> GTElement:
    """Inverse of :meth:`GTElement.to_bits`."""
    q = group.params.q
    width = int_width(q)
    if len(bits) != 2 * width:
        raise GroupError(f"GT encoding must be {2 * width} bits, got {len(bits)}")
    raw = int(bits)
    a, b = raw >> width, raw & ((1 << width) - 1)
    if a >= q or b >= q:
        raise GroupError("GT coordinate out of field range")
    value = Fq2(a, b, q)
    if value.is_zero():
        raise GroupError("zero is not a GT element")
    if not (value ** group.params.p).is_one():
        raise GroupError("decoded value is not in the order-p subgroup")
    return GTElement(group, value)


def g1_roundtrip(group: BilinearGroup, element: G1Element) -> G1Element:
    """Encode-decode helper used in tests."""
    return decode_g1(group, element.to_bits())


def gt_roundtrip(group: BilinearGroup, element: GTElement) -> GTElement:
    return decode_gt(group, element.to_bits())
