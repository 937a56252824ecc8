"""Decoding group elements from their canonical bit encodings.

`G1Element.to_bits` / `GTElement.to_bits` (compressed point; coordinate
pair) are defined in :mod:`repro.groups.bilinear`; this module provides
the inverse direction, which persistence (:mod:`repro.utils.persist`)
and the CLI need:

* ``decode_g1``: flag bit, x coordinate, y parity -> curve point (y is
  recovered as ``sqrt(x^3 + x)`` and sign-corrected);
* ``decode_gt``: two coordinates -> ``F_{q^2}`` element.

Both validate group membership: the decoded element must be on the
curve / in the field *and* of order dividing ``p`` -- malformed or
wrong-subgroup encodings raise :class:`~repro.errors.GroupError`.
"""

from __future__ import annotations

from repro.errors import GroupError
from repro.groups import curve
from repro.groups.bilinear import BilinearGroup, G1Element, GTElement
from repro.groups.curve import Point
from repro.math.fields import Fq2
from repro.math.modular import sqrt_mod_or_none
from repro.utils.bits import BitString
from repro.utils.serialization import int_width


def decode_g1(
    group: BilinearGroup, bits: BitString, *, check_subgroup: bool = True
) -> G1Element:
    """Inverse of :meth:`G1Element.to_bits` (compressed encoding).

    ``check_subgroup=False`` skips the order-``p`` scalar multiplication
    (curve membership is still enforced by the square-root recovery);
    only trusted in-process decoders may skip it.
    """
    q = group.params.q
    width = int_width(q)
    if len(bits) != width + 2:
        raise GroupError(
            f"G encoding must be {width + 2} bits, got {len(bits)}"
        )
    raw = int(bits)
    if not raw >> (width + 1):
        if raw:
            raise GroupError("malformed identity encoding")
        return group.g_identity()
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
    point = Point(x, y, False)
    if check_subgroup and not curve.scalar_mul(point, group.params.p, q).is_infinity():
        raise GroupError("decoded point is not in the order-p subgroup")
    return G1Element(group, point)


def decode_gt(
    group: BilinearGroup, bits: BitString, *, check_subgroup: bool = True
) -> GTElement:
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
    if check_subgroup and not (value ** group.params.p).is_one():
        raise GroupError("decoded value is not in the order-p subgroup")
    return GTElement(group, value)


def g1_roundtrip(group: BilinearGroup, element: G1Element) -> G1Element:
    """Encode-decode helper used in tests."""
    return decode_g1(group, element.to_bits())


def gt_roundtrip(group: BilinearGroup, element: GTElement) -> GTElement:
    return decode_gt(group, element.to_bits())
