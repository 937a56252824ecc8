"""Modular arithmetic primitives over prime moduli.

These are the low-level building blocks for the finite fields in
:mod:`repro.math.fields` and the elliptic-curve arithmetic in
:mod:`repro.groups.curve`.  All functions operate on plain Python
integers and assume (without re-checking) that the modulus is an odd
prime unless stated otherwise.

Every modular power and inverse routes through the active
:mod:`field-arithmetic backend <repro.math.backend>` -- this module is
the *functional* face of that seam (the raw-representation face used by
the group kernels is :meth:`~repro.math.backend.FieldBackend.lift`).
Results are always canonical :class:`int`, whatever type the backend
computes with.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.math.backend import active_backend


def inv_mod(a: int, p: int) -> int:
    """Return the inverse of ``a`` modulo ``p``.

    Raises :class:`~repro.errors.ParameterError` if ``a`` is not invertible.
    """
    backend = active_backend()
    return backend.unlift(backend.inv_mod(a, p))


def batch_inv(
    values: list[int] | tuple[int, ...], p: int, skip_zero: bool = False
) -> list[int]:
    """Invert every element of ``values`` modulo ``p`` with a single
    modular inversion (Montgomery's trick).

    ``n`` inversions cost ``3(n - 1)`` multiplications plus one
    :func:`inv_mod` -- the kernel behind the batched Jacobian-to-affine
    normalisation and the pairing-precomputation schedule in
    :mod:`repro.groups.fastops` / :mod:`repro.groups.pairing`.

    Raises :class:`~repro.errors.ParameterError` if any value is
    ``0 (mod p)`` (reporting the offending index), leaving no partial
    output.  With ``skip_zero`` zero entries are instead skipped and
    backfilled as ``0`` -- the mixed-vector contract callers such as
    :func:`~repro.groups.curve.batch_to_affine` need when identity
    elements ride along with finite ones.
    """
    backend = active_backend()
    inverses = backend.batch_inv(values, p, skip_zero=skip_zero)
    if backend.native_ints:
        return inverses
    unlift = backend.unlift
    return [unlift(inverse) for inverse in inverses]


def pow_mod(base: int, exponent: int, p: int) -> int:
    """``base ** exponent mod p`` on the active backend.

    The sanctioned spelling of ``pow(base, exponent, p)`` for every
    layer above :mod:`repro.math` (the backend may route it to, e.g.,
    ``gmpy2.powmod``).
    """
    backend = active_backend()
    return backend.unlift(backend.pow_mod(base, exponent, p))


def legendre_symbol(a: int, p: int) -> int:
    """Return the Legendre symbol ``(a/p)`` in ``{-1, 0, 1}`` for odd prime ``p``."""
    a %= p
    if a == 0:
        return 0
    value = pow_mod(a, (p - 1) // 2, p)
    return -1 if value == p - 1 else 1


def is_quadratic_residue(a: int, p: int) -> bool:
    """Return True iff ``a`` is a nonzero square modulo the odd prime ``p``."""
    return legendre_symbol(a, p) == 1


def sqrt_mod_or_none(a: int, p: int) -> int | None:
    """Return a square root of ``a`` modulo the odd prime ``p``, or
    ``None`` if ``a`` is a non-residue.

    For ``p % 4 == 3`` this is one exponentiation: ``y = a^((p+1)/4)``
    satisfies ``y^2 = a^((p-1)/2) * a``, which is ``a`` exactly when the
    Euler criterion ``a^((p-1)/2) = 1`` holds, so checking ``y^2 == a``
    *is* the residuosity test.  Other primes take the Legendre symbol
    and then Tonelli-Shanks.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        y = pow_mod(a, (p + 1) // 4, p)
        return y if y * y % p == a else None
    if legendre_symbol(a, p) != 1:
        return None
    return _tonelli_shanks(a, p)


def sqrt_mod(a: int, p: int) -> int:
    """Return a square root of ``a`` modulo the odd prime ``p``.

    Raises :class:`~repro.errors.ParameterError` if ``a`` is a
    non-residue (see :func:`sqrt_mod_or_none`).
    """
    root = sqrt_mod_or_none(a, p)
    if root is None:
        raise ParameterError(f"{a % p} is not a quadratic residue modulo {p}")
    return root


def _tonelli_shanks(a: int, p: int) -> int:
    """Tonelli-Shanks square root for ``p % 4 == 1`` (``a`` known residue)."""
    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z.
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m = s
    c = pow_mod(z, q, p)
    t = pow_mod(a, q, p)
    r = pow_mod(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i in (0, m) with t^(2^i) == 1.
        i, t2i = 0, t
        while t2i != 1:
            t2i = t2i * t2i % p
            i += 1
        b = pow_mod(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve ``x = r1 (mod m1)``, ``x = r2 (mod m2)`` for coprime moduli.

    Returns the unique solution in ``[0, m1*m2)``.
    """
    g = _gcd(m1, m2)
    if g != 1:
        raise ParameterError(f"moduli {m1}, {m2} are not coprime")
    n = m1 * m2
    x = (r1 * m2 * inv_mod(m2, m1) + r2 * m1 * inv_mod(m1, m2)) % n
    return x


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
