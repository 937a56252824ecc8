"""Modular arithmetic primitives over prime moduli.

These are the low-level building blocks for the finite fields in
:mod:`repro.math.fields`, the elliptic-curve arithmetic in
:mod:`repro.groups.curve` and the pairing in :mod:`repro.groups.pairing`.
All functions operate on plain Python integers and assume (without
re-checking) that the modulus is an odd prime unless stated otherwise.

The raw ``F_{q^2} = F_q[i]/(i^2 + 1)`` kernels (:func:`fq2_mul`,
:func:`fq2_square`, :func:`fq2_pow`, :func:`fq2_inverse`) take and
return ``(a, b)`` pairs standing for ``a + b*i``; the element API in
:mod:`repro.math.fields` and the Miller loops are written on them.
"""

from __future__ import annotations

from repro.errors import ParameterError

_RawFq2 = tuple[int, int]  # (a, b) representing a + b*i, i^2 = -1


def mul_mod(a: int, b: int, p: int) -> int:
    """``a * b mod p``."""
    return a * b % p


def pow_mod(base: int, exponent: int, p: int) -> int:
    """``base ** exponent mod p``."""
    return pow(base, exponent, p)


def inv_mod(a: int, p: int) -> int:
    """Return the inverse of ``a`` modulo ``p``.

    Raises :class:`~repro.errors.ParameterError` if ``a`` is ``0 (mod p)``.
    """
    a %= p
    if a == 0:
        raise ParameterError(f"0 is not invertible modulo {p}")
    return pow(a, -1, p)


def batch_inv(
    values: list[int] | tuple[int, ...], p: int, skip_zero: bool = False
) -> list[int]:
    """Invert every element of ``values`` modulo ``p`` with a single
    modular inversion (Montgomery's trick).

    ``n`` inversions cost ``3(n - 1)`` multiplications plus one
    :func:`inv_mod` -- the kernel behind the batched Jacobian-to-affine
    normalisation and the pairing-precomputation schedule in
    :mod:`repro.groups.curve` / :mod:`repro.groups.pairing`.

    Raises :class:`~repro.errors.ParameterError` if any value is
    ``0 (mod p)`` (reporting the offending index), leaving no partial
    output.  With ``skip_zero`` zero entries are instead skipped and
    backfilled as ``0`` -- the mixed-vector contract callers such as
    :func:`~repro.groups.curve.batch_to_affine` need when identity
    elements ride along with finite ones -- while every other entry
    still shares the single inversion.
    """
    prefix = []
    acc = 1
    for value in values:
        acc = acc * value % p
        prefix.append(acc)
    if acc == 0:
        # Some entry is 0 (mod p), p being prime: report the first, or
        # invert the others with those entries standing in as 1.
        zeros = [i for i, value in enumerate(values) if value % p == 0]
        if not skip_zero:
            raise ParameterError(f"0 is not invertible modulo {p} (index {zeros[0]})")
        inverses = batch_inv([1 if value % p == 0 else value for value in values], p)
        for i in zeros:
            inverses[i] = 0
        return inverses
    n = len(values)
    if n == 0:
        return []
    inv = inv_mod(acc, p)
    inverses = [0] * n
    for i in range(n - 1, 0, -1):
        inverses[i] = inv * prefix[i - 1] % p
        inv = inv * values[i] % p
    inverses[0] = inv
    return inverses


def fq2_mul(u: _RawFq2, v: _RawFq2, q: int) -> _RawFq2:
    """Karatsuba product in ``F_{q^2}`` with **lazy reduction**: the
    three cross products stay unreduced and each output coordinate is
    reduced exactly once."""
    a, b = u
    c, d = v
    ac = a * c
    bd = b * d
    cross = (a + b) * (c + d) - ac - bd
    return ((ac - bd) % q, cross % q)


def fq2_square(u: _RawFq2, q: int) -> _RawFq2:
    """``u^2`` in ``F_{q^2}``: ``(a - b)(a + b) + 2ab*i``."""
    a, b = u
    return ((a - b) * (a + b) % q, 2 * a * b % q)


def fq2_pow(u: _RawFq2, exponent: int, q: int) -> _RawFq2:
    """``u ** exponent`` in ``F_{q^2}`` by square-and-multiply; a
    negative exponent inverts first (:func:`fq2_inverse`)."""
    if exponent < 0:
        return fq2_pow(fq2_inverse(u, q), -exponent, q)
    result: _RawFq2 = (1, 0)
    base = u
    while exponent:
        if exponent & 1:
            result = fq2_mul(result, base, q)
        base = fq2_square(base, q)
        exponent >>= 1
    return result


def fq2_inverse(u: _RawFq2, q: int) -> _RawFq2:
    """``1 / u`` in ``F_{q^2}``: ``conj(u) / N(u)``.

    Unitary elements (norm 1, which includes all of the order-``p``
    pairing subgroup) invert by conjugation alone, with no modular
    inversion.  Raises :class:`~repro.errors.ParameterError` on zero.
    """
    a, b = u
    norm = a * a + b * b
    if norm % q == 0:
        raise ParameterError("0 is not invertible in F_{q^2}")
    if norm % q == 1:
        return (a % q, (-b) % q)
    norm_inv = inv_mod(norm, q)
    return (a * norm_inv % q, (-b) * norm_inv % q)


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
