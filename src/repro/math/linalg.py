"""Dense linear algebra over the prime field ``Z_p``.

Needed in two places:

* the *matrix kLin* assumption (paper section 2.1) talks about uniformly
  random rank-``i`` matrices -- :func:`random_matrix_of_rank` samples them;
* step (d) of the section-6 distinguisher solves a ``(kappa+1) x ell``
  linear system for the fake secret key share ``sk2``, subject to a
  full-rank requirement on the coefficient matrix --
  :func:`solve_uniform` samples a uniformly random solution of
  ``M x = v`` (particular solution plus a uniform kernel element).

Matrices are lists of row lists of ints in ``[0, p)``.  numpy is
deliberately not used: its floating/overflowing dtypes cannot represent
``Z_p`` arithmetic for cryptographic ``p``.
"""

from __future__ import annotations

import random

from repro.errors import ParameterError, SingularMatrixError
from repro.math.modular import inv_mod

Matrix = list[list[int]]
Vector = list[int]


def identity(n: int, p: int) -> Matrix:
    """Return the ``n x n`` identity matrix over ``Z_p``."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    """Return a ``rows x cols`` zero matrix."""
    return [[0] * cols for _ in range(rows)]


def random_matrix(rows: int, cols: int, p: int, rng: random.Random | None = None) -> Matrix:
    """Return a uniformly random ``rows x cols`` matrix over ``Z_p``."""
    rng = rng or random
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def random_vector(n: int, p: int, rng: random.Random | None = None) -> Vector:
    """Return a uniformly random length-``n`` vector over ``Z_p``."""
    rng = rng or random
    return [rng.randrange(p) for _ in range(n)]


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    """Return the matrix product ``a @ b`` over ``Z_p``."""
    if not a or not b:
        return []
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ParameterError("inner dimensions do not match")
    cols = len(b[0])
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        out_row = out[i]
        for k, aik in enumerate(row):
            if aik == 0:
                continue
            b_row = b[k]
            for j in range(cols):
                out_row[j] = (out_row[j] + aik * b_row[j]) % p
    return out


def mat_vec(a: Matrix, x: Vector, p: int) -> Vector:
    """Return ``a @ x`` over ``Z_p``."""
    return [sum(aij * xj for aij, xj in zip(row, x)) % p for row in a]


def dot(x: Vector, y: Vector, p: int) -> int:
    """Return the inner product ``<x, y>`` over ``Z_p``."""
    if len(x) != len(y):
        raise ParameterError("vector lengths differ")
    return sum(a * b for a, b in zip(x, y)) % p


def transpose(a: Matrix) -> Matrix:
    """Return the transpose of ``a``."""
    return [list(col) for col in zip(*a)] if a else []


def _row_echelon(a: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduce a copy of ``a`` to row-echelon form.

    Returns ``(echelon, pivot_cols)`` where ``pivot_cols[r]`` is the pivot
    column of row ``r``.
    """
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] % p != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = inv_mod(m[r][c], p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] % p != 0:
                factor = m[i][c]
                m[i] = [(x - factor * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix, p: int) -> int:
    """Return the rank of ``a`` over ``Z_p``."""
    if not a:
        return 0
    _, pivots = _row_echelon(a, p)
    return len(pivots)


def invert(a: Matrix, p: int) -> Matrix:
    """Return the inverse of a square matrix over ``Z_p``.

    Raises :class:`~repro.errors.SingularMatrixError` if singular.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ParameterError("matrix is not square")
    eye = identity(n, p)
    augmented = [row[:] + eye[i] for i, row in enumerate(a)]
    echelon, pivots = _row_echelon(augmented, p)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular over Z_p")
    return [row[n:] for row in echelon[:n]]


def solve(a: Matrix, b: Vector, p: int) -> Vector:
    """Return one solution ``x`` of ``a x = b`` over ``Z_p``.

    Raises :class:`~repro.errors.SingularMatrixError` if the system is
    inconsistent.  When the system is under-determined an arbitrary
    (zero-padded) particular solution is returned; use
    :func:`solve_uniform` for a uniformly random one.
    """
    if not a:
        return []
    cols = len(a[0])
    augmented = [row[:] + [bi] for row, bi in zip(a, b)]
    echelon, pivots = _row_echelon(augmented, p)
    # Inconsistency: pivot in the constants column.
    if pivots and pivots[-1] == cols:
        raise SingularMatrixError("inconsistent linear system over Z_p")
    x = [0] * cols
    for r, c in enumerate(pivots):
        x[c] = echelon[r][cols]
    return x


def kernel_basis(a: Matrix, p: int) -> list[Vector]:
    """Return a basis of the null space of ``a`` over ``Z_p``."""
    if not a:
        return []
    cols = len(a[0])
    echelon, pivots = _row_echelon(a, p)
    pivot_set = set(pivots)
    free_cols = [c for c in range(cols) if c not in pivot_set]
    basis: list[Vector] = []
    for free in free_cols:
        v = [0] * cols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = (-echelon[r][free]) % p
        basis.append(v)
    return basis


def solve_uniform(a: Matrix, b: Vector, p: int, rng: random.Random | None = None) -> Vector:
    """Return a *uniformly random* solution of ``a x = b`` over ``Z_p``.

    This is the sampler used by the section-6 distinguisher: it draws a
    particular solution and adds a uniform element of the kernel, so the
    output is uniform over the full solution affine subspace.
    """
    rng = rng or random
    x = solve(a, b, p)
    for v in kernel_basis(a, p):
        coefficient = rng.randrange(p)
        x = [(xi + coefficient * vi) % p for xi, vi in zip(x, v)]
    return x


def random_matrix_of_rank(
    rows: int, cols: int, target_rank: int, p: int, rng: random.Random | None = None
) -> Matrix:
    """Sample a uniformly random ``rows x cols`` matrix of rank ``target_rank``.

    Implements the ``Rk_i(Z_p^{a x b})`` distribution from the matrix kLin
    assumption (paper section 2.1) by the standard ``L @ R`` decomposition
    with ``L`` of shape ``rows x rank`` and ``R`` of shape ``rank x cols``,
    re-sampled until both factors have full rank.
    """
    if target_rank > min(rows, cols):
        raise ParameterError("rank exceeds matrix dimensions")
    if target_rank == 0:
        return zeros(rows, cols)
    rng = rng or random
    while True:
        left = random_matrix(rows, target_rank, p, rng)
        right = random_matrix(target_rank, cols, p, rng)
        if rank(left, p) == target_rank and rank(right, p) == target_rank:
            return mat_mul(left, right, p)
