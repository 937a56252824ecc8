"""Fast group-arithmetic kernels: simultaneous multi-exponentiation.

Every scheme operation bottoms out in products of powers --
``prod_i x_i ** e_i`` over ``G`` or ``GT`` -- which the naive per-term
square-and-multiply ladder evaluates with ``~1.5 log p`` group
operations *per term*.  The kernels here share the squarings across all
terms:

* **``G``: batch-affine, one path for every instance.**
  :func:`batch_multiexp_points` evaluates a vector of independent
  multiexps (one HPSKE mask per message, one weighted product per
  ciphertext coordinate) together in affine coordinates with signed
  (wNAF) digits: every doubling or addition round across the whole
  vector shares one inversion (Montgomery's trick).  A lone instance,
  whatever its term count, is a batch of one.
* **``GT``: Straus (interleaved window), one path for every
  instance** -- per-base tables of ``x_i ** d`` (``d < 2^w``), one
  shared chain of ``w`` squarings per digit position.  The DLR combine
  steps produce a few dozen terms at most; see docs/performance.md for
  what larger instances pay on the Python kernels.

All operate on raw representations (integer pairs for affine points
and ``F_{q^2}`` values) -- no element-object allocation in the hot
loop.  The element-level entry points live on
:class:`~repro.groups.bilinear.BilinearGroup` /
:meth:`~repro.groups.bilinear.G1Element.multiexp`, which also maintain
the ``g_multiexp`` / ``gt_multiexp`` operation counters.

The batch-affine and ``F_{q^2}`` Straus loops run as compiled GMP
kernels when :mod:`repro.groups.native` can build them; the Python
loops here stay the reference and the fallback.

:func:`reference_mode` disables every fast path process-wide (kernels
fall back to the naive per-term element ladders, fixed-argument pairing
precomputation falls back to full pairings).  The benchmarks use it to
measure honest before/after wall-clock on identical inputs, and the
property tests use it to pin fast == naive.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.errors import GroupError
from repro.groups import native
from repro.groups.curve import (
    INFINITY,
    Point,
    batch_add_affine,
    batch_double_affine,
    from_raw_affine,
    to_raw_affine,
)
from repro.groups.windows import straus_window, wnaf_window
from repro.math.modular import fq2_mul, fq2_square

_RawFq2 = tuple[int, int]

#: Table entries the batch-affine multiexp sums per lockstep tree: wide
#: enough that each round's one inversion is amortised, small enough
#: that a round's temporaries stay a few tens of KB.
_TREE_ENTRIES = 512

_enabled = True


def enabled() -> bool:
    """Are the fast kernels active (i.e. not in :func:`reference_mode`)?"""
    return _enabled


@contextmanager
def reference_mode() -> Iterator[None]:
    """Run everything on the naive reference paths inside the block.

    Affects every fast kernel process-wide: ``multiexp`` degrades to the
    per-term element ladder (counted as individual exponentiations,
    exactly like the pre-kernel code), and
    :meth:`~repro.groups.bilinear.G1Precomp.pair` degrades to full
    pairings.  Results are bit-identical either way -- that is what the
    golden-transcript and property tests pin.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


# Window widths come from the shared cost models in
# :mod:`repro.groups.windows`.

# ---------------------------------------------------------------------------
# G (curve) kernels


def wnaf_digits(exponent: int, w: int) -> list[tuple[int, int]]:
    """The nonzero signed width-``w`` NAF digits of a positive exponent,
    as ``(bit position, digit)`` pairs from the least significant end.

    Every digit is odd with ``|digit| < 2^{w-1}``, any ``w`` consecutive
    positions hold at most one of them, and
    ``sum(digit << position) == exponent``.  Negative digits cost
    nothing on the curve (negating a point negates ``y``), so only odd
    positive multiples need computing.
    """
    digits: list[tuple[int, int]] = []
    full = 1 << w
    half = full >> 1
    position = 0
    while exponent:
        zeros = (exponent & -exponent).bit_length() - 1
        exponent >>= zeros
        position += zeros
        digit = exponent & (full - 1)
        if digit >= half:
            digit -= full
        digits.append((position, digit))
        # exponent - digit is divisible by 2^w: the next w digits are 0.
        exponent = (exponent - digit) >> w
        position += w
    return digits


def _sum_column_groups(groups: list[list[list]], width: int, q: int) -> list[list]:
    """Sum each group of equal-length columns of raw affine points
    element-wise, all groups in lockstep.

    Every group reduces as a balanced tree; each round pairs up the
    columns of *every* group and adds all pairs in one
    :func:`~repro.groups.curve.batch_add_affine` (one inversion), so the
    whole reduction takes ``ceil(log2 k)`` rounds for the largest group
    size ``k``.  ``None`` entries are infinity and pass through."""
    while True:
        lefts: list = []
        rights: list = []
        for columns in groups:
            for k in range(0, len(columns) - 1, 2):
                lefts.extend(columns[k])
                rights.extend(columns[k + 1])
        if not lefts:
            return [columns[0] for columns in groups]
        sums = batch_add_affine(lefts, rights, q)
        start = 0
        reduced = []
        for columns in groups:
            pairs = len(columns) >> 1
            halved = [
                sums[start + k * width : start + (k + 1) * width] for k in range(pairs)
            ]
            start += pairs * width
            if len(columns) & 1:
                halved.append(columns[-1])
            reduced.append(halved)
        groups = reduced


def _digit_layout(
    exponents: tuple[int, ...], w: int
) -> tuple[list[list[tuple[int, int, int]]], list[int], dict[int, int]]:
    """Where one exponent vector's signed digits land in the lockstep sums.

    Per term: ``(bit position, column, table index)`` for each nonzero
    digit, where the column counts the earlier terms with a digit at
    that position and the index picks ``|d| P`` or ``-|d| P`` from the
    signed table ``P, -P, 3P, -3P, ...``.  Also how many odd multiples
    each term's table needs (up to its largest digit) and the column
    count per position.  Instances sharing the vector share the layout.
    """
    filled: dict[int, int] = {}
    terms: list[list[tuple[int, int, int]]] = []
    multiples: list[int] = []
    for exponent in exponents:
        entries = []
        largest = 1
        for position, digit in wnaf_digits(exponent, w):
            column = filled.get(position, 0)
            filled[position] = column + 1
            magnitude = abs(digit)
            largest = max(largest, magnitude)
            entries.append((position, column, magnitude - 1 + (digit < 0)))
        terms.append(entries)
        multiples.append((largest + 1) // 2)
    return terms, multiples, filled


def _batch_affine_multiexp(
    instances: "list[tuple[list[Point], list[int]]]", q: int
) -> list[Point]:
    """Evaluate a vector of one or more instances in lockstep affine form.

    One shared wNAF width (:func:`~repro.groups.windows.wnaf_window`,
    sized by the widest exponent).  Every term's signed table
    ``P, -P, 3P, -3P, ...`` is built by batched rounds: one doubling
    round for all ``2P``, then one addition round per odd multiple,
    each across every term of every instance, and only up to the
    largest digit that term uses.  Then the table entries each instance
    adds at each bit position are summed for many positions at once
    (:func:`_sum_column_groups`), and the accumulators fold those sums
    in from the top bit down, one doubling round per bit.  Every round
    shares one inversion, so the vector never leaves affine
    coordinates.  Instances sharing one exponent vector -- the HPSKE
    masks and the coordinates of a weighted product -- share one digit
    layout (:func:`_digit_layout`) and fill their columns exactly.

    When the compiled kernels are built (:mod:`repro.groups.native`),
    the whole evaluation -- layout,
    tables, trees and Horner -- is one native call.
    """
    bits = max(e.bit_length() for _, exponents in instances for e in exponents)
    w = wnaf_window(bits)
    compiled = native.kernels()
    if compiled is not None:
        return from_raw_affine(
            compiled.affine_multiexp(
                q,
                w,
                _TREE_ENTRIES,
                [
                    (
                        [None if p.infinity else (p.x, p.y) for p in points],
                        list(exponents),
                    )
                    for points, exponents in instances
                ],
            )
        )
    layouts: dict[tuple[int, ...], tuple] = {}
    instance_layouts = []
    for _, exponents in instances:
        key = tuple(exponents)
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = _digit_layout(key, w)
        instance_layouts.append(layout)
    multiples = [count for layout in instance_layouts for count in layout[1]]
    bases_raw = to_raw_affine([point for points, _ in instances for point in points], q)

    # Odd multiples P, 3P, 5P, ... up to each term's largest digit.
    tables = [[base] for base in bases_raw]
    growing = [j for j, count in enumerate(multiples) if count > 1]
    if growing:
        doubles = batch_double_affine([bases_raw[j] for j in growing], q)
        for row in range(1, max(multiples)):
            active = [k for k, j in enumerate(growing) if multiples[j] > row]
            sums = batch_add_affine(
                [tables[growing[k]][-1] for k in active],
                [doubles[k] for k in active],
                q,
            )
            for k, point in zip(active, sums):
                tables[growing[k]].append(point)
    for table in tables:
        table[:] = [
            signed
            for entry in table
            for signed in (entry, None if entry is None else (entry[0], -entry[1] % q))
        ]

    # Per bit position, the table entries to add as columns over the
    # instances (column c holds each instance's c-th entry there).
    width = len(instances)
    depth: dict[int, int] = {}
    for _, _, filled in layouts.values():
        for position, count in filled.items():
            depth[position] = max(depth.get(position, 0), count)
    columns_at = {
        position: [[None] * width for _ in range(count)]
        for position, count in depth.items()
    }
    term_tables = iter(tables)
    for owner, (terms, _, _) in enumerate(instance_layouts):
        for entries in terms:
            table = next(term_tables)
            for position, column, index in entries:
                columns_at[position][column][owner] = table[index]
    del tables, term_tables
    positions = sorted(columns_at, reverse=True)

    # Each position's entries summed by lockstep trees over slices of
    # positions, then Horner from the top: acc = 2^gap * acc + sum.
    sums: list[list] = []
    start = 0
    while start < len(positions):
        stop, entries = start, 0
        while stop < len(positions) and entries < _TREE_ENTRIES:
            entries += len(columns_at[positions[stop]]) * width
            stop += 1
        sums.extend(
            _sum_column_groups(
                [columns_at.pop(position) for position in positions[start:stop]],
                width,
                q,
            )
        )
        start = stop
    acc: list = [None] * width
    previous = None
    for position, position_sum in zip(positions, sums):
        if previous is not None:
            for _ in range(previous - position):
                acc = batch_double_affine(acc, q)
        acc = batch_add_affine(acc, position_sum, q)
        previous = position
    if previous:
        for _ in range(previous):
            acc = batch_double_affine(acc, q)
    return from_raw_affine(acc)


def batch_multiexp_points(
    instances: "list[tuple[list[Point], list[int]]]", q: int
) -> list[Point]:
    """``prod_i exponents[i] * points[i]`` on the curve (additive view)
    for every instance of a vector, amortised.

    The one ``G`` entry point.  Callers pre-reduce exponents to
    ``[1, order)`` and drop zero/infinity terms.  An empty instance is
    :data:`~repro.groups.curve.INFINITY`; every other instance, whatever
    its term count, runs in the lockstep affine vector of
    :func:`_batch_affine_multiexp`: signed digits, one shared inversion
    per doubling or addition round, no per-instance normalisation.  A
    lone instance is a batch of one.
    """
    busy: list[int] = []
    for idx, (points, exponents) in enumerate(instances):
        if len(points) != len(exponents):
            raise GroupError("multiexp: bases and exponents differ in length")
        if points:
            busy.append(idx)
    results = [INFINITY] * len(instances)
    if busy:
        values = _batch_affine_multiexp([instances[idx] for idx in busy], q)
        for idx, value in zip(busy, values):
            results[idx] = value
    return results


# ---------------------------------------------------------------------------
# GT (F_{q^2} subgroup) kernels


def _straus_fq2_shared(
    values: list[_RawFq2], exponents: list[int], w: int, digits: int, q: int
) -> _RawFq2:
    """Straus over ``F_{q^2}`` with a caller-chosen window and digit
    count (the shared decision of :func:`batch_multiexp_fq2`).  Runs as
    one :mod:`native <repro.groups.native>` call when the compiled
    kernels are built."""
    compiled = native.kernels()
    if compiled is not None:
        return compiled.straus_fq2(list(values), list(exponents), w, digits, q)
    mask = (1 << w) - 1
    tables = []
    for value in values:
        row = [value]
        for _ in range(2, 1 << w):
            row.append(fq2_mul(row[-1], value, q))
        tables.append(row)

    acc: _RawFq2 = (1, 0)
    for position in range(digits - 1, -1, -1):
        if acc != (1, 0):
            for _ in range(w):
                acc = fq2_square(acc, q)
        shift = position * w
        for row, exponent in zip(tables, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                acc = fq2_mul(acc, row[digit - 1], q)
    return acc


def batch_multiexp_fq2(
    instances: "list[tuple[list[_RawFq2], list[int]]]", q: int
) -> list[_RawFq2]:
    """``prod_i values[i] ** exponents[i]`` in ``F_{q^2}`` for every
    instance of a vector, amortised.

    The one ``GT`` entry point, with the contract of
    :func:`batch_multiexp_points`: exponents pre-reduced to
    ``[1, order)``, identity terms dropped by the caller.  The
    ``F_{q^2}`` Straus path has no batched inversion to share, so the
    amortisation here is the window/cost-model decision: one
    :func:`straus_window` call sized by the widest exponent and largest
    term count serves every non-empty instance, and an empty instance is
    the identity.  A lone instance gets the window its own terms pick.
    """
    busy: list[int] = []
    for idx, (values, exponents) in enumerate(instances):
        if len(values) != len(exponents):
            raise GroupError("multiexp: bases and exponents differ in length")
        if values:
            busy.append(idx)
    results: list[_RawFq2] = [(1, 0)] * len(instances)
    if not busy:
        return results

    bits = max(e.bit_length() for idx in busy for e in instances[idx][1])
    w = straus_window(max(len(instances[idx][0]) for idx in busy), bits)
    digits = -(-bits // w)
    for idx in busy:
        values, exponents = instances[idx]
        results[idx] = _straus_fq2_shared(values, exponents, w, digits, q)
    return results
