"""Fast group-arithmetic kernels: simultaneous multi-exponentiation.

Every scheme operation bottoms out in products of powers --
``prod_i x_i ** e_i`` over ``G`` or ``GT`` -- which the naive per-term
square-and-multiply ladder evaluates with ``~1.5 log p`` group
operations *per term*.  The kernels here share the squarings across all
terms:

* **Straus (interleaved window)** -- per-base tables of ``d * P_i``
  (``d < 2^w``), one shared chain of ``w`` squarings per digit position.
  The right choice for the ``ell <= ~50`` term counts the DLR combine
  steps produce.  ``G`` tables are built in Jacobian form and normalised
  to affine with a *single* batched inversion
  (:func:`~repro.groups.curve.batch_to_affine`), so the main loop can
  use cheap mixed additions.
* **Pippenger (bucket method)** -- no per-base tables; per digit
  position the bases are dropped into ``2^w - 1`` buckets and folded
  with a running suffix sum.  Asymptotically better; selected
  automatically above :data:`PIPPENGER_THRESHOLD` terms.
* **Batch-affine (vectors of instances)** -- a period's independent
  multiexps (one HPSKE mask per message, one weighted product per
  ciphertext coordinate) evaluated together in affine coordinates with
  signed (wNAF) digits: every doubling or addition round across the
  whole vector shares one inversion (Montgomery's trick).  Selected by
  :func:`batch_multiexp_points` whenever it holds two or more
  Straus-sized instances; a lone instance keeps the Jacobian path.

Both operate on raw representations (Jacobian integer triples for the
curve, integer pairs for ``F_{q^2}``) -- no element-object allocation in
the hot loop.  The element-level entry points live on
:class:`~repro.groups.bilinear.BilinearGroup` /
:meth:`~repro.groups.bilinear.G1Element.multiexp`, which also maintain
the ``g_multiexp`` / ``gt_multiexp`` operation counters.

On the pure-Python field backend the batch-affine and ``F_{q^2}``
Straus loops run as compiled GMP kernels when
:mod:`repro.groups.native` can build them; the Python loops here stay
the reference and the fallback.

:func:`reference_mode` disables every fast path process-wide (kernels
fall back to the naive per-term element ladders, fixed-argument pairing
precomputation falls back to full pairings).  The benchmarks use it to
measure honest before/after wall-clock on identical inputs, and the
property tests use it to pin fast == naive.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain
from typing import Iterator

from repro.errors import GroupError
from repro.groups import native
from repro.groups.curve import (
    INFINITY,
    Point,
    _jacobian_add,
    _jacobian_add_affine,
    _jacobian_double,
    _jacobian_to_affine,
    batch_add_affine,
    batch_double_affine,
    batch_to_affine,
    lift_affine,
    unlift_affine,
)
from repro.groups.windows import bucket_window, straus_window, wnaf_window
from repro.math.backend import active_backend

_RawFq2 = tuple[int, int]

#: Term count above which the bucket method beats the interleaved
#: window (tables grow linearly with terms, buckets do not).
PIPPENGER_THRESHOLD = 64

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


# Window widths come from the shared backend-aware cost models in
# :mod:`repro.groups.windows` (formerly duplicated inline here and in
# precompute.FixedBaseExp).

# ---------------------------------------------------------------------------
# G (curve) kernels


def multiexp_points(
    points: list[Point], exponents: list[int], q: int
) -> Point:
    """``prod_i exponents[i] * points[i]`` on the curve (additive view).

    Callers must pre-reduce exponents to ``[1, order)`` and drop
    zero/infinity terms; this chooses Straus or Pippenger by term count.
    """
    if len(points) != len(exponents):
        raise GroupError("multiexp: bases and exponents differ in length")
    if not points:
        return INFINITY
    if len(points) == 1:
        return _scalar_mul_point(points[0], exponents[0], q)
    if len(points) >= PIPPENGER_THRESHOLD:
        return _pippenger_points(points, exponents, q)
    return _straus_points(points, exponents, q)


def _scalar_mul_point(point: Point, exponent: int, q: int) -> Point:
    lift = active_backend().lift
    q = lift(q)
    jac = (1, 1, 0)
    ax, ay = lift(point.x) % q, lift(point.y) % q
    for bit in bin(exponent)[2:]:
        jac = _jacobian_double(jac, q)
        if bit == "1":
            jac = _jacobian_add_affine(jac, ax, ay, q)
    return _jacobian_to_affine(jac, q)


def _straus_points(points: list[Point], exponents: list[int], q: int) -> Point:
    bits = max(e.bit_length() for e in exponents)
    w = straus_window(len(points), bits)
    lift = active_backend().lift
    q = lift(q)
    mask = (1 << w) - 1
    # Per-base tables of d*P for d in [1, 2^w), built in Jacobian form
    # and normalised to affine in ONE batched inversion.
    jac_entries = []
    for point in points:
        ax, ay = lift(point.x) % q, lift(point.y) % q
        entry = (ax, ay, 1)
        jac_entries.append(entry)
        for _ in range(2, 1 << w):
            entry = _jacobian_add_affine(entry, ax, ay, q)
            jac_entries.append(entry)
    affine = batch_to_affine(jac_entries, q)
    row_len = (1 << w) - 1
    tables = [affine[i * row_len : (i + 1) * row_len] for i in range(len(points))]

    digits = -(-bits // w)
    acc = (1, 1, 0)
    for position in range(digits - 1, -1, -1):
        if acc[2] != 0:
            for _ in range(w):
                acc = _jacobian_double(acc, q)
        shift = position * w
        for table, exponent in zip(tables, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                entry = table[digit - 1]
                if not entry.is_infinity():
                    acc = _jacobian_add_affine(acc, entry.x, entry.y, q)
    return _jacobian_to_affine(acc, q)


def _pippenger_points(points: list[Point], exponents: list[int], q: int) -> Point:
    bits = max(e.bit_length() for e in exponents)
    w = bucket_window(len(points), bits)
    lift = active_backend().lift
    q = lift(q)
    mask = (1 << w) - 1
    digits = -(-bits // w)
    affine = [(lift(p.x) % q, lift(p.y) % q) for p in points]

    acc = (1, 1, 0)
    for position in range(digits - 1, -1, -1):
        if acc[2] != 0:
            for _ in range(w):
                acc = _jacobian_double(acc, q)
        shift = position * w
        buckets: list[tuple[int, int, int] | None] = [None] * (1 << w)
        for (ax, ay), exponent in zip(affine, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                current = buckets[digit]
                buckets[digit] = (
                    (ax, ay, 1)
                    if current is None
                    else _jacobian_add_affine(current, ax, ay, q)
                )
        # sum_d d * bucket[d] via the running suffix sum.
        running = (1, 1, 0)
        window_sum = (1, 1, 0)
        for digit in range(mask, 0, -1):
            bucket = buckets[digit]
            if bucket is not None:
                running = _jacobian_add(running, bucket, q)
            if running[2] != 0:
                window_sum = _jacobian_add(window_sum, running, q)
        acc = _jacobian_add(acc, window_sum, q)
    return _jacobian_to_affine(acc, q)


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


def _sum_column_groups(groups: list[list[list]], width: int, q) -> list[list]:
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
    """Evaluate many Straus-sized instances in lockstep affine form.

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

    When the compiled kernels serve the active backend
    (:mod:`repro.groups.native`), the whole evaluation -- layout,
    tables, trees and Horner -- is one native call.
    """
    bits = max(e.bit_length() for _, exponents in instances for e in exponents)
    w = wnaf_window(bits)
    compiled = native.kernels()
    if compiled is not None:
        return unlift_affine(
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
    q = active_backend().lift(q)

    layouts: dict[tuple[int, ...], tuple] = {}
    instance_layouts = []
    for _, exponents in instances:
        key = tuple(exponents)
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = _digit_layout(key, w)
        instance_layouts.append(layout)
    multiples = [count for layout in instance_layouts for count in layout[1]]
    bases_raw = lift_affine([point for points, _ in instances for point in points], q)

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
    return unlift_affine(acc)


def batch_multiexp_points(
    instances: "list[tuple[list[Point], list[int]]]", q: int
) -> list[Point]:
    """Evaluate a vector of independent multiexp instances, amortised.

    Same per-instance contract as :func:`multiexp_points` (pre-reduced
    exponents, trivial terms dropped).  Two or more Straus-sized
    instances run together in lockstep affine coordinates
    (:func:`_batch_affine_multiexp`): signed digits, one shared
    inversion per doubling or addition round across the whole vector,
    no per-instance normalisation.  A lone Straus instance keeps the
    Jacobian path of :func:`multiexp_points`, which wins at one
    instance; Pippenger-sized and degenerate instances dispatch
    individually.  Results are bit-identical to mapping
    :func:`multiexp_points` over the instances.
    """
    results: list[Point | None] = [None] * len(instances)
    straus_idx: list[int] = []
    for idx, (points, exponents) in enumerate(instances):
        if len(points) != len(exponents):
            raise GroupError("multiexp: bases and exponents differ in length")
        if not points:
            results[idx] = INFINITY
        elif len(points) == 1:
            results[idx] = _scalar_mul_point(points[0], exponents[0], q)
        elif len(points) >= PIPPENGER_THRESHOLD:
            results[idx] = _pippenger_points(points, exponents, q)
        else:
            straus_idx.append(idx)
    if len(straus_idx) == 1:
        idx = straus_idx[0]
        results[idx] = _straus_points(*instances[idx], q)
    elif straus_idx:
        values = _batch_affine_multiexp([instances[idx] for idx in straus_idx], q)
        for idx, value in zip(straus_idx, values):
            results[idx] = value
    return results  # type: ignore[return-value]


def batch_multiexp_points_chunk(
    q: int, instances: "list[tuple[list[Point], list[int]]]"
) -> list[Point]:
    """Pool worker: :func:`batch_multiexp_points` with the modulus bound
    first (``functools.partial(…, q)`` pickles for
    :func:`repro.parallel.parallel_map`).  Pure per-chunk form -- it must
    never dispatch back through the pool itself."""
    return batch_multiexp_points(instances, q)


# ---------------------------------------------------------------------------
# GT (F_{q^2} subgroup) kernels


def multiexp_fq2(values: list[_RawFq2], exponents: list[int], q: int) -> _RawFq2:
    """``prod_i values[i] ** exponents[i]`` in ``F_{q^2}``.

    Same contract as :func:`multiexp_points`: exponents pre-reduced to
    ``[1, order)``, identity terms dropped by the caller.
    """
    if len(values) != len(exponents):
        raise GroupError("multiexp: bases and exponents differ in length")
    if not values:
        return (1, 0)
    if len(values) >= PIPPENGER_THRESHOLD:
        return _pippenger_fq2(values, exponents, q)
    return _straus_fq2(values, exponents, q)


def _straus_fq2(values: list[_RawFq2], exponents: list[int], q: int) -> _RawFq2:
    bits = max(e.bit_length() for e in exponents)
    w = straus_window(len(values), bits)
    backend = active_backend()
    if not backend.native_ints:
        lift = backend.lift
        q = lift(q)
        values = [(lift(a), lift(b)) for a, b in values]
    return _straus_fq2_shared(values, exponents, w, -(-bits // w), q)


def _straus_fq2_shared(
    values: list[_RawFq2], exponents: list[int], w: int, digits: int, q
) -> _RawFq2:
    """Straus over ``F_{q^2}`` with a caller-chosen window and digit
    count (the shared decision of :func:`batch_multiexp_fq2`).  Inputs
    must already be lifted to the active backend's representation.
    Runs as one :mod:`native <repro.groups.native>` call when the
    compiled kernels serve the active backend."""
    compiled = native.kernels()
    if compiled is not None:
        return compiled.straus_fq2(list(values), list(exponents), w, digits, q)
    backend = active_backend()
    fq2_mul, fq2_square = backend.fq2_mul, backend.fq2_square
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
    return (backend.unlift(acc[0]), backend.unlift(acc[1]))


def batch_multiexp_fq2(
    instances: "list[tuple[list[_RawFq2], list[int]]]", q: int
) -> list[_RawFq2]:
    """Evaluate a vector of ``F_{q^2}`` multiexp instances, amortised.

    The ``F_{q^2}`` Straus path has no batched inversion to share, so
    the amortisation here is the window/cost-model decision (and the
    single backend lift of the modulus): one :func:`straus_window` call
    sized by the widest exponent and largest term count serves every
    Straus-sized instance.  Pippenger-sized and empty instances dispatch
    individually.  Results equal mapping :func:`multiexp_fq2`.
    """
    results: list[_RawFq2 | None] = [None] * len(instances)
    straus_idx: list[int] = []
    for idx, (values, exponents) in enumerate(instances):
        if len(values) != len(exponents):
            raise GroupError("multiexp: bases and exponents differ in length")
        if not values:
            results[idx] = (1, 0)
        elif len(values) >= PIPPENGER_THRESHOLD:
            results[idx] = _pippenger_fq2(values, exponents, q)
        else:
            straus_idx.append(idx)
    if not straus_idx:
        return results  # type: ignore[return-value]

    bits = max(
        e.bit_length() for idx in straus_idx for e in instances[idx][1]
    )
    w = straus_window(max(len(instances[idx][0]) for idx in straus_idx), bits)
    digits = -(-bits // w)
    backend = active_backend()
    lifted_q = q
    for idx in straus_idx:
        values = instances[idx][0]
        if not backend.native_ints:
            lift = backend.lift
            lifted_q = lift(q)
            values = [(lift(a), lift(b)) for a, b in values]
        results[idx] = _straus_fq2_shared(
            values, instances[idx][1], w, digits, lifted_q
        )
    return results  # type: ignore[return-value]


def batch_multiexp_fq2_chunk(
    q: int, instances: "list[tuple[list[_RawFq2], list[int]]]"
) -> list[_RawFq2]:
    """Pool worker: :func:`batch_multiexp_fq2` with the modulus bound
    first; see :func:`batch_multiexp_points_chunk`."""
    return batch_multiexp_fq2(instances, q)


def _pippenger_fq2(values: list[_RawFq2], exponents: list[int], q: int) -> _RawFq2:
    bits = max(e.bit_length() for e in exponents)
    w = bucket_window(len(values), bits)
    backend = active_backend()
    fq2_mul, fq2_square = backend.fq2_mul, backend.fq2_square
    if not backend.native_ints:
        lift = backend.lift
        q = lift(q)
        values = [(lift(a), lift(b)) for a, b in values]
    mask = (1 << w) - 1
    digits = -(-bits // w)

    acc: _RawFq2 = (1, 0)
    for position in range(digits - 1, -1, -1):
        if acc != (1, 0):
            for _ in range(w):
                acc = fq2_square(acc, q)
        shift = position * w
        buckets: list[_RawFq2 | None] = [None] * (1 << w)
        for value, exponent in zip(values, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                current = buckets[digit]
                buckets[digit] = value if current is None else fq2_mul(current, value, q)
        running: _RawFq2 = (1, 0)
        window_sum: _RawFq2 = (1, 0)
        for digit in range(mask, 0, -1):
            bucket = buckets[digit]
            if bucket is not None:
                running = fq2_mul(running, bucket, q)
            if running != (1, 0):
                window_sum = fq2_mul(window_sum, running, q)
        acc = fq2_mul(acc, window_sum, q)
    return (backend.unlift(acc[0]), backend.unlift(acc[1]))
