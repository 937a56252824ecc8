"""Shared window-selection cost models.

Three exponentiation kernels pick a window width ``w`` from the same
family of cost trade-offs (table size vs. main-loop work):

* the batch-affine signed-digit multiexp, which runs every ``G``
  instance (:func:`wnaf_window`),
* ``GT`` Straus interleaved-window multiexp, which runs every ``GT``
  instance (:func:`straus_window`),
* fixed-base windowed exponentiation (:func:`fixed_base_window`,
  used by :class:`~repro.groups.precompute.FixedBaseExp`).

Costs are counted in group operations, with a squaring or doubling
costing the same as a multiplication or addition.
"""

from __future__ import annotations

#: Inclusive search bound for Straus windows: tables are per-base, so
#: widths beyond 7 never amortise at the term counts the schemes produce.
MAX_STRAUS_WINDOW = 7

#: Inclusive search bound for fixed-base windows (matches the
#: ``FixedBaseExp`` validation range).
MAX_FIXED_BASE_WINDOW = 16


def straus_window(terms: int, bits: int) -> int:
    """``GT`` Straus window width minimising the group-operation count.

    Cost model: table build is ``terms * (2^w - 2)`` multiplications,
    the main loop does ``bits`` squarings plus
    ``terms * (bits / w) * (1 - 2^-w)`` multiplications (a digit is zero
    with probability ``2^-w``).  Short exponents push toward small
    windows -- the table must amortise within one pass.
    """
    best_w, best_cost = 1, None
    for w in range(1, MAX_STRAUS_WINDOW + 1):
        cost = terms * ((1 << w) - 2) + bits + terms * (bits / w) * (1 - 2.0 ** -w)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def wnaf_window(bits: int) -> int:
    """wNAF width for one term of the batch-affine multiexp.

    Cost model per term: the table of odd multiples ``P, 3P, ..,
    (2^{w-1} - 1) P`` costs one doubling plus ``2^{w-2} - 1`` additions
    (nothing at ``w = 2``, where the table is ``P`` alone), and the main
    loop adds one entry per nonzero digit, ``bits / (w + 1)`` of them
    on average.  The accumulator doublings do not depend on ``w``.
    """
    best_w, best_cost = 2, None
    for w in range(2, MAX_STRAUS_WINDOW + 1):
        table = 0 if w == 2 else 1 << (w - 2)  # 1 doubling + the additions
        cost = table + bits / (w + 1)
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def fixed_base_window(bits: int, expected_uses: int = 256) -> int:
    """Fixed-base window width for a table amortised over
    ``expected_uses`` exponentiations.

    Cost model: the one-time table build is ``ceil(bits/w) * (2^w - 1)``
    multiplications (every row entry is one multiply), and each
    exponentiation then costs at most ``ceil(bits/w)`` multiplications.
    Minimises ``build + expected_uses * per_exp``.
    """
    best_w, best_cost = 1, None
    for w in range(1, MAX_FIXED_BASE_WINDOW + 1):
        digits = -(-bits // w)
        cost = digits * ((1 << w) - 1) + expected_uses * digits
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w
