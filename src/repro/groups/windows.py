"""Shared, backend-aware window-selection cost models.

Four exponentiation kernels pick a window width ``w`` from the same
family of cost trade-offs (table size vs. main-loop work):

* the batch-affine signed-digit multiexp, which runs every ``G``
  instance (:func:`wnaf_window`),
* ``GT`` Straus interleaved-window multiexp (:func:`straus_window`),
* ``GT`` Pippenger bucket multiexp (:func:`bucket_window`),
* fixed-base windowed exponentiation (:func:`fixed_base_window`,
  used by :class:`~repro.groups.precompute.FixedBaseExp`).

Historically the first two formulas lived inline in
:mod:`repro.groups.fastops` and :class:`FixedBaseExp` hard-coded its
width; this module is the single home for all of them.

The models are **backend-aware**: costs are expressed in units of one
group addition/multiplication, with the squaring/doubling cost read from
the active :class:`~repro.math.backend.FieldBackend`'s
:attr:`~repro.math.backend.FieldBackend.window_costs` profile.  For the
shipped backends both ratios are 1.0 -- the formulas then reduce exactly
to the historical ones -- but a backend with, say, cheap squarings
(dedicated ``sqrmod``) can shift the optimum without the kernels
changing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.math.backend import FieldBackend, active_backend

#: Inclusive search bound for Straus windows: tables are per-base, so
#: widths beyond 7 never amortise at the term counts the schemes produce.
MAX_STRAUS_WINDOW = 7

#: Inclusive search bound for Pippenger windows (buckets are shared
#: across bases, so wider windows stay viable longer).
MAX_BUCKET_WINDOW = 11

#: Inclusive search bound for fixed-base windows (matches the
#: ``FixedBaseExp`` validation range).
MAX_FIXED_BASE_WINDOW = 16


@dataclass(frozen=True, slots=True)
class WindowProfile:
    """Relative operation costs used by the window cost models.

    ``add_cost`` is the unit (one group addition / field multiplication);
    ``double_cost`` is a squaring or point doubling relative to it.
    """

    add_cost: float = 1.0
    double_cost: float = 1.0


def profile_for(backend: FieldBackend | None = None) -> WindowProfile:
    """The window profile of ``backend`` (default: the active backend)."""
    if backend is None:
        backend = active_backend()
    add_cost, double_cost = backend.window_costs
    return WindowProfile(add_cost=add_cost, double_cost=double_cost)


def straus_window(
    terms: int, bits: int, profile: WindowProfile | None = None
) -> int:
    """``GT`` Straus window width minimising the group-operation count.

    Cost model: table build is ``terms * (2^w - 2)`` multiplications,
    the main loop does ``bits`` squarings plus
    ``terms * (bits / w) * (1 - 2^-w)`` multiplications (a digit is zero
    with probability ``2^-w``).  Short exponents push toward small
    windows -- the table must amortise within one pass.
    """
    if profile is None:
        profile = profile_for()
    add, dbl = profile.add_cost, profile.double_cost
    best_w, best_cost = 1, None
    for w in range(1, MAX_STRAUS_WINDOW + 1):
        cost = (
            terms * ((1 << w) - 2) * add
            + bits * dbl
            + terms * (bits / w) * (1 - 2.0 ** -w) * add
        )
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def wnaf_window(bits: int, profile: WindowProfile | None = None) -> int:
    """wNAF width for one term of the batch-affine multiexp.

    Cost model per term: the table of odd multiples ``P, 3P, ..,
    (2^{w-1} - 1) P`` costs one doubling plus ``2^{w-2} - 1`` additions
    (nothing at ``w = 2``, where the table is ``P`` alone), and the main
    loop adds one entry per nonzero digit, ``bits / (w + 1)`` of them
    on average.  The accumulator doublings do not depend on ``w``.
    """
    if profile is None:
        profile = profile_for()
    add, dbl = profile.add_cost, profile.double_cost
    best_w, best_cost = 2, None
    for w in range(2, MAX_STRAUS_WINDOW + 1):
        table = 0.0 if w == 2 else dbl + ((1 << (w - 2)) - 1) * add
        cost = table + bits / (w + 1) * add
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def bucket_window(
    terms: int, bits: int, profile: WindowProfile | None = None
) -> int:
    """``GT`` Pippenger window width: per digit position the buckets cost
    ``terms`` adds plus ``~2^{w+1}`` for the suffix-sum fold, across
    ``bits / w`` positions."""
    if profile is None:
        profile = profile_for()
    add, dbl = profile.add_cost, profile.double_cost
    best_w, best_cost = 1, None
    for w in range(1, MAX_BUCKET_WINDOW + 1):
        cost = bits * dbl + (bits / w) * (terms + (1 << (w + 1))) * add
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w


def fixed_base_window(
    bits: int,
    expected_uses: int = 256,
    profile: WindowProfile | None = None,
) -> int:
    """Fixed-base window width for a table amortised over
    ``expected_uses`` exponentiations.

    Cost model: the one-time table build is ``ceil(bits/w) * (2^w - 1)``
    multiplications (every row entry is one multiply), and each
    exponentiation then costs at most ``ceil(bits/w)`` multiplications.
    Minimises ``build + expected_uses * per_exp``; doublings never occur
    in this method, so only ``add_cost`` matters.
    """
    if profile is None:
        profile = profile_for()
    add = profile.add_cost
    best_w, best_cost = 1, None
    for w in range(1, MAX_FIXED_BASE_WINDOW + 1):
        digits = -(-bits // w)
        cost = digits * ((1 << w) - 1) * add + expected_uses * digits * add
        if best_cost is None or cost < best_cost:
            best_w, best_cost = w, cost
    return best_w
