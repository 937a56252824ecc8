"""Process-pool fan-out for the batch crypto kernels.

CPython's GIL means the pure-Python field arithmetic cannot use threads
for parallelism, so the batch entry points
(:meth:`~repro.groups.bilinear.G1Element.multiexp_batch`,
:meth:`~repro.groups.pairing.PairingPrecomp.evaluate_many`) fan their
work across a :class:`~concurrent.futures.ProcessPoolExecutor` instead.
This module owns that pool: a lazily created, process-wide executor
sized by :func:`get_jobs` (the ``--jobs`` CLI flag / ``REPRO_JOBS``
environment variable), plus the :func:`parallel_map` primitive the batch
kernels dispatch through.

Everything that crosses the process boundary must be picklable: the
workers take plain :class:`int` coordinates and schedule coefficients
(see ``Fq.__reduce__`` and friends) and compute exactly what the parent
would, so results are bit-identical to in-process evaluation.

With the default ``jobs = 1`` the pool is **never created** -- every
``parallel_map`` call degrades to a plain in-process invocation of the
worker.  That keeps fork-safety trivial for embedders that mix threads
with the key service: no child processes exist unless explicitly
requested.  Small batches also stay in-process (below ``min_batch``
items the pickling and IPC overhead exceeds the offloaded work -- see
the break-even table in docs/performance.md).
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Below this many items a batch stays in-process: serialising the
#: schedule/instances plus round-tripping results costs more than the
#: arithmetic it would offload.
POOL_MIN_BATCH = 8

_jobs: int | None = None
_pool: ProcessPoolExecutor | None = None
_pool_jobs = 0


def get_jobs() -> int:
    """The configured worker count (>= 1).

    Resolution order: the last :func:`set_jobs` call, else the
    ``REPRO_JOBS`` environment variable, else ``1`` (pool disabled).
    """
    global _jobs
    if _jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1")
        try:
            _jobs = max(1, int(raw))
        except ValueError:
            _jobs = 1
    return _jobs


def set_jobs(jobs: int) -> None:
    """Set the worker count for subsequent :func:`parallel_map` calls.

    An existing pool of a different size is torn down lazily on the next
    dispatch; ``set_jobs(1)`` disables pool dispatch entirely.
    """
    global _jobs
    _jobs = max(1, int(jobs))


def shutdown_pool() -> None:
    """Tear down the worker pool (if one was ever created).

    Idempotent; also registered via :mod:`atexit`.  The next pooled
    dispatch recreates the executor on demand.
    """
    global _pool, _pool_jobs
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_jobs = 0


atexit.register(shutdown_pool)


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    global _pool, _pool_jobs
    if _pool is None or _pool_jobs != jobs:
        shutdown_pool()
        _pool = ProcessPoolExecutor(max_workers=jobs)
        _pool_jobs = jobs
    return _pool


def _split(items: Sequence[T], n: int) -> list[list[T]]:
    """Split into at most ``n`` contiguous, near-even, non-empty chunks."""
    k, r = divmod(len(items), n)
    chunks: list[list[T]] = []
    start = 0
    for i in range(n):
        size = k + (1 if i < r else 0)
        if size:
            chunks.append(list(items[start : start + size]))
        start += size
    return chunks


def parallel_map(
    worker: Callable[[list[T]], list[R]],
    items: Iterable[T],
    jobs: int | None = None,
    min_batch: int = POOL_MIN_BATCH,
) -> list[R]:
    """Apply a chunk worker over ``items``, fanning out when it pays.

    ``worker`` receives a *list* of items and returns one result per
    item, in order; it must be picklable (a module-level function or a
    :func:`functools.partial` over one, with canonical-int arguments).
    With ``jobs <= 1``, or fewer than ``max(min_batch, 2 * jobs)``
    items, the worker runs in-process on the whole list -- below the
    break-even point pool dispatch only adds pickling latency.  A worker
    submitted to the pool must never dispatch through
    :func:`parallel_map` itself (nested pools); the batch kernels keep
    their pure per-chunk forms for exactly that reason.
    """
    items = list(items)
    if jobs is None:
        jobs = get_jobs()
    if jobs <= 1 or len(items) < max(min_batch, 2 * jobs):
        return worker(items)
    pool = _get_pool(jobs)
    results: list[R] = []
    for chunk_result in pool.map(worker, _split(items, jobs)):
        results.extend(chunk_result)
    return results
