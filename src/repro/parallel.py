"""Import target for ``perfbench/serve_traced.py``'s ``parallel.*`` counters.

No module of the package imports this one: every batch kernel runs in
the calling process.  It exists only so the benchmark's hook still finds
the two names it wraps, and goes with that hook (ROADMAP item 2).
"""


def parallel_map(worker, items):
    return worker(list(items))


def _split(items, n):
    k, r = divmod(len(items), n)
    bounds = [i * k + min(i, r) for i in range(n + 1)]
    return [list(items[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a]
