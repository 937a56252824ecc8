"""Benchmark-owned server entry: install layer wrappers, then serve.

Usage::

    PYTHONPATH=src python perfbench/serve_traced.py --spans FILE -- serve ...

Everything after ``--`` is handed to ``repro.cli.main`` unchanged, so the
server runs exactly as ``repro-dlr serve`` does, with one difference:
before serving, this entry replaces the public functions of each layer
with timing wrappers.  Module code imports names directly (for example
``repro.runtime.session`` does ``from repro.runtime.checkpoint import
save_checkpoint``), so each name is patched where its caller looks it
up; methods are patched on their class.

A *root* span opens at each server-side entry into a session
(``SessionRegistry.get`` and ``ManagedSession.serve_decrypt*``).  Layer
spans are kept only inside a root, so key generation and drain work are
not recorded.  Each span stores its self time (duration minus its child
spans), so per-layer sums never count a nested call twice.  Spans are
kept in memory and written to ``FILE`` as JSON lines when the server
exits.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time

#: (owner, attribute, span name).  ``owner`` is a dotted module path;
#: ``attribute`` is ``Class.method`` or a module-level name.  A span
#: name's first component is its layer.
WRAPPED = (
    ("repro.service.registry", "SessionRegistry.get", "service.registry_get"),
    ("repro.service.session", "ManagedSession.serve_decrypt", "service.serve"),
    ("repro.service.session", "ManagedSession.serve_decrypt_batch", "service.serve"),
    ("repro.service.registry", "load_checkpoint", "runtime.checkpoint_load"),
    ("repro.runtime.session", "SessionSupervisor.run_request", "runtime.request"),
    ("repro.runtime.session", "SessionSupervisor.run_request_batch", "runtime.request"),
    ("repro.runtime.session", "save_checkpoint", "runtime.checkpoint_save"),
    ("repro.core.dlr", "DLR.run_period", "core.run_period"),
    ("repro.core.dlr", "DLR.run_period_multi", "core.run_period"),
    ("repro.core.hpske", "HPSKE.encrypt", "core.hpske_encrypt"),
    ("repro.utils.serialization", "WireCodec.encode", "utils.codec"),
    ("repro.utils.serialization", "WireCodec.decode", "utils.codec"),
    ("repro.groups.bilinear", "G1Element.multiexp", "groups.multiexp"),
    ("repro.groups.bilinear", "G1Element.multiexp_batch", "groups.multiexp"),
    ("repro.groups.bilinear", "GTElement.multiexp", "groups.multiexp"),
    ("repro.groups.bilinear", "GTElement.multiexp_batch", "groups.multiexp"),
    ("repro.groups.bilinear", "BilinearGroup.multiexp", "groups.multiexp"),
    ("repro.groups.bilinear", "BilinearGroup.pair", "groups.pairing"),
    ("repro.groups.bilinear", "BilinearGroup.pairing_precomp", "groups.pairing"),
    ("repro.groups.bilinear", "G1Precomp.pair", "groups.pairing"),
    ("repro.groups.bilinear", "G1Precomp.pair_many", "groups.pairing"),
    ("repro.groups.pairing", "PairingPrecomp.evaluate_many", "groups.pairing"),
    ("repro.groups.pairing", "PairingPrecomp.pair_with_many", "groups.pairing"),
    ("repro.groups.bilinear", "BilinearGroup.random_g", "groups.sampling"),
    ("repro.groups.bilinear", "BilinearGroup.random_gt", "groups.sampling"),
)

#: Span names that open a root (one server-side entry into a session).
ROOTS = ("service.registry_get", "service.serve")

#: Every module that calls ``parallel_map`` by its imported name.
PARALLEL_CALLERS = ("repro.groups.bilinear", "repro.groups.pairing")


class SpanRecorder:
    """Thread-local span stacks over one shared in-memory span list.

    A finished span is the tuple ``(id, parent, root, name, start, end,
    self_seconds)``; a root additionally gets a row in
    :attr:`roots` with its per-request counts.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.roots: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_root(self) -> dict | None:
        stack = self._stack()
        return self.roots[stack[0][2]] if stack else None

    def wrap(self, function, name: str, hook=None):
        is_root = name in ROOTS

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if not stack and not is_root:
                return function(*args, **kwargs)
            span_id = next(self._ids)
            if stack:
                parent, root = stack[-1][0], stack[-1][2]
            else:
                parent, root = None, span_id
                self.roots[span_id] = {"name": name, "counts": {}}
            # frame: [id, parent, root, children_seconds]
            frame = [span_id, parent, root, 0.0]
            stack.append(frame)
            before = hook.before(self.roots[root], args) if hook else None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][3] += end - start
                self.spans.append(
                    (span_id, parent, root, name, start, end, end - start - frame[3])
                )
            if hook:
                hook.after(self.roots[root], args, result, before)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        root = self.current_root()
        if root is not None:
            root["counts"][name] = root["counts"].get(name, 0) + amount

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for root_id, root in sorted(self.roots.items()):
                handle.write(json.dumps({"root": root_id, **root}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class ServeHook:
    """Per-request group-operation deltas and plaintext counts.

    Each session owns its own group object and serves one request at a
    time, so the delta of its counter across ``serve_decrypt*`` is this
    request's work alone.
    """

    @staticmethod
    def before(root, args):
        return args[0].supervisor.scheme.group.counter.as_dict()

    @staticmethod
    def after(root, args, result, before):
        after = args[0].supervisor.scheme.group.counter.as_dict()
        root["ops"] = {name: after[name] - before[name] for name in after}
        plaintexts = getattr(result, "plaintexts", None)
        root["plaintexts"] = len(plaintexts) if plaintexts is not None else 1


class RequestHook:
    """Transcript bits and retries of the period a request committed."""

    @staticmethod
    def before(root, args):
        return None

    @staticmethod
    def after(root, args, result, before):
        summary = args[0].log.periods[-1]
        counts = root["counts"]
        counts["transcript_bits"] = counts.get("transcript_bits", 0) + summary.bits_on_wire
        counts["retries"] = counts.get("retries", 0) + summary.attempts - 1


HOOKS = {
    "ManagedSession.serve_decrypt": ServeHook,
    "ManagedSession.serve_decrypt_batch": ServeHook,
    "SessionSupervisor.run_request": RequestHook,
    "SessionSupervisor.run_request_batch": RequestHook,
}


def install(recorder: SpanRecorder) -> None:
    """Patch every name in :data:`WRAPPED` plus the parallel counters."""
    import importlib

    for module_name, attribute, name in WRAPPED:
        module = importlib.import_module(module_name)
        hook = HOOKS.get(attribute)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            raw = inspect.getattr_static(owner, method)
            if isinstance(raw, classmethod):
                setattr(owner, method, classmethod(recorder.wrap(raw.__func__, name, hook)))
            else:
                setattr(owner, method, recorder.wrap(raw, name, hook))
        else:
            setattr(module, attribute, recorder.wrap(getattr(module, attribute), name, hook))

    import repro.parallel as parallel

    original_map = parallel.parallel_map

    def counted_map(*args, **kwargs):
        recorder.count("parallel.map_calls")
        return original_map(*args, **kwargs)

    for module_name in PARALLEL_CALLERS:
        setattr(importlib.import_module(module_name), "parallel_map", counted_map)

    original_split = parallel._split

    def counted_split(items, n):
        chunks = original_split(items, n)
        recorder.count("parallel.pool_chunks", len(chunks))
        return chunks

    # parallel_map looks _split up in its own module only when it
    # dispatches to the pool, so this counts pooled chunks alone.
    parallel._split = counted_split


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: serve_traced.py --spans FILE -- serve [ARGS...]", file=sys.stderr)
        return 2
    spans_path, serve_argv = argv[1], argv[3:]
    recorder = SpanRecorder()
    install(recorder)
    from repro.cli import main as cli_main

    code = cli_main(serve_argv)
    recorder.write(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
