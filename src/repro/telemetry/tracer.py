"""The span tracer: nested, monotonic-clocked, JSONL-exportable.

A :class:`Span` is one timed region of work -- a protocol run, one
Send/Recv/Commit step, a time period, a retry attempt, a service
request -- with a name, a parent, and a flat attribute dict.  A
:class:`Tracer` hands out spans through a context-manager API::

    tracer = Tracer()
    with tracer.span("period", period=3):
        with tracer.span("attempt", attempt=1) as attempt:
            ...
            attempt.annotate(outcome="ok")
    tracer.export_jsonl("trace.jsonl")

Design constraints (the reason this module exists instead of a
dependency):

* **Zero dependencies** -- stdlib only, like the rest of the library.
* **Monotonic clocks** -- timestamps come from ``time.perf_counter``
  and are only meaningful as durations and relative order within one
  process's trace; no wall-clock time is ever recorded.  Cross-process
  analysis therefore compares *durations*, never absolute positions
  (see :func:`repro.telemetry.dashboard.trace_analysis`).
* **Deterministic identity** -- span ids are sequential integers
  allocated under a lock, never random, so two seeded runs produce
  traces with identical ids, names, nesting, and attributes (only the
  timing floats differ).  *Trace* ids, which must be globally unique
  across processes, are random by default but seedable.
* **Off-by-default-cheap** -- the module-level :data:`NULL_TRACER` is
  installed by default; its :meth:`~NullTracer.span` returns a shared
  no-op span, so instrumented code costs one global read and one
  attribute check per instrumentation point when tracing is off (the
  bench guard in ``tests/telemetry/test_tracer.py`` pins this down).
* **Thread-correct nesting** -- the active-span stack is thread-local,
  and an explicit ``parent=`` escape hatch lets the protocol engine
  attach the per-party step spans of a *threaded* (socket) run to the
  protocol span created on the driving thread.
* **Cross-process parenting** -- a :class:`SpanContext` carries a
  span's identity over a wire header (``trace_id`` + ``parent_span``
  fields, stamped by the service client, honored by the server).  A
  span opened with a ``SpanContext`` parent is flagged
  ``remote_parent``; its parent reference resolves once the two sides'
  JSONL files are merged (:func:`merge_traces`).

The JSONL schema (validated by :func:`validate_trace`):

* line 1: ``{"record": "trace-header", "version": 2,
  "clock": "perf_counter"}`` plus optional ``"actor"`` and
  ``"trace_id"`` when the tracer was given them;
* one line per span, in *finish* order: ``{"record": "span",
  "id": int|str, "parent": int|str|null, "name": str, "start": float,
  "end": float, "attrs": {...}}`` plus optional ``"trace"`` (the trace
  id this span belongs to) and ``"remote_parent": true`` (the parent
  lives in another process's file).

Span ids are plain ints for an anonymous tracer and ``"actor:int"``
strings for a tracer constructed with ``actor=...`` -- giving each
process a distinct actor keeps merged files collision-free.  Version-1
files (no actors, no trace ids) remain valid input everywhere.

Because spans are written when they finish, a parent's line appears
*after* its children's; referential integrity therefore holds over the
whole file, not line-by-line.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

TRACE_SCHEMA_VERSION = 2

#: Versions :func:`validate_trace` accepts (v1 files predate actors,
#: trace ids, and remote parents; every v1 file is also a valid v2 file).
SUPPORTED_TRACE_VERSIONS = frozenset({1, TRACE_SCHEMA_VERSION})

_SPAN_REQUIRED_KEYS = ("record", "id", "parent", "name", "start", "end", "attrs")

#: Wire header fields carrying trace context (see ``docs/observability.md``).
TRACE_ID_FIELD = "trace_id"
PARENT_SPAN_FIELD = "parent_span"

#: Bound on wire-carried trace context strings: ids become label values
#: and JSONL fields, so a hostile client must not be able to bloat them.
MAX_TRACE_FIELD_LENGTH = 120
_MAX_TRACE_INT = 10**MAX_TRACE_FIELD_LENGTH


def new_trace_id(rng=None) -> str:
    """A fresh 16-hex-char trace id.

    Random (uuid4-derived) by default -- trace ids must be unique
    *across* processes, where the deterministic span-id counter cannot
    help.  Pass a ``random.Random`` for reproducible ids in tests.
    """
    if rng is not None:
        return f"{rng.getrandbits(64):016x}"
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class SpanContext:
    """A span's wire-portable identity: trace id + exported span ref.

    This is what crosses a process boundary: the client stamps it into
    a request header (:meth:`header_fields`), the server recovers it
    (:meth:`from_header`) and opens its ``service.request`` span with
    the context as parent.
    """

    trace_id: str | None
    span_ref: object  # int (anonymous tracer) or "actor:int" string

    def header_fields(self) -> dict:
        """The wire fields to merge into a framed request header."""
        fields = {PARENT_SPAN_FIELD: self.span_ref}
        if self.trace_id is not None:
            fields[TRACE_ID_FIELD] = self.trace_id
        return fields

    @classmethod
    def from_header(cls, header: dict) -> "SpanContext | None":
        """Recover a context from a request header, or ``None``.

        Tolerant by design: old clients never stamp these fields and a
        malformed value must not fail the request -- tracing context is
        advisory, so garbage degrades to "no context", never an error.
        """
        ref = header.get(PARENT_SPAN_FIELD)
        if isinstance(ref, bool) or not isinstance(ref, (int, str)):
            return None
        if isinstance(ref, str) and (
            not ref or len(ref) > MAX_TRACE_FIELD_LENGTH
        ):
            return None
        # Span ids are counters: a negative id, or one longer than the
        # bound in decimal, is garbage (and str() of a huge int raises).
        if isinstance(ref, int) and not 0 <= ref < _MAX_TRACE_INT:
            return None
        trace_id = header.get(TRACE_ID_FIELD)
        if trace_id is not None and (
            not isinstance(trace_id, str)
            or not trace_id
            or len(trace_id) > MAX_TRACE_FIELD_LENGTH
        ):
            trace_id = None
        return cls(trace_id=trace_id, span_ref=ref)


class Span:
    """One timed, named, attributed region of work."""

    __slots__ = (
        "tracer",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "start",
        "end",
        "trace_id",
        "remote_ref",
        "_ops_before",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: dict,
        *,
        trace_id: str | None = None,
        remote_ref: object = None,
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start: float | None = None
        self.end: float | None = None
        #: The trace this span belongs to (inherited from its parent or
        #: the tracer; ``None`` for spans of an un-identified trace).
        self.trace_id = trace_id
        #: When the parent lives in another process: its exported ref.
        self.remote_ref = remote_ref
        self._ops_before = None

    def annotate(self, **attrs) -> "Span":
        """Merge attributes into the span (usable until export)."""
        self.attrs.update(attrs)
        return self

    @property
    def ref(self) -> object:
        """This span's exported identity (int, or ``"actor:int"``)."""
        return self.tracer._export_ref(self.span_id)

    def context(self) -> SpanContext:
        """A wire-portable :class:`SpanContext` for this span.

        Ensures the owning tracer has a trace id (lazily generated) so
        the propagated context always identifies a trace.
        """
        if self.trace_id is None:
            self.trace_id = self.tracer.ensure_trace_id()
        return SpanContext(trace_id=self.trace_id, span_ref=self.ref)

    def __enter__(self) -> "Span":
        counter = self.tracer._counter
        if counter is not None:
            self._ops_before = counter.snapshot()
        self.tracer._push(self)
        self.start = self.tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self.tracer._clock()
        self.tracer._pop(self)
        counter = self.tracer._counter
        if counter is not None and self._ops_before is not None:
            ops = counter.diff(self._ops_before).nonzero()
            if ops:
                self.attrs["ops"] = ops
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._finish(self)
        return False

    @property
    def duration(self) -> float:
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def to_record(self) -> dict:
        if self.remote_ref is not None:
            parent = self.remote_ref
        elif self.parent_id is not None:
            parent = self.tracer._export_ref(self.parent_id)
        else:
            parent = None
        record = {
            "record": "span",
            "id": self.ref,
            "parent": parent,
            "name": self.name,
            "start": self.start if self.start is not None else 0.0,
            "end": self.end if self.end is not None else 0.0,
            "attrs": self.attrs,
        }
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        if self.remote_ref is not None:
            record["remote_parent"] = True
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _NullSpan:
    """The shared no-op span: every method returns immediately."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def context(self) -> None:
        return None

    @property
    def duration(self) -> float:
        return 0.0


#: The single no-op span every :class:`NullTracer` call returns.
NULL_SPAN = _NullSpan()


class NullTracer:
    """The default, disabled tracer: everything is a shared no-op."""

    enabled = False

    def span(self, name: str, parent=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def record(self, name: str, seconds: float, parent=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def current(self) -> None:
        return None

    def attach_counter(self, counter) -> None:
        pass


#: The process-wide disabled tracer (installed by default).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans; thread-safe; exports the finished trace as JSONL.

    ``actor`` qualifies exported span ids (``"actor:0"``) so files from
    different processes merge without id collisions; ``trace_id``
    pre-assigns the trace identity (lazily generated on first
    :meth:`ensure_trace_id` otherwise).  Both default to off, keeping
    anonymous single-process traces in the compact v1-style int-id shape.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        *,
        actor: str | None = None,
        trace_id: str | None = None,
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._finished: list[Span] = []
        self.actor = actor
        self.trace_id = trace_id
        #: Optional :class:`~repro.groups.bilinear.OperationCounter`;
        #: when attached, every span records the group-operation delta
        #: observed between its entry and exit as an ``ops`` attribute.
        self._counter = None

    # -- identity ------------------------------------------------------------

    def _export_ref(self, span_id: int) -> object:
        return f"{self.actor}:{span_id}" if self.actor else span_id

    def ensure_trace_id(self) -> str:
        """This tracer's trace id, lazily generated under the lock."""
        with self._lock:
            if self.trace_id is None:
                self.trace_id = new_trace_id()
            return self.trace_id

    # -- span construction --------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def span(
        self, name: str, parent: "Span | SpanContext | None" = None, **attrs
    ) -> Span:
        """A new span; nest under ``parent`` (or this thread's current
        open span when ``parent`` is omitted).

        ``parent`` may also be a :class:`SpanContext` recovered from a
        wire header: the span is then flagged as remotely parented and
        inherits the context's trace id.
        """
        if isinstance(parent, SpanContext):
            return Span(
                self,
                self._allocate_id(),
                None,
                name,
                attrs,
                trace_id=parent.trace_id,
                remote_ref=parent.span_ref,
            )
        if parent is None:
            parent = self.current()
        if isinstance(parent, Span):
            parent_id = parent.span_id
            trace_id = parent.trace_id if parent.trace_id is not None else self.trace_id
        else:
            parent_id = None
            trace_id = self.trace_id
        return Span(self, self._allocate_id(), parent_id, name, attrs, trace_id=trace_id)

    def record(
        self,
        name: str,
        seconds: float,
        parent: "Span | SpanContext | None" = None,
        **attrs,
    ) -> Span:
        """Record an already-measured region as a completed span.

        For instrumentation that measures durations itself (the protocol
        engine times each step around a generator resume); the span's
        interval is synthesized as ``[now - seconds, now]``.
        """
        span = self.span(name, parent=parent, **attrs)
        span.end = self._clock()
        span.start = span.end - seconds
        self._finish(span)
        return span

    def attach_counter(self, counter) -> None:
        """Attach a group :class:`~repro.groups.bilinear.OperationCounter`
        whose per-span deltas land in each span's ``ops`` attribute."""
        self._counter = counter

    # -- stack discipline ---------------------------------------------------

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misnested exit
            stack.remove(span)

    def current(self) -> Span | None:
        """This thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    # -- queries ------------------------------------------------------------

    @property
    def finished(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.finished if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.finished if s.parent_id == span.span_id]

    # -- export -------------------------------------------------------------

    def header(self) -> dict:
        header = {
            "record": "trace-header",
            "version": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter",
        }
        if self.actor is not None:
            header["actor"] = self.actor
        if self.trace_id is not None:
            header["trace_id"] = self.trace_id
        return header

    def to_records(self) -> list[dict]:
        return [self.header()] + [s.to_record() for s in self.finished]

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.to_records()) + "\n"

    def export_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


# ---------------------------------------------------------------------------
# The active tracer (process-global, NULL_TRACER by default)
# ---------------------------------------------------------------------------

_ACTIVE: Tracer | NullTracer = NULL_TRACER


def active_tracer() -> Tracer | NullTracer:
    """The currently installed tracer (the no-op tracer by default)."""
    return _ACTIVE


def install_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the process-wide tracer; returns the previous
    one (pass it back to restore)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def uninstall_tracer() -> None:
    """Back to the no-op tracer."""
    install_tracer(NULL_TRACER)


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Scoped tracing: install a tracer, restore the previous on exit."""
    tracer = tracer if tracer is not None else Tracer()
    previous = install_tracer(tracer)
    try:
        yield tracer
    finally:
        install_tracer(previous)


# ---------------------------------------------------------------------------
# JSONL schema validation (shared by tests, the CLI, and CI)
# ---------------------------------------------------------------------------


def _valid_ref(value: object) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    return isinstance(value, str) and bool(value)


def validate_trace(lines: Iterable[str]) -> list[dict]:
    """Validate a trace's JSONL lines against the documented schema.

    Returns the span records (header excluded).  Raises ``ValueError``
    on any violation: missing/garbled header, unknown record types,
    missing span keys, non-monotonic span intervals, duplicate ids, or
    a parent reference to a span that is not in the file.  Spans flagged
    ``remote_parent`` are exempt from the parent-resolution check: their
    parents live in another process's file and resolve after
    :func:`merge_traces`.  Accepts schema versions 1 and 2.
    """
    records = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append((number, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {number} is not valid JSON: {exc}") from exc
    if not records:
        raise ValueError("empty trace: expected a trace-header line")
    _, header = records[0]
    if header.get("record") != "trace-header":
        raise ValueError("first trace record must be the trace-header")
    if header.get("version") not in SUPPORTED_TRACE_VERSIONS:
        raise ValueError(
            f"unsupported trace version {header.get('version')!r} "
            f"(expected one of {sorted(SUPPORTED_TRACE_VERSIONS)})"
        )
    spans = []
    seen_ids = set()
    for number, record in records[1:]:
        if record.get("record") != "span":
            raise ValueError(f"trace line {number}: unknown record type {record.get('record')!r}")
        for key in _SPAN_REQUIRED_KEYS:
            if key not in record:
                raise ValueError(f"trace line {number}: span record missing {key!r}")
        if not isinstance(record["name"], str) or not record["name"]:
            raise ValueError(f"trace line {number}: span name must be a non-empty string")
        if not isinstance(record["attrs"], dict):
            raise ValueError(f"trace line {number}: span attrs must be an object")
        if not _valid_ref(record["id"]):
            raise ValueError(
                f"trace line {number}: span id must be an int or non-empty string"
            )
        if record["parent"] is not None and not _valid_ref(record["parent"]):
            raise ValueError(
                f"trace line {number}: span parent must be null, an int, "
                "or a non-empty string"
            )
        if record["end"] < record["start"]:
            raise ValueError(f"trace line {number}: span ends before it starts")
        if record["id"] in seen_ids:
            raise ValueError(f"trace line {number}: duplicate span id {record['id']}")
        seen_ids.add(record["id"])
        spans.append(record)
    for record in spans:
        parent = record["parent"]
        if parent is not None and parent not in seen_ids and not record.get("remote_parent"):
            raise ValueError(
                f"span {record['id']} references unknown parent {parent}"
            )
    return spans


def validate_trace_file(path) -> list[dict]:
    """Validate a trace JSONL file; returns its span records."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_trace(handle)


# ---------------------------------------------------------------------------
# Cross-process trace merging
# ---------------------------------------------------------------------------


def merge_traces(record_lists: Iterable[list[dict]]) -> list[dict]:
    """Merge several traces' records (each ``[header, *spans]``) into one.

    The output is a single valid trace: one synthesized v2 header, then
    every input's span records.  Span ids must be disjoint across inputs
    -- give each process's tracer a distinct ``actor`` -- and remote
    parent references that resolve against another input lose their
    exemption, so :func:`validate_trace` on the merged output checks
    *full* referential integrity when all sides are present.
    """
    merged: list[dict] = [
        {"record": "trace-header", "version": TRACE_SCHEMA_VERSION, "clock": "perf_counter"}
    ]
    seen_ids: set = set()
    for records in record_lists:
        for record in records:
            if record.get("record") == "trace-header":
                if record.get("version") not in SUPPORTED_TRACE_VERSIONS:
                    raise ValueError(
                        f"cannot merge trace version {record.get('version')!r}"
                    )
                continue
            span_id = record.get("id")
            if span_id in seen_ids:
                raise ValueError(
                    f"merging traces with colliding span id {span_id!r}: "
                    "give each process's tracer a distinct actor"
                )
            seen_ids.add(span_id)
            merged.append(record)
    # A remote parent that is present after the merge is no longer
    # remote for validation purposes: drop the exemption flag so the
    # merged file asserts full integrity.
    out = []
    for record in merged:
        if record.get("remote_parent") and record.get("parent") in seen_ids:
            record = {k: v for k, v in record.items() if k != "remote_parent"}
        out.append(record)
    return out


def merge_trace_files(paths, output=None) -> list[dict]:
    """Merge trace JSONL files; optionally write the merged JSONL.

    Each input is schema-validated first; returns the merged span
    records (header excluded), exactly like :func:`validate_trace`.
    """
    record_lists = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        record_lists.append(records)
    merged = merge_traces(record_lists)
    lines = [json.dumps(record, sort_keys=True) for record in merged]
    spans = validate_trace(lines)
    if output is not None:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return spans


# ---------------------------------------------------------------------------
# Method instrumentation
# ---------------------------------------------------------------------------


def traced(operation: str):
    """Wrap a scheme method in a span named ``<span_kind>.<operation>``.

    ``span_kind`` is read off the instance (``"dlr"``, ``"optimal"``,
    ``"dlribe"`` -- the same kind strings the runtime checkpoints use).
    With the no-op tracer installed the wrapper is a single attribute
    check, keeping Gen/Enc on their untraced fast path.
    """

    def decorate(method):
        import functools

        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            tracer = active_tracer()
            if not tracer.enabled:
                return method(self, *args, **kwargs)
            kind = getattr(self, "span_kind", type(self).__name__.lower())
            with tracer.span(f"{kind}.{operation}"):
                return method(self, *args, **kwargs)

        return wrapper

    return decorate
