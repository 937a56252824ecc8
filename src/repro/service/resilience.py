"""Resilience primitives shared by the key service and its client.

The serving layer's availability story rests on four small, composable
pieces, defined here so server (:mod:`repro.service.server`), client
(:mod:`repro.service.client`) and tests all agree on them:

* :class:`Deadline` -- a monotonic-clock deadline propagated from the
  client's request header.  The server checks it at admission, after
  waiting for the session lock, and between protocol steps (installed
  as the transport's step hook), answering ``deadline-exceeded``
  instead of burning a worker on a request nobody is waiting for.
* The **failure-handling matrix** constants: which response codes are
  retryable (:data:`RETRYABLE_CODES`), which ops are idempotent and may
  be replayed blindly after a connection loss (:data:`IDEMPOTENT_OPS`),
  and which ops are *heavy* -- they run a two-party protocol period and
  are shed first under overload or drain (:data:`HEAVY_OPS`).  The
  human-readable version of the same matrix lives in
  ``docs/service.md``.
* :class:`ResponseCache` -- the server-side replay cache that makes
  ``decrypt`` idempotent *by request id*: a client that lost the
  connection after the service committed the period retries with the
  same ``request_id`` and receives the cached response instead of
  burning a second period (and a second leakage charge) on the same
  ciphertext.
* :func:`find_deadline_exceeded` -- unwraps a
  :class:`~repro.errors.DeadlineExceeded` buried under the engine's
  rollback wrappers, so the server can answer the typed code after a
  mid-protocol expiry.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    ServiceOverloaded,
    WireFormatError,
)

# ---------------------------------------------------------------------------
# The failure-handling matrix (machine-readable half)
# ---------------------------------------------------------------------------

#: Response codes after which a retry can succeed *and* is safe for any
#: op: the service guarantees nothing ran (shed at admission) or that
#: the period rolled back (mid-protocol deadline expiry).
RETRYABLE_CODES = frozenset({"deadline-exceeded", "overloaded", "draining"})

#: Ops safe to replay blindly after a *connection loss* (the client
#: cannot know whether the lost request executed).  ``decrypt`` joins
#: this set only when stamped with a ``request_id`` (the server's
#: replay cache then absorbs duplicates).
IDEMPOTENT_OPS = frozenset({"ping", "describe", "stats", "health", "metrics"})

#: Ops that run (or mutate) a session: shed first under overload and
#: refused while draining.  Everything else is *light* -- answered even
#: under overload so health stays observable under saturation.
HEAVY_OPS = frozenset({"open", "decrypt", "decrypt_batch", "refresh", "evict"})


def is_idempotent(op: str, fields: dict) -> bool:
    """Whether a request may be replayed after a connection loss."""
    if op in IDEMPOTENT_OPS:
        return True
    return op in ("decrypt", "decrypt_batch") and "request_id" in fields


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


@dataclass
class Deadline:
    """An absolute point on the monotonic clock a request must beat.

    Wall clocks do not agree across processes, so the wire carries a
    *relative* budget (``deadline`` header field: seconds remaining) and
    each side anchors it to its own monotonic clock on receipt.
    """

    at: float
    clock: object = field(default=time.monotonic, repr=False)

    @classmethod
    def after(cls, seconds: float, *, clock=time.monotonic) -> "Deadline":
        if seconds < 0:
            seconds = 0.0
        return cls(at=clock() + seconds, clock=clock)

    def remaining(self) -> float:
        return self.at - self.clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, where: str) -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` if expired."""
        late = -self.remaining()
        if late >= 0:
            raise DeadlineExceeded(
                f"deadline exceeded {where} ({late:.3f}s late)", where=where
            )

    def step_hook(self, label: str) -> None:
        """Transport step-hook shape: check before each protocol send."""
        self.check(f"before protocol step {label!r}")


def deadline_from_header(header: dict, *, clock=time.monotonic) -> Deadline | None:
    """Parse the ``deadline`` header field (seconds remaining) if present.

    A malformed value is a ``bad-request``, never a silent default: a
    client that *meant* to bound a request must not get an unbounded one.
    """
    value = header.get("deadline")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WireFormatError(
            f"deadline must be a number of seconds, got {value!r}"
        )
    if value < 0:
        raise WireFormatError(f"deadline must be >= 0 seconds, got {value!r}")
    return Deadline.after(float(value), clock=clock)


def find_deadline_exceeded(exc: BaseException) -> DeadlineExceeded | None:
    """The :class:`DeadlineExceeded` buried in ``exc``'s cause chain.

    A deadline that expires between protocol steps surfaces from the
    engine wrapped in rollback machinery (``RefreshAborted`` et al.);
    the server unwraps it so the wire carries the typed code.
    """
    node: BaseException | None = exc
    seen: set[int] = set()
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, DeadlineExceeded):
            return node
        node = node.__cause__
    return None


# ---------------------------------------------------------------------------
# Replay cache (decrypt-by-request-id idempotency)
# ---------------------------------------------------------------------------

#: Request ids become replay-cache keys; bound them like tenant names.
MAX_REQUEST_ID_LENGTH = 120


def validated_request_id(value: object) -> str:
    if not isinstance(value, str) or not value or len(value) > MAX_REQUEST_ID_LENGTH:
        raise ParameterError(
            "request_id must be a non-empty string of at most "
            f"{MAX_REQUEST_ID_LENGTH} chars"
        )
    return value


class ResponseCache:
    """A bounded, thread-safe LRU of completed responses.

    Keyed by ``(tenant, key, request_id)``; only *successful* responses
    are cached (failures are cheap to recompute and may be transient).
    The bound keeps an unbounded request stream from growing server
    memory: the cache is a correctness aid for the retry window, not a
    durable dedup log, so evicting an old entry merely means a very
    late replay burns a fresh period.

    A key is *claimed* while its first request runs (:meth:`claim`), so
    a duplicate that overtakes the original is refused instead of
    running a second period; the claim ends with :meth:`put` on success
    or :meth:`release` on failure.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ParameterError("replay cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: ``None`` marks a key claimed by a request still running.
        self._entries: OrderedDict[tuple, tuple[dict, bytes] | None] = OrderedDict()

    def get(self, key: tuple) -> tuple[dict, bytes] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def claim(self, key: tuple) -> tuple[dict, bytes] | None:
        """The cached response for ``key``, or ``None`` once the caller
        holds the claim and owes a :meth:`put` or :meth:`release`.
        Raises :class:`~repro.errors.ServiceOverloaded` (retryable)
        while another request holds it."""
        with self._lock:
            if key not in self._entries:
                self._entries[key] = None
                return None
            entry = self._entries[key]
            if entry is None:
                raise ServiceOverloaded(
                    "a request with this request_id is still in flight", retry_after=0.1
                )
            self._entries.move_to_end(key)
            return entry

    def release(self, key: tuple) -> None:
        """Drop the claim of a request that failed: a retry runs afresh."""
        with self._lock:
            if key in self._entries and self._entries[key] is None:
                del self._entries[key]

    def put(self, key: tuple, fields: dict, payload: bytes) -> None:
        with self._lock:
            self._entries[key] = (dict(fields), payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
