"""The key-service daemon: framed requests over TCP, a worker pool,
admission control, resilience, and per-request telemetry.

:class:`KeyService` is the long-running deployment shape the paper's
two-device scheme pays off in: one process serving *many* keys and
*many* clients per period, threshold-KMS style.  The wire protocol is
the same length-prefixed framing the device channel already uses
(:func:`repro.protocol.transport.encode_frame` /
:func:`~repro.protocol.transport.recv_frame`): a JSON header carrying
``op``/``tenant``/``key`` plus opaque payload bytes (persist envelopes
for ciphertexts and public keys, raw GT bits for plaintexts).

Request routing: one ``selectors`` loop thread owns the listener and
every idle connection.  It reads frames incrementally
(:class:`~repro.protocol.transport.FrameParser`), answers the light
ops ``ping``/``health``/``stats``/``metrics`` itself, and hands every
other op, with its connection, to a pool of ``workers`` threads; the
worker sends the reply and hands the connection back.  A connection's
requests are served in order, one at a time, so concurrency is
*across* connections, and an idle or half-sent connection holds no
thread.
Admission control runs before any protocol bits move: a frozen session,
an exhausted leakage budget, or a registry at capacity with every
resident session busy all reject with a machine-readable reason instead
of queueing unboundedly (see :meth:`ManagedSession.admission_error
<repro.service.session.ManagedSession.admission_error>`).

Resilience (``docs/service.md`` has the full failure-handling matrix):

* **Deadlines** -- a client may stamp ``deadline`` (seconds remaining)
  on any request; the server checks it at admission, after waiting for
  the session lock, and between protocol steps, answering
  ``deadline-exceeded`` (retryable: nothing committed) instead of
  burning a worker on a request nobody is waiting for.
* **Load shedding** -- at most ``workers + backlog`` heavy protocol
  requests run or wait for a worker; the next one is answered
  ``overloaded`` + a ``retry-after`` hint on its own connection, while
  light ops stay answered.  Health stays observable under saturation.
* **Graceful drain** -- :meth:`begin_drain`/:meth:`stop` stop
  accepting, let in-flight requests finish under a drain deadline,
  answer ``draining`` to protocol work that arrives mid-drain, and
  flush every resident session's checkpoint (failures land in
  :attr:`drain_failures` so ``repro-dlr serve`` can exit nonzero).
* **Replay cache** -- a ``decrypt`` stamped with a ``request_id`` is
  idempotent: a client retrying after a lost response receives the
  cached response instead of burning a second period on the same
  ciphertext, and a duplicate that arrives while the original still
  runs is answered ``overloaded`` until the response is cached.

Every response carries ``ok``; failures add ``code`` + ``error``:

========================  ====================================================
``bad-request``           malformed op/fields/payload, invalid names
``unknown-key``           no such tenant/key (never created, or deleted)
``rejected``              admission control refused (reason in ``error``)
``deadline-exceeded``     the request's deadline expired; retry with budget
``overloaded``            shed under load; retry after ``retry-after`` s
``draining``              shutting down; retry elsewhere / later
``checkpoint-corrupt``    the key's durable state is damaged (fatal per key)
``protocol-error``        the two-party protocol failed fatally mid-request
``internal``              anything else; the worker survives
========================  ====================================================
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.errors import (
    AdmissionRejected,
    CheckpointError,
    DeadlineExceeded,
    ParameterError,
    ProtocolError,
    ServiceDraining,
    ServiceError,
    ServiceOverloaded,
    WireFormatError,
)
from repro.groups.native import kernel_backend
from repro.protocol.transport import _READ_CHUNK, FrameParser, encode_frame
from repro.service.registry import SessionRegistry
from repro.service.resilience import (
    HEAVY_OPS,
    ResponseCache,
    deadline_from_header,
    validated_request_id,
)
from repro.service.session import ManagedSession, StaleSessionError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.telemetry.tracer import SpanContext, active_tracer
from repro.utils import persist

#: Histogram boundaries for request latency: service requests run two-
#: party protocol periods, so the interesting range is ms to seconds.
REQUEST_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0
)

#: Histogram boundaries for decrypt-batch sizes: powers of two matching
#: the bench sweep, so operators can read amortization off the same axis.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: Service health states reported by the ``health`` op.
READY = "ready"
DRAINING = "draining"
OVERLOADED = "overloaded"

#: Ops the loop thread answers itself: they read in-memory state only,
#: so they never wait for a worker, even under overload.
LOOP_OPS = frozenset({"ping", "health", "stats", "metrics"})

#: Wire codes for failures that are not a ``ServiceError`` (which carry
#: their own); the first matching entry wins, anything else is
#: ``internal``.
_ERROR_CODES = (
    (CheckpointError, "checkpoint-corrupt"),
    (KeyError, "unknown-key"),
    ((ParameterError, WireFormatError, ValueError), "bad-request"),
    (ProtocolError, "protocol-error"),
)

#: Cardinality bound for the ``tenant`` metric label: a label set is a
#: time series, so a hostile or buggy client must not be able to mint
#: unbounded series by inventing tenant names.  Beyond this many
#: distinct tenants, further ones aggregate under ``__other__``.
MAX_TENANT_LABELS = 32

#: The tenant label for requests that carry no tenant field (light ops
#: like ``ping``/``health``/``stats``/``metrics``).
NO_TENANT_LABEL = "-"

#: The tenant label for tenant names the registry would reject anyway
#: (non-conforming strings never become series of their own).
INVALID_TENANT_LABEL = "__invalid__"

#: The overflow bucket once :data:`MAX_TENANT_LABELS` is reached.
OVERFLOW_TENANT_LABEL = "__other__"


class _Connection:
    """One client connection.  Only the loop thread touches it."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.frames = FrameParser("service")
        self.out = bytearray()  # reply bytes the kernel has not taken yet
        self.busy = self.heavy = False  # a (heavy) request is on the pool
        self.closing = False  # close once ``out`` drains
        self.closed = False
        self.last = time.monotonic()  # when a byte last moved


class KeyService:
    """A multi-session key service over a local TCP listener."""

    def __init__(
        self,
        registry: SessionRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        client_timeout: float = 30.0,
        max_requests: int | None = None,
        backlog: int = 8,
        replay_capacity: int = 512,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ParameterError("the service needs at least one worker")
        if backlog < 1:
            raise ParameterError("the accept backlog must be >= 1")
        self.registry = registry
        self.host = host
        self.port = port
        self.workers = workers
        self.client_timeout = client_timeout
        self.max_requests = max_requests
        self.backlog = backlog
        #: Shared with the registry by default so one snapshot carries
        #: both the request-level and residency-level instruments.
        self.metrics = metrics if metrics is not None else registry.metrics
        self.address: tuple[str, int] | None = None
        #: Keys whose end-of-life checkpoint flush failed during the
        #: last drain (mirrors ``registry.drain_failures``).
        self.drain_failures: list[str] = []
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._loop_thread: threading.Thread | None = None
        # Workers wake the loop through this pair when a reply is ready.
        self._wake_reader: socket.socket | None = None
        self._wake_writer: socket.socket | None = None
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._stop_lock = threading.Lock()
        self._stop_begun = False
        #: Set by stop(): when the loop cuts whatever is still connected.
        self._drain_until: float | None = None
        self._requests_handled = 0
        self._count_lock = threading.Lock()
        # Loop-owned state; other threads only read the counters.
        self._connections: set[_Connection] = set()
        self._returned: deque[_Connection] = deque()  # handed back by workers
        self._pending = 0  # requests on the pool, queued or running
        self._heavy = 0  # of which HEAVY_OPS
        self._inline = False  # the loop is answering a request
        self._replay = ResponseCache(replay_capacity)
        self._tenant_labels: set[str] = set()
        self._tenant_labels_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "KeyService":
        if self._loop_thread is not None or self._stop_begun:
            raise ProtocolError("service already started")
        self._listener = socket.create_server((self.host, self.port))
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_reader.setblocking(False)
        self._wake_writer.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_reader, selectors.EVENT_READ)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._loop_thread = threading.Thread(
            target=self._loop, name="repro-service-loop", daemon=True
        )
        self._loop_thread.start()
        return self

    def begin_drain(self) -> None:
        """Signal shutdown without blocking: stop accepting, stop
        admitting protocol work and wake :meth:`wait`.  Safe to call from
        a signal handler (it sets events and writes one wake-up byte);
        the actual drain runs in :meth:`stop`.

        Existing connections keep answering -- light ops served, heavy
        ops refused with the retryable ``draining`` code -- until
        :meth:`stop` cuts their sockets, so a request in flight when
        the drain begins always gets a typed response, never a reset.
        """
        self._draining.set()
        self._wake()

    def stop(self, *, drain_deadline: float | None = None) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests,
        checkpoint and evict every resident session.

        Idempotent and thread-safe: concurrent callers (e.g. a signal
        handler racing the ``max_requests`` trip) are serialized by a
        once-lock -- the first runs the shutdown, the rest block until
        it finishes and return.  ``drain_deadline`` bounds how long
        in-flight requests may keep their connections to finish and
        deliver responses; ``None`` cuts all connections immediately
        (in-flight protocol work still completes and commits -- only
        its responses are lost).
        """
        with self._stop_lock:
            if self._stop_begun:
                already_stopping = True
            elif self._loop_thread is None:
                return  # never started
            else:
                self._stop_begun = True
                already_stopping = False
        if already_stopping:
            self._stopped.wait()
            return
        self._drain_until = time.monotonic() + max(0.0, drain_deadline or 0.0)
        self.begin_drain()
        self._loop_thread.join()
        # Requests still queued lost their connections with the loop;
        # those already running complete and commit.
        self._pool.shutdown(wait=True, cancel_futures=True)
        for connection in self._connections:  # those the pool still held
            connection.sock.close()
        self._wake_reader.close()
        self._wake_writer.close()
        self.registry.evict_all()
        self.drain_failures = list(self.registry.drain_failures)
        self._stopped.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the service begins stopping (``max_requests``
        reached, :meth:`begin_drain`, or :meth:`stop` elsewhere)."""
        return self._draining.wait(timeout)

    def __enter__(self) -> "KeyService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def requests_handled(self) -> int:
        with self._count_lock:
            return self._requests_handled

    # -- health --------------------------------------------------------------

    def health_status(self) -> str:
        if self._draining.is_set():
            return DRAINING
        if self._heavy >= self.workers + self.backlog:
            return OVERLOADED
        return READY

    def _busy_workers(self) -> int:
        """Threads serving a request: pool workers, plus the loop while
        it answers one itself."""
        return min(self._pending, self.workers) + self._inline

    def _queue_depth(self) -> int:
        """Requests waiting for a free worker."""
        return max(0, self._pending - self.workers)

    def refresh_gauges(self) -> None:
        """Re-publish point-in-time gauges into the metrics registry.

        Called on every observation surface (``health``/``stats``/
        ``metrics`` ops and the Prometheus endpoint) rather than on a
        timer: gauges are cheap to recompute and this keeps every scrape
        internally consistent with the moment it was served.
        """
        self.metrics.gauge("service.busy_workers").set(self._busy_workers())
        self.metrics.gauge("service.queue_depth").set(self._queue_depth())
        self.metrics.gauge("service.connections_active").set(len(self._connections))
        self.registry.publish_budget_gauges()

    def _retry_after(self) -> float:
        """Backoff hint for shed requests: grows with the overflow depth
        so a herd of shed clients spreads out instead of stampeding."""
        overflow = self._heavy - self.workers + 1
        return min(2.0, max(0.05, 0.05 * overflow))

    def _tenant_label(self, tenant) -> str:
        """Fold a request's tenant field into the bounded label space.

        Absent → ``-``; malformed (would fail registry validation) →
        ``__invalid__``; otherwise the tenant itself until
        :data:`MAX_TENANT_LABELS` distinct tenants have been seen, then
        ``__other__``.  The seen-set is remembered, so a tenant that made
        the cut keeps its own series for the life of the process.
        """
        from repro.service.registry import _NAME_RE

        if tenant is None:
            return NO_TENANT_LABEL
        if not isinstance(tenant, str) or not _NAME_RE.match(tenant):
            return INVALID_TENANT_LABEL
        with self._tenant_labels_lock:
            if tenant in self._tenant_labels:
                return tenant
            if len(self._tenant_labels) < MAX_TENANT_LABELS:
                self._tenant_labels.add(tenant)
                return tenant
        return OVERFLOW_TENANT_LABEL

    # -- the loop (owns the listener and every idle connection) --------------

    def _loop(self) -> None:
        selector = self._selector
        try:
            while not (self._drain_until is not None and self._drained()):
                timeout = self._drop_silent()
                if self._drain_until is not None:
                    left = max(0.0, self._drain_until - time.monotonic())
                    timeout = left if timeout is None else min(timeout, left)
                for key, events in selector.select(timeout):
                    connection = key.data
                    if key.fileobj is self._listener:
                        self._accept()
                    elif connection is None:  # a worker's wake-up bytes
                        self._wake_reader.recv(4096)
                    elif not connection.closed:
                        if events & selectors.EVENT_WRITE:
                            self._flush(connection)
                        else:
                            self._read(connection)
                        self._advance(connection)
                while self._returned:
                    self._take_back(self._returned.popleft())
                if self._draining.is_set() and self._listener is not None:
                    selector.unregister(self._listener)
                    self._listener.close()
                    self._listener = None
        finally:
            for connection in list(self._connections):
                if not connection.busy:
                    self._close(connection)
            if self._listener is not None:
                self._listener.close()
            selector.close()

    def _drop_silent(self) -> float | None:
        """Drop connections that moved no byte for ``client_timeout`` (idle,
        stalled mid-frame, or not reading their reply); seconds until the
        next may expire, ``None`` for no bound."""
        if self.client_timeout is None:
            return None
        now, wait = time.monotonic(), None
        for connection in [c for c in self._connections if not c.busy]:
            left = connection.last + self.client_timeout - now
            if left <= 0:
                self.metrics.counter("service.client_timeouts").inc()
                self._close(connection)
            elif wait is None or left < wait:
                wait = left
        return wait

    def _drained(self) -> bool:
        """One drain step; whether the loop may exit.  Connections with
        nothing in flight are cut at once; the rest keep theirs to deliver
        a response until the drain deadline, when a request still on the
        pool loses its socket (its protocol work still commits)."""
        late = time.monotonic() >= self._drain_until
        for connection in list(self._connections):
            if not connection.busy:
                if late or not connection.out:
                    self._close(connection)
            elif late:
                try:  # the worker owns the descriptor: shut it, never close
                    connection.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        return late or not self._connections

    def _wake(self) -> None:
        if self._wake_writer is None:
            return  # not started
        try:
            self._wake_writer.send(b"\0")
        except OSError:
            pass  # a wake-up is already pending, or the service stopped

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # taken already, or no descriptor free: the next event retries
        sock.setblocking(False)
        connection = _Connection(sock)
        self._connections.add(connection)
        self._selector.register(sock, selectors.EVENT_READ, connection)

    def _close(self, connection: _Connection) -> None:
        """Close an idle connection (the loop owns it and selects on it)."""
        if not connection.closed:
            connection.closed = True
            self._selector.unregister(connection.sock)
            self._connections.discard(connection)
            connection.sock.close()

    def _read(self, connection: _Connection) -> None:
        try:
            data = connection.sock.recv(_READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:  # the client hung up
            self._close(connection)
            return
        connection.frames.feed(data)
        connection.last = time.monotonic()

    def _send(self, connection: _Connection, reply: bytes) -> None:
        connection.out += reply
        self._flush(connection)

    def _flush(self, connection: _Connection) -> None:
        """Send what the socket takes now, never blocking.  Run by the
        connection's owner: the loop, or the worker holding its request."""
        try:
            while connection.out:
                del connection.out[: connection.sock.send(connection.out)]
        except BlockingIOError:
            pass
        except OSError:
            connection.out.clear()
            connection.closing = True
        connection.last = time.monotonic()

    def _advance(self, connection: _Connection) -> None:
        """Serve buffered requests in order until one goes to the pool, a
        reply waits to drain, or no whole frame is left; then select for
        what the connection waits on."""
        if connection.closed:
            return
        while not (connection.busy or connection.out or connection.closing):
            try:
                frame = connection.frames.next_frame()
            except WireFormatError as exc:
                connection.closing = True
                self._send(
                    connection,
                    encode_frame({"ok": False, "code": "bad-request", "error": str(exc)}, b""),
                )
                break
            if frame is None:
                break
            self._dispatch(connection, *frame)
        if connection.busy:
            return
        if connection.closing and not connection.out:
            self._close(connection)
            return
        events = selectors.EVENT_WRITE if connection.out else selectors.EVENT_READ
        self._selector.modify(connection.sock, events, connection)

    def _dispatch(self, connection: _Connection, header: dict, payload: bytes) -> None:
        op = header.get("op")
        heavy = op in HEAVY_OPS
        refused = heavy and (
            self._draining.is_set() or self._heavy >= self.workers + self.backlog
        )
        if op in LOOP_OPS or refused:
            self._inline = True
            self._respond(connection, header, payload, overloaded=refused)
            self._inline = False
            return
        # The worker owns the connection until it hands it back.
        self._selector.unregister(connection.sock)
        connection.busy, connection.heavy = True, heavy
        self._pending += 1
        self._heavy += heavy
        self._pool.submit(self._work, connection, header, payload, time.perf_counter())

    def _work(
        self, connection: _Connection, header: dict, payload: bytes, framed_at: float
    ) -> None:
        """A pool job: serve one request, send its reply, hand the
        connection back to the loop."""
        try:
            self._respond(connection, header, payload, framed_at=framed_at)
        except BaseException:
            connection.closing = True  # no reply went out
            connection.out.clear()
            raise
        finally:
            self._returned.append(connection)
            self._wake()

    def _take_back(self, connection: _Connection) -> None:
        self._pending -= 1
        self._heavy -= connection.heavy
        connection.busy = connection.heavy = False
        self._selector.register(connection.sock, selectors.EVENT_READ, connection)
        self._advance(connection)

    def _respond(
        self,
        connection: _Connection,
        header: dict,
        payload: bytes,
        *,
        framed_at: float | None = None,
        overloaded: bool = False,
    ) -> None:
        """Serve one request and send its reply on ``connection``."""
        self._serve(
            header,
            payload,
            lambda reply: self._send(connection, reply),
            framed_at=framed_at,
            overloaded=overloaded,
        )
        if not connection.closing and self._bump_handled():
            connection.closing = True  # max_requests reached: close once sent

    def _bump_handled(self) -> bool:
        with self._count_lock:
            self._requests_handled += 1
            done = (
                self.max_requests is not None
                and self._requests_handled >= self.max_requests
            )
        if done:
            # Trip the stop event only: the actual drain must happen on
            # another thread (stop() joins this loop and the pool).
            self.begin_drain()
        return done

    def _serve(
        self,
        header: dict,
        payload: bytes,
        send,
        *,
        framed_at: float | None = None,
        overloaded: bool = False,
    ) -> None:
        """Handle one request and pass its reply frame to ``send``."""
        tracer = active_tracer()
        if not tracer.enabled:
            send(encode_frame(*self._handle(header, payload, overloaded=overloaded)))
            return
        # The server-side root of this request's trace, parented
        # cross-process on the client's attempt span when the header
        # carries trace context.  Covers dispatch *and* reply delivery.
        span = tracer.span(
            "service.request",
            parent=SpanContext.from_header(header),
            op=header.get("op"),
            tenant=self._tenant_label(header.get("tenant")),
        )
        with span:
            if framed_at is not None:
                # The request is the server's from the moment its frame
                # was parsed: the wait for a worker is part of it.
                tracer.record(
                    "service.queue_wait", max(0.0, span.start - framed_at), parent=span
                )
                span.start = min(span.start, framed_at)
            response_header, body = self._handle(header, payload, overloaded=overloaded)
            span.annotate(ok=response_header.get("ok"))
            if not response_header.get("ok"):
                span.annotate(code=response_header.get("code"))
            with tracer.span("service.reply_encode", bytes=len(body)):
                send(encode_frame(response_header, body))

    # -- request dispatch ----------------------------------------------------

    def _handle(
        self, header: dict, payload: bytes, *, overloaded: bool = False
    ) -> tuple[dict, bytes]:
        """Run one request; every failure becomes a typed response.

        ``overloaded`` is the loop's verdict that the heavy-request queue
        is full: a heavy op is then refused without running."""
        op = header.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        start = time.perf_counter()
        outcome = "ok"
        try:
            if handler is None:
                raise ServiceError("bad-request", f"unknown op {op!r}")
            if op in HEAVY_OPS:
                if self._draining.is_set():
                    raise ServiceDraining(
                        "service is draining; no new protocol work admitted"
                    )
                if overloaded:
                    raise ServiceOverloaded(
                        "service is saturated; protocol work shed",
                        retry_after=self._retry_after(),
                    )
                # Deadline gate at admission: a request that arrives
                # already dead never reaches a session.
                deadline = deadline_from_header(header)
                if deadline is not None:
                    deadline.check("at admission")
            fields, body = handler(header, payload)
            return {"ok": True, **fields}, body
        except ServiceError as exc:
            response = {"ok": False, "code": exc.code, "error": str(exc)}
            if isinstance(exc, DeadlineExceeded):
                outcome = "deadline"
                self.metrics.counter("service.deadline_exceeded").inc()
            elif isinstance(exc, (ServiceOverloaded, ServiceDraining)):
                outcome = "shed"
                overload = isinstance(exc, ServiceOverloaded)
                mode = "overload" if overload else "drain"
                self.metrics.counter("service.sheds", mode=mode).inc()
                response["retry-after"] = exc.retry_after if overload else 0.1
            elif isinstance(exc, AdmissionRejected):
                outcome = "rejected"
                self.metrics.counter("service.rejections").inc()
                response["error"] = exc.reason
            else:
                outcome = "error"
            return response, b""
        except Exception as exc:  # the worker must survive anything
            outcome = "error"
            for types, code in _ERROR_CODES:
                if isinstance(exc, types):
                    return {"ok": False, "code": code, "error": str(exc)}, b""
            error = f"{type(exc).__name__}: {exc}"
            return {"ok": False, "code": "internal", "error": error}, b""
        finally:
            label = op if isinstance(op, str) else "invalid"
            tenant = self._tenant_label(header.get("tenant"))
            exemplar = None
            tracer = active_tracer()
            if tracer.enabled:
                # Link this observation to the request's trace: the span
                # open on this thread is the service.request root opened
                # in _serve.  Scrapers surface the exemplar on
                # the latency bucket the request landed in, so a tail
                # bucket points straight at a trace that lives there.
                current = tracer.current()
                if current is not None:
                    exemplar = {"span": current.ref}
                    if current.trace_id is not None:
                        exemplar["trace_id"] = current.trace_id
            self.metrics.histogram(
                "service.request_seconds",
                buckets=REQUEST_SECONDS_BUCKETS,
                op=label,
                tenant=tenant,
            ).observe(time.perf_counter() - start, exemplar=exemplar)
            self.metrics.counter(
                "service.requests", op=label, outcome=outcome, tenant=tenant
            ).inc()

    def _session(self, header: dict) -> ManagedSession:
        return self.registry.get(header.get("tenant"), header.get("key"))

    # -- operations ----------------------------------------------------------

    def _op_ping(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        return {}, b""

    def _op_health(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        self.refresh_gauges()
        return {
            "status": self.health_status(),
            "draining": self._draining.is_set(),
            "active_connections": len(self._connections),
            "workers": self.workers,
            "busy_workers": self._busy_workers(),
            "queue_depth": self._queue_depth(),
            "kernels": kernel_backend(),
            "backlog": self.backlog,
            "sessions_resident": self.registry.resident_count(),
            "requests_handled": self.requests_handled,
        }, b""

    def _op_open(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        session = self.registry.create(
            header.get("tenant"),
            header.get("key"),
            scheme=header.get("scheme", "dlr"),
            n=int(header.get("n", 32)),
            lam=int(header.get("lam", 32)),
            seed=header.get("seed"),
        )
        envelope = persist.dumps("public_key", session.public_key)
        return {"scheme": session.scheme_kind, "period": 0}, envelope.encode("utf-8")

    def _op_describe(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        session = self._session(header)
        envelope = persist.dumps("public_key", session.public_key)
        return {
            "scheme": session.scheme_kind,
            "next_period": session.next_period,
            "frozen": session.frozen,
        }, envelope.encode("utf-8")

    def _serve_on(self, header: dict, serve) -> tuple[ManagedSession, object]:
        # Between registry lookup and session lock the LRU sweep may
        # evict the object we hold; re-resolve once (the second lookup
        # rehydrates from the checkpoint the eviction just guaranteed).
        for attempt in (1, 2):
            session = self._session(header)
            try:
                return session, serve(session)
            except StaleSessionError:
                if attempt == 2:
                    raise ServiceError(
                        "internal", f"session {session.key} evicted twice mid-request"
                    ) from None

    def _replayable(self, header: dict, run) -> tuple[dict, bytes]:
        """``run()`` at most once per ``request_id``.

        A client that lost our response retries with the same id and
        gets the cached one instead of burning a second period (and a
        second leakage charge) on the same ciphertext.  While the first
        request runs, the id is claimed: a duplicate is answered
        ``overloaded`` and finds the cached response on its retry.  A
        failed request releases the claim, so its retry runs afresh.
        """
        request_id = header.get("request_id")
        if request_id is None:
            return run()
        cache_key = (
            header.get("tenant"),
            header.get("key"),
            validated_request_id(request_id),
        )
        cached = self._replay.claim(cache_key)
        if cached is not None:
            fields, body = cached
            self.metrics.counter("service.replayed_decrypts").inc()
            return {**fields, "replayed": True}, body
        try:
            fields, body = run()
        except BaseException:
            self._replay.release(cache_key)
            raise
        self._replay.put(cache_key, fields, body)
        return fields, body

    def _op_decrypt(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        deadline = deadline_from_header(header)

        def serve(session):
            # Decode against the *serving* session's group, inside the
            # re-resolve loop: decoding before it could hand a
            # rehydrated session a ciphertext decoded into the evicted
            # twin's group.
            ciphertext = persist.loads(payload.decode("utf-8"), session.group)
            return session.serve_decrypt(ciphertext, deadline=deadline)

        def run():
            session, record = self._serve_on(header, serve)
            bits = record.plaintext.to_bits()
            return {"period": record.period, "plaintext_bits": len(bits)}, bits.to_bytes()

        return self._replayable(header, run)

    def _op_decrypt_batch(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        """Decrypt a whole ciphertext vector as ONE supervised period:
        every ciphertext under the current share generation, one refresh,
        one checkpoint, one leakage-period charge -- the amortized path.
        Idempotent under ``request_id`` exactly like ``decrypt``; the
        deadline is enforced between protocol steps, so each per-
        ciphertext chunk of the period re-checks it and an expiry rolls
        the whole (uncommitted) period back, typed and retryable."""
        deadline = deadline_from_header(header)

        def serve(session):
            ciphertexts = persist.loads(payload.decode("utf-8"), session.group)
            if not isinstance(ciphertexts, list) or not ciphertexts:
                raise ServiceError(
                    "bad-request", "decrypt_batch needs a non-empty ciphertext_batch"
                )
            return session.serve_decrypt_batch(ciphertexts, deadline=deadline)

        def run():
            session, record = self._serve_on(header, serve)
            self.metrics.histogram(
                "service.batch_size",
                buckets=BATCH_SIZE_BUCKETS,
                tenant=self._tenant_label(header.get("tenant")),
            ).observe(len(record.plaintexts))
            bits_list = [plaintext.to_bits() for plaintext in record.plaintexts]
            fields = {
                "period": record.period,
                "count": len(bits_list),
                "plaintext_bits": [len(bits) for bits in bits_list],
            }
            return fields, b"".join(bits.to_bytes() for bits in bits_list)

        return self._replayable(header, run)

    def _op_refresh(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        deadline = deadline_from_header(header)
        session, record = self._serve_on(
            header, lambda s: s.serve_refresh(deadline=deadline)
        )
        return {"period": record.period}, b""

    def _op_evict(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        evicted = self.registry.evict(header.get("tenant"), header.get("key"))
        return {"evicted": evicted}, b""

    def _op_metrics(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        """Prometheus text exposition over the wire protocol -- the same
        bytes ``--prom-port`` serves over HTTP, for clients that already
        hold a service connection (light op: answered under overload)."""
        self.refresh_gauges()
        body = render_prometheus(self.metrics).encode("utf-8")
        return {"content_type": PROMETHEUS_CONTENT_TYPE}, body

    def _op_stats(self, header: dict, payload: bytes) -> tuple[dict, bytes]:
        self.refresh_gauges()
        body = json.dumps(
            {
                "health": self.health_status(),
                "registry": self.registry.snapshot(),
                "metrics": self.metrics.snapshot(),
                "requests_handled": self.requests_handled,
            },
            sort_keys=True,
        ).encode("utf-8")
        return {"sessions_active": self.registry.resident_count()}, body
