"""One service-managed key: a supervised session behind a lock.

A :class:`ManagedSession` is the unit the registry owns per
``tenant/key-id``: a :class:`~repro.runtime.session.SessionSupervisor`
(devices, transport, retry policy, leakage oracle, durable checkpoint)
plus the service-side concerns the supervisor does not have -- mutual
exclusion (one request at a time per key; concurrency lives *across*
sessions), admission control against the leakage budget, last-used
tracking for LRU eviction, and transcript and session-log pruning so
an unbounded request stream does not grow memory without bound.

Locking discipline: the registry lock is always taken before a session
lock, never the other way around, so eviction (registry + session) and
request serving (session only) cannot deadlock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.dlr import MultiPeriodRecord, PeriodRecord
from repro.errors import AdmissionRejected
from repro.runtime.session import SessionSupervisor
from repro.service.resilience import find_deadline_exceeded
from repro.telemetry.tracer import active_tracer


class StaleSessionError(Exception):
    """The session was evicted between lookup and use; look it up again.

    Internal to the service: a worker that resolved a session from the
    registry, lost the CPU, and woke after an eviction must not serve on
    the orphaned object (a rehydrated twin could diverge from it).  The
    server catches this and re-resolves through the registry.
    """


@dataclass(frozen=True, order=True)
class SessionKey:
    """Registry identity of one key: ``tenant/key_id``."""

    tenant: str
    key_id: str

    def __str__(self) -> str:
        return f"{self.tenant}/{self.key_id}"


class ManagedSession:
    """A supervised session plus the service-side request surface."""

    def __init__(
        self,
        key: SessionKey,
        supervisor: SessionSupervisor,
        *,
        clock=time.monotonic,
    ) -> None:
        self.key = key
        self.supervisor = supervisor
        self.lock = threading.Lock()
        self.evicted = False
        self.requests_served = 0
        self._clock = clock
        self.last_used = clock()

    # -- read surface -------------------------------------------------------

    @property
    def public_key(self):
        return self.supervisor.state.public_key

    @property
    def group(self):
        return self.public_key.group

    @property
    def scheme_kind(self) -> str:
        return self.supervisor.state.scheme

    @property
    def next_period(self) -> int:
        return self.supervisor.state.next_period

    @property
    def frozen(self) -> bool:
        return self.supervisor.frozen

    # -- admission control --------------------------------------------------

    def admission_error(self) -> str | None:
        """Why a request must be rejected right now, or ``None``.

        Mirrors the conditions under which the supervisor would freeze
        mid-request: a frozen session stays rejected until an operator
        intervenes, and a period whose leakage budget is already
        exhausted cannot absorb even one retry's transcript, so the
        request is refused before any protocol bits reach the wire.
        """
        if self.supervisor.frozen:
            return (
                "session is frozen: a retry would have exceeded the leakage "
                "budget; the key needs operator attention before serving again"
            )
        oracle = self.supervisor.oracle
        if oracle is not None:
            for device in (1, 2):
                if oracle.remaining(device) <= 0:
                    return (
                        f"leakage budget exhausted for P{device} in period "
                        f"{self.supervisor.state.next_period}"
                    )
        return None

    # -- request serving ----------------------------------------------------

    def serve_decrypt(self, ciphertext, *, deadline=None) -> PeriodRecord:
        """Serve one client decrypt: one full supervised period
        (decrypt + proactive refresh) on the request's ciphertext."""
        return self._serve(ciphertext, deadline=deadline)

    def serve_decrypt_batch(self, ciphertexts, *, deadline=None) -> MultiPeriodRecord:
        """Serve a whole decrypt *batch* as one supervised period: every
        ciphertext decrypted under the current share generation, one
        refresh, one checkpoint -- the amortized path.  The deadline is
        still enforced at protocol-step granularity, so a large batch
        against a short deadline fails typed-and-retryable mid-period
        (the period rolls back; nothing was committed)."""
        return self._serve(list(ciphertexts), deadline=deadline, batch=True)

    def serve_refresh(self, *, deadline=None) -> PeriodRecord:
        """Proactively roll the shares: one period on self-generated
        traffic (the supervisor's plaintext-echo check stays active)."""
        return self._serve(None, deadline=deadline)

    def _serve(self, ciphertext, *, deadline=None, batch: bool = False):
        tracer = active_tracer()
        if tracer.enabled:
            # Requests on the same key serialize here; the lock-wait
            # span is how a trace shows a decrypt that spent its
            # deadline queueing behind a sibling, not computing.
            waited_from = time.perf_counter()
            self.lock.acquire()
            tracer.record(
                "service.lock_wait",
                time.perf_counter() - waited_from,
                key=str(self.key),
            )
        else:
            self.lock.acquire()
        try:
            if self.evicted:
                raise StaleSessionError(str(self.key))
            if deadline is not None:
                # Queueing behind another request on the same key may
                # have consumed the whole budget; answer typed instead
                # of running a period nobody is waiting for.
                deadline.check("after waiting for the session lock")
            if tracer.enabled:
                with tracer.span("service.admission", key=str(self.key)):
                    reason = self.admission_error()
            else:
                reason = self.admission_error()
            if reason is not None:
                raise AdmissionRejected(str(self.key), reason)
            transport = self.supervisor.transport
            if deadline is not None:
                transport.step_hook = deadline.step_hook
            try:
                if batch:
                    record = self.supervisor.run_request_batch(ciphertext)
                else:
                    record = self.supervisor.run_request(ciphertext)
            except Exception as exc:
                # A mid-protocol expiry surfaces wrapped in the engine's
                # rollback machinery; unwrap it so the wire carries the
                # typed retryable code (the period rolled back cleanly).
                expired = find_deadline_exceeded(exc)
                if expired is not None:
                    raise expired from exc
                raise
            finally:
                transport.step_hook = None
            self.requests_served += 1
            self.last_used = self._clock()
            # The committed period's transcript and log rows were
            # checkpoint-summarized and will never be read again; keep
            # memory flat.
            next_period = self.supervisor.state.next_period
            self.supervisor.transport.prune(next_period)
            self.supervisor.log.prune(next_period)
            return record
        finally:
            self.lock.release()

    # -- introspection ------------------------------------------------------

    def view(self) -> dict:
        """One registry-snapshot row (JSON-shaped, no group elements)."""
        supervisor = self.supervisor
        row = {
            "tenant": self.key.tenant,
            "key": self.key.key_id,
            "scheme": supervisor.state.scheme,
            "next_period": supervisor.state.next_period,
            "requests_served": self.requests_served,
            "frozen": supervisor.frozen,
        }
        if supervisor.oracle is not None:
            row["budget_remaining"] = {
                f"P{device}": supervisor.oracle.remaining(device) for device in (1, 2)
            }
        return row
