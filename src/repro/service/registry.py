"""The session registry: many keys, bounded residency, durable eviction.

One :class:`SessionRegistry` owns every key a service deployment serves.
Sessions are keyed by ``tenant/key-id``; at most ``capacity`` of them
are *resident* (devices installed, ready to serve) at a time.  Beyond
that the least-recently-used idle session is evicted: its committed
state is already durable (the supervisor checkpoints after every
period), so eviction just drops the in-memory half, and the next
request for that key *rehydrates* it from the checkpoint file --
exactly the crash/resume path the runtime already pins down, exercised
here as a steady-state memory-management tool.

A corrupt checkpoint surfaces as
:class:`~repro.errors.CheckpointError` (fatal, classified), so one
damaged key degrades into per-request errors instead of crashing the
worker that happened to rehydrate it.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import re
import threading
import time

from repro.core.dlr import DLR
from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.errors import AdmissionRejected, ParameterError
from repro.groups import preset_group
from repro.ibe.dlr_ibe import DLRIBE
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.protocol.transport import InMemoryTransport
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.policy import RetryPolicy
from repro.runtime.session import SessionSupervisor, scheme_for_state
from repro.service.session import ManagedSession, SessionKey
from repro.telemetry.metrics import MetricsRegistry

_SCHEMES = {"dlr": DLR, "optimal": OptimalDLR, "dlribe": DLRIBE}

#: Tenants and key ids become path components of checkpoint files; keep
#: them to a filesystem- and header-safe alphabet.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _validated_key(tenant: str, key_id: str) -> SessionKey:
    for part, label in ((tenant, "tenant"), (key_id, "key id")):
        if not isinstance(part, str) or not _NAME_RE.match(part):
            raise ParameterError(
                f"{label} {part!r} is invalid: expected 1-64 chars of "
                "[A-Za-z0-9._-] starting alphanumeric"
            )
    return SessionKey(tenant, key_id)


def _preset_matching(pairing):
    """The preset group for ``pairing``, or ``None`` if it is not one.

    Group interop is by params *identity*: a rehydrated session decodes
    into the cached preset group when its checkpoint matches one, so its
    elements compose with ciphertexts already held against the original
    in-process group.
    """
    canonical = preset_group(pairing.n)
    return canonical if canonical.params == pairing else None


class SessionRegistry:
    """Resident-session store with checkpoint-backed eviction."""

    def __init__(
        self,
        checkpoint_dir,
        *,
        capacity: int = 64,
        policy: RetryPolicy | None = None,
        budgeted: bool = True,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ParameterError("registry capacity must be >= 1")
        self.checkpoint_dir = pathlib.Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.capacity = capacity
        self.budgeted = budgeted
        #: Service-wide instruments (sessions gauge, eviction counters).
        #: Each session's *oracle* keeps its own private registry so
        #: per-session retry ledgers never mix across keys.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._policy = policy if policy is not None else RetryPolicy()
        self._clock = clock
        #: Held by the writers (create, a rehydrating get, evict's drop)
        #: through key generation or a checkpoint load, never while
        #: waiting on a busy session.  Readers never take it.
        self._lock = threading.RLock()
        #: Copy-on-write: :meth:`_admit` and :meth:`_drop` replace the
        #: dict under the lock and never mutate it, so a reader that
        #: grabs the reference sees whole rows without waiting.
        self._resident: dict[SessionKey, ManagedSession] = {}
        #: Serialises :meth:`publish_budget_gauges` (loop and scrape
        #: threads); held only while it sums and sets gauges.
        self._gauge_lock = threading.Lock()
        #: Keys whose end-of-life checkpoint flush failed in the last
        #: :meth:`evict_all` (the drain path reports these).
        self.drain_failures: list[str] = []
        #: Tenants currently carrying budget gauges (so a tenant whose
        #: sessions all evict gets its gauges zeroed, not frozen).
        self._budget_tenants: set[str] = set()

    # -- paths ---------------------------------------------------------------

    def checkpoint_path(self, key: SessionKey) -> pathlib.Path:
        return self.checkpoint_dir / key.tenant / f"{key.key_id}.ckpt.json"

    # -- lifecycle -----------------------------------------------------------

    def create(
        self,
        tenant: str,
        key_id: str,
        *,
        scheme: str = "dlr",
        n: int = 32,
        lam: int = 32,
        seed: int | None = None,
    ) -> ManagedSession:
        """Generate a fresh key pair and admit its session.

        ``seed=None`` derives a deterministic seed from the key's name,
        so re-creating a deployment from a manifest reproduces it.
        """
        if scheme not in _SCHEMES:
            raise ParameterError(f"unknown scheme kind {scheme!r}")
        key = _validated_key(tenant, key_id)
        if seed is None:
            seed = int.from_bytes(
                hashlib.sha256(str(key).encode()).digest()[:4], "big"
            )
        with self._lock:
            path = self.checkpoint_path(key)
            if key in self._resident or path.exists():
                raise ParameterError(f"key {key} already exists")
            params = DLRParams(group=preset_group(n), lam=lam)
            scheme_obj = _SCHEMES[scheme](params)
            generation = scheme_obj.generate(random.Random(seed))
            path.parent.mkdir(parents=True, exist_ok=True)
            supervisor = SessionSupervisor.start(
                scheme_obj,
                InMemoryTransport(),
                public_key=generation.public_key,
                share1=generation.share1,
                share2=generation.share2,
                periods=0,  # request-driven: grows with traffic
                seed=seed,
                checkpoint_path=path,
                policy=self._policy,
                oracle=self._oracle_for(params),
            )
            session = ManagedSession(key, supervisor, clock=self._clock)
            self._admit(key, session)
            self.metrics.counter("service.sessions_created").inc()
        return session

    def get(self, tenant: str, key_id: str) -> ManagedSession:
        """The resident session, rehydrating from its checkpoint if
        evicted.  Raises ``KeyError`` for a key that was never created,
        :class:`~repro.errors.CheckpointError` if its checkpoint is
        corrupt.

        A resident key is served from the copy-on-write resident view
        without the registry lock, so a request never queues behind
        another key's eviction or rehydration.  A miss loads under the
        lock: a load outside it could admit shares older than a
        concurrent request's commit."""
        key = _validated_key(tenant, key_id)
        session = self._resident.get(key)
        if session is not None:
            return session
        with self._lock:
            session = self._resident.get(key)
            if session is not None:
                return session
            path = self.checkpoint_path(key)
            if not path.exists():
                raise KeyError(str(key))
            state = load_checkpoint(path, group=_preset_matching)
            scheme_obj = scheme_for_state(state)
            supervisor = SessionSupervisor(
                scheme_obj,
                InMemoryTransport(),
                state,
                checkpoint_path=path,
                policy=self._policy,
                oracle=self._oracle_for(scheme_obj.params),
            )
            session = ManagedSession(key, supervisor, clock=self._clock)
            self._admit(key, session)
            self.metrics.counter("service.rehydrations").inc()
            return session

    def evict(self, tenant: str, key_id: str, *, wait: bool = True) -> bool:
        """Checkpoint and drop one resident session.

        Blocks until any in-flight request on it commits (``wait=True``)
        or gives up immediately if it is busy.  Returns whether the
        session was resident.

        The wait for a busy session happens outside the registry lock,
        so other keys keep being served meanwhile.  The drop then
        re-checks residency under the registry lock and takes the
        session lock without blocking (the registry lock is always
        taken first), retrying if a request slipped in between.
        """
        key = _validated_key(tenant, key_id)
        while True:
            session = self._resident.get(key)
            if session is None:
                return False
            if not session.lock.acquire(blocking=wait):
                raise AdmissionRejected(str(key), "session is busy; eviction skipped")
            session.lock.release()
            with self._lock:
                if self._resident.get(key) is not session:
                    continue  # dropped or replaced meanwhile: look again
                if session.lock.acquire(blocking=False):
                    try:
                        self._drop(key, session)
                    finally:
                        session.lock.release()
                    return True
            if not wait:
                raise AdmissionRejected(str(key), "session is busy; eviction skipped")

    def evict_all(self) -> int:
        """Drain the registry (service shutdown): evict every resident
        session, waiting for in-flight requests to commit.

        Every session's committed state is flushed to its checkpoint
        file once more before the resident half is dropped -- an
        explicit end-of-life write, so a drain's durability does not
        rest on the last period's commit alone.  A session whose flush
        fails is *still evicted* (its per-commit checkpoint remains the
        durable truth) but is recorded in :attr:`drain_failures` and
        counted in ``service.drain_checkpoint_failures``, so the CLI
        can exit nonzero on a drain that could not prove durability.
        """
        with self._lock:
            self.drain_failures = []
            count = 0
            for key in sorted(self._resident):
                session = self._resident[key]
                with session.lock:
                    try:
                        save_checkpoint(
                            self.checkpoint_path(key), session.supervisor.state
                        )
                    except Exception as exc:  # noqa: BLE001 - per-key fault
                        self.drain_failures.append(f"{key}: {exc}")
                        self.metrics.counter(
                            "service.drain_checkpoint_failures"
                        ).inc()
                    self._drop(key, session)
                count += 1
            return count

    # -- internals (registry lock held) --------------------------------------

    def _oracle_for(self, params: DLRParams) -> LeakageOracle | None:
        if not self.budgeted:
            return None
        return LeakageOracle(
            LeakageBudget(b0=0, b1=params.theorem_b1(), b2=params.theorem_b2())
        )

    def _admit(self, key: SessionKey, session: ManagedSession) -> None:
        while len(self._resident) >= self.capacity:
            if not self._evict_lru():
                raise AdmissionRejected(
                    str(key),
                    f"registry at capacity ({self.capacity}) and every "
                    "resident session is mid-request",
                )
        self._resident = {**self._resident, key: session}
        self.metrics.gauge("service.sessions_active").set(len(self._resident))

    def _evict_lru(self) -> bool:
        for key, session in sorted(
            self._resident.items(), key=lambda item: item[1].last_used
        ):
            if session.lock.acquire(blocking=False):
                try:
                    self._drop(key, session)
                finally:
                    session.lock.release()
                return True
        return False

    def _drop(self, key: SessionKey, session: ManagedSession) -> None:
        """Caller holds the registry lock AND the session lock."""
        # Committed state is already durable (the supervisor checkpoints
        # every period commit, and start() writes the initial state), so
        # dropping the resident half loses nothing.
        session.evicted = True
        resident = dict(self._resident)
        del resident[key]
        self._resident = resident
        self.metrics.gauge("service.sessions_active").set(len(self._resident))
        self.metrics.counter("service.evictions").inc()

    # -- introspection --------------------------------------------------------

    def publish_budget_gauges(self) -> None:
        """Publish per-tenant leakage-budget gauges into the service
        registry, reconciling with each session's oracle.

        ``service.budget_remaining_bits{tenant,device}`` sums
        ``oracle.remaining(device)`` over the tenant's resident sessions
        and ``service.budget_retry_bits{tenant,device}`` sums
        ``oracle.retry_charged(device=...)`` -- the oracle's registry-
        backed retry ledger *is* the source, so the gauges cannot drift
        from it (the reconciliation tests assert exact equality).
        Tenants that lose their last resident session zero out instead
        of freezing at their final value.
        """
        totals: dict[tuple[str, int], list[int]] = {}
        with self._gauge_lock:
            for key, session in self._resident.items():
                oracle = session.supervisor.oracle
                if oracle is None:
                    continue
                for device in (1, 2):
                    entry = totals.setdefault((key.tenant, device), [0, 0])
                    entry[0] += oracle.remaining(device)
                    entry[1] += oracle.retry_charged(device=device)
            stale = self._budget_tenants - {tenant for tenant, _ in totals}
            self._budget_tenants = {tenant for tenant, _ in totals}
            for (tenant, device), (remaining, retry_bits) in totals.items():
                label = f"P{device}"
                self.metrics.gauge(
                    "service.budget_remaining_bits", tenant=tenant, device=label
                ).set(remaining)
                self.metrics.gauge(
                    "service.budget_retry_bits", tenant=tenant, device=label
                ).set(retry_bits)
            for tenant in stale:
                for device in (1, 2):
                    label = f"P{device}"
                    self.metrics.gauge(
                        "service.budget_remaining_bits", tenant=tenant, device=label
                    ).set(0)
                    self.metrics.gauge(
                        "service.budget_retry_bits", tenant=tenant, device=label
                    ).set(0)

    def resident_count(self) -> int:
        return len(self._resident)

    def known_keys(self) -> list[str]:
        """Every key with a checkpoint on disk or resident in memory."""
        keys = {str(key) for key in self._resident}
        for path in self.checkpoint_dir.glob("*/*.ckpt.json"):
            keys.add(f"{path.parent.name}/{path.name[: -len('.ckpt.json')]}")
        return sorted(keys)

    def snapshot(self) -> dict:
        """A consistent view of residency: read from one copy-on-write
        version of the resident set, so rows never show a half-admitted
        or half-evicted key, and never wait on a registry writer."""
        resident_now = self._resident
        resident = [resident_now[key].view() for key in sorted(resident_now)]
        return {
            "capacity": self.capacity,
            "resident": resident,
            "resident_count": len(resident),
            "known_keys": self.known_keys(),
        }
