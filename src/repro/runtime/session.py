"""The session supervisor: multi-period lifecycles that survive faults.

The paper's schemes are *services*: a key pair lives through an
unbounded sequence of time periods, each one decrypting under leakage
and refreshing the shares, over a channel the adversary watches and a
runtime that can crash.  :class:`SessionSupervisor` is the
scheme-agnostic driver of that lifecycle for all three schemes
(:class:`~repro.core.dlr.DLR`, :class:`~repro.core.optimal.OptimalDLR`,
:class:`~repro.ibe.dlr_ibe.DLRIBE`) over any
:class:`~repro.protocol.transport.Transport`:

* faults are **classified** (:mod:`repro.runtime.taxonomy`) -- only
  transient ones are retried; fatal ones abort with the original
  exception; poisoned ones abort and quarantine the transcript;
* retries follow a **policy** (:mod:`repro.runtime.policy`): attempt
  caps, a wall-clock deadline, exponential backoff with seeded jitter;
* every failed attempt's partial transcript is **charged against the
  period's leakage budget** through
  :meth:`~repro.leakage.oracle.LeakageOracle.charge_retry`; when the
  budget cannot absorb another retry the supervisor *freezes* instead
  of silently widening the adversary's view;
* committed periods are **checkpointed durably**
  (:mod:`repro.runtime.checkpoint`), so ``kill -9`` at any instant
  resumes from the last committed period with consistent shares;
* everything lands in a structured **session log**
  (:mod:`repro.runtime.journal`).

Determinism: all supervisor randomness (device RNGs, background
traffic, backoff jitter) is derived from ``(session seed, period)``,
never from global state, so a session resumed from a checkpoint
replays exactly like an uninterrupted session started from that same
checkpoint -- the property the kill/resume integration test pins down.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from itertools import count
from typing import Callable

from repro.core.dlr import DLR, MultiPeriodRecord, PeriodRecord
from repro.core.keys import PublicKey, Share1, Share2
from repro.core.optimal import OptimalDLR
from repro.errors import LeakageBudgetExceeded, ParameterError, ProtocolError
from repro.ibe.dlr_ibe import DLRIBE
from repro.leakage.oracle import LeakageOracle
from repro.protocol.device import Device
from repro.protocol.transport import Transport
from repro.runtime.checkpoint import SessionState, load_checkpoint, save_checkpoint
from repro.runtime.journal import (
    ABORTED,
    EXHAUSTED,
    FROZEN,
    OK,
    RETRY,
    AttemptRecord,
    PeriodSummary,
    SessionLog,
)
from repro.runtime.policy import RetryPolicy
from repro.runtime.taxonomy import POISONED, TRANSIENT, classify_fault, fault_name
from repro.telemetry.dashboard import budget_dashboard
from repro.telemetry.tracer import active_tracer


def scheme_kind_of(scheme: DLR) -> str:
    """The checkpoint kind string for a scheme instance."""
    if isinstance(scheme, DLRIBE):
        return "dlribe"
    if isinstance(scheme, OptimalDLR):
        return "optimal"
    if isinstance(scheme, DLR):
        return "dlr"
    raise ParameterError(f"not a supervisable scheme: {type(scheme).__name__}")


def scheme_for_state(state: SessionState) -> DLR:
    """Rebuild the scheme named by a checkpoint from its parameters."""
    params = state.public_key.params
    if state.scheme == "optimal":
        return OptimalDLR(params)
    if state.scheme == "dlribe":
        return DLRIBE(params)
    return DLR(params)


# ---------------------------------------------------------------------------
# The classified retry loop (shared by the supervisor and drive_period_resilient)
# ---------------------------------------------------------------------------


def run_with_retries(
    run_attempt: Callable[[], object],
    *,
    period: int,
    policy: RetryPolicy,
    transport: Transport,
    log: SessionLog,
    jitter_rng: random.Random,
    oracle: LeakageOracle | None = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_freeze: Callable[[], None] | None = None,
) -> object:
    """Drive ``run_attempt`` to success under the policy.

    Transient faults back off and retry (each failed attempt's wire bits
    charged to the oracle first); fatal faults re-raise unwrapped;
    poisoned faults quarantine the period transcript and re-raise.
    Exhausting the attempt cap or the deadline raises ``ProtocolError``
    with the last transient fault as its cause.
    """
    deadline_at = None if policy.deadline is None else clock() + policy.deadline
    tracer = active_tracer()
    for attempt in count(1):
        bits_before = transport.bits_on_wire(period)
        # Explicit __enter__/__exit__ rather than ``with``: the span must
        # close before the attempt is recorded, and the backoff sleep
        # happens outside it (an attempt's span measures the attempt, not
        # the waiting).
        span = tracer.span("attempt", period=period, attempt=attempt)
        span.__enter__()
        start = clock()
        fault = classification = error = None
        backoff, charged = 0.0, {}
        try:
            result = run_attempt()
        except Exception as exc:
            wall = clock() - start
            bits = transport.bits_on_wire(period) - bits_before
            classification = classify_fault(exc)
            fault = fault_name(exc)
            span.annotate(bits=bits, fault=fault, classification=classification)
            # Fatal and poisoned faults abort with the original exception.
            outcome, error = ABORTED, exc
            if classification == TRANSIENT:
                past_deadline = deadline_at is not None and clock() >= deadline_at
                if attempt >= policy.max_attempts or past_deadline:
                    reason = (
                        f"its {policy.deadline}s deadline"
                        if past_deadline
                        else f"{policy.max_attempts} attempts"
                    )
                    outcome = EXHAUSTED
                    error = ProtocolError(f"time period {period} did not complete within {reason}")
                    error.__cause__ = exc
                else:
                    # The aborted attempt's frames are on the public wire:
                    # book them against the period budget *before* going
                    # again.
                    try:
                        for device_index in (1, 2) if oracle is not None else ():
                            oracle.charge_retry(device_index, bits)
                            charged[f"P{device_index}"] = bits
                    except LeakageBudgetExceeded as overflow:
                        outcome, error = FROZEN, overflow
                    else:
                        outcome, error = RETRY, None
                        backoff = policy.backoff(attempt, jitter_rng)
            span.annotate(outcome=outcome)
            if outcome == RETRY:
                span.annotate(backoff_seconds=backoff)
        else:
            wall = clock() - start
            bits = transport.bits_on_wire(period) - bits_before
            outcome = OK
            span.annotate(outcome=OK, bits=bits)
        span.__exit__(None, None, None)
        if classification == POISONED:
            log.quarantine_transcript(period, fault, transport.transcript(period))
        record = AttemptRecord(
            period, attempt, outcome, fault, classification, backoff, bits, charged, wall
        )
        log.record_attempt(record)
        if outcome == OK:
            return result
        if outcome == FROZEN and on_freeze is not None:
            on_freeze()
        if error is not None:
            raise error
        if backoff > 0:
            sleep(backoff)
    raise AssertionError("unreachable")  # pragma: no cover


def drive_period_resilient(
    scheme: DLR,
    device1: Device,
    device2: Device,
    transport: Transport,
    ciphertext,
    policy: RetryPolicy,
    *,
    oracle: LeakageOracle | None = None,
    log: SessionLog | None = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> PeriodRecord:
    """One classified-retry period on caller-owned devices; use
    :class:`SessionSupervisor` for whole lifecycles."""
    period = transport.current_period
    log = log if log is not None else SessionLog(scheme=scheme_kind_of(scheme))
    record = run_with_retries(
        lambda: scheme.run_period(device1, device2, transport, ciphertext),
        period=period,
        policy=policy,
        transport=transport,
        log=log,
        jitter_rng=RetryPolicy.jitter_rng("resilient", period),
        oracle=oracle,
        sleep=sleep,
        clock=clock,
    )
    assert isinstance(record, PeriodRecord)
    return record


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


@dataclass
class SessionResult:
    """What a completed (or partially completed) session run produced."""

    state: SessionState
    log: SessionLog

    @property
    def periods_completed(self) -> int:
        return len(self.log.periods)


class SessionSupervisor:
    """Drives a multi-period lifecycle for one scheme over one transport.

    Construct directly with a :class:`SessionState`, or via
    :meth:`start` (fresh session) / :meth:`resume` (from a checkpoint
    file).  ``sleep`` and ``clock`` are injectable so tests and the
    chaos soak run backoff schedules in virtual time.

    For :class:`~repro.ibe.dlr_ibe.DLRIBE` pass ``public_params`` (and
    optionally ``identity``): each period then runs the *identity-key*
    lifecycle -- extract (first period or after resume; identity keys
    are derived material, re-derivable from the checkpointed master
    shares), identity decryption, identity refresh.  Without
    ``public_params`` a DLRIBE instance is supervised through its
    inherited master-share lifecycle.
    """

    def __init__(
        self,
        scheme: DLR,
        transport: Transport,
        state: SessionState,
        *,
        policy: RetryPolicy | None = None,
        oracle: LeakageOracle | None = None,
        checkpoint_path=None,
        log: SessionLog | None = None,
        public_params=None,
        identity: str = "alice",
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        on_period_commit: Callable[[SessionState], None] | None = None,
    ) -> None:
        if scheme_kind_of(scheme) != state.scheme:
            raise ParameterError(
                f"scheme {scheme_kind_of(scheme)!r} does not match "
                f"checkpoint kind {state.scheme!r}"
            )
        self.scheme = scheme
        self.transport = transport
        self.state = state
        self.policy = policy if policy is not None else RetryPolicy()
        self.oracle = oracle
        self.checkpoint_path = checkpoint_path
        self.log = log if log is not None else SessionLog(scheme=state.scheme, seed=state.seed)
        self.public_params = public_params
        self.identity = identity
        self.frozen = False
        self._sleep = sleep
        self._clock = clock
        self._on_period_commit = on_period_commit
        self.device1: Device | None = None
        self.device2: Device | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def start(
        cls,
        scheme: DLR,
        transport: Transport,
        *,
        public_key: PublicKey,
        share1: Share1,
        share2: Share2,
        periods: int,
        seed: int,
        checkpoint_path=None,
        **kwargs,
    ) -> "SessionSupervisor":
        """A fresh session at period 0 (checkpointed immediately if a
        path is given, so even a crash before the first period resumes)."""
        state = SessionState(
            scheme=scheme_kind_of(scheme),
            seed=seed,
            periods_total=periods,
            next_period=0,
            public_key=public_key,
            share1=share1,
            share2=share2,
        )
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, state)
        return cls(scheme, transport, state, checkpoint_path=checkpoint_path, **kwargs)

    @classmethod
    def resume(
        cls,
        checkpoint_path,
        transport: Transport,
        *,
        scheme: DLR | None = None,
        **kwargs,
    ) -> "SessionSupervisor":
        """Rebuild a supervisor from a durable checkpoint.

        The scheme is reconstructed from the checkpoint's embedded
        parameters unless an instance is supplied (required for DLRIBE
        identity lifecycles, which also need ``public_params``); with an
        explicit scheme the checkpoint is decoded into *its* group so
        resumed shares interoperate with the scheme's elements."""
        state = load_checkpoint(
            checkpoint_path, group=None if scheme is None else scheme.group
        )
        if scheme is None:
            scheme = scheme_for_state(state)
        return cls(scheme, transport, state, checkpoint_path=checkpoint_path, **kwargs)

    # -- the lifecycle -----------------------------------------------------

    def run(self) -> SessionResult:
        """Drive all remaining periods to completion (or raise)."""
        self._refuse_if_frozen()
        self._setup()
        while not self.state.complete:
            self._run_one_period()
        return SessionResult(self.state, self.log)

    def _refuse_if_frozen(self) -> None:
        if self.frozen:
            raise ProtocolError(
                "session is frozen: a retry would have exceeded the leakage "
                "budget; start a new period budget before resuming"
            )

    def _setup(self) -> None:
        """(Re)create the devices from committed state, deterministically
        seeded by ``(seed, next_period)`` -- identical whether this run
        is fresh, resumed after a crash, or a replay from the same
        checkpoint."""
        state = self.state
        rng = random.Random(f"{state.seed}/devices/{state.next_period}")
        self.device1 = Device("P1", self.scheme.group, rng)
        self.device2 = Device("P2", self.scheme.group, rng)
        self.scheme.install(self.device1, self.device2, state.share1, state.share2)
        # Align the transport's and oracle's period counters with the
        # absolute session period, so transcripts, fault rules with
        # ``period=``, and ledger entries all key by the same number.
        while self.transport.current_period < state.next_period:
            self.transport.advance_period()
        if self.oracle is not None:
            while self.oracle.period < state.next_period:
                self.oracle.end_period()

    def run_request(self, ciphertext=None) -> PeriodRecord:
        """Serve one *request-driven* period: decrypt ``ciphertext`` (or
        self-generated traffic when ``None``) and refresh the shares,
        with the full classified-retry / budget-charge / checkpoint
        machinery of a supervised period.

        This is the entry point for the key service
        (:mod:`repro.service`): an open-ended session serves one period
        per client request, so ``periods_total`` grows as requests
        arrive instead of being fixed up front.  Devices are created
        lazily on the first request and reused afterwards -- a session
        rehydrated from a checkpoint continues exactly like one that
        stayed resident (same ``(seed, next_period)`` derivation as
        :meth:`run`).
        """
        self._start_request()
        record = self._run_one_period(ciphertext)
        assert isinstance(record, PeriodRecord)
        return record

    def run_request_batch(self, ciphertexts) -> MultiPeriodRecord:
        """Serve one request-driven period that decrypts a whole *batch*
        of ciphertexts under a single share generation, then refreshes
        once (:meth:`~repro.core.dlr.DLR.run_period_multi`).

        Amortization holds through the retry machinery unchanged: the
        batch is one period, so a transient fault retries the whole
        batch against the same shares, its aborted transcript is charged
        to the same period budget, and commit/checkpoint happen once.
        Identity-lifecycle sessions (DLRIBE with ``public_params``)
        don't batch -- their period shape is per-identity.
        """
        if isinstance(self.scheme, DLRIBE) and self.public_params is not None:
            raise ParameterError(
                "batch requests are not supported for identity lifecycles"
            )
        self._start_request()
        record = self._run_one_period(list(ciphertexts), batch=True)
        assert isinstance(record, MultiPeriodRecord)
        return record

    def _start_request(self) -> None:
        """The guard both request entry points share: refuse a frozen
        session, create the devices on first use, and open one more
        period for this request."""
        self._refuse_if_frozen()
        if self.device1 is None:
            self._setup()
        if self.state.complete:
            self.state.periods_total = self.state.next_period + 1

    def _run_one_period(self, ciphertext=None, *, batch: bool = False) -> object:
        period = self.state.next_period
        with active_tracer().span("period", period=period, scheme=self.state.scheme) as span:
            record = run_with_retries(
                lambda: self._attempt(period, ciphertext, batch=batch),
                period=period,
                policy=self.policy,
                transport=self.transport,
                log=self.log,
                jitter_rng=RetryPolicy.jitter_rng(self.state.seed, period),
                oracle=self.oracle,
                sleep=self._sleep,
                clock=self._clock,
                on_freeze=self._freeze,
            )
            self._commit_period(period)
            # Correlate the durable log with the trace that produced it:
            # a service-driven period inherits the request's trace id, so
            # an operator can go from a SessionLog row to the exact trace.
            trace_id = getattr(span, "trace_id", None)
            if trace_id is not None:
                self.log.trace_id = trace_id
        return record

    def _freeze(self) -> None:
        self.frozen = True

    def _attempt(self, period: int, ciphertext=None, *, batch: bool = False) -> object:
        """One protocol attempt for one period.  Background traffic is
        derived from ``(seed, period)`` only, so every attempt of a
        period retries the *same* ciphertext -- and a resumed session
        decrypts the same traffic as an uninterrupted one.

        With an explicit ``ciphertext`` (a request-driven period, see
        :meth:`run_request`) the client's ciphertext is decrypted
        instead of generated traffic; the plaintext-echo check is
        skipped because the supervisor does not know the plaintext --
        verifying the result is the requesting client's business.
        """
        assert self.device1 is not None and self.device2 is not None
        if batch:
            # A batch request is always explicit client traffic: decrypt
            # every ciphertext under this generation, one refresh.
            return self.scheme.run_period_multi(
                self.device1, self.device2, self.transport, ciphertext
            )
        message = None
        if ciphertext is None:
            traffic = random.Random(f"{self.state.seed}/traffic/{period}")
            group = self.scheme.group
            message = group.random_gt(traffic)
        if isinstance(self.scheme, DLRIBE) and self.public_params is not None:
            if ciphertext is None:
                ciphertext = self.scheme.encrypt_to(
                    self.public_params, self.identity, message, traffic
                )
            record = self.scheme.run_identity_period(
                self.public_params,
                self.device1,
                self.device2,
                self.transport,
                self.identity,
                ciphertext,
            )
        else:
            if ciphertext is None:
                ciphertext = self.scheme.encrypt(self.state.public_key, message, traffic)
            record = self.scheme.run_period(
                self.device1, self.device2, self.transport, ciphertext
            )
        if message is not None and record.plaintext != message:
            raise ProtocolError(
                f"time period {period}: decrypted plaintext does not match "
                "the encrypted traffic -- shares have drifted"
            )
        return record

    def _commit_period(self, period: int) -> None:
        """A period completed: snapshot committed shares, checkpoint
        durably, summarize into the log, roll the leakage period."""
        assert self.device1 is not None and self.device2 is not None
        if isinstance(self.scheme, DLRIBE) and self.public_params is not None:
            # The identity lifecycle rotates derived identity keys; the
            # checkpointed master shares are untouched by design.
            share1, share2 = self.state.share1, self.state.share2
        else:
            share1, share2 = self.scheme.snapshot_shares(self.device1, self.device2)
        transcript = self.transport.transcript_bits(period)
        self.log.record_period(
            PeriodSummary(
                period=period,
                attempts=len(self.log.attempts_for(period)),
                bits_on_wire=len(transcript),
                transcript_sha256=hashlib.sha256(transcript.to_bytes()).hexdigest(),
                metrics=self._period_metrics(period),
            )
        )
        self.state.share1 = share1
        self.state.share2 = share2
        self.state.next_period = period + 1
        if self.checkpoint_path is not None:
            tracer = active_tracer()
            if tracer.enabled:
                with tracer.span("checkpoint.flush", period=period):
                    save_checkpoint(self.checkpoint_path, self.state)
            else:
                save_checkpoint(self.checkpoint_path, self.state)
        if self.oracle is not None:
            self.oracle.end_period()
        if self._on_period_commit is not None:
            self._on_period_commit(self.state)

    def _period_metrics(self, period: int) -> dict:
        """The telemetry snapshot embedded in the period's log summary.

        Taken at commit time, *before* the oracle rolls the period, so
        the budget rows show the state that the period's last charge
        left behind.  All numbers are views over existing ledgers --
        the transport transcript and the oracle -- never fresh tallies.
        """
        metrics: dict = {
            "bits_by_label": self.transport.bits_by_label(period),
        }
        if self.oracle is not None:
            metrics["retry_charged_bits"] = {
                f"P{device}": self.oracle.retry_charged(period=period, device=device)
                for device in (1, 2)
            }
            metrics["budget"] = budget_dashboard(self.oracle)
        return metrics
