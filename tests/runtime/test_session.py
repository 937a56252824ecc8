"""Unit tests for the classified retry loop and the session supervisor."""

import random

import pytest

from repro.core.dlr import DLR
from repro.core.keys import PublicKey
from repro.core.optimal import OptimalDLR
from repro.errors import (
    FaultInjected,
    LeakageBudgetExceeded,
    ParameterError,
    ProtocolError,
    WireFormatError,
)
from repro.ibe.dlr_ibe import DLRIBE
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.protocol.faults import DROP, FaultRule, FaultyTransport
from repro.protocol.transport import InMemoryTransport
from repro.runtime import (
    ABORTED,
    EXHAUSTED,
    FATAL,
    FROZEN,
    OK,
    POISONED,
    RETRY,
    TRANSIENT,
    RetryPolicy,
    SessionLog,
    SessionState,
    SessionSupervisor,
    load_checkpoint,
    run_with_retries,
    scheme_for_state,
    scheme_kind_of,
)
from repro.telemetry import Tracer, tracing
from repro.utils.bits import BitString


# ---------------------------------------------------------------------------
# run_with_retries
# ---------------------------------------------------------------------------


def _retry_kwargs(transport=None, **overrides):
    kwargs = dict(
        period=0,
        policy=RetryPolicy(base_backoff=0.0, jitter=0.0),
        transport=transport if transport is not None else InMemoryTransport(),
        log=SessionLog(scheme="dlr"),
        jitter_rng=random.Random(0),
        sleep=lambda seconds: None,
    )
    kwargs.update(overrides)
    return kwargs


class TestRunWithRetries:
    def test_success_first_try(self):
        kwargs = _retry_kwargs()
        result = run_with_retries(lambda: "done", **kwargs)
        assert result == "done"
        (record,) = kwargs["log"].attempts
        assert record.outcome == OK

    def test_transient_retries_until_success(self):
        failures = iter([FaultInjected("drop"), FaultInjected("drop")])

        def attempt():
            try:
                raise next(failures)
            except StopIteration:
                return "done"

        kwargs = _retry_kwargs(policy=RetryPolicy(max_attempts=5, base_backoff=0.0, jitter=0.0))
        assert run_with_retries(attempt, **kwargs) == "done"
        outcomes = [a.outcome for a in kwargs["log"].attempts]
        assert outcomes == [RETRY, RETRY, OK]

    def test_fatal_raises_original_exception_unwrapped(self):
        boom = ParameterError("bad ell")

        def attempt():
            raise boom

        kwargs = _retry_kwargs()
        with pytest.raises(ParameterError) as info:
            run_with_retries(attempt, **kwargs)
        assert info.value is boom  # not wrapped, not retried
        (record,) = kwargs["log"].attempts
        assert record.outcome == ABORTED and record.classification == FATAL

    def test_poisoned_quarantines_transcript_then_raises(self):
        transport = InMemoryTransport()

        def attempt():
            transport.send("P1", "P2", "dec.d", BitString(0b101, 3))
            raise WireFormatError("garbage frame")

        kwargs = _retry_kwargs(transport)
        with pytest.raises(WireFormatError):
            run_with_retries(attempt, **kwargs)
        log = kwargs["log"]
        (record,) = log.attempts
        assert record.outcome == ABORTED and record.classification == POISONED
        (entry,) = log.quarantine
        assert entry["fault"] == "WireFormatError"
        assert [f["label"] for f in entry["frames"]] == ["dec.d"]

    def test_exhaustion_names_the_attempt_cap_and_chains_cause(self):
        def attempt():
            raise FaultInjected("always")

        kwargs = _retry_kwargs(policy=RetryPolicy(max_attempts=2, base_backoff=0.0, jitter=0.0))
        with pytest.raises(ProtocolError, match="did not complete within 2 attempts") as info:
            run_with_retries(attempt, **kwargs)
        assert isinstance(info.value.__cause__, FaultInjected)
        outcomes = [a.outcome for a in kwargs["log"].attempts]
        assert outcomes == [RETRY, EXHAUSTED]

    def test_deadline_stops_retrying(self):
        now = [0.0]

        def clock():
            now[0] += 10.0
            return now[0]

        kwargs = _retry_kwargs(
            policy=RetryPolicy(max_attempts=100, base_backoff=0.0, jitter=0.0, deadline=5.0),
            clock=clock,
        )
        with pytest.raises(ProtocolError, match="5.0s deadline"):
            run_with_retries(lambda: (_ for _ in ()).throw(FaultInjected("x")), **kwargs)

    def test_backoff_schedule_is_exponential(self):
        sleeps = []
        failures = iter(range(3))

        def attempt():
            try:
                next(failures)
            except StopIteration:
                return "done"
            raise FaultInjected("drop")

        kwargs = _retry_kwargs(
            policy=RetryPolicy(
                max_attempts=10, base_backoff=0.1, multiplier=2.0, jitter=0.0
            ),
            sleep=sleeps.append,
        )
        run_with_retries(attempt, **kwargs)
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_retry_charges_both_devices(self):
        transport = InMemoryTransport()
        oracle = LeakageOracle(LeakageBudget(0, 1000, 1000))
        failures = iter([FaultInjected("drop")])

        def attempt():
            transport.send("P1", "P2", "dec.d", BitString(0b1111, 4))
            try:
                raise next(failures)
            except StopIteration:
                return "done"

        kwargs = _retry_kwargs(transport, oracle=oracle)
        run_with_retries(attempt, **kwargs)
        assert oracle.retry_ledger == {0: {1: 4, 2: 4}}
        retried = kwargs["log"].retried()
        assert retried[0].charged_bits == {"P1": 4, "P2": 4}

    def test_budget_overflow_freezes_instead_of_retrying(self):
        transport = InMemoryTransport()
        oracle = LeakageOracle(LeakageBudget(0, 2, 2))  # cannot absorb 4 bits
        froze = []

        def attempt():
            transport.send("P1", "P2", "dec.d", BitString(0b1111, 4))
            raise FaultInjected("drop")

        kwargs = _retry_kwargs(transport, oracle=oracle, on_freeze=lambda: froze.append(True))
        with pytest.raises(LeakageBudgetExceeded):
            run_with_retries(attempt, **kwargs)
        assert froze == [True]
        (record,) = kwargs["log"].attempts
        assert record.outcome == FROZEN


class _OrderedLog(SessionLog):
    """A session log that records the order of its side effects, each
    with the number of attempt spans closed when it happened."""

    def __init__(self, tracer):
        super().__init__(scheme="dlr")
        self.tracer = tracer
        self.events = []

    def quarantine_transcript(self, period, fault, messages):
        closed = len(self.tracer.spans_named("attempt"))
        self.events.append(("quarantine", fault, closed))
        super().quarantine_transcript(period, fault, messages)

    def record_attempt(self, attempt):
        closed = len(self.tracer.spans_named("attempt"))
        self.events.append(("record", attempt.outcome, closed))
        super().record_attempt(attempt)


def _fault_attrs(attempt, name, classification, outcome, **extra):
    return [
        ("period", 0),
        ("attempt", attempt),
        ("bits", 4),
        ("fault", name),
        ("classification", classification),
        ("outcome", outcome),
        *extra.items(),
    ]


_OK_ATTRS = [("period", 0), ("attempt", 2), ("outcome", OK), ("bits", 4)]
_BOTH_CHARGED = {"P1": 4, "P2": 4}


# Each case scripts what every attempt does after putting one 4-bit frame
# on the wire (return "done" or raise), and pins every observable of the
# outcome path: the attempt spans' attributes in order, the attempt
# records, the order of log writes and freeze callbacks, the retry
# charges, the sleeps and the exception.  The clock ticks by one second
# per reading, so ``wall_seconds`` also pins when the clock is read.
_OUTCOME_CASES = {
    "ok": dict(
        script=["done"],
        spans=[[("period", 0), ("attempt", 1), ("outcome", OK), ("bits", 4)]],
        records=[(1, OK, None, None, 0.0, {}, 1.0)],
        events=[("record", OK, 1)],
        ledger={},
    ),
    "retry": dict(
        script=[FaultInjected("drop"), "done"],
        spans=[
            _fault_attrs(1, "FaultInjected", TRANSIENT, RETRY, backoff_seconds=0.5),
            _OK_ATTRS,
        ],
        records=[
            (1, RETRY, "FaultInjected", TRANSIENT, 0.5, _BOTH_CHARGED, 1.0),
            (2, OK, None, None, 0.0, {}, 1.0),
        ],
        events=[("record", RETRY, 1), ("record", OK, 2)],
        ledger={0: {1: 4, 2: 4}},
        sleeps=[0.5],
    ),
    "exhausted-attempts": dict(
        script=[FaultInjected("drop"), FaultInjected("again")],
        policy=dict(max_attempts=2),
        spans=[
            _fault_attrs(1, "FaultInjected", TRANSIENT, RETRY, backoff_seconds=0.5),
            _fault_attrs(2, "FaultInjected", TRANSIENT, EXHAUSTED),
        ],
        records=[
            (1, RETRY, "FaultInjected", TRANSIENT, 0.5, _BOTH_CHARGED, 1.0),
            (2, EXHAUSTED, "FaultInjected", TRANSIENT, 0.0, {}, 1.0),
        ],
        events=[("record", RETRY, 1), ("record", EXHAUSTED, 2)],
        ledger={0: {1: 4, 2: 4}},
        sleeps=[0.5],
        raises=(ProtocolError, "time period 0 did not complete within 2 attempts"),
        cause=1,
    ),
    "exhausted-deadline": dict(
        script=[FaultInjected("drop")],
        policy=dict(max_attempts=10, deadline=1.5),
        spans=[_fault_attrs(1, "FaultInjected", TRANSIENT, EXHAUSTED)],
        records=[(1, EXHAUSTED, "FaultInjected", TRANSIENT, 0.0, {}, 1.0)],
        events=[("record", EXHAUSTED, 1)],
        ledger={},
        raises=(ProtocolError, "time period 0 did not complete within its 1.5s deadline"),
        cause=0,
    ),
    "frozen": dict(
        script=[FaultInjected("drop")],
        budget=LeakageBudget(0, 10, 2),  # P1 absorbs the 4 bits, P2 cannot
        spans=[_fault_attrs(1, "FaultInjected", TRANSIENT, FROZEN)],
        records=[(1, FROZEN, "FaultInjected", TRANSIENT, 0.0, {"P1": 4}, 1.0)],
        events=[("record", FROZEN, 1), ("freeze", 1)],
        ledger={0: {1: 4, 2: 0}},
        raises=(LeakageBudgetExceeded, None),
    ),
    "aborted-fatal": dict(
        script=[ParameterError("bad ell")],
        spans=[_fault_attrs(1, "ParameterError", FATAL, ABORTED)],
        records=[(1, ABORTED, "ParameterError", FATAL, 0.0, {}, 1.0)],
        events=[("record", ABORTED, 1)],
        ledger={},
        raises="original",
    ),
    "aborted-poisoned": dict(
        script=[WireFormatError("garbage frame")],
        spans=[_fault_attrs(1, "WireFormatError", POISONED, ABORTED)],
        records=[(1, ABORTED, "WireFormatError", POISONED, 0.0, {}, 1.0)],
        events=[("quarantine", "WireFormatError", 1), ("record", ABORTED, 1)],
        ledger={},
        raises="original",
        quarantined=["dec.d"],
    ),
}


@pytest.mark.parametrize("case", sorted(_OUTCOME_CASES))
def test_every_outcome_path_closes_span_and_records_attempt(case):
    spec = _OUTCOME_CASES[case]
    transport = InMemoryTransport()
    script = iter(spec["script"])
    raised = []

    def attempt():
        transport.send("P1", "P2", "dec.d", BitString(0b1111, 4))
        step = next(script)
        if step == "done":
            return "done"
        raised.append(step)
        raise step

    ticks = iter(range(100))
    sleeps = []
    tracer = Tracer()
    log = _OrderedLog(tracer)
    oracle = LeakageOracle(spec.get("budget", LeakageBudget(0, 1000, 1000)))
    policy = RetryPolicy(**{"base_backoff": 0.5, "jitter": 0.0, **spec.get("policy", {})})
    with tracing(tracer):
        call = lambda: run_with_retries(  # noqa: E731
            attempt,
            period=0,
            policy=policy,
            transport=transport,
            log=log,
            jitter_rng=random.Random(0),
            oracle=oracle,
            sleep=sleeps.append,
            clock=lambda: float(next(ticks)),
            on_freeze=lambda: log.events.append(("freeze", len(log.attempts))),
        )
        raises = spec.get("raises")
        if raises is None:
            assert call() == "done"
        elif raises == "original":
            with pytest.raises(Exception) as info:
                call()
            assert info.value is raised[-1]
        else:
            kind, message = raises
            with pytest.raises(kind) as info:
                call()
            if message is not None:
                assert str(info.value) == message
            if "cause" in spec:
                assert info.value.__cause__ is raised[spec["cause"]]

    spans = tracer.spans_named("attempt")
    assert [list(s.attrs.items()) for s in spans] == spec["spans"]
    assert all(s.end is not None for s in spans)
    assert [
        (
            r.attempt,
            r.outcome,
            r.fault,
            r.classification,
            r.backoff_seconds,
            r.charged_bits,
            r.wall_seconds,
        )
        for r in log.attempts
    ] == spec["records"]
    assert all(r.period == 0 and r.bits_on_wire == 4 for r in log.attempts)
    assert log.events == spec["events"]
    assert oracle.retry_ledger == spec["ledger"]
    assert sleeps == spec.get("sleeps", [])
    frames = [[f["label"] for f in entry["frames"]] for entry in log.quarantine]
    quarantined = spec.get("quarantined")
    assert frames == ([] if quarantined is None else [quarantined])


# ---------------------------------------------------------------------------
# Scheme-kind plumbing
# ---------------------------------------------------------------------------


class TestSchemeKinds:
    def test_kind_of_each_scheme(self, small_params):
        assert scheme_kind_of(DLR(small_params)) == "dlr"
        assert scheme_kind_of(OptimalDLR(small_params)) == "optimal"
        assert scheme_kind_of(DLRIBE(small_params)) == "dlribe"

    def test_non_scheme_rejected(self):
        with pytest.raises(ParameterError):
            scheme_kind_of(object())

    def test_scheme_for_state_rebuilds_matching_kind(self, small_params):
        scheme = OptimalDLR(small_params)
        generation = scheme.generate(random.Random(3))
        state = SessionState(
            scheme="optimal",
            seed=0,
            periods_total=1,
            next_period=0,
            public_key=generation.public_key,
            share1=generation.share1,
            share2=generation.share2,
        )
        assert isinstance(scheme_for_state(state), OptimalDLR)

    def test_supervisor_rejects_scheme_state_mismatch(self, small_params):
        scheme = DLR(small_params)
        generation = scheme.generate(random.Random(3))
        state = SessionState(
            scheme="optimal",
            seed=0,
            periods_total=1,
            next_period=0,
            public_key=generation.public_key,
            share1=generation.share1,
            share2=generation.share2,
        )
        with pytest.raises(ParameterError, match="does not match"):
            SessionSupervisor(scheme, InMemoryTransport(), state)


# ---------------------------------------------------------------------------
# The supervisor lifecycle
# ---------------------------------------------------------------------------


class _Interrupt(Exception):
    """Simulated crash between period commit and the next period."""


class TestSupervisorLifecycle:
    def _start(self, scheme, transport, *, seed=5, periods=3, **kwargs):
        generation = scheme.generate(random.Random(1))
        return SessionSupervisor.start(
            scheme,
            transport,
            public_key=generation.public_key,
            share1=generation.share1,
            share2=generation.share2,
            periods=periods,
            seed=seed,
            policy=RetryPolicy(base_backoff=0.0, jitter=0.0),
            **kwargs,
        )

    def test_dlr_session_completes_and_checkpoints(self, small_params, tmp_path):
        path = tmp_path / "dlr.json"
        supervisor = self._start(DLR(small_params), InMemoryTransport(), checkpoint_path=path)
        result = supervisor.run()
        assert result.periods_completed == 3
        assert result.state.complete
        loaded = load_checkpoint(path)
        assert loaded.next_period == 3 and loaded.complete
        # Final checkpointed shares still decrypt.
        scheme = DLR(loaded.public_key.params)
        rng = random.Random(2)
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(loaded.public_key, message, rng)
        assert scheme.reference_decrypt(loaded.share1, loaded.share2, ciphertext) == message

    def test_optimal_session_completes(self, small_params):
        supervisor = self._start(OptimalDLR(small_params), InMemoryTransport(), periods=2)
        result = supervisor.run()
        assert result.periods_completed == 2

    def test_dlribe_identity_session_keeps_master_shares(self, small_params, tmp_path):
        scheme = DLRIBE(small_params)
        setup = scheme.setup(random.Random(1))
        pk = PublicKey(small_params, setup.public_params.z)
        path = tmp_path / "ibe.json"
        supervisor = SessionSupervisor.start(
            scheme,
            InMemoryTransport(),
            public_key=pk,
            share1=setup.share1,
            share2=setup.share2,
            periods=2,
            seed=5,
            checkpoint_path=path,
            public_params=setup.public_params,
            identity="bob",
            policy=RetryPolicy(base_backoff=0.0, jitter=0.0),
        )
        result = supervisor.run()
        assert result.periods_completed == 2
        # Identity keys rotate; the checkpointed *master* shares do not.
        loaded = load_checkpoint(path)
        assert loaded.share2.s == setup.share2.s
        assert loaded.share1.phi.to_bits() == setup.share1.phi.to_bits()

    def test_resume_replays_like_uninterrupted_run_from_checkpoint(
        self, small_params, tmp_path
    ):
        """The determinism contract: interrupt after one committed
        period, then drive the session to completion twice from copies
        of that checkpoint -- the "crashed and resumed" run and the
        "uninterrupted from the same checkpoint" run produce identical
        per-period transcripts and identical final shares."""
        import shutil

        path = tmp_path / "ckpt.json"
        copy = tmp_path / "ckpt-copy.json"

        def interrupt_after_first(state):
            if state.next_period == 1:
                raise _Interrupt

        interrupted = self._start(
            DLR(small_params),
            InMemoryTransport(),
            checkpoint_path=path,
            on_period_commit=interrupt_after_first,
        )
        with pytest.raises(_Interrupt):
            interrupted.run()
        shutil.copy(path, copy)

        def finish(checkpoint):
            supervisor = SessionSupervisor.resume(
                checkpoint,
                InMemoryTransport(),
                policy=RetryPolicy(base_backoff=0.0, jitter=0.0),
            )
            result = supervisor.run()
            return (
                [p.transcript_sha256 for p in result.log.periods],
                result.state.share2.s,
            )

        resumed_hashes, resumed_s = finish(path)
        replay_hashes, replay_s = finish(copy)
        assert resumed_hashes == replay_hashes
        assert resumed_s == replay_s
        assert [p.period for p in interrupted.log.periods] == [0]

    def test_frozen_supervisor_refuses_to_run(self, small_params):
        faulty = FaultyTransport(inner=InMemoryTransport(), seed=0)
        # Drop the refresh message: the failed attempt has already put
        # the decryption frames on the wire, and a 1-bit budget cannot
        # absorb charging them for a retry.
        faulty.add_rule(FaultRule(mode=DROP, label="ref.f"))
        oracle = LeakageOracle(LeakageBudget(0, 1, 1))  # no room for any retry
        supervisor = self._start(DLR(small_params), faulty, periods=1, oracle=oracle)
        with pytest.raises(LeakageBudgetExceeded):
            supervisor.run()
        assert supervisor.frozen
        with pytest.raises(ProtocolError, match="frozen"):
            supervisor.run()

    def test_transient_faults_do_not_stop_the_lifecycle(self, small_params):
        faulty = FaultyTransport(inner=InMemoryTransport(), seed=0)
        faulty.add_rule(FaultRule(mode=DROP, label="ref.f", period=1))
        supervisor = self._start(DLR(small_params), faulty)
        result = supervisor.run()
        assert result.periods_completed == 3
        retried = result.log.retried()
        assert len(retried) == 1 and retried[0].period == 1
