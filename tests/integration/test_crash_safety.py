"""Crash safety: a protocol killed at any message boundary must leave
the two devices with consistent shares and no lingering protocol
secrets.

The staged share rotation commits only at the ``ref.commit`` boundary;
everything earlier rolls back.  These tests drive :class:`FaultyTransport`
through every boundary of the decryption and refresh flows and check
the invariants the leakage model depends on:

* ``verify_shares`` succeeds after any abort (the shares still match);
* the abort surfaces as :class:`RefreshAborted` when a rotation was
  staged, as the injected fault otherwise;
* no protocol secret (``*.sk_comm``, ``*.a_next``, pending shares)
  survives in secret memory after the protocol exits;
* the classified-retry driver (``drive_period_resilient``, and the
  ``SessionSupervisor`` lifecycle over it) completes the period on the
  retry.

The whole suite runs twice: over the in-memory transport and over a
real :class:`SocketTransport` with P1 and P2 in separate threads (a
dying party closes its endpoint; the peer's blocking read surfaces the
abort) -- the ``make_faulty`` fixture picks the wire.
"""

import random

import pytest

from repro.core.dlr import DLR, SK1_PENDING_SLOT, SK1_SLOT, SK2_PENDING_SLOT, SK2_SLOT
from repro.core.optimal import OptimalDLR
from repro.errors import FaultInjected, ProtocolError, RefreshAborted
from repro.leakage.functions import LeakageInput, PythonLeakage
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.protocol.device import Device
from repro.protocol.faults import (
    DELAY,
    DROP,
    PERIOD_BOUNDARIES,
    REFRESH_BOUNDARIES,
    TRUNCATE,
    FaultRule,
    FaultyTransport,
)
from repro.protocol.transport import InMemoryTransport, SocketTransport
from repro.runtime import RetryPolicy, SessionSupervisor, drive_period_resilient
from repro.telemetry import metering
from repro.utils.bits import BitString

PROTOCOL_SECRET_SUFFIXES = (".sk_comm", ".a_next", ".pending", ".delta", ".r")


@pytest.fixture(params=["memory", "socket"])
def make_faulty(request):
    """A factory for fault-injecting transports over both wires."""

    def factory(*rules: FaultRule) -> FaultyTransport:
        inner = SocketTransport(timeout=10.0) if request.param == "socket" else None
        transport = FaultyTransport(inner=inner)
        for rule in rules:
            transport.add_rule(rule)
        return transport

    return factory


def protocol_secret_names(device: Device) -> list[str]:
    """Secret-memory slots that belong to a protocol run, not a share."""
    return [
        name
        for name in device.secret.names()
        if name.endswith(PROTOCOL_SECRET_SUFFIXES) or name == "sk_comm_next"
    ]


@pytest.fixture()
def scheme(small_params):
    return DLR(small_params)


def make_setting(scheme, seed=1):
    rng = random.Random(seed)
    generation = scheme.generate(rng)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    return generation, p1, p2, rng


class TestEveryBoundary:
    @pytest.mark.parametrize("label", PERIOD_BOUNDARIES)
    @pytest.mark.parametrize("mode", [DROP, TRUNCATE])
    def test_fault_rolls_back_and_shares_still_verify(self, scheme, label, mode, make_faulty):
        generation, p1, p2, rng = make_setting(scheme)
        channel = make_faulty(FaultRule(mode=mode, label=label, keep_bits=4))
        ciphertext = scheme.encrypt(
            generation.public_key, scheme.group.random_gt(rng), rng
        )

        with pytest.raises(ProtocolError) as info:
            scheme.run_period(p1, p2, channel, ciphertext)

        # A fault after P2 staged its new share is a rolled-back
        # rotation; before that it is just the injected fault.
        if label in ("ref.f_combined", "ref.commit"):
            assert isinstance(info.value, RefreshAborted)
            assert isinstance(info.value.__cause__, FaultInjected)
        else:
            assert isinstance(info.value, FaultInjected)

        # Old shares are intact and mutually consistent.
        assert not p1.secret.has(SK1_PENDING_SLOT)
        assert not p2.secret.has(SK2_PENDING_SLOT)
        assert scheme.share1_of(p1) is generation.share1
        assert scheme.share2_of(p2) is generation.share2
        assert scheme.verify_shares(generation.public_key, p1, p2, InMemoryTransport(), rng)

        # No protocol secret outlived the aborted period.
        assert protocol_secret_names(p1) == []
        assert protocol_secret_names(p2) == []
        assert not p1.secret.phase_open
        assert not p2.secret.phase_open

    @pytest.mark.parametrize("label", PERIOD_BOUNDARIES)
    def test_post_abort_snapshots_hold_no_protocol_secrets(self, scheme, label, make_faulty):
        """A snapshot of a phase opened *after* the abort sees only the
        (rolled-back) share -- the leakage surface of a fresh period."""
        generation, p1, p2, rng = make_setting(scheme)
        channel = make_faulty(FaultRule(mode=DROP, label=label))
        ciphertext = scheme.encrypt(
            generation.public_key, scheme.group.random_gt(rng), rng
        )
        with pytest.raises(ProtocolError):
            scheme.run_period(p1, p2, channel, ciphertext)

        snap1 = p1.secret.open_phase("post-abort")
        snap2 = p2.secret.open_phase("post-abort")
        p1.secret.close_phase()
        p2.secret.close_phase()
        assert snap1.names() == [SK1_SLOT]
        assert snap2.names() == [SK2_SLOT]

    def test_aborted_exception_carries_chargeable_snapshots(self, scheme, make_faulty):
        """The refresh-phase snapshot of an aborted period is still a
        leakage surface; RefreshAborted hands it to the game."""
        generation, p1, p2, rng = make_setting(scheme)
        channel = make_faulty(FaultRule(mode=DROP, label="ref.commit"))
        ciphertext = scheme.encrypt(
            generation.public_key, scheme.group.random_gt(rng), rng
        )
        with pytest.raises(RefreshAborted) as info:
            scheme.run_period(p1, p2, channel, ciphertext)
        assert info.value.period == 0
        assert (1, "normal") in info.value.snapshots
        assert (2, "refresh") in info.value.snapshots


    def test_aborted_period_publishes_the_steps_it_ran(self, scheme, make_faulty):
        """The ``engine.*`` counters of an aborted run are its executed
        steps: nothing lost to the abort, nothing counted twice."""
        generation, p1, p2, rng = make_setting(scheme)
        channel = make_faulty(FaultRule(mode=DROP, label="ref.f_combined"))
        ciphertext = scheme.encrypt(
            generation.public_key, scheme.group.random_gt(rng), rng
        )
        with metering() as registry:
            with pytest.raises(RefreshAborted):
                scheme.run_period(p1, p2, channel, ciphertext)
        stats = scheme.last_stats
        kinds: dict[str, int] = {}
        for step in stats.steps:
            kinds[step.kind] = kinds.get(step.kind, 0) + 1
        assert kinds["send"] > 0
        assert {
            labels["kind"]: counter.value
            for labels, counter in registry.counters_named("engine.steps")
            if labels["protocol"] == "dlr.period"
        } == kinds
        assert {
            labels["label"]: counter.value
            for labels, counter in registry.counters_named("engine.bits_on_wire")
        } == stats.bits_by_label()


class TestResilientDriver:
    @staticmethod
    def _policy(max_attempts=3):
        return RetryPolicy(max_attempts=max_attempts, base_backoff=0.0, jitter=0.0)

    @pytest.mark.parametrize("label", REFRESH_BOUNDARIES)
    def test_completes_on_retry_after_one_fault(self, scheme, label, make_faulty):
        generation, p1, p2, rng = make_setting(scheme)
        channel = make_faulty(FaultRule(mode=DROP, label=label))
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)

        record = drive_period_resilient(scheme, p1, p2, channel, ciphertext, self._policy())
        assert record.plaintext == message
        # The rotation did go through on the successful attempt.
        assert scheme.share1_of(p1) is not generation.share1
        assert scheme.verify_shares(generation.public_key, p1, p2, InMemoryTransport(), rng)

    def test_gives_up_after_max_attempts(self, scheme, make_faulty):
        generation, p1, p2, rng = make_setting(scheme)
        channel = make_faulty()
        for occurrence in range(1, 4):  # one fault per attempt
            channel.add_rule(
                FaultRule(mode=DROP, label="ref.f", occurrence=occurrence)
            )
        ciphertext = scheme.encrypt(
            generation.public_key, scheme.group.random_gt(rng), rng
        )
        with pytest.raises(ProtocolError, match="did not complete"):
            drive_period_resilient(scheme, p1, p2, channel, ciphertext, self._policy(3))
        # Even after exhausting retries the shares are consistent.
        assert scheme.verify_shares(generation.public_key, p1, p2, InMemoryTransport(), rng)

    def test_supervisor_completes_periods_through_faults(self, scheme, make_faulty):
        """The lifecycle entry point: one fault per boundary kind, every
        period still commits and the shares keep verifying."""
        generation, _, _, rng = make_setting(scheme)
        channel = make_faulty(
            *(FaultRule(mode=DROP, label=label, period=index)
              for index, label in enumerate(REFRESH_BOUNDARIES))
        )
        supervisor = SessionSupervisor.start(
            scheme,
            channel,
            public_key=generation.public_key,
            share1=generation.share1,
            share2=generation.share2,
            periods=len(REFRESH_BOUNDARIES),
            seed=3,
            policy=self._policy(),
            sleep=lambda _seconds: None,
        )
        result = supervisor.run()
        assert result.periods_completed == len(REFRESH_BOUNDARIES)
        assert len(result.log.retried()) == len(REFRESH_BOUNDARIES)
        assert scheme.verify_shares(
            generation.public_key,
            supervisor.device1,
            supervisor.device2,
            InMemoryTransport(),
            rng,
        )


class TestMultiPeriodSoak:
    def test_random_fault_schedule(self, scheme, make_faulty):
        """Many periods under a random mix of drops, truncations and
        delays: every failed period rolls back, every completed period
        decrypts correctly, and the shares verify throughout."""
        generation, p1, p2, rng = make_setting(scheme, seed=7)
        fault_rng = random.Random(42)
        channel = make_faulty()
        completed = 0
        failed = 0

        for _ in range(12):
            if fault_rng.random() < 0.6:
                label = fault_rng.choice(PERIOD_BOUNDARIES)
                mode = fault_rng.choice([DROP, TRUNCATE, DELAY])
                channel.add_rule(
                    FaultRule(mode=mode, label=label, keep_bits=8, delay_ticks=1)
                )
            message = scheme.group.random_gt(rng)
            ciphertext = scheme.encrypt(generation.public_key, message, rng)
            try:
                record = scheme.run_period(p1, p2, channel, ciphertext)
            except ProtocolError:
                failed += 1
                channel.clear_rules()
            else:
                completed += 1
                assert record.plaintext == message
            assert protocol_secret_names(p1) == []
            assert protocol_secret_names(p2) == []

        assert completed > 0 and failed > 0  # the schedule exercised both
        assert scheme.verify_shares(generation.public_key, p1, p2, InMemoryTransport(), rng)

    def test_refresh_protocol_standalone_rollback(self, scheme, make_faulty):
        """The bare refresh protocol (not run_period) also rolls back."""
        generation, p1, p2, rng = make_setting(scheme)
        channel = make_faulty(FaultRule(mode=DROP, label="ref.commit"))
        with pytest.raises(RefreshAborted):
            scheme.refresh_protocol(p1, p2, channel)
        assert scheme.share1_of(p1) is generation.share1
        scheme.refresh_protocol(p1, p2, channel)  # rule spent: succeeds
        assert scheme.share1_of(p1) is not generation.share1
        assert scheme.verify_shares(generation.public_key, p1, p2, InMemoryTransport(), rng)

    def test_run_period_multi_rolls_back(self, scheme, make_faulty):
        generation, p1, p2, rng = make_setting(scheme)
        channel = make_faulty(FaultRule(mode=DROP, label="ref.f_combined"))
        messages = [scheme.group.random_gt(rng) for _ in range(2)]
        cts = [scheme.encrypt(generation.public_key, m, rng) for m in messages]
        with pytest.raises(RefreshAborted):
            scheme.run_period_multi(p1, p2, channel, cts)
        assert scheme.share2_of(p2) is generation.share2
        record = scheme.run_period_multi(p1, p2, channel, cts)
        assert record.plaintexts == messages


class TestOptimalVariant:
    @pytest.mark.parametrize("label", REFRESH_BOUNDARIES)
    def test_refresh_fault_rolls_back(self, small_params, label, make_faulty):
        scheme = OptimalDLR(small_params)
        rng = random.Random(3)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        old_encrypted = scheme.encrypted_share_of(p1)
        old_share2 = scheme.share2_of(p2)

        channel = make_faulty(FaultRule(mode=DROP, label=label))
        with pytest.raises((RefreshAborted, FaultInjected)):
            scheme.refresh_protocol(p1, p2, channel)

        # Neither the public encrypted share nor P2's share moved, and
        # sk_comm still decrypts the public share.
        assert scheme.encrypted_share_of(p1) is old_encrypted
        assert scheme.share2_of(p2) is old_share2
        assert protocol_secret_names(p1) == []
        recovered = scheme.recover_share1(p1)
        assert recovered.a == generation.share1.a
        assert recovered.phi == generation.share1.phi

        # And the next refresh (rule spent) completes.
        scheme.refresh_protocol(p1, p2, channel)
        assert scheme.encrypted_share_of(p1) is not old_encrypted


class TestIdentityRefreshRollback:
    def test_identity_fault_rolls_back(self, small_params, make_faulty):
        from repro.ibe.dlr_ibe import DLRIBE, _id_slot

        dibe = DLRIBE(small_params, n_id=8)
        rng = random.Random(5)
        setup = dibe.setup(rng)
        p1 = Device("P1", dibe.group, rng)
        p2 = Device("P2", dibe.group, rng)
        channel = make_faulty()
        dibe.install(p1, p2, setup.share1, setup.share2)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        old1 = dibe.identity_share1_of(p1, "alice")
        old2 = dibe.identity_share2_of(p2, "alice")

        channel.add_rule(FaultRule(mode=DROP, label="idref.commit"))
        with pytest.raises(RefreshAborted):
            dibe.refresh_identity_protocol(setup.public_params, p1, p2, channel, "alice")

        assert dibe.identity_share1_of(p1, "alice") is old1
        assert dibe.identity_share2_of(p2, "alice") is old2
        assert not p1.secret.has(_id_slot(1, "alice") + ".pending")
        assert not p2.secret.has(_id_slot(2, "alice") + ".pending")
        assert protocol_secret_names(p1) == []

        # Rule spent: the refresh completes and the shares still decrypt.
        dibe.refresh_identity_protocol(setup.public_params, p1, p2, channel, "alice")
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(setup.public_params, "alice", message, rng)
        assert dibe.decrypt_protocol_id(p1, p2, channel, "alice", ct) == message


class TestOracleValidation:
    def _leak_input(self, scheme):
        generation, p1, p2, rng = make_setting(scheme)
        ciphertext = scheme.encrypt(
            generation.public_key, scheme.group.random_gt(rng), rng
        )
        record = scheme.run_period(p1, p2, InMemoryTransport(), ciphertext)
        return LeakageInput(record.snapshots[(1, "normal")], record.messages)

    def test_bad_device_index_raises_parameter_error(self, scheme):
        from repro.errors import ParameterError

        oracle = LeakageOracle(LeakageBudget(0, 8, 8))
        leak_input = self._leak_input(scheme)
        fn = PythonLeakage(lambda inp: BitString(1, 1), 1)
        with pytest.raises(ParameterError):
            oracle.leak(3, fn, leak_input)
        with pytest.raises(ParameterError):
            oracle.leak_refresh(0, fn, leak_input)

    def test_under_length_output_rejected(self, scheme):
        """A function returning fewer bits than declared would corrupt
        the carry-over accounting: reject it."""
        from repro.errors import ParameterError

        oracle = LeakageOracle(LeakageBudget(0, 8, 8))
        leak_input = self._leak_input(scheme)
        lying = PythonLeakage(lambda inp: BitString(1, 1), 4)  # declares 4, returns 1
        with pytest.raises(ParameterError):
            oracle.leak(1, lying, leak_input)
        with pytest.raises(ParameterError):
            oracle.leak_refresh(2, lying, leak_input)

    def test_exact_length_accepted(self, scheme):
        oracle = LeakageOracle(LeakageBudget(0, 8, 8))
        leak_input = self._leak_input(scheme)
        honest = PythonLeakage(lambda inp: BitString(0b101, 3), 3)
        assert len(oracle.leak(1, honest, leak_input)) == 3
