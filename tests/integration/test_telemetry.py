"""End-to-end telemetry over a supervised lifecycle.

One supervised multi-period run with the tracer, the metrics registry,
and the leakage oracle all attached must produce:

* a trace whose spans nest period -> attempt -> protocol -> step;
* per-label bit counts that reconcile *exactly* across the three
  ledgers -- trace spans, registry counters, transport transcript --
  with the single principled exception of a dropped frame (recorded by
  the engine at the send boundary, never delivered to the wire);
* a budget dashboard whose every number is a view over the oracle's
  ledgers, not a second tally.

And, the other way around: enabling telemetry must not perturb the
protocols -- the golden transcripts stay byte-identical.
"""

import hashlib
import json
import random

import pytest

from repro.core.dlr import DLR
from repro.core.params import DLRParams
from repro.groups import preset_group
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.protocol.device import Device
from repro.protocol.faults import DROP, FaultRule, FaultyTransport
from repro.protocol.transport import InMemoryTransport
from repro.runtime import OK, RETRY, RetryPolicy, SessionSupervisor
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    budget_dashboard,
    install_registry,
    install_tracer,
    metering,
    tracing,
    validate_trace_file,
)


class SupervisedRun:
    """One supervised DLR lifecycle, fully instrumented, run once."""

    PERIODS = 3
    FAULT_PERIOD = 1

    def __init__(self, params):
        scheme = DLR(params)
        generation = scheme.generate(random.Random(1))
        self.transport = FaultyTransport(inner=InMemoryTransport(), seed=0)
        # Drop period 1's first refresh frame: the supervisor charges the
        # failed attempt's wire bits to the oracle and retries.
        self.transport.add_rule(
            FaultRule(mode=DROP, label="ref.f", period=self.FAULT_PERIOD)
        )
        self.oracle = LeakageOracle(LeakageBudget(0, 10**6, 10**6))
        supervisor = SessionSupervisor.start(
            scheme,
            self.transport,
            public_key=generation.public_key,
            share1=generation.share1,
            share2=generation.share2,
            periods=self.PERIODS,
            seed=5,
            oracle=self.oracle,
            policy=RetryPolicy(base_backoff=0.0, jitter=0.0),
        )
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        previous = install_tracer(self.tracer)
        install_registry(self.registry)
        try:
            self.result = supervisor.run()
        finally:
            install_registry(None)
            install_tracer(previous)

    def spans_named(self, prefix):
        return [s for s in self.tracer.finished if s.name.startswith(prefix)]

    def by_id(self):
        return {s.span_id: s for s in self.tracer.finished}

    def trace_bits_by_label(self):
        """Per-label bit totals as the *trace* saw them (send spans)."""
        totals = {}
        for span in self.spans_named("step.send"):
            label = span.attrs["label"]
            totals[label] = totals.get(label, 0) + span.attrs["bits"]
        return totals


@pytest.fixture(scope="module")
def run(small_params):
    return SupervisedRun(small_params)


class TestSpanNesting:
    def test_periods_are_roots(self, run):
        periods = run.spans_named("period")
        assert [s.attrs["period"] for s in periods] == [0, 1, 2]
        assert all(s.parent_id is None for s in periods)
        assert all(s.attrs["scheme"] == "dlr" for s in periods)

    def test_attempts_nest_under_their_period(self, run):
        by_id = run.by_id()
        for span in run.spans_named("attempt"):
            parent = by_id[span.parent_id]
            assert parent.name == "period"
            assert parent.attrs["period"] == span.attrs["period"]

    def test_protocol_runs_nest_under_attempts(self, run):
        by_id = run.by_id()
        protocols = run.spans_named("protocol.")
        # One engine run per attempt: 3 periods + 1 retry.
        assert len(protocols) == run.PERIODS + 1
        assert {s.name for s in protocols} == {"protocol.dlr.period"}
        for span in protocols:
            assert by_id[span.parent_id].name == "attempt"

    def test_steps_nest_under_protocol_runs(self, run):
        by_id = run.by_id()
        steps = run.spans_named("step.")
        assert steps, "engine emitted no step spans"
        assert {by_id[s.parent_id].name for s in steps} == {"protocol.dlr.period"}
        assert {s.name for s in steps} >= {"step.send", "step.recv", "step.commit"}

    def test_scheme_spans_ride_inside_attempts(self, run):
        by_id = run.by_id()
        encrypts = run.spans_named("dlr.enc")
        assert len(encrypts) == run.PERIODS + 1  # one per attempt
        assert {by_id[s.parent_id].name for s in encrypts} == {"attempt"}


class TestAttemptOutcomes:
    def test_faulted_period_retries_then_succeeds(self, run):
        attempts = [
            s
            for s in run.spans_named("attempt")
            if s.attrs["period"] == run.FAULT_PERIOD
        ]
        assert [s.attrs["outcome"] for s in attempts] == [RETRY, OK]
        retry = attempts[0]
        assert retry.attrs["fault"] == "FaultInjected"
        assert retry.attrs["classification"] == "transient"
        assert retry.attrs["backoff_seconds"] == 0.0

    def test_clean_periods_take_one_attempt(self, run):
        for period in (0, 2):
            attempts = [
                s for s in run.spans_named("attempt") if s.attrs["period"] == period
            ]
            assert [s.attrs["outcome"] for s in attempts] == [OK]


class TestBitReconciliation:
    def test_trace_and_registry_agree_exactly(self, run):
        """Both views are fed from the same engine steps; any drift is a
        double-count bug."""
        registry_totals = {
            labels["label"]: counter.value
            for labels, counter in run.registry.counters_named("engine.bits_on_wire")
        }
        assert run.trace_bits_by_label() == registry_totals

    def test_transport_agrees_except_the_dropped_frame(self, run):
        """The engine records a send at the boundary; the faulty
        transport then drops it before the wire.  So the trace exceeds
        the transcript by exactly one ref.f frame -- and on no other
        label by a single bit."""
        traced = run.trace_bits_by_label()
        on_wire = run.transport.bits_by_label()
        assert set(traced) == set(on_wire)
        for label in traced:
            if label == "ref.f":
                continue
            assert traced[label] == on_wire[label], label
        dropped = traced["ref.f"] - on_wire["ref.f"]
        assert dropped > 0
        # The successful attempts put PERIODS+1 ref.f frames in the
        # trace but only PERIODS on the wire; frames are equal-sized.
        assert dropped * (run.PERIODS + 1) == traced["ref.f"]

    def test_attempt_spans_account_for_the_wire_delta(self, run):
        """Each attempt span's ``bits`` is the transcript growth during
        that attempt; summing them per period recovers the transport's
        per-period totals."""
        for period in range(run.PERIODS):
            attempts = [
                s for s in run.spans_named("attempt") if s.attrs["period"] == period
            ]
            assert sum(s.attrs["bits"] for s in attempts) == (
                run.transport.bits_on_wire(period)
            )


class TestBudgetReconciliation:
    def test_dashboard_mirrors_the_oracle_ledgers(self, run):
        dash = budget_dashboard(run.oracle)
        assert dash["period"] == run.PERIODS  # rolled once per commit
        for device in (1, 2):
            row = dash["devices"][f"P{device}"]
            assert row["retry_bits_total"] == run.oracle.retry_charged(device=device)
            assert row["remaining"] == run.oracle.remaining(device)

    def test_retry_charges_match_the_attempt_record(self, run):
        (retried,) = run.result.log.retried()
        assert retried.period == run.FAULT_PERIOD
        charged = run.oracle.retry_charged(period=run.FAULT_PERIOD, device=1)
        assert charged == retried.charged_bits["P1"] > 0
        assert run.oracle.retry_ledger == {
            run.FAULT_PERIOD: {1: charged, 2: charged}
        }
        # The charge is the failed attempt's wire bits, verbatim.
        retry_span = next(
            s
            for s in run.spans_named("attempt")
            if s.attrs["period"] == run.FAULT_PERIOD and s.attrs["outcome"] == RETRY
        )
        assert retry_span.attrs["bits"] == charged

    def test_period_summaries_embed_reconciled_metrics(self, run):
        for summary in run.result.log.periods:
            metrics = summary.metrics
            assert metrics["bits_by_label"] == run.transport.bits_by_label(
                summary.period
            )
            assert sum(metrics["bits_by_label"].values()) == summary.bits_on_wire
            expected = (
                run.oracle.retry_charged(period=summary.period, device=1)
                if summary.period == run.FAULT_PERIOD
                else 0
            )
            assert metrics["retry_charged_bits"] == {
                "P1": expected,
                "P2": expected,
            }
            # The embedded dashboard was taken before the period rolled.
            assert metrics["budget"]["period"] == summary.period

    def test_leaked_bits_counters_live_in_the_oracle_registry(self, run):
        retry_total = sum(
            counter.value
            for _, counter in run.oracle.metrics.counters_named("leakage.retry_bits")
        )
        assert retry_total == sum(
            run.oracle.retry_charged(device=device) for device in (1, 2)
        )


class TestTraceExport:
    def test_jsonl_roundtrips_through_the_validator(self, run, tmp_path):
        path = tmp_path / "supervised.jsonl"
        run.tracer.export_jsonl(path)
        spans = validate_trace_file(path)
        assert len(spans) == len(run.tracer.finished)
        names = {s["name"] for s in spans}
        assert {"period", "attempt", "protocol.dlr.period", "step.send"} <= names
        header = json.loads(path.read_text().splitlines()[0])
        assert header["record"] == "trace-header"


class TestGoldenTranscriptsWithTelemetry:
    """Telemetry observes; it must never perturb.  The golden DLR
    transcript (seed 1234) stays byte-identical with the tracer and the
    registry both live."""

    def test_dlr_golden_period_unchanged(self):
        group = preset_group(32)
        params = DLRParams(group=group, lam=32)
        scheme = DLR(params)
        rng = random.Random(1234)
        generation = scheme.generate(rng)
        p1 = Device("P1", group, rng)
        p2 = Device("P2", group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        channel = InMemoryTransport()
        message = group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)

        with tracing() as tracer, metering() as registry:
            record = scheme.run_period(p1, p2, channel, ciphertext)

        assert record.plaintext == message
        bits = channel.transcript_bits(0)
        assert len(bits) == 17535
        assert hashlib.sha256(bits.to_bytes()).hexdigest() == (
            "9e5b8488f23b63d2597555c23ac7ad90c0306a1a886ac502fef10d8ede51f522"
        )
        # And the observers saw the whole run, exactly.
        assert {
            labels["label"]: counter.value
            for labels, counter in registry.counters_named("engine.bits_on_wire")
        } == channel.bits_by_label(0)
        (protocol_span,) = tracer.spans_named("protocol.dlr.period")
        assert protocol_span.attrs["bits_on_wire"] == 17535

    def test_telemetry_teardown_restores_the_null_tracer(self):
        from repro.telemetry import NULL_TRACER, active_registry, active_tracer

        assert active_tracer() is NULL_TRACER
        assert active_registry() is None
