"""Unit tests for the structured session log."""

import json

from repro.protocol.transport import InMemoryTransport
from repro.runtime import (
    OK,
    RETRY,
    TRANSIENT,
    AttemptRecord,
    PeriodSummary,
    SessionLog,
)
from repro.utils.bits import BitString


def _attempt(period, attempt, outcome, **kwargs):
    defaults = dict(
        fault=None,
        classification=None,
        backoff_seconds=0.0,
        bits_on_wire=0,
        charged_bits={},
        wall_seconds=0.0,
    )
    defaults.update(kwargs)
    return AttemptRecord(period=period, attempt=attempt, outcome=outcome, **defaults)


class TestQueries:
    def _log(self):
        log = SessionLog(scheme="dlr", seed=7)
        log.record_attempt(
            _attempt(0, 1, RETRY, fault="FaultInjected", classification=TRANSIENT,
                     bits_on_wire=100, charged_bits={"P1": 100, "P2": 100})
        )
        log.record_attempt(_attempt(0, 2, OK, bits_on_wire=900))
        log.record_attempt(_attempt(1, 1, OK, bits_on_wire=950))
        log.record_period(PeriodSummary(0, 2, 1000, "aa" * 32))
        log.record_period(PeriodSummary(1, 1, 950, "bb" * 32))
        return log

    def test_attempts_for_period(self):
        log = self._log()
        assert [a.attempt for a in log.attempts_for(0)] == [1, 2]
        assert len(log.attempts_for(1)) == 1

    def test_retried_and_charges(self):
        log = self._log()
        assert len(log.retried()) == 1
        assert log.charged_by_period() == {0: 200}
        assert log.faults_by_classification() == {TRANSIENT: 1}

    def test_prune_drops_rows_of_earlier_periods(self):
        log = self._log()
        log.quarantine_transcript(0, "WireDecodeError", [])
        assert log.prune(before_period=1) == 3
        assert [(a.period, a.attempt) for a in log.attempts] == [(1, 1)]
        assert [p.period for p in log.periods] == [1]
        assert len(log.quarantine) == 1  # diagnostics are kept
        assert log.prune(before_period=1) == 0

    def test_json_round_trip(self):
        log = self._log()
        data = json.loads(log.to_json())
        assert data["summary"]["periods_committed"] == 2
        assert data["summary"]["retries"] == 1
        restored = SessionLog.from_dict(data)
        assert restored.attempts == log.attempts
        assert restored.periods == log.periods
        assert restored.scheme == "dlr" and restored.seed == 7


class TestQuarantine:
    def test_quarantine_keeps_shape_not_payload(self):
        transport = InMemoryTransport()
        transport.send("P1", "P2", "dec.d", BitString(0b1011, 4))
        transport.send("P2", "P1", "dec.c_prime", BitString(0b1, 1))
        log = SessionLog(scheme="dlr")
        log.quarantine_transcript(0, "WireFormatError", transport.transcript(0))

        (entry,) = log.quarantine
        assert entry["period"] == 0
        assert entry["fault"] == "WireFormatError"
        assert [f["label"] for f in entry["frames"]] == ["dec.d", "dec.c_prime"]
        assert [f["bits"] for f in entry["frames"]] == [4, 1]
        assert len(entry["transcript_sha256"]) == 64
        # Raw payload bytes never enter the log.
        text = json.dumps(entry)
        assert "payload" not in text

    def test_quarantine_survives_serialization(self):
        transport = InMemoryTransport()
        transport.send("P1", "P2", "x", BitString(1, 1))
        log = SessionLog(scheme="dlr")
        log.quarantine_transcript(2, "DecryptionError", transport.transcript())
        restored = SessionLog.from_dict(json.loads(log.to_json()))
        assert restored.quarantine == log.quarantine
