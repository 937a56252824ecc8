"""Structured session logging: every attempt, fault, backoff, and bit.

The supervisor appends one :class:`AttemptRecord` per protocol attempt
and one :class:`PeriodSummary` per committed period; poisoned aborts
additionally quarantine the offending period's transcript (shape only
-- labels, senders, sizes, and a digest -- never raw payload bytes into
the log).  The whole log serializes to JSON for the CLI, the chaos
soak, and the CI artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Iterable

# Attempt / period outcomes.
OK = "ok"
RETRY = "retry"
ABORTED = "aborted"
EXHAUSTED = "exhausted"
FROZEN = "frozen"


@dataclass(frozen=True)
class AttemptRecord:
    """One protocol attempt inside one time period."""

    period: int
    attempt: int  # 1-based within the period
    outcome: str  # ok | retry | aborted | exhausted | frozen
    fault: str | None  # exception class name, None on success
    classification: str | None  # transient | fatal | poisoned, None on success
    backoff_seconds: float  # sleep scheduled after this attempt
    bits_on_wire: int  # transcript bits this attempt put on the wire
    charged_bits: dict[str, int]  # leakage charged per device for this attempt
    wall_seconds: float


@dataclass(frozen=True)
class PeriodSummary:
    """One committed time period."""

    period: int
    attempts: int
    bits_on_wire: int  # all attempts of the period, retries included
    transcript_sha256: str
    #: Telemetry snapshot taken at commit time: per-label wire bits,
    #: per-device retry charges, and (when an oracle supervises the
    #: session) the leakage-budget dashboard.  Empty for unsupervised
    #: logs and for logs written before this field existed.
    metrics: dict = field(default_factory=dict)


@dataclass
class SessionLog:
    """The queryable, JSON-serializable record of one supervised session."""

    scheme: str = ""
    seed: object = None
    attempts: list[AttemptRecord] = field(default_factory=list)
    periods: list[PeriodSummary] = field(default_factory=list)
    quarantine: list[dict] = field(default_factory=list)
    #: Correlation id of the trace whose spans cover this session's most
    #: recent period (stamped by the supervisor when tracing is on), so
    #: a durable log row links back to the JSONL trace that produced it.
    trace_id: str | None = None

    # -- recording ---------------------------------------------------------

    def record_attempt(self, record: AttemptRecord) -> None:
        self.attempts.append(record)

    def record_period(self, summary: PeriodSummary) -> None:
        self.periods.append(summary)

    def prune(self, before_period: int) -> int:
        """Drop the attempt records and period summaries of every period
        before ``before_period``; returns how many rows went.

        A long-running service commits a period, checkpoints it and
        never reads its log rows again, so keeping them would grow
        memory with every request.  Quarantined transcripts stay: they
        are rare and exist for diagnosis.  Callers that report whole
        lifecycles (``repro-dlr supervise --log``) simply never prune.
        """
        attempts = [a for a in self.attempts if a.period >= before_period]
        periods = [p for p in self.periods if p.period >= before_period]
        dropped = len(self.attempts) - len(attempts) + len(self.periods) - len(periods)
        self.attempts = attempts
        self.periods = periods
        return dropped

    def quarantine_transcript(self, period: int, fault: str, messages: Iterable) -> None:
        """Isolate a poisoned period's transcript: message shape and a
        digest go into the log; the payload bytes stay out of it."""
        frames = []
        digest = hashlib.sha256()
        for message in messages:
            bits = message.to_bits()
            digest.update(bits.to_bytes())
            frames.append(
                {
                    "label": message.label,
                    "sender": message.sender,
                    "recipient": message.recipient,
                    "bits": len(bits),
                }
            )
        self.quarantine.append(
            {
                "period": period,
                "fault": fault,
                "frames": frames,
                "transcript_sha256": digest.hexdigest(),
            }
        )

    # -- queries -----------------------------------------------------------

    def attempts_for(self, period: int) -> list[AttemptRecord]:
        return [a for a in self.attempts if a.period == period]

    def retried(self) -> list[AttemptRecord]:
        return [a for a in self.attempts if a.outcome == RETRY]

    def charged_by_period(self) -> dict[int, int]:
        """Total leakage bits charged for retries, per period."""
        totals: dict[int, int] = {}
        for a in self.attempts:
            charged = sum(a.charged_bits.values())
            if charged:
                totals[a.period] = totals.get(a.period, 0) + charged
        return totals

    def faults_by_classification(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for a in self.attempts:
            if a.classification is not None:
                counts[a.classification] = counts.get(a.classification, 0) + 1
        return counts

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "version": 1,
            "scheme": self.scheme,
            "seed": self.seed,
            "attempts": [asdict(a) for a in self.attempts],
            "periods": [asdict(p) for p in self.periods],
            "quarantine": list(self.quarantine),
            "summary": {
                "periods_committed": len(self.periods),
                "attempts_total": len(self.attempts),
                "retries": len(self.retried()),
                "faults_by_classification": self.faults_by_classification(),
                "charged_bits_by_period": self.charged_by_period(),
                "bits_on_wire": sum(p.bits_on_wire for p in self.periods),
            },
        }
        # Only when set: untraced sessions keep the exact classic shape.
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionLog":
        log = cls(
            scheme=data.get("scheme", ""),
            seed=data.get("seed"),
            trace_id=data.get("trace_id"),
        )
        for a in data.get("attempts", ()):
            log.record_attempt(AttemptRecord(**a))
        for p in data.get("periods", ()):
            log.record_period(PeriodSummary(**p))
        log.quarantine = list(data.get("quarantine", ()))
        return log
