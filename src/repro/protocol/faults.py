"""Fault injection at protocol message boundaries.

A real deployment of the 2-party protocols must survive the channel
dying mid-protocol: a dropped message, a truncated frame, a stalled
link.  :class:`FaultyTransport` wraps any
:class:`~repro.protocol.transport.Transport` and fires configured
:class:`FaultRule`\\ s at :meth:`send` boundaries, raising
:class:`~repro.errors.FaultInjected` exactly where a crash would
surface.  The schemes' abort paths (staged share commits, rollback,
``try/finally`` secret erasure) are tested against every boundary this
module can name -- over the in-memory transport and over real sockets
with the parties in separate threads.

Fault modes:

* ``drop`` -- the message never reaches the wire; the protocol dies at
  the send.
* ``truncate`` -- a bit-prefix of the message reaches the wire (it is
  recorded on the public transcript -- the adversary sees partial
  frames), then the protocol dies.
* ``delay`` -- the message is delivered but a latency tick is recorded
  (and, with ``delay_seconds``, real wall time elapses before the bytes
  move -- enough to trip a :class:`SocketTransport` read timeout on the
  peer).  The synchronous protocol completes.

Rules are one-shot *by default*: after firing, a rule is spent, so a
retry driver (the :mod:`repro.runtime` session supervisor) naturally
succeeds on the re-run.  Chaos schedules use the two extensions:

* ``repeat=k`` fires the rule on up to ``k`` matching sends (``None``
  means unlimited) instead of exactly one;
* ``probability=p`` gates each would-be firing on a coin flip drawn
  from the transport's *seeded* RNG (``FaultyTransport(seed=...)``) --
  never the process-global ``random`` state, so a chaos soak replays
  bit-for-bit from its seed.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.errors import FaultInjected, ParameterError
from repro.protocol.transport import InMemoryTransport, Message, Transport
from repro.utils.bits import BitString

DROP = "drop"
TRUNCATE = "truncate"
DELAY = "delay"
FAULT_MODES = (DROP, TRUNCATE, DELAY)

# Message boundaries of the core protocols, for exhaustive fault sweeps.
DECRYPT_BOUNDARIES = ("dec.d", "dec.c_prime")
REFRESH_BOUNDARIES = ("ref.f", "ref.f_combined", "ref.commit")
PERIOD_BOUNDARIES = ("dec.d", "dec.c_prime", "dec.output") + REFRESH_BOUNDARIES


@dataclass(frozen=True)
class FaultRule:
    """One configured fault.

    ``label`` restricts the rule to messages with that label (``None``
    matches every message); ``occurrence`` fires it on the k-th matching
    send (1-based); ``period`` restricts matching to one time period.
    ``keep_bits`` is how much of the encoded payload survives a
    ``truncate``; ``delay_ticks`` is the latency a ``delay`` records and
    ``delay_seconds`` is real wall time the delayed send stalls for.

    ``repeat`` is how many times the rule may fire in total (default 1,
    the historic one-shot behaviour; ``None`` = unlimited).  Once a
    rule's occurrence countdown is exhausted it stays *ripe*: every
    later matching send is a firing opportunity until ``repeat`` runs
    out.  ``probability`` gates each opportunity on a coin flip from the
    transport's seeded RNG (1.0 = always fire).
    """

    mode: str = DROP
    label: str | None = None
    occurrence: int = 1
    period: int | None = None
    keep_bits: int = 0
    delay_ticks: int = 1
    delay_seconds: float = 0.0
    repeat: int | None = 1
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ParameterError(f"unknown fault mode {self.mode!r}")
        if self.occurrence < 1:
            raise ParameterError("occurrence is 1-based and must be >= 1")
        if self.keep_bits < 0 or self.delay_ticks < 0:
            raise ParameterError("keep_bits and delay_ticks must be >= 0")
        if self.delay_seconds < 0:
            raise ParameterError("delay_seconds must be >= 0")
        if self.repeat is not None and self.repeat < 1:
            raise ParameterError("repeat must be >= 1 (or None for unlimited)")
        if not 0.0 < self.probability <= 1.0:
            raise ParameterError("probability must be in (0, 1]")


class _ArmedRule:
    """A rule plus its countdown of matching sends still to see."""

    __slots__ = ("rule", "remaining", "fires_left", "spent")

    def __init__(self, rule: FaultRule) -> None:
        self.rule = rule
        self.remaining = rule.occurrence
        self.fires_left = rule.repeat  # None = unlimited
        self.spent = False

    def matches(self, label: str, period: int) -> bool:
        if self.spent:
            return False
        if self.rule.label is not None and self.rule.label != label:
            return False
        if self.rule.period is not None and self.rule.period != period:
            return False
        return True

    def offer(self, rng: random.Random) -> bool:
        """One matching send: advance the countdown and decide whether
        to fire.  A ripe rule whose probability coin comes up tails
        passes the message through but stays ripe."""
        if self.remaining > 0:
            self.remaining -= 1
        if self.remaining > 0:
            return False
        if self.rule.probability < 1.0 and rng.random() >= self.rule.probability:
            return False
        if self.fires_left is not None:
            self.fires_left -= 1
            if self.fires_left == 0:
                self.spent = True
        return True


class FaultyTransport(Transport):
    """A transport wrapper that injects faults at send boundaries.

    Wraps any :class:`~repro.protocol.transport.Transport` (in-memory by
    default) and delegates the entire transcript/stat surface to it, so
    it is a drop-in replacement wherever a transport is expected.
    Everything that *does* reach the wire (including truncated frames)
    lands on the inner transport's public transcript, faithfully
    modelling what an adversary observes of an interrupted protocol.
    """

    def __init__(
        self,
        inner: Transport | None = None,
        rules: list[FaultRule] | None = None,
        seed: int | None = None,
    ) -> None:
        self.inner = inner if inner is not None else InMemoryTransport()
        self.rules = list(rules) if rules is not None else []
        self._armed = [_ArmedRule(rule) for rule in self.rules]
        self.injected: list[tuple[FaultRule, str]] = []
        self.delay_ticks = 0
        self._rule_lock = threading.Lock()
        # Probability coins come from this instance's own generator --
        # never the process-global ``random`` state -- so a seeded chaos
        # schedule replays exactly.
        self._rng = random.Random(seed)

    # -- rule management ---------------------------------------------------

    def add_rule(self, rule: FaultRule) -> None:
        with self._rule_lock:
            self.rules.append(rule)
            self._armed.append(_ArmedRule(rule))

    def clear_rules(self) -> None:
        """Disarm every rule that has not fired yet."""
        with self._rule_lock:
            self.rules.clear()
            self._armed.clear()

    @classmethod
    def dropping(
        cls, label: str, occurrence: int = 1, inner: Transport | None = None
    ) -> "FaultyTransport":
        """A transport that drops the k-th message with the given label."""
        transport = cls(inner=inner)
        transport.add_rule(FaultRule(mode=DROP, label=label, occurrence=occurrence))
        return transport

    # -- delegation of the transport surface -------------------------------

    @property
    def threaded(self) -> bool:  # type: ignore[override]
        return self.inner.threaded

    @property
    def messages(self) -> list[Message]:
        return self.inner.messages

    @property
    def step_hook(self):  # type: ignore[override]
        # The inner transport records every frame, so the hook lives there.
        return self.inner.step_hook

    @step_hook.setter
    def step_hook(self, hook) -> None:
        self.inner.step_hook = hook

    @property
    def current_period(self) -> int:
        return self.inner.current_period

    def advance_period(self) -> None:
        self.inner.advance_period()

    def attach_group(self, group) -> None:
        self.inner.attach_group(group)

    def payload_bits(self, payload: object) -> BitString:
        return self.inner.payload_bits(payload)

    def record(self, sender: str, recipient: str, label: str, payload: object) -> Message:
        return self.inner.record(sender, recipient, label, payload)

    def open(self, party_a: str, party_b: str) -> None:
        self.inner.open(party_a, party_b)

    def recv(self, party: str) -> tuple[str, str, object]:
        return self.inner.recv(party)

    def shutdown_party(self, party: str) -> None:
        self.inner.shutdown_party(party)

    def close(self) -> None:
        self.inner.close()

    # -- the faulty send ---------------------------------------------------

    def send(self, sender: str, recipient: str, label: str, payload: object) -> object:
        with self._rule_lock:
            fired: _ArmedRule | None = None
            for armed in self._armed:
                if not armed.matches(label, self.inner.current_period):
                    continue
                if armed.offer(self._rng) and fired is None:
                    fired = armed
            if fired is not None:
                self.injected.append((fired.rule, label))
        if fired is None:
            return self.inner.send(sender, recipient, label, payload)

        rule = fired.rule
        if rule.mode == DELAY:
            self.delay_ticks += rule.delay_ticks
            if rule.delay_seconds > 0:
                # Stall the frame for real: over a socket transport the
                # peer's blocking read can hit its timeout first, which
                # is exactly the silent-peer scenario the supervisor
                # classifies as transient.
                time.sleep(rule.delay_seconds)
            return self.inner.send(sender, recipient, label, payload)
        if rule.mode == TRUNCATE:
            bits = self.inner.payload_bits(payload)  # the engine sized it already
            keep = bits[: min(rule.keep_bits, len(bits))]
            # The partial frame is public: it goes on the transcript (but
            # is never delivered to the peer -- the protocol dies here).
            self.inner.record(sender, recipient, f"{label}.truncated", keep)
            raise FaultInjected(
                f"message {label!r} truncated to {len(keep)} of {len(bits)} bits",
                label=label,
                mode=TRUNCATE,
            )
        raise FaultInjected(f"message {label!r} dropped", label=label, mode=DROP)
