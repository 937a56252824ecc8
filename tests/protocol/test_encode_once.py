"""Each device-channel message is encoded for the transcript exactly once.

A supervised period reads a message's bits in several places: the
engine sizes each send step, the retry loop measures the wire delta of
every attempt, and the commit hashes the period transcript and breaks
it down per label.  All of them must read the one encoding cached on
the :class:`~repro.protocol.transport.Message`, and all of them must
agree to the bit.
"""

import random
import sys
import threading

import pytest

from repro.core.dlr import DLR
from repro.core.optimal import OptimalDLR
from repro.errors import FaultInjected
from repro.protocol.device import Device
from repro.protocol.engine import ProtocolEngine
from repro.protocol.faults import DROP, FaultRule, FaultyTransport
from repro.protocol.transport import InMemoryTransport, Message, SocketTransport
from repro.runtime import RetryPolicy, SessionSupervisor
from repro.utils.serialization import encode_any

TRANSPORTS = {
    "in-memory": InMemoryTransport,
    "socket": lambda: SocketTransport(timeout=30.0),
}


@pytest.fixture()
def encodings(monkeypatch):
    """Record the payload of every top-level ``encode_any`` call made by
    any loaded ``repro`` module (nested calls for the members of a tuple
    or list are not counted)."""
    calls = []
    depth = threading.local()

    def counting(value):
        level = getattr(depth, "level", 0)
        if level == 0:
            calls.append(value)
        depth.level = level + 1
        try:
            return encode_any(value)
        finally:
            depth.level = level

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "encode_any", None) is encode_any:
            monkeypatch.setattr(module, "encode_any", counting)
    return calls


def _transcript_encodings(calls, messages):
    """The recorded calls that encoded a payload put on the transcript."""
    payloads = {id(m.payload) for m in messages}
    return [value for value in calls if id(value) in payloads]


@pytest.fixture()
def engine_stats(monkeypatch):
    """The ``TranscriptStats`` of every engine run (decrypt and refresh
    are separate runs within one period)."""
    collected = []
    original = ProtocolEngine.run

    def run(self, spec):
        try:
            return original(self, spec)
        finally:
            collected.append(self.stats)

    monkeypatch.setattr(ProtocolEngine, "run", run)
    return collected


def _supervisor(scheme, transport, tmp_path):
    generation = scheme.generate(random.Random(1))
    return SessionSupervisor.start(
        scheme,
        transport,
        public_key=generation.public_key,
        share1=generation.share1,
        share2=generation.share2,
        periods=1,
        seed=5,
        checkpoint_path=tmp_path / "session.json",
        policy=RetryPolicy(base_backoff=0.0, jitter=0.0),
    ), generation


@pytest.mark.parametrize("scheme_cls", [DLR, OptimalDLR], ids=["dlr", "optimal"])
@pytest.mark.parametrize("kind", sorted(TRANSPORTS))
def test_one_encoding_per_send_during_a_request(
    kind, scheme_cls, small_params, tmp_path, encodings, engine_stats
):
    scheme = scheme_cls(small_params)
    transport = TRANSPORTS[kind]()
    supervisor, generation = _supervisor(scheme, transport, tmp_path)
    rng = random.Random(2)
    message = scheme.group.random_gt(rng)
    ciphertext = scheme.encrypt(generation.public_key, message, rng)
    encodings.clear()
    engine_stats.clear()

    record = supervisor.run_request(ciphertext)

    assert record.plaintext == message
    period = supervisor.log.periods[-1].period
    sent = transport.transcript(period)
    assert sent and len(sent) == sum(len(s.sends()) for s in engine_stats)
    assert len(_transcript_encodings(encodings, sent)) == len(sent)

    # Every view of the period's bits reads the same numbers.
    total = transport.bits_on_wire(period)
    assert total == sum(transport.bits_by_label(period).values())
    assert total == len(transport.transcript_bits(period))
    assert total == sum(s.bits_on_wire() for s in engine_stats)
    assert total == supervisor.log.periods[-1].bits_on_wire
    engine_by_label: dict[str, int] = {}
    for stats in engine_stats:
        for label, bits in stats.bits_by_label().items():
            engine_by_label[label] = engine_by_label.get(label, 0) + bits
    assert engine_by_label == transport.bits_by_label(period)
    # ...and none of those reads encoded anything again.
    assert len(_transcript_encodings(encodings, sent)) == len(sent)


def test_message_caches_its_encoding(small_group, rng, encodings):
    transport = InMemoryTransport()
    element = small_group.random_g(rng)
    transport.send("P1", "P2", "m", [element, element])
    (message,) = transport.transcript()
    bits = message.to_bits()
    assert message.to_bits() is bits
    assert transport.transcript_bits() == bits
    assert transport.bits_on_wire() == len(bits) == 2 * small_group.g_element_bits()
    assert len(encodings) == 1


def test_sized_payload_is_reused_only_for_the_same_object(small_group, rng, encodings):
    transport = InMemoryTransport()
    sized, other = small_group.random_g(rng), small_group.random_g(rng)
    bits = transport.payload_bits(sized)
    transport.send("P1", "P2", "a", other)  # a different object: encoded anew
    transport.send("P1", "P2", "b", sized)  # the memo was consumed above
    first, second = transport.transcript()
    assert first.to_bits() == other.to_bits()
    assert second.to_bits() == bits
    assert len(encodings) == 3


def test_message_equality_ignores_the_cache(small_group, rng):
    element = small_group.random_gt(rng)
    cached = Message("P1", "P2", "m", element, 0, element.to_bits())
    lazy = Message("P1", "P2", "m", element, 0)
    assert cached == lazy
    assert cached.to_bits() == lazy.to_bits()


def test_dropped_send_is_sized_once_and_not_recorded(small_params, encodings):
    """A frame the faulty transport drops still counts in the engine's
    step stats (sized once) but never reaches the transcript."""
    scheme = DLR(small_params)
    rng = random.Random(3)
    generation = scheme.generate(rng)
    p1 = Device("P1", scheme.group, random.Random(4))
    p2 = Device("P2", scheme.group, random.Random(5))
    scheme.install(p1, p2, generation.share1, generation.share2)
    transport = FaultyTransport(rules=[FaultRule(mode=DROP, label="dec.c_prime")])
    ciphertext = scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
    encodings.clear()
    with pytest.raises(FaultInjected):
        scheme.run_period(p1, p2, transport, ciphertext)
    sent = transport.transcript()
    steps = scheme.last_stats.sends()
    assert len(encodings) == len(sent) + 1
    assert "dec.c_prime" in [s.label for s in steps]
    assert "dec.c_prime" not in [m.label for m in sent]
