"""Pluggable transports carrying the public protocol channel.

Everything sent between the two devices is public: the adversary's view
includes the full transcript ``comm^t`` (section 3.2), and leakage
functions may depend on it.  Every transport therefore records each
message verbatim and exposes the same transcript/stat surface, defined
exactly once on :class:`Transport`.

Three implementations:

* :class:`InMemoryTransport` -- the classic single-process channel.  The
  receiver gets a structural copy of the sender's payload: every
  container, ciphertext, scalar, bit string and element wrapper is
  rebuilt, and only frozen leaves (points, ``F_{q^2}`` values, ints,
  strings, bytes) are shared, so no mutable object is ever aliased
  between the two devices' memories.  The copy equals what the wire
  codec would decode, and each element gets the checks that decode
  would make short of the subgroup check.
* :class:`SocketTransport` -- P1 and P2 in separate threads over a local
  ``socketpair``; frames are length-prefixed wire-codec bytes, and the
  codec subgroup-checks every element it decodes.
* :class:`~repro.protocol.faults.FaultyTransport` -- wraps any transport
  and injects faults at send boundaries.

The transcript records the *sender-side* payload object (what was put on
the wire), so transcript bits are independent of which transport carried
them -- the golden-transcript tests pin this down.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass, field

from repro.errors import GroupError, PeerDisconnected, TransportTimeout, WireFormatError
from repro.utils.bits import BitString, concat_all
from repro.utils.serialization import (
    WireCodec,
    _ciphertext,
    _nest,
    encode_any,
    sniff_group,
)


# ---------------------------------------------------------------------------
# Length-prefixed framing (shared by SocketTransport and repro.service)
# ---------------------------------------------------------------------------
#
# One frame is ``[4-byte header length][JSON header][8-byte payload
# length][payload bytes]``, both integers big-endian.  The header is a
# flat JSON object (routing metadata); the payload is opaque bytes --
# wire-codec protocol elements for the device channel, request/response
# bodies for the key service.
#
# Service request headers may additionally carry *trace context*:
# optional ``trace_id`` and ``parent_span`` fields stamped by a tracing
# ``ServiceClient`` (see ``repro.telemetry.tracer.SpanContext``).  They
# are advisory routing metadata like ``request_id``: servers that do not
# know them ignore them, malformed values degrade to "no context", and
# they never touch the device-channel protocol frames -- golden
# transcripts are unaffected.


def encode_frame(header: dict, payload: bytes) -> bytes:
    """Serialize one frame; the inverse of :func:`recv_frame`."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (
        len(header_bytes).to_bytes(4, "big")
        + header_bytes
        + len(payload).to_bytes(8, "big")
        + payload
    )


#: Most bytes one ``recv`` asks for.  A frame's lengths are the peer's
#: word, so reads never size a buffer from them: a header that declares
#: more than the peer sends ends in EOF or a timeout, not a huge buffer.
_READ_CHUNK = 1 << 16


class FrameParser:
    """Incremental decoder of the frame format above: :meth:`feed` bytes
    as they arrive, take whole frames off the front with
    :meth:`next_frame`.  The header is decoded as soon as its bytes are
    in, so a bad one raises :class:`~repro.errors.WireFormatError`
    without waiting for a payload; the stream is unusable after that."""

    def __init__(self, who: str) -> None:
        self.who = who
        self._buffer = bytearray()
        self._header: dict | None = None

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def wanted(self) -> int:
        """Bytes still missing from the field being read (``<= 0`` once a
        whole frame is buffered), so a blocking reader never overreads."""
        buffer = self._buffer
        end = 4
        if len(buffer) >= end:
            end += int.from_bytes(buffer[:4], "big") + 8
            if len(buffer) >= end:
                end += int.from_bytes(buffer[end - 8 : end], "big")
        return end - len(buffer)

    def next_frame(self) -> tuple[dict, bytes] | None:
        """One whole ``(header, payload)``, or ``None`` until one is in."""
        buffer = self._buffer
        header_end = 4 + int.from_bytes(buffer[:4], "big")
        if self._header is None and len(buffer) >= header_end:
            try:
                header = json.loads(buffer[4:header_end])
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise WireFormatError(
                    f"{self.who} received an undecodable frame header"
                ) from exc
            if not isinstance(header, dict):
                raise WireFormatError(
                    f"{self.who} received a non-object frame header "
                    f"({type(header).__name__})"
                )
            self._header = header
        missing = self.wanted()
        if missing > 0:
            return None
        end = len(buffer) + missing
        frame = self._header, bytes(buffer[header_end + 8 : end])
        del buffer[:end]
        self._header = None
        return frame


def recv_frame(endpoint: socket.socket, who: str, timeout=None) -> tuple[dict, bytes]:
    """Read one complete frame: ``(header, payload bytes)``.

    A silent peer surfaces as :class:`~repro.errors.TransportTimeout`
    (transient: the peer is slow, not known dead), a closed or broken
    endpoint as :class:`~repro.errors.PeerDisconnected` -- never a raw
    ``socket.timeout``/``OSError`` that a supervisor cannot classify.
    """
    parser = FrameParser(who)
    while (frame := parser.next_frame()) is None:
        try:
            chunk = endpoint.recv(min(parser.wanted(), _READ_CHUNK))
        except socket.timeout as exc:
            suffix = "" if timeout is None else f" within {timeout}s"
            raise TransportTimeout(
                f"{who} read no frame{suffix}", timeout=timeout
            ) from exc
        except OSError as exc:
            raise PeerDisconnected(f"{who} read failed mid-frame") from exc
        if not chunk:
            raise PeerDisconnected(f"{who} saw EOF from its peer")
        parser.feed(chunk)
    return frame


@dataclass(frozen=True)
class Message:
    """One message on the public channel.

    Its transcript encoding is computed at most once -- either handed in
    by the sender (see :meth:`Transport.payload_bits`) or on first use --
    and cached for as long as the message stays on the transcript.
    """

    sender: str
    recipient: str
    label: str
    payload: object
    period: int
    _bits: BitString | None = field(default=None, repr=False, compare=False)

    def to_bits(self) -> BitString:
        bits = self._bits
        if bits is None:
            bits = encode_any(self.payload)
            object.__setattr__(self, "_bits", bits)
        return bits


class Transport:
    """Base transport: transcript recording plus the queryable stat surface.

    Subclasses implement :meth:`send` (and, for ``threaded`` transports,
    the endpoint management in :meth:`open`/:meth:`recv`/:meth:`close`).
    The read API below -- ``transcript``, ``bits_on_wire``, ... -- is the
    single implementation every transport (and every wrapper) shares.
    """

    #: Whether the two parties run in separate threads with blocking
    #: ``recv`` (socket-style) rather than an in-process rendezvous.
    threaded = False
    #: Optional per-request hook called with the message label before
    #: each send is recorded.  The key service installs a deadline check
    #: here for the duration of one request, so an expired deadline
    #: aborts *between* protocol steps (the staged-commit machinery
    #: rolls the period back) instead of burning a full period.
    step_hook = None

    def __init__(self) -> None:
        self._messages: list[Message] = []
        self._period = 0
        self._group = None
        # Per sending thread: the last payload sized by payload_bits().
        self._sized = threading.local()

    # -- codec binding -----------------------------------------------------

    def attach_group(self, group) -> None:
        """Bind the codec to a bilinear group so group elements decode."""
        if group is not None:
            self._group = group

    def _codec_for(self, payload: object = None) -> WireCodec:
        group = self._group
        if group is None:
            group = sniff_group(payload)
            self._group = group
        return WireCodec(group)

    # -- transcript recording ---------------------------------------------

    @property
    def messages(self) -> list[Message]:
        return self._messages

    @property
    def current_period(self) -> int:
        return self._period

    def advance_period(self) -> None:
        self._period += 1

    def payload_bits(self, payload: object) -> BitString:
        """Encode ``payload`` for the transcript, once per send.

        The engine sizes each send step before it hands the payload to
        :meth:`send`; the :class:`Message` that :meth:`record` then makes
        for the same object (on the same thread) reuses this encoding
        instead of computing it again.
        """
        bits = encode_any(payload)
        self._sized.last = (payload, bits)
        return bits

    def record(self, sender: str, recipient: str, label: str, payload: object) -> Message:
        """Append a frame to the public transcript (sender-side payload)."""
        if self.step_hook is not None:
            self.step_hook(label)
        sized = getattr(self._sized, "last", None)
        self._sized.last = None
        bits = sized[1] if sized is not None and sized[0] is payload else None
        message = Message(sender, recipient, label, payload, self.current_period, bits)
        self.messages.append(message)
        return message

    def prune(self, before_period: int) -> int:
        """Drop transcript messages from periods before ``before_period``.

        Long-running services commit a period and never look at its
        transcript again; without pruning the in-memory transcript grows
        without bound.  Callers that need whole-lifecycle transcripts
        (golden tests, leakage analyses) simply never prune.  Returns
        the number of messages dropped.
        """
        kept = [m for m in self.messages if m.period >= before_period]
        dropped = len(self.messages) - len(kept)
        self.messages[:] = kept
        return dropped

    # -- sending / receiving ----------------------------------------------

    def send(self, sender: str, recipient: str, label: str, payload: object) -> object:
        raise NotImplementedError

    def open(self, party_a: str, party_b: str) -> None:
        """Set up per-party endpoints (threaded transports only)."""

    def recv(self, party: str) -> tuple[str, str, object]:
        """Blocking receive for ``party``: ``(sender, label, payload)``."""
        raise NotImplementedError(f"{type(self).__name__} has no blocking recv")

    def shutdown_party(self, party: str) -> None:
        """Close one party's endpoint (signals EOF to the peer)."""

    def close(self) -> None:
        """Tear down any endpoints; the transcript stays readable."""

    # -- the queryable stat surface (implemented once) ---------------------

    def transcript(self, period: int | None = None) -> list[Message]:
        """All messages, or those of one time period."""
        if period is None:
            return list(self.messages)
        return [m for m in self.messages if m.period == period]

    def transcript_bits(self, period: int | None = None) -> BitString:
        return concat_all(m.to_bits() for m in self.transcript(period))

    def bits_on_wire(self, period: int | None = None) -> int:
        """Total communication in bits (for the cost benchmarks)."""
        return sum(len(m.to_bits()) for m in self.transcript(period))

    def bits_by_label(self, period: int | None = None) -> dict[str, int]:
        """Communication breakdown per message label -- which protocol
        step costs what (used by the cost analyses)."""
        breakdown: dict[str, int] = {}
        for message in self.transcript(period):
            breakdown[message.label] = breakdown.get(message.label, 0) + len(
                message.to_bits()
            )
        return breakdown


class _NotWireable(Exception):
    """The payload holds a value the wire format has no encoding for."""


def _handoff(payload: object) -> object:
    """The receiver's copy of ``payload``, built without the wire codec.

    The copy is type- and value-equal to ``WireCodec(group).decode(
    WireCodec(group).encode(payload))``: it dispatches on the types
    :meth:`~repro.utils.serialization.WireCodec._encode_into` does, in
    the same order, and returns what ``decode`` returns (a plain
    ``tuple``/``list``/``int``/``str``/``bytes`` even for subclasses).
    Containers, HPSKE ciphertexts, scalars, bit strings and element
    wrappers are rebuilt; only frozen leaves are shared.

    Each element gets the checks the codec's decode makes short of the
    subgroup check, at field-multiply cost: ``G`` coordinates in
    ``[0, q)``, no 2-torsion, ``y^2 = x^3 + x``; ``GT`` coordinates in
    range and a nonzero value.  Raises :class:`_NotWireable` where
    ``encode`` would reject the payload.
    """
    from repro.core.hpske import HPSKECiphertext
    from repro.groups.bilinear import G1Element, GTElement
    from repro.groups.curve import INFINITY
    from repro.math.fields import Fq2
    from repro.protocol.device import _ScalarInMemory

    def copy(value: object, depth: int) -> object:
        if value is None or isinstance(value, bool):
            return value
        if isinstance(value, int):
            if value < 0:
                raise _NotWireable
            return value if type(value) is int else int(value)
        if isinstance(value, str):
            return value if type(value) is str else str.__str__(value)
        if isinstance(value, bytes):
            return value if type(value) is bytes else bytes(value)
        if isinstance(value, BitString):
            return BitString(int(value.value), len(value))
        if isinstance(value, G1Element):
            group = value.group
            point = value.point
            if point.infinity:
                return G1Element(group, INFINITY)
            q = group.params.q
            x, y = point.x, point.y
            if not (0 <= x < q and 0 <= y < q):
                raise GroupError("G coordinate out of field range")
            if y == 0:
                raise GroupError("point is 2-torsion, not in G")
            if (y * y - x * x * x - x) % q:
                raise GroupError("point is not on the curve")
            return G1Element(group, point)
        if isinstance(value, GTElement):
            group = value.group
            q = group.params.q
            element = value.value
            a, b = element.a, element.b
            if not (0 <= a < q and 0 <= b < q):
                raise GroupError("GT coordinate out of field range")
            if not (a or b):
                raise GroupError("zero is not a GT element")
            if element.q != q:
                element = Fq2._from_reduced(a, b, q)
            return GTElement(group, element)
        if isinstance(value, HPSKECiphertext):
            inner = _nest(depth)
            return _ciphertext([copy(element, inner) for element in value.elements()])
        if isinstance(value, _ScalarInMemory):
            if value.p < 2:
                raise WireFormatError("scalar modulus must be >= 2")
            return _ScalarInMemory(int(value.value), int(value.p))
        if isinstance(value, (tuple, list)):
            inner = _nest(depth)
            items = [copy(item, inner) for item in value]
            return tuple(items) if isinstance(value, tuple) else items
        raise _NotWireable

    return copy(payload, 0)


class InMemoryTransport(Transport):
    """Reliable, authenticated, in-process transport with a full transcript.

    ``send`` returns a structural copy of the payload (see
    :func:`_handoff`) -- the receiver never holds a mutable object of the
    sender's memory, and gets the same value the wire codec would have
    decoded, with no byte round trip.  A payload the wire format rejects
    (only possible for ad-hoc test traffic, never for protocol messages)
    passes through by reference.
    """

    def send(self, sender: str, recipient: str, label: str, payload: object) -> object:
        self.record(sender, recipient, label, payload)
        try:
            return _handoff(payload)
        except _NotWireable:
            return payload


class SocketTransport(Transport):
    """P1 and P2 in separate threads over a local socket pair.

    :meth:`open` creates one ``socketpair`` endpoint per party; frames
    are ``[4-byte header length][JSON header][8-byte payload length]
    [wire-codec payload]``.  A party whose protocol step fails closes
    its endpoint, which surfaces at the peer's blocking read as
    :class:`~repro.errors.PeerDisconnected`.  Decoded elements get the
    full subgroup check -- these bytes crossed a real wire.
    """

    threaded = True

    def __init__(self, timeout: float = 30.0) -> None:
        super().__init__()
        self.timeout = timeout
        self._endpoints: dict[str, socket.socket] = {}
        self._lock = threading.Lock()

    def open(self, party_a: str, party_b: str) -> None:
        self.close()
        end_a, end_b = socket.socketpair()
        end_a.settimeout(self.timeout)
        end_b.settimeout(self.timeout)
        self._endpoints = {party_a: end_a, party_b: end_b}

    def shutdown_party(self, party: str) -> None:
        endpoint = self._endpoints.get(party)
        if endpoint is not None:
            try:
                endpoint.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            endpoint.close()

    def close(self) -> None:
        for party in list(self._endpoints):
            self.shutdown_party(party)
        self._endpoints = {}

    def _endpoint(self, party: str) -> socket.socket:
        endpoint = self._endpoints.get(party)
        if endpoint is None:
            raise PeerDisconnected(
                f"no open socket endpoint for {party!r}; call open() first"
            )
        return endpoint

    def send(self, sender: str, recipient: str, label: str, payload: object) -> object:
        codec = self._codec_for(payload)
        wire = codec.encode(payload)  # sockets carry bytes, no fallback
        frame = encode_frame(
            {"sender": sender, "recipient": recipient, "label": label}, wire
        )
        with self._lock:
            self.record(sender, recipient, label, payload)
            endpoint = self._endpoint(sender)
        try:
            endpoint.sendall(frame)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"send of {label!r} timed out after {self.timeout}s "
                "(peer not draining)",
                timeout=self.timeout,
            ) from exc
        except OSError as exc:
            raise PeerDisconnected(
                f"send of {label!r} failed: peer endpoint is gone"
            ) from exc
        return payload

    def recv(self, party: str) -> tuple[str, str, object]:
        with self._lock:
            endpoint = self._endpoint(party)
        header, wire = recv_frame(endpoint, party, timeout=self.timeout)
        payload = self._codec_for().decode(wire)
        return header["sender"], header["label"], payload
