"""Pluggable transports carrying the public protocol channel.

Everything sent between the two devices is public: the adversary's view
includes the full transcript ``comm^t`` (section 3.2), and leakage
functions may depend on it.  Every transport therefore records each
message verbatim and exposes the same transcript/stat surface, defined
exactly once on :class:`Transport`.

Three implementations:

* :class:`InMemoryTransport` -- the classic single-process channel.  One
  walk over each sent payload (:func:`_walk`) packs its transcript
  encoding into one int and builds the receiver's structural copy:
  every container, HPSKE ciphertext object, scalar, bit string and
  element wrapper is rebuilt, and only frozen leaves are shared (ints,
  strings, bytes, points, ``F_{q^2}`` values, and a ciphertext's packed
  coordinate tuple, which holds only ints), so no mutable object is
  ever aliased between the two devices' memories.  The copy equals
  what the wire codec would decode, and each element and ciphertext
  coordinate gets the checks that decode would make short of the
  subgroup check, with no element wrapper built for a ciphertext.
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

from repro.core.hpske import HPSKECiphertext
from repro.errors import GroupError, PeerDisconnected, TransportTimeout, WireFormatError
from repro.groups.bilinear import G1Element, GTElement, pack_raw
from repro.protocol.device import _ScalarInMemory
from repro.utils.bits import BitString, concat_all
from repro.utils.serialization import WireCodec, _nest, encode_any, sniff_group


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
        :meth:`send`; sizing the same object again, and the :meth:`send`
        and :class:`Message` that follow on the same thread, reuse this
        pass instead of making another.
        """
        sized = self._pass(payload)
        if sized[1] is None:
            sized = self._sized.last = (payload, encode_any(payload), *sized[2:])
        return sized[1]

    def _pass(self, payload: object) -> tuple:
        """This thread's pass over ``payload``, ``(payload, bits,
        delivered, error)``, made now unless the last one was of it.  An
        in-process transport walks the payload (:func:`_walk`); a
        threaded one delivers what its peer decodes."""
        sized = getattr(self._sized, "last", None)
        if sized is None or sized[0] is not payload:
            walked = (None, payload, None) if self.threaded else _walk(payload)
            sized = self._sized.last = (payload, *walked)
        return sized

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


#: The protocol's payload types, whose ``encode_any`` bits the walk packs
#: itself; it leaves a payload holding any other value to ``encode_any``.
_ENCODED = frozenset({tuple, list, HPSKECiphertext, G1Element, GTElement, bool})


def _walk(payload: object) -> tuple[BitString | None, object, Exception | None]:
    """One pass over a sent payload: its transcript bits (``encode_any``'s,
    or ``None`` outside ``_ENCODED``), what the receiver gets, and the
    error the send raises once the message is recorded.

    The copy is type- and value-equal to ``WireCodec(group).decode(
    WireCodec(group).encode(payload))``.  Containers, HPSKE ciphertexts,
    scalars, bit strings and element wrappers (whose slots are
    assignable) are rebuilt; only frozen leaves, such as a ciphertext's
    packed coordinate tuple, are shared.  One checked
    :func:`~repro.groups.bilinear.pack_raw` call per element or
    ciphertext makes the decode's checks and the encoding.
    A payload ``encode`` would reject is delivered by reference; the
    error is the codec's for a scalar modulus below 2 or nesting deeper
    than ``_MAX_DEPTH``, or a failed element check.
    """
    acc = nbits = 0
    exact = True

    def walk(value: object, depth: int) -> object:
        nonlocal acc, nbits, exact
        kind = type(value)
        if kind not in _ENCODED:
            exact = False
        if isinstance(value, (tuple, list)):
            inner = _nest(depth)
            items = [walk(item, inner) for item in value]
            return tuple(items) if isinstance(value, tuple) else items
        if isinstance(value, (HPSKECiphertext, G1Element, GTElement)):
            packed = isinstance(value, HPSKECiphertext)
            if packed:
                _nest(depth)
                carrier, values = value.carrier, value.values
            else:
                carrier = G1Element if isinstance(value, G1Element) else GTElement
                values = (value.raw,)
            bits, size = pack_raw(carrier, values, value.group.q, True)
            acc = (acc << size) | bits
            nbits += size
            if packed:
                return HPSKECiphertext._packed(value.group, carrier, values)
            return carrier.from_raw(value.group, values[0])
        if kind is bool:
            acc = (acc << 1) | value
            nbits += 1
            return value
        if isinstance(value, int):
            if value < 0:
                raise _NotWireable
            return int(value)
        if isinstance(value, _ScalarInMemory):
            if value.p < 2:
                raise WireFormatError("scalar modulus must be >= 2")
            return _ScalarInMemory(int(value.value), int(value.p))
        if isinstance(value, BitString):
            return BitString(int(value.value), len(value))
        if isinstance(value, (str, bytes)):
            return str.__str__(value) if isinstance(value, str) else bytes(value)
        if value is None:
            return None
        raise _NotWireable

    try:
        copy = walk(payload, 0)
    except _NotWireable:
        return None, payload, None
    except (GroupError, WireFormatError) as exc:  # raised once the message is recorded
        return None, None, exc
    return BitString(acc, nbits) if exact else None, copy, None


class InMemoryTransport(Transport):
    """Reliable, authenticated, in-process transport with a full transcript.

    ``send`` returns a structural copy of the payload, made by the pass
    that encodes it for the transcript (:func:`_walk`): the receiver
    never holds a mutable object of the sender's memory, and gets the
    same value the wire codec would have decoded, with no byte round
    trip.  A payload the wire format rejects (only possible for ad-hoc
    test traffic, never for protocol messages) passes through by
    reference; an element that fails a check is recorded before ``send``
    raises.
    """

    def send(self, sender: str, recipient: str, label: str, payload: object) -> object:
        _, _, delivered, error = self._pass(payload)
        self.record(sender, recipient, label, payload)
        if error is not None:
            raise error
        return delivered


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
