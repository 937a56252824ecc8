"""Unit tests for the transport layer: in-memory and socket transports,
payload isolation (everything crosses as bytes), transcript recording."""

import random
import threading

import pytest

from repro.core.dlr import DLR
from repro.core.params import DLRParams
from repro.errors import FaultInjected, PeerDisconnected, ProtocolError, TransportTimeout
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport, SocketTransport
from repro.utils.bits import BitString


class TestInMemoryIsolation:
    def test_receiver_gets_fresh_copy(self, small_group, rng):
        transport = InMemoryTransport()
        element = small_group.random_g(rng)
        payload = [element, BitString(0b10, 2)]
        delivered = transport.send("P1", "P2", "m", payload)
        assert delivered == payload
        assert delivered is not payload
        assert delivered[0] is not element

    def test_mutating_sent_object_does_not_reach_receiver(self, small_group, rng):
        transport = InMemoryTransport()
        payload = [BitString(0b1, 1)]
        delivered = transport.send("P1", "P2", "m", payload)
        payload.append(BitString(0b0, 1))  # sender keeps writing
        assert len(delivered) == 1

    def test_transcript_records_sender_side_payload(self, small_group, rng):
        """Transcript bits must be what the sender put on the wire --
        independent of the decode on the receiving side."""
        transport = InMemoryTransport()
        element = small_group.random_gt(rng)
        transport.send("P1", "P2", "m", element)
        (message,) = transport.transcript()
        assert message.payload is element


class TestSocketTransport:
    def test_send_recv_round_trip(self, small_group, rng):
        transport = SocketTransport(timeout=10.0)
        transport.attach_group(small_group)
        transport.open("P1", "P2")
        element = small_group.random_g(rng)
        payload = (element, True, 42)
        transport.send("P1", "P2", "probe", payload)
        sender, label, received = transport.recv("P2")
        transport.close()
        assert (sender, label) == ("P1", "probe")
        assert received == payload
        assert received[0] is not element  # decoded fresh copy

    def test_mutate_after_send_does_not_reach_peer(self, small_group, rng):
        """The serialization proof: the payload is bytes in the socket
        buffer by the time send returns, so mutating the sender's object
        afterwards cannot affect what the peer decodes."""
        transport = SocketTransport(timeout=10.0)
        transport.attach_group(small_group)
        transport.open("P1", "P2")
        payload = [1, 2, 3]
        transport.send("P1", "P2", "m", payload)
        payload.clear()  # sender destroys its object after the send
        _, _, received = transport.recv("P2")
        transport.close()
        assert received == [1, 2, 3]

    def test_messages_cross_in_both_directions(self):
        transport = SocketTransport(timeout=10.0)
        transport.open("P1", "P2")
        transport.send("P1", "P2", "a", 1)
        transport.send("P2", "P1", "b", 2)
        assert transport.recv("P2")[2] == 1
        assert transport.recv("P1")[2] == 2
        transport.close()

    def test_eof_raises_peer_disconnected(self):
        transport = SocketTransport(timeout=10.0)
        transport.open("P1", "P2")
        transport.shutdown_party("P1")
        with pytest.raises(PeerDisconnected):
            transport.recv("P2")
        transport.close()

    def test_send_after_close_raises_peer_disconnected(self):
        transport = SocketTransport(timeout=10.0)
        transport.open("P1", "P2")
        transport.close()
        with pytest.raises(PeerDisconnected):
            transport.send("P1", "P2", "m", 1)

    def test_concurrent_sends_keep_transcript_consistent(self):
        transport = SocketTransport(timeout=10.0)
        transport.open("P1", "P2")
        n = 25

        def sender(me, peer):
            for i in range(n):
                transport.send(me, peer, f"{me}.m", i)

        threads = [
            threading.Thread(target=sender, args=("P1", "P2")),
            threading.Thread(target=sender, args=("P2", "P1")),
        ]
        for t in threads:
            t.start()
        for i in range(n):  # drain interleaved with the sends
            assert transport.recv("P2")[2] == i
            assert transport.recv("P1")[2] == i
        for t in threads:
            t.join()
        transport.close()
        assert len(transport.transcript()) == 2 * n


class TestSilentPeer:
    def test_silent_peer_recv_raises_transport_timeout(self):
        """Nobody sends: the blocking read gives up after the configured
        timeout with a classified TransportTimeout, never a raw
        socket.timeout."""
        transport = SocketTransport(timeout=0.1)
        transport.open("P1", "P2")
        with pytest.raises(TransportTimeout) as info:
            transport.recv("P2")
        transport.close()
        assert info.value.timeout == 0.1
        assert isinstance(info.value, ProtocolError)  # engine abort paths see it

    def test_timeout_is_classified_transient(self):
        from repro.runtime import TRANSIENT, classify_fault

        assert classify_fault(TransportTimeout("silent", timeout=0.1)) == TRANSIENT

    def test_shutdown_mid_recv_raises_peer_disconnected(self):
        """A peer that dies while we block in recv surfaces promptly as
        PeerDisconnected (EOF), not as a timeout."""
        transport = SocketTransport(timeout=10.0)
        transport.open("P1", "P2")
        errors = []

        def reader():
            try:
                transport.recv("P2")
            except ProtocolError as exc:
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        transport.shutdown_party("P1")
        thread.join(timeout=5.0)
        transport.close()
        assert not thread.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], PeerDisconnected)

    def test_supervisor_retries_silent_peer_and_completes(self, small_params):
        """End to end: a delayed frame trips the peer's read timeout; the
        engine surfaces the timeout (not the secondary disconnect), the
        supervisor classifies it transient, retries, and the period
        completes on the clean re-run."""
        from repro.protocol.faults import DELAY, FaultRule, FaultyTransport
        from repro.runtime import RetryPolicy, SessionSupervisor, TRANSIENT

        scheme = DLR(small_params)
        generation = scheme.generate(random.Random(8))
        inner = SocketTransport(timeout=0.3)
        faulty = FaultyTransport(inner=inner, seed=0)
        # Stall one frame for longer than the socket timeout: the peer
        # times out first (silent peer), the stalled sender then hits
        # the closed endpoint.
        faulty.add_rule(
            FaultRule(mode=DELAY, label="dec.c_prime", delay_seconds=0.6)
        )
        supervisor = SessionSupervisor.start(
            scheme,
            faulty,
            public_key=generation.public_key,
            share1=generation.share1,
            share2=generation.share2,
            periods=1,
            seed=13,
            policy=RetryPolicy(base_backoff=0.0, jitter=0.0),
        )
        result = supervisor.run()
        assert result.periods_completed == 1
        retried = result.log.retried()
        assert len(retried) == 1
        assert retried[0].classification == TRANSIENT
        assert retried[0].fault == "TransportTimeout"

    def test_fault_beats_secondary_disconnect_in_classification(self, small_params):
        """When one party dies of an injected fault and the other of the
        resulting EOF, the surfaced error is the original fault."""
        from repro.protocol.faults import DROP, FaultRule, FaultyTransport

        scheme = DLR(small_params)
        rng = random.Random(9)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        faulty = FaultyTransport(inner=SocketTransport(timeout=5.0))
        faulty.add_rule(FaultRule(mode=DROP, label="dec.c_prime"))
        ciphertext = scheme.encrypt(
            generation.public_key, scheme.group.random_gt(rng), rng
        )
        with pytest.raises(FaultInjected):
            scheme.run_period(p1, p2, faulty, ciphertext)


class TestProtocolOverSockets:
    def test_dlr_decrypt_protocol_end_to_end(self, small_params):
        """The real decryption protocol, P1 and P2 in separate threads
        over a socket pair, payloads crossing as bytes with the full
        subgroup check."""
        scheme = DLR(small_params)
        rng = random.Random(21)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)

        transport = SocketTransport(timeout=10.0)
        assert scheme.decrypt_protocol(p1, p2, transport, ciphertext) == message

    def test_run_period_socket_transcript_matches_in_memory(self, small_params):
        """Same seed, two wires: the public transcript is bit-identical,
        so nothing about the transport leaks into the adversary's view."""

        def one_run(transport):
            scheme = DLR(small_params)
            rng = random.Random(77)
            generation = scheme.generate(rng)
            p1 = Device("P1", scheme.group, rng)
            p2 = Device("P2", scheme.group, rng)
            scheme.install(p1, p2, generation.share1, generation.share2)
            message = scheme.group.random_gt(rng)
            ciphertext = scheme.encrypt(generation.public_key, message, rng)
            record = scheme.run_period(p1, p2, transport, ciphertext)
            assert record.plaintext == message
            return transport.transcript_bits()

        in_memory = one_run(InMemoryTransport())
        over_socket = one_run(SocketTransport(timeout=10.0))
        assert in_memory == over_socket
