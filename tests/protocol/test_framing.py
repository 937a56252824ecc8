"""Frame reads trust no declared length.

A frame header's lengths come from the peer.  ``recv_frame`` must never
size a buffer from them: a header that declares more bytes than the peer
sends ends as ``PeerDisconnected`` (EOF) or ``TransportTimeout`` (silence),
which the key service answers or counts, never as ``MemoryError``.
"""

import json
import socket
import threading

import pytest

from repro.errors import PeerDisconnected, TransportTimeout
from repro.protocol.transport import encode_frame, recv_frame

HUGE = 1 << 62


def lying_frame_prefix() -> bytes:
    """A complete header followed by a 2^62-byte payload length."""
    header = json.dumps({"op": "ping"}).encode("utf-8")
    return len(header).to_bytes(4, "big") + header + HUGE.to_bytes(8, "big")


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(0.5)
    yield left, right
    left.close()
    right.close()


class TestDeclaredLengths:
    def test_header_then_eof(self, pair):
        left, right = pair
        left.sendall(lying_frame_prefix() + b"a few payload bytes")
        left.close()
        with pytest.raises(PeerDisconnected):
            recv_frame(right, "server", timeout=0.5)

    def test_header_then_silence(self, pair):
        left, right = pair
        left.sendall(lying_frame_prefix())
        with pytest.raises(TransportTimeout):
            recv_frame(right, "server", timeout=0.5)

    def test_huge_header_length_then_eof(self, pair):
        left, right = pair
        left.sendall((2**32 - 1).to_bytes(4, "big") + b"{")
        left.close()
        with pytest.raises(PeerDisconnected):
            recv_frame(right, "server", timeout=0.5)

    def test_payload_larger_than_one_read(self, pair):
        left, right = pair
        payload = bytes(range(256)) * 1024  # 256 KiB: several reads
        writer = threading.Thread(
            target=left.sendall, args=(encode_frame({"op": "x"}, payload),)
        )
        writer.start()
        right.settimeout(5.0)
        header, received = recv_frame(right, "server", timeout=5.0)
        writer.join(timeout=5.0)
        assert not writer.is_alive()
        assert header == {"op": "x"}
        assert received == payload
