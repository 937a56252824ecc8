"""Malformed wire bytes: ``WireCodec.decode`` fails only with typed errors.

Bytes from a socket are the peer's word.  Whatever they hold, decode
either returns a payload or raises ``WireFormatError`` (or
``GroupError`` for an element that fails its group checks) -- never a
``UnicodeDecodeError``, a ``RecursionError`` or anything else a
supervisor cannot classify.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dlr import DLR
from repro.core.params import DLRParams
from repro.errors import GroupError, WireFormatError
from repro.groups import preset_group
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport
from repro.utils.serialization import WireCodec

GROUP = preset_group(32)
CODEC = WireCodec(GROUP)


@lru_cache(maxsize=1)
def period_encodings() -> tuple[bytes, ...]:
    """The wire encoding of every message of one DLR period."""
    scheme = DLR(DLRParams(group=GROUP, lam=32))
    rng = random.Random(3)
    generated = scheme.generate(rng)
    p1 = Device("P1", GROUP, rng)
    p2 = Device("P2", GROUP, rng)
    scheme.install(p1, p2, generated.share1, generated.share2)
    channel = InMemoryTransport()
    ciphertext = scheme.encrypt(generated.public_key, GROUP.random_gt(rng), rng)
    scheme.run_period(p1, p2, channel, ciphertext)
    return tuple(CODEC.encode(message.payload) for message in channel.transcript())


def decode_typed(data: bytes) -> None:
    try:
        CODEC.decode(data)
    except (WireFormatError, GroupError):
        pass


class TestProbedInputs:
    def test_invalid_utf8_string(self):
        with pytest.raises(WireFormatError, match="UTF-8"):
            CODEC.decode(bytes.fromhex("0402fffe"))

    def test_deep_nesting(self):
        data = bytes([0x07, 0x01]) * 5000 + bytes([0x00])
        with pytest.raises(WireFormatError, match="nests deeper"):
            CODEC.decode(data)

    def test_nesting_within_the_bound_decodes(self):
        value = None
        for _ in range(20):
            value = (value,)
        assert CODEC.decode(CODEC.encode(value)) == value

    def test_ciphertext_of_ints(self):
        with pytest.raises(WireFormatError, match="only G or only GT"):
            CODEC.decode(bytes.fromhex("0b0103050306"))

    def test_ciphertext_of_mixed_carriers(self):
        g = CODEC.encode(GROUP.g)
        gt = CODEC.encode(GROUP.gt_identity())
        with pytest.raises(WireFormatError, match="only G or only GT"):
            CODEC.decode(bytes([0x0B, 0x01]) + g + gt)

    def test_period_payloads_decode(self):
        encodings = period_encodings()
        assert len(encodings) >= 4
        for data in encodings:
            CODEC.decode(data)


#: Random bytes that lean towards wire tags and short lengths, so the
#: fuzzer gets past the first tag byte often.
tag_heavy_bytes = st.lists(
    st.one_of(st.integers(min_value=0, max_value=0x0D), st.integers(0, 255)),
    max_size=64,
).map(bytes)


class TestFuzz:
    @given(data=st.one_of(st.binary(max_size=256), tag_heavy_bytes))
    @settings(max_examples=400, deadline=None)
    def test_random_bytes(self, data):
        decode_typed(data)

    @given(
        index=st.integers(min_value=0, max_value=10**6),
        cut=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_truncated_period_payloads(self, index, cut):
        encodings = period_encodings()
        data = encodings[index % len(encodings)]
        decode_typed(data[: cut % len(data)])

    @given(
        index=st.integers(min_value=0, max_value=10**6),
        flips=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=1, max_value=255),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_flipped_period_payloads(self, index, flips):
        encodings = period_encodings()
        data = bytearray(encodings[index % len(encodings)])
        for position, mask in flips:
            data[position % len(data)] ^= mask
        decode_typed(bytes(data))
