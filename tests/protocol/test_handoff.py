"""The in-process handoff: what ``InMemoryTransport.send`` delivers.

In the paper's model the two devices have disjoint secret memories and
talk only over the public channel.  In one process that means the
receiver must get a copy that shares no mutable object with the
sender's payload.  The copy must also be exactly what the wire codec
would decode, and a malformed element must be refused as the codec's
decode would refuse it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dlr import DLR
from repro.core.hpske import HPSKECiphertext
from repro.core.optimal import OptimalDLR
from repro.errors import GroupError, ParameterError, WireFormatError
from repro.groups import preset_group
from repro.groups.bilinear import G1Element, GTElement
from repro.groups.curve import Point
from repro.ibe.dlr_ibe import DLRIBE
from repro.math.fields import Fq2
from repro.protocol.device import Device, _ScalarInMemory
from repro.protocol.transport import InMemoryTransport
from repro.utils.bits import BitString
from repro.utils.serialization import WireCodec, encode_any
from tests.conftest import KERNEL_SETS, kernel_set

#: Wrappers and containers the handoff must rebuild.
REBUILT = (tuple, list, HPSKECiphertext, G1Element, GTElement, _ScalarInMemory, BitString)
#: Frozen leaves the handoff may share with the sender.
SHARED_LEAVES = (Point, Fq2, int, str, bytes, type(None))


class RecordingTransport(InMemoryTransport):
    """An in-memory transport that keeps every (sent, delivered) pair."""

    def __init__(self):
        super().__init__()
        self.deliveries = []

    def send(self, sender, recipient, label, payload):
        delivered = super().send(sender, recipient, label, payload)
        self.deliveries.append((label, payload, delivered))
        return delivered


def reachable(value):
    """Every object reachable from a payload, the element leaves included.

    A ciphertext's ``coins`` and ``body`` are wrappers built on access,
    so the returned list is what keeps them alive.  Its packed
    coordinate tuple holds only ints (``None`` at infinity), which are
    visited as frozen leaves; the tuple itself may be shared."""
    seen = []
    stack = [value]
    while stack:
        item = stack.pop()
        seen.append(item)
        if isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, HPSKECiphertext):
            stack.append(item.coins)
            stack.append(item.body)
            for coordinate in item.values:
                seen.extend((coordinate,) if coordinate is None else coordinate)
        elif isinstance(item, G1Element):
            stack.append(item.point)
        elif isinstance(item, GTElement):
            stack.append(item.value)
    return seen


def assert_disjoint(sent, delivered):
    # Both object lists stay alive while their ids are compared, so no
    # wrapper built on access can free an id for the other side to reuse.
    sent_objects = reachable(sent)
    sender_ids = {id(item) for item in sent_objects}
    delivered_objects = reachable(delivered)
    for item in delivered_objects:
        if type(item) is tuple and not item:
            continue  # the interpreter's one immutable empty tuple
        if isinstance(item, REBUILT):
            assert id(item) not in sender_ids, f"shared {type(item).__name__}"
        else:
            assert isinstance(item, SHARED_LEAVES), type(item).__name__


def devices(scheme, share1, share2, seed=2):
    rng = random.Random(seed)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, share1, share2)
    return p1, p2


class TestDisjointMemories:
    """Full protocol periods: no delivered payload shares a mutable
    object with the payload its sender still holds."""

    @pytest.mark.parametrize("scheme_cls", [DLR, OptimalDLR])
    def test_decrypt_and_refresh_periods(self, small_params, scheme_cls):
        scheme = scheme_cls(small_params)
        rng = random.Random(5)
        generated = scheme.generate(rng)
        p1, p2 = devices(scheme, generated.share1, generated.share2)
        channel = RecordingTransport()
        for _ in range(2):
            message = scheme.group.random_gt(rng)
            ciphertext = scheme.encrypt(generated.public_key, message, rng)
            assert scheme.run_period(p1, p2, channel, ciphertext).plaintext == message
        labels = {label for label, _, _ in channel.deliveries}
        assert any(label.startswith("dec.") for label in labels), labels
        assert any(label.startswith("ref.") for label in labels), labels
        for _, sent, delivered in channel.deliveries:
            assert_disjoint(sent, delivered)

    def test_ibe_extract_decrypt_and_refresh(self, small_params):
        scheme = DLRIBE(small_params, n_id=4)
        rng = random.Random(6)
        setup = scheme.setup(rng)
        pp = setup.public_params
        p1, p2 = devices(scheme, setup.share1, setup.share2)
        channel = RecordingTransport()
        scheme.extract_protocol(pp, p1, p2, channel, "alice")
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt_to(pp, "alice", message, rng)
        assert scheme.decrypt_protocol_id(p1, p2, channel, "alice", ciphertext) == message
        scheme.refresh_identity_protocol(pp, p1, p2, channel, "alice")
        scheme.refresh_protocol(p1, p2, channel)
        labels = {label for label, _, _ in channel.deliveries}
        assert any(label.startswith("ext.") for label in labels), labels
        assert len(channel.deliveries) >= 6
        for _, sent, delivered in channel.deliveries:
            assert_disjoint(sent, delivered)


# ---------------------------------------------------------------------------
# Equal to the codec's decode, on both kernel sets

GROUP = preset_group(32)


class IntSubclass(int):
    """An ``int`` subclass leaf: the codec decodes it as a plain int."""


exponents = st.integers(min_value=0, max_value=GROUP.p - 1)
g_elements = exponents.map(lambda k: GROUP.g ** k)
gt_elements = exponents.map(lambda k: GROUP.gt_generator() ** k)


@st.composite
def hpske_ciphertexts(draw):
    space = draw(st.sampled_from(["G", "GT"]))
    elements = g_elements if space == "G" else gt_elements
    kappa = draw(st.integers(min_value=0, max_value=3))
    coins = tuple(draw(elements) for _ in range(kappa))
    return HPSKECiphertext(coins, draw(elements))


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**80),
    st.integers(min_value=0, max_value=2**40).map(IntSubclass),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.integers(min_value=0, max_value=64).flatmap(
        lambda n: st.builds(BitString, st.integers(0, (1 << n) - 1), st.just(n))
    ),
    g_elements,
    gt_elements,
    st.just(GROUP.g_identity()),
    st.just(GROUP.gt_identity()),
    exponents.map(lambda k: _ScalarInMemory(k, GROUP.p)),
    hpske_ciphertexts(),
)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple)
    ),
    max_leaves=12,
)


def assert_same(actual, expected):
    """Type- and value-equal, down to plain-int leaves."""
    assert type(actual) is type(expected), (type(actual), type(expected))
    if isinstance(expected, (tuple, list)):
        assert len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_same(a, e)
    elif isinstance(expected, HPSKECiphertext):
        assert_same(actual.coins, expected.coins)
        assert_same(actual.body, expected.body)
    elif isinstance(expected, G1Element):
        assert actual.group is expected.group
        assert actual.point == expected.point
        assert type(actual.point.x) is int and type(actual.point.y) is int
    elif isinstance(expected, GTElement):
        assert actual.group is expected.group
        assert actual.value == expected.value
        assert type(actual.value.a) is int and type(actual.value.b) is int
    elif isinstance(expected, _ScalarInMemory):
        assert (actual.value, actual.p) == (expected.value, expected.p)
        assert type(actual.value) is int and type(actual.p) is int
    elif isinstance(expected, BitString):
        assert (actual.value, len(actual)) == (expected.value, len(expected))
        assert type(actual.value) is int
    else:
        assert actual == expected


class TestEqualsCodecRoundTrip:
    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    @given(data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_payload_trees(self, kernels, data):
        """The copy equals the codec's decode, and the recorded bits equal
        ``encode_any``'s, whether the send was sized first (as the engine
        does) or not."""
        with kernel_set(kernels):
            payload = data.draw(payloads)
            codec = WireCodec(GROUP)
            expected = codec.decode(codec.encode(payload))
            try:
                bits = encode_any(payload)
            except ParameterError:
                bits = None  # None or a str: no transcript encoding
            bare, sized = InMemoryTransport(), InMemoryTransport()
            delivered = [bare.send("P1", "P2", "m", payload)]
            if bits is None:
                with pytest.raises(ParameterError):
                    sized.payload_bits(payload)
            else:
                assert sized.payload_bits(payload) == bits
            delivered.append(sized.send("P1", "P2", "m", payload))
        for transport, copy in zip((bare, sized), delivered):
            assert_same(copy, expected)
            assert_disjoint(payload, copy)
            (message,) = transport.transcript()
            if bits is None:
                with pytest.raises(ParameterError):
                    message.to_bits()
            else:
                assert message.to_bits() == bits

    def test_every_protocol_message(self, small_params):
        """Each message of a DLR and an OptimalDLR period."""
        for scheme_cls in (DLR, OptimalDLR):
            scheme = scheme_cls(small_params)
            rng = random.Random(9)
            generated = scheme.generate(rng)
            p1, p2 = devices(scheme, generated.share1, generated.share2)
            channel = RecordingTransport()
            ciphertext = scheme.encrypt(generated.public_key, scheme.group.random_gt(rng), rng)
            scheme.run_period(p1, p2, channel, ciphertext)
            codec = WireCodec(scheme.group)
            for _, sent, delivered in channel.deliveries:
                assert_same(delivered, codec.decode(codec.encode(sent)))

    def test_unwireable_payload_passes_through(self):
        payload = [1, object()]
        assert InMemoryTransport().send("P1", "P2", "m", payload) is payload

    def test_payload_without_transcript_encoding_hands_off(self):
        """``None`` and ``str`` cross the wire but have no transcript
        encoding: the copy is made, and the bits raise only when read."""
        payload = (None, "label", [GROUP.g])
        transport = InMemoryTransport()
        delivered = transport.send("P1", "P2", "m", payload)
        codec = WireCodec(GROUP)
        assert_same(delivered, codec.decode(codec.encode(payload)))
        (message,) = transport.transcript()
        with pytest.raises(ParameterError, match="NoneType"):
            message.to_bits()
        with pytest.raises(ParameterError, match="NoneType"):
            InMemoryTransport().payload_bits(payload)


# ---------------------------------------------------------------------------
# Malformed elements are refused


def send(payload):
    """Send ``payload``; whatever the send raises, the message must be on
    the transcript first (the adversary sees every attempted frame)."""
    transport = InMemoryTransport()
    try:
        return transport.send("P1", "P2", "m", payload)
    finally:
        (message,) = transport.transcript()
        assert message.payload is payload


class TestRejections:
    def _g(self, x, y):
        return G1Element(GROUP, Point(x, y, False))

    def test_off_curve_point(self):
        good = GROUP.g.point
        with pytest.raises(GroupError, match="not on the curve"):
            send(self._g(good.x, (good.y + 1) % GROUP.q))

    def test_two_torsion_point(self):
        # (0, 0) is on y^2 = x^3 + x but has order 2.
        with pytest.raises(GroupError, match="2-torsion"):
            send(self._g(0, 0))

    @pytest.mark.parametrize("shift", ["x", "y"])
    def test_out_of_range_point(self, shift):
        good = GROUP.g.point
        x = good.x + GROUP.q if shift == "x" else good.x
        y = good.y + GROUP.q if shift == "y" else good.y
        with pytest.raises(GroupError, match="out of field range"):
            send(self._g(x, y))
        with pytest.raises(GroupError, match="out of field range"):
            send(self._g(-1, good.y) if shift == "x" else self._g(good.x, -1))

    def test_zero_gt(self):
        with pytest.raises(GroupError, match="zero"):
            send(GTElement(GROUP, Fq2._from_reduced(0, 0, GROUP.q)))

    def test_out_of_range_gt(self):
        for a, b in ((GROUP.q, 1), (1, GROUP.q), (-1, 1)):
            with pytest.raises(GroupError, match="out of field range"):
                send(GTElement(GROUP, Fq2._from_reduced(a, b, GROUP.q)))

    def test_bad_element_nested_in_a_ciphertext(self):
        bad = self._g(0, 0)
        ciphertext = HPSKECiphertext((GROUP.g,), bad)
        with pytest.raises(GroupError):
            send(((ciphertext,), [1, 2]))

    def test_mixed_carrier_ciphertext(self):
        with pytest.raises(WireFormatError, match="only G or only GT"):
            send(HPSKECiphertext((GROUP.g,), GROUP.gt_identity()))
        with pytest.raises(WireFormatError, match="only G or only GT"):
            send(HPSKECiphertext((3,), 5))

    def test_sized_bad_element_is_recorded_before_the_error(self):
        """In engine order the bad element is sized without a check, and
        ``send`` records it before it raises."""
        payload = (self._g(0, 0),)
        transport = InMemoryTransport()
        bits = transport.payload_bits(payload)
        assert bits == encode_any(payload)
        with pytest.raises(GroupError, match="2-torsion"):
            transport.send("P1", "P2", "m", payload)
        (message,) = transport.transcript()
        assert message.payload is payload and message.to_bits() is bits

    def test_scalar_modulus_below_two(self):
        with pytest.raises(WireFormatError, match="modulus"):
            send(_ScalarInMemory(0, 1))
