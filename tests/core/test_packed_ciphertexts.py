"""Packed HPSKE ciphertexts encode exactly as their element wrappers do.

An :class:`~repro.core.hpske.HPSKECiphertext` holds its coordinates as
one tuple of raw kernel-form values.  Every encoding of it -- its own
``to_bits``, ``encode_any``, the in-process walk's transcript bits and
the wire codec's bytes -- must equal the per-element encodings of its
wrapper form, concatenated, and building it from wrappers must give the
same tuple back.  The ciphertexts here come straight out of the kernels
(HPSKE encryption, weighted products, the pairing transport) on both
kernel sets, with ``G`` coordinates at infinity among them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hpske import HPSKE, HPSKECiphertext, pair_ciphertexts, weighted_product
from repro.errors import WireFormatError
from repro.groups import preset_group
from repro.groups.bilinear import G1Element
from repro.protocol.transport import InMemoryTransport, _walk
from repro.utils.bits import BitString, concat_all
from repro.utils.serialization import WireCodec, encode_any, int_width, sniff_group
from tests.conftest import KERNEL_SETS, kernel_set

GROUP = preset_group(32)
WIDTH = int_width(GROUP.q)

#: How a drawn ciphertext is made from a fresh ``encrypt_batch``.
KINDS = ("encrypt", "product", "cancel", "pair", "pair-cancel", "identity-coins")


def element_bits(element) -> BitString:
    """An element's transcript encoding, written out from its definition:
    infinity flag, ``x`` and the parity of ``y`` for ``G``; both
    coordinates for ``GT``."""
    if isinstance(element, G1Element):
        point = element.point
        if point.infinity:
            return BitString(0, WIDTH + 2)
        return BitString((((1 << WIDTH) | point.x) << 1) | (point.y & 1), WIDTH + 2)
    return BitString((element.value.a << WIDTH) | element.value.b, 2 * WIDTH)


def element_wire(element) -> bytes:
    """An element's wire-codec bytes: tag, bit count, bits."""
    bits = element_bits(element)
    tag = 0x09 if isinstance(element, G1Element) else 0x0A
    return bytes([tag, len(bits)]) + bits.to_bytes()


def make(kind: str, space: str, kappa: int, seed: int) -> HPSKECiphertext:
    rng = random.Random(seed)
    if kind.startswith("pair"):
        space = "G"
    scheme = HPSKE(GROUP, kappa, space)
    key = scheme.keygen(rng)
    sample = GROUP.random_g if space == "G" else GROUP.random_gt
    messages = [sample(rng) for _ in range(3)]
    first, second, third = scheme.encrypt_batch(key, messages, rng)
    p = GROUP.p
    if kind == "encrypt":
        return first
    if kind == "product":
        exponents = [rng.choice([0, 1, p - 1, rng.randrange(p)]) for _ in range(3)]
        if not any(exponents):
            exponents[0] = 1
        return weighted_product([first, second, third], exponents)
    exponent = rng.randrange(1, p)
    cancelled = weighted_product([first, first], [exponent, p - exponent])
    if kind == "cancel":
        return cancelled
    point = GROUP.pairing_precomp(GROUP.g ** rng.randrange(1, p))
    if kind == "pair":
        return pair_ciphertexts(point, [first, second])[1]
    if kind == "pair-cancel":
        return pair_ciphertexts(point, [cancelled])[0]
    # Wrappers with identity coins beside kernel-made ones.
    coins = list(first.coins)
    coins[rng.randrange(kappa)] = (
        GROUP.g_identity() if space == "G" else GROUP.gt_identity()
    )
    return HPSKECiphertext(tuple(coins), first.body)


class TestPackedEncodings:
    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    @given(
        kind=st.sampled_from(KINDS),
        space=st.sampled_from(["G", "GT"]),
        kappa=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_encoding_is_the_elements_concatenated(
        self, kernels, kind, space, kappa, seed
    ):
        with kernel_set(kernels):
            ciphertext = make(kind, space, kappa, seed)
            elements = ciphertext.elements()
            expected = concat_all(element_bits(element) for element in elements)
            if kind == "cancel" and ciphertext.carrier is G1Element:
                assert set(ciphertext.values) == {None}

            assert ciphertext.to_bits() == expected
            assert encode_any(ciphertext) == expected
            assert encode_any([ciphertext, (ciphertext,)]) == concat_all(
                [expected, expected]
            )

            bits, copy, error = _walk(ciphertext)
            assert error is None and bits == expected
            assert copy == ciphertext and copy is not ciphertext
            assert copy.values is ciphertext.values and copy.group is ciphertext.group
            assert InMemoryTransport().payload_bits((ciphertext,)) == expected

            codec = WireCodec(GROUP)
            wire = codec.encode(ciphertext)
            assert wire == bytes([0x0B, kappa]) + b"".join(map(element_wire, elements))
            decoded = codec.decode(wire)
            assert decoded == ciphertext and decoded.to_bits() == expected

    @pytest.mark.parametrize("kernels", KERNEL_SETS)
    @given(
        kind=st.sampled_from(KINDS),
        space=st.sampled_from(["G", "GT"]),
        seed=st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=20, deadline=None)
    def test_wrappers_round_trip_to_the_same_tuple(self, kernels, kind, space, seed):
        with kernel_set(kernels):
            ciphertext = make(kind, space, 3, seed)
        rebuilt = HPSKECiphertext(ciphertext.coins, ciphertext.body)
        assert rebuilt.values == ciphertext.values
        assert rebuilt.carrier is ciphertext.carrier
        assert rebuilt == ciphertext and hash(rebuilt) == hash(ciphertext)
        assert sniff_group([1, (ciphertext,)]) is ciphertext.group


class TestMixedCarriers:
    def test_construction_raises_the_codec_error(self):
        with pytest.raises(WireFormatError, match="only G or only GT"):
            HPSKECiphertext((GROUP.g,), GROUP.gt_identity())
        with pytest.raises(WireFormatError, match="only G or only GT"):
            HPSKECiphertext((GROUP.gt_identity(),), GROUP.g)

    def test_decoding_a_mixed_ciphertext_raises_the_codec_error(self):
        codec = WireCodec(GROUP)
        wire = bytes([0x0B, 1]) + codec.encode(GROUP.g) + codec.encode(GROUP.gt_generator())
        with pytest.raises(WireFormatError, match="only G or only GT"):
            codec.decode(wire)
