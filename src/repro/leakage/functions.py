"""Polynomial-time, length-shrinking leakage functions.

The adversary chooses arbitrary polynomial-time computable functions with
bounded output length (section 3.2).  We model them as callables on a
:class:`LeakageInput` -- the secret memory of one device during one phase
plus the public information ``pub^t`` -- returning a
:class:`~repro.utils.bits.BitString` whose length is checked against the
declared bound by the oracle.

The concrete functions here cover the strategies our security-game
adversaries use: raw bit windows, projections, inner products (the
canonical "hard-to-simulate" leakage), Hamming weight, and arbitrary
user code wrapped with an output-length cap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.errors import ParameterError
from repro.protocol.memory import PhaseSnapshot
from repro.protocol.transport import Message
from repro.utils.bits import BitString


@dataclass
class LeakageInput:
    """What one leakage function sees.

    ``snapshot`` is the device's secret memory over the phase (share +
    secret randomness + intermediates); ``public`` is the public
    information ``pub^t`` of that time period (transcript messages and
    public memory contents), which the model folds into the leakage input
    so function choice can depend on it.
    """

    snapshot: PhaseSnapshot
    public: list[Message]

    def secret_bits(self) -> BitString:
        return self.snapshot.to_bits()

    def secret_value(self, name: str) -> object:
        return self.snapshot.get(name)


class LeakageFunction:
    """Base class: a named function with a declared output length."""

    def __init__(self, output_length: int) -> None:
        if output_length < 0:
            raise ParameterError("leakage output length must be >= 0")
        self.output_length = output_length

    def __call__(self, leak_input: LeakageInput) -> BitString:
        result = self.evaluate(leak_input)
        if len(result) > self.output_length:
            raise ParameterError(
                f"{type(self).__name__} produced {len(result)} bits, "
                f"declared {self.output_length}"
            )
        return result

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        raise NotImplementedError


class NullLeakage(LeakageFunction):
    """Leaks nothing (the adversary may decline to leak in a period)."""

    def __init__(self) -> None:
        super().__init__(0)

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        return BitString.empty()


class PrefixBits(LeakageFunction):
    """The first ``k`` bits of the secret memory."""

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        bits = leak_input.secret_bits()
        return bits[: min(self.output_length, len(bits))]


class BitProjection(LeakageFunction):
    """Selected bit positions of the secret memory.

    Total: an index beyond the end of the snapshot reads as 0, so the
    output is always exactly ``len(indices)`` bits -- the declared
    ``output_length`` the oracle charges against.
    """

    def __init__(self, indices: list[int]) -> None:
        super().__init__(len(indices))
        self.indices = indices

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        bits = leak_input.secret_bits()
        return BitString.from_bits(
            bits.bit(i) if i < len(bits) else 0 for i in self.indices
        )


class HammingWeight(LeakageFunction):
    """The Hamming weight of the secret memory, as a fixed-width integer."""

    def __init__(self, memory_bits: int) -> None:
        super().__init__(max(memory_bits.bit_length(), 1))
        self.memory_bits = memory_bits

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        weight = leak_input.secret_bits().hamming_weight()
        return BitString(min(weight, (1 << self.output_length) - 1), self.output_length)


class InnerProductBits(LeakageFunction):
    """``k`` inner products of the secret memory with fixed mask strings.

    Parity leakage is the classic example of leakage that cannot be
    answered from the public view alone.
    """

    def __init__(self, masks: list[BitString]) -> None:
        super().__init__(len(masks))
        self.masks = masks

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        bits = leak_input.secret_bits()
        out = []
        for mask in self.masks:
            usable = min(len(mask), len(bits))
            parity = 0
            for i in range(usable):
                parity ^= bits.bit(i) & mask.bit(i)
            out.append(parity)
        return BitString.from_bits(out)


class HashLeakage(LeakageFunction):
    """``k`` bits of SHA-256 of the secret memory -- a generic entropy-
    shrinking function an adversary might use to fingerprint the state."""

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        digest = hashlib.sha256(leak_input.secret_bits().to_bytes()).digest()
        full = BitString.from_bytes(digest)
        return full[: self.output_length]


class PythonLeakage(LeakageFunction):
    """An arbitrary adversary-supplied callable, with the length cap
    enforced by the base class."""

    def __init__(self, fn: Callable[[LeakageInput], BitString], output_length: int) -> None:
        super().__init__(output_length)
        self._fn = fn

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        return self._fn(leak_input)


class NoisyBits(LeakageFunction):
    """Side-channel-style probing: selected bits observed through a
    binary symmetric channel with crossover probability ``flip_prob``.

    Models physical measurements (power/EM traces) that read key bits
    imperfectly.  The noise is derived deterministically from a seed so
    game runs stay reproducible; from the model's perspective this is
    just another polynomial-time length-shrinking function.
    """

    def __init__(self, indices: list[int], flip_prob: float, seed: int = 0) -> None:
        super().__init__(len(indices))
        if not 0.0 <= flip_prob <= 1.0:
            raise ParameterError("flip probability must be in [0, 1]")
        self.indices = indices
        self.flip_prob = flip_prob
        self.seed = seed

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        import random as _random

        bits = leak_input.secret_bits()
        noise = _random.Random(self.seed)
        out = []
        for index in self.indices:
            # Total, like BitProjection: probing past the end reads 0
            # (the noise draw still happens, keeping traces aligned).
            bit = bits.bit(index) if index < len(bits) else 0
            if noise.random() < self.flip_prob:
                bit ^= 1
            out.append(bit)
        return BitString.from_bits(out)


class WordHammingWeights(LeakageFunction):
    """Per-word Hamming weights: the classic power-analysis observable.

    The secret memory is split into ``word_bits``-wide words and the
    Hamming weight of each of the first ``words`` words is reported at
    fixed width -- what a power trace of a ``word_bits``-bit datapath
    reveals per cycle.
    """

    def __init__(self, words: int, word_bits: int = 8) -> None:
        if words < 1 or word_bits < 1:
            raise ParameterError("words and word_bits must be positive")
        self.words = words
        self.word_bits = word_bits
        self._weight_width = word_bits.bit_length()
        super().__init__(words * self._weight_width)

    def evaluate(self, leak_input: LeakageInput) -> BitString:
        bits = leak_input.secret_bits()
        out = BitString.empty()
        for w in range(self.words):
            start = w * self.word_bits
            if start >= len(bits):
                break
            end = min(start + self.word_bits, len(bits))
            word = bits[start:end]
            assert isinstance(word, BitString)
            out = out + BitString(word.hamming_weight(), self._weight_width)
        return out
