"""Exact-length bit strings.

Leakage accounting in the continual-memory-leakage model is in *bits*:
budgets ``b_i`` bound the total number of output bits of the leakage
functions, and leakage rates divide by the bit size of the secret memory.
Python has no native fixed-width bit string, so :class:`BitString` wraps
an integer together with an explicit length and supports the operations
leakage functions need (slicing, projection, XOR, Hamming weight).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import ParameterError


class BitString:
    """An immutable sequence of bits of explicit length.

    Bit 0 is the most significant bit of the underlying integer, so
    ``BitString.from_int(0b101, 3)`` is the sequence ``1, 0, 1``.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, value: int, length: int) -> None:
        if length < 0:
            raise ParameterError("bit length must be non-negative")
        if value < 0 or value >> length:
            raise ParameterError(f"value does not fit in {length} bits")
        self._value = value
        self._length = length

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        return cls(value, length)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        value = 0
        length = 0
        for bit in bits:
            if bit not in (0, 1):
                raise ParameterError("bits must be 0 or 1")
            value = (value << 1) | bit
            length += 1
        return cls(value, length)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitString":
        return cls(int.from_bytes(data, "big"), 8 * len(data))

    @classmethod
    def empty(cls) -> "BitString":
        return cls(0, 0)

    @property
    def value(self) -> int:
        return self._value

    def __len__(self) -> int:
        return self._length

    def __int__(self) -> int:
        return self._value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __getitem__(self, index: int | slice) -> "int | BitString":
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                raise ParameterError("bit slices must be contiguous")
            width = max(stop - start, 0)
            value = (self._value >> (self._length - stop)) & ((1 << width) - 1)
            return BitString(value, width)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("bit index out of range")
        return self.bit(index)

    def bit(self, index: int) -> int:
        """Return bit ``index`` (0 = most significant)."""
        if not 0 <= index < self._length:
            raise IndexError("bit index out of range")
        return (self._value >> (self._length - 1 - index)) & 1

    def __iter__(self) -> Iterator[int]:
        return (self.bit(i) for i in range(self._length))

    def concat(self, other: "BitString") -> "BitString":
        return BitString((self._value << len(other)) | other._value, self._length + len(other))

    def __add__(self, other: "BitString") -> "BitString":
        return self.concat(other)

    def xor(self, other: "BitString") -> "BitString":
        if len(other) != self._length:
            raise ParameterError("XOR of bit strings of different lengths")
        return BitString(self._value ^ other._value, self._length)

    def hamming_weight(self) -> int:
        return self._value.bit_count()

    def project(self, indices: Iterable[int]) -> "BitString":
        """Return the sub-string consisting of the given bit positions."""
        return BitString.from_bits(self.bit(i) for i in indices)

    def to_bytes(self) -> bytes:
        return self._value.to_bytes((self._length + 7) // 8 or 1, "big")

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"BitString({format(self._value, f'0{self._length}b')})"
        return f"BitString(<{self._length} bits>)"


def concat_all(pieces: Iterable[BitString]) -> BitString:
    """Concatenate many bit strings (one pass, one result object)."""
    value = 0
    length = 0
    for piece in pieces:
        value = (value << piece._length) | piece._value
        length += piece._length
    return BitString(value, length)
