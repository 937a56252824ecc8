"""Homomorphic proxy secret key encryption (paper Definition 5.1, Lemma 5.2).

The Lemma 5.2 construction: key ``sk_comm = (sigma_1..sigma_kappa)`` in
``Z_p^kappa``; a ciphertext for ``m`` in the carrier group ``G'`` is::

    (b_1, ..., b_kappa, m * prod_j b_j^{sigma_j})

with independent uniform coins ``b_j`` in ``G'``.  The same key encrypts
in *both* ``G`` and ``GT`` ("HPSKE for ell, G, GT") -- the decryption
protocol exploits exactly that, together with:

* **product homomorphism** (Definition 5.1, part 1): coordinate-wise
  product of ciphertexts decrypts to the product of plaintexts;
* **scalar homomorphism**: raising every coordinate to ``s`` turns an
  encryption of ``m`` into one of ``m^s`` (coins ``b_j^s``);
* **pairing transport** (section 5.2 remark): pairing each coordinate of
  a ``G``-ciphertext with a point ``A`` yields a valid ``GT``-ciphertext
  of ``e(A, m)`` under the *same* key -- this is how the refresh-protocol
  ciphertexts ``f_i`` are reused as the decryption-protocol ``d_i``.

Coins are sampled as random group elements with *unknown discrete logs*
(section 5.2 remark: "the discrete logarithms of the random coins b_ij
... are not exposed to leakage").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.errors import GroupError, ParameterError, WireFormatError
from repro.groups.bilinear import (
    BilinearGroup,
    G1Element,
    G1Precomp,
    GTElement,
    pack_raw,
)
from repro.utils.bits import BitString, concat_all
from repro.utils.serialization import encode_mod

Element = G1Element | GTElement


def weighted_product(
    ciphertexts: "tuple[HPSKECiphertext, ...] | list[HPSKECiphertext]",
    exponents: tuple[int, ...] | list[int],
) -> "HPSKECiphertext":
    """``prod_i ciphertexts[i] ** exponents[i]`` coordinate-wise, each
    coordinate evaluated as ONE multi-exponentiation.

    This is the product/scalar homomorphism of Definition 5.1 in fused
    form: the naive expression costs ``kappa + 1`` exponentiations *per
    ciphertext*; here every coordinate shares its squaring chain across
    all ciphertexts.  Division folds in for free -- an exponent of
    ``p - 1`` is ``-1`` in the order-``p`` carrier groups -- which is how
    the DLR combine steps express their trailing ``/ d_Phi``.
    """
    if not ciphertexts:
        raise ParameterError("weighted_product needs at least one ciphertext")
    if len(ciphertexts) != len(exponents):
        raise ParameterError("one exponent per ciphertext required")
    first = ciphertexts[0]
    group, carrier, width = first.group, first.carrier, len(first.values)
    for ciphertext in ciphertexts[1:]:
        if len(ciphertext.values) != width:
            raise GroupError("HPSKE ciphertexts of different widths")
        if ciphertext.carrier is not carrier or ciphertext.group.params is not group.params:
            raise GroupError("mixing elements of different groups")
    # The kappa + 1 coordinates are independent multiexp instances over
    # one shared exponent vector: one multiexp_batch call reduces it once
    # and shares the window decision and each round's inversion.
    exponents = tuple(exponents)
    columns = zip(*(ciphertext.values for ciphertext in ciphertexts))
    values = carrier.multiexp_batch([(column, exponents) for column in columns], group)
    return HPSKECiphertext._packed(group, carrier, tuple(values))


def pair_ciphertexts(
    point: G1Precomp,
    ciphertexts: "Sequence[HPSKECiphertext]",
) -> "list[HPSKECiphertext]":
    """Pairing-transport a whole vector of ``G``-ciphertexts against one
    fixed point: ``[c.pair_with(point) for c in ciphertexts]``, but all
    ``len(ciphertexts) * (kappa + 1)`` coordinates go through a single
    :meth:`~repro.groups.bilinear.G1Precomp.evaluate_many` -- one cached
    Miller schedule, one kernel call, from the packed ``G`` coordinates
    straight to the packed ``GT`` ones.  This is the decryption-batch
    hot leg (every ciphertext's ``f_i -> d_i`` reuse shares the same
    ``A``); values and counters match the per-ciphertext loop exactly.
    """
    group = point.group
    flat: list = []
    for ciphertext in ciphertexts:
        if ciphertext.carrier is not G1Element or ciphertext.group.params is not group.params:
            raise GroupError("pairing transport takes G-ciphertexts of the point's group")
        flat.extend(ciphertext.values)
    values = point.evaluate_many(flat)
    out: list[HPSKECiphertext] = []
    position = 0
    for ciphertext in ciphertexts:
        end = position + len(ciphertext.values)
        out.append(HPSKECiphertext._packed(group, GTElement, tuple(values[position:end])))
        position = end
    return out


@dataclass(frozen=True)
class HPSKEKey:
    """``sk_comm = (sigma_1, ..., sigma_kappa)`` in ``Z_p^kappa``."""

    sigma: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(s % self.p for s in self.sigma))

    @property
    def kappa(self) -> int:
        return len(self.sigma)

    def to_bits(self) -> BitString:
        return concat_all(encode_mod(s, self.p) for s in self.sigma)

    def size_bits(self) -> int:
        return len(self.to_bits())


class HPSKECiphertext:
    """A tuple ``(b_1..b_kappa, body)`` of elements of one carrier group,
    packed: ``values`` holds the coordinates, body last, in the raw form
    the kernels take and return (``(x, y)`` or ``None`` at infinity for
    ``G``, ``(a, b)`` for ``GT``), beside the ``group`` and the
    ``carrier`` element class.  Element wrappers are built only when
    :attr:`coins`, :attr:`body` or :meth:`elements` is asked for."""

    __slots__ = ("group", "carrier", "values")

    def __init__(self, coins: tuple[Element, ...], body: Element) -> None:
        """Pack wrappers: all ``G`` or all ``GT`` elements of one group."""
        carrier = G1Element if isinstance(body, G1Element) else GTElement
        if not all(isinstance(element, carrier) for element in (*coins, body)):
            raise WireFormatError("an HPSKE ciphertext holds only G or only GT elements")
        if any(coin.group.params is not body.group.params for coin in coins):
            raise GroupError("mixing elements of different groups")
        self.group, self.carrier = body.group, carrier
        self.values = (*(coin.raw for coin in coins), body.raw)

    @classmethod
    def _packed(cls, group: BilinearGroup, carrier: type, values: tuple) -> "HPSKECiphertext":
        ciphertext = object.__new__(cls)
        ciphertext.group, ciphertext.carrier, ciphertext.values = group, carrier, values
        return ciphertext

    @property
    def kappa(self) -> int:
        return len(self.values) - 1

    @property
    def coins(self) -> tuple[Element, ...]:
        return self.elements()[:-1]

    @property
    def body(self) -> Element:
        return self.carrier.from_raw(self.group, self.values[-1])

    def elements(self) -> tuple[Element, ...]:
        """The coordinates as element wrappers, body last."""
        carrier, group = self.carrier, self.group
        return tuple(carrier.from_raw(group, value) for value in self.values)

    def _check(self, other: "HPSKECiphertext") -> None:
        if self.kappa != other.kappa:
            raise GroupError("HPSKE ciphertexts of different widths")

    def __mul__(self, other: "HPSKECiphertext") -> "HPSKECiphertext":
        """Coordinate-wise product: ``Dec(c0 c1) = m0 m1`` (Def 5.1 part 1)."""
        self._check(other)
        return HPSKECiphertext(
            tuple(a * b for a, b in zip(self.coins, other.coins)),
            self.body * other.body,
        )

    def __truediv__(self, other: "HPSKECiphertext") -> "HPSKECiphertext":
        self._check(other)
        return HPSKECiphertext(
            tuple(a / b for a, b in zip(self.coins, other.coins)),
            self.body / other.body,
        )

    def __pow__(self, exponent: int) -> "HPSKECiphertext":
        """Scalar homomorphism: an encryption of ``m^exponent``."""
        return HPSKECiphertext(
            tuple(c ** exponent for c in self.coins), self.body ** exponent
        )

    def pair_with(self, point: G1Precomp) -> "HPSKECiphertext":
        """Transport a ``G``-ciphertext of ``m`` to a ``GT``-ciphertext of
        ``e(point, m)`` under the same key (the f_i -> d_i reuse).

        ``point`` is a :class:`~repro.groups.bilinear.G1Precomp` handle
        (:meth:`~repro.groups.bilinear.BilinearGroup.pairing_precomp`),
        so a caller pairing *many* ciphertexts against the same point
        (the run-period ``d_i`` derivation) runs the Miller schedule
        once.
        """
        return pair_ciphertexts(point, [self])[0]

    def to_bits(self) -> BitString:
        return BitString(*pack_raw(self.carrier, self.values, self.group.params.q))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HPSKECiphertext):
            return NotImplemented
        return self.carrier is other.carrier and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.carrier, self.values))

    def __repr__(self) -> str:
        return f"HPSKECiphertext(kappa={self.kappa})"


class HPSKE:
    """The Lemma 5.2 scheme over a chosen carrier group (``'G'`` or ``'GT'``)."""

    def __init__(self, group: BilinearGroup, kappa: int, space: str = "G") -> None:
        if kappa < 1:
            raise ParameterError("kappa must be at least 1")
        if space not in ("G", "GT"):
            raise ParameterError("space must be 'G' or 'GT'")
        self.group = group
        self.kappa = kappa
        self.space = space
        self._carrier = G1Element if space == "G" else GTElement
        self._sample = group.random_g_batch if space == "G" else group.random_gt_batch

    def keygen(self, rng: random.Random) -> HPSKEKey:
        """``Gen'(1^n)``: a uniform key in ``Z_p^kappa``."""
        p = self.group.p
        return HPSKEKey(tuple(rng.randrange(p) for _ in range(self.kappa)), p)

    def sample_coins(self, rng: random.Random) -> tuple[Element, ...]:
        """Fresh encryption randomness: kappa uniform carrier-group
        elements with unknown discrete logs."""
        return tuple(self._sample(rng, self.kappa))

    def encrypt(
        self,
        key: HPSKEKey,
        message: Element,
        rng: random.Random | None = None,
        coins: tuple[Element, ...] | None = None,
    ) -> HPSKECiphertext:
        """``Enc'_{sk_comm}(m) = (b_1..b_kappa, m prod b_j^{sigma_j})``."""
        if key.kappa != self.kappa:
            raise ParameterError("key width does not match scheme kappa")
        if coins is None:
            if rng is None:
                raise ParameterError("encrypt needs an rng or explicit coins")
            coins = self.sample_coins(rng)
        return self._encrypt(key, [message], coins)[0]

    def encrypt_batch(
        self,
        key: HPSKEKey,
        messages: "Sequence[Element]",
        rng: random.Random,
    ) -> list[HPSKECiphertext]:
        """``[encrypt(key, m, rng) for m in messages]`` as one vector.

        Coins come from ``rng`` in exactly the loop's order (all of the
        first message's coins, then the second's, ...), so the
        ciphertexts and the RNG state afterwards are identical.  The
        coins are drawn by one batch sampler of the carrier
        (:meth:`~repro.groups.bilinear.BilinearGroup.random_g_batch` or
        :meth:`~repro.groups.bilinear.BilinearGroup.random_gt_batch`),
        and every mask shares the exponent vector ``(1, sigma)``, so
        all masks go through one ``multiexp_batch`` call.  Operation
        counts equal the loop's.
        """
        if key.kappa != self.kappa:
            raise ParameterError("key width does not match scheme kappa")
        if not messages:
            return []
        return self._encrypt(key, messages, self._sample(rng, self.kappa * len(messages)))

    def _encrypt(self, key: HPSKEKey, messages, coins) -> list[HPSKECiphertext]:
        """Each message ``m`` with the next ``kappa`` coins: the masks
        ``m * prod b_j^{sigma_j}`` (the message rides along with exponent
        1) as one packed multiexp batch."""
        if len(coins) != self.kappa * len(messages):
            raise ParameterError("wrong number of coins")
        carrier, group = self._carrier, self.group
        for element in (*messages, *coins):
            if not isinstance(element, carrier) or element.group.params is not group.params:
                raise GroupError(f"HPSKE over {self.space} takes elements of its own group")
        raw = [coin.raw for coin in coins]
        grouped = [tuple(raw[i : i + self.kappa]) for i in range(0, len(raw), self.kappa)]
        exponents = (1, *key.sigma)
        masks = carrier.multiexp_batch(
            [((m.raw, *coins_m), exponents) for m, coins_m in zip(messages, grouped)], group
        )
        return [
            HPSKECiphertext._packed(group, carrier, (*coins_m, mask))
            for coins_m, mask in zip(grouped, masks)
        ]

    def decrypt(self, key: HPSKEKey, ciphertext: HPSKECiphertext) -> Element:
        """``Dec'_{sk_comm}(b_1..b_kappa, b_0) = b_0 / prod b_j^{sigma_j}``."""
        if ciphertext.kappa != self.kappa:
            raise ParameterError("ciphertext width does not match scheme kappa")
        # Division folds into the multiexp: x^{p - sigma} = x^{-sigma} in
        # the order-p carrier groups.
        p = self.group.p
        carrier, group, values = ciphertext.carrier, ciphertext.group, ciphertext.values
        (plaintext,) = carrier.multiexp_batch(
            [((values[-1], *values[:-1]), (1, *((p - sigma) % p for sigma in key.sigma)))],
            group,
        )
        return carrier.from_raw(group, plaintext)

    def ciphertext_bits(self) -> int:
        """Encoded size of one ciphertext (for communication accounting)."""
        per = (
            self.group.g_element_bits()
            if self.space == "G"
            else self.group.gt_element_bits()
        )
        return (self.kappa + 1) * per
