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

from repro.errors import GroupError, ParameterError
from repro.groups.bilinear import BilinearGroup, G1Element, G1Precomp, GTElement
from repro.utils.bits import BitString, concat_all
from repro.utils.serialization import encode_mod

Element = G1Element | GTElement


def _multiexp(bases: tuple[Element, ...], exponents: tuple[int, ...]) -> Element:
    if isinstance(bases[0], G1Element):
        return G1Element.multiexp(bases, exponents)  # type: ignore[arg-type]
    return GTElement.multiexp(bases, exponents)  # type: ignore[arg-type]


def _multiexp_batch(
    instances: "list[tuple[tuple[Element, ...], tuple[int, ...]]]",
) -> list[Element]:
    if isinstance(instances[0][0][0], G1Element):
        return G1Element.multiexp_batch(instances)  # type: ignore[arg-type]
    return GTElement.multiexp_batch(instances)  # type: ignore[arg-type]


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
    kappa = ciphertexts[0].kappa
    for ciphertext in ciphertexts[1:]:
        if ciphertext.kappa != kappa:
            raise GroupError("HPSKE ciphertexts of different widths")
    exponents = tuple(exponents)
    # The kappa + 1 coordinates are independent multiexp instances over
    # the same exponent vector -- exactly the amortised-batch shape, so
    # one multiexp_batch call shares the window decision and the
    # table-normalisation inversion across all of them.
    instances = [
        (tuple(c.coins[j] for c in ciphertexts), exponents) for j in range(kappa)
    ]
    instances.append((tuple(c.body for c in ciphertexts), exponents))
    results = _multiexp_batch(instances)
    return HPSKECiphertext(tuple(results[:kappa]), results[kappa])


def pair_ciphertexts(
    point: "G1Element | G1Precomp",
    ciphertexts: "Sequence[HPSKECiphertext]",
) -> "list[HPSKECiphertext]":
    """Pairing-transport a whole vector of ``G``-ciphertexts against one
    fixed point: ``[c.pair_with(point) for c in ciphertexts]``, but all
    ``len(ciphertexts) * (kappa + 1)`` coordinates go through a single
    :meth:`~repro.groups.bilinear.G1Precomp.pair_many` -- one cached
    Miller schedule, one kernel call.  This is the decryption-batch
    hot leg (every ciphertext's ``f_i -> d_i`` reuse shares the same
    ``A``); values and counters match the per-ciphertext loop exactly.
    """
    if not ciphertexts:
        return []
    if not isinstance(point, G1Precomp):
        return [ciphertext.pair_with(point) for ciphertext in ciphertexts]
    flat: list[Element] = []
    for ciphertext in ciphertexts:
        flat.extend(ciphertext.elements())
    values = point.pair_many(flat)  # type: ignore[arg-type]
    out: list[HPSKECiphertext] = []
    position = 0
    for ciphertext in ciphertexts:
        width = ciphertext.kappa + 1
        chunk = values[position : position + width]
        position += width
        out.append(HPSKECiphertext(tuple(chunk[:-1]), chunk[-1]))
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
    """A tuple ``(b_1..b_kappa, body)`` of elements of one carrier group."""

    __slots__ = ("coins", "body")

    def __init__(self, coins: tuple[Element, ...], body: Element) -> None:
        self.coins = coins
        self.body = body

    @property
    def kappa(self) -> int:
        return len(self.coins)

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

    def pair_with(self, point: "G1Element | G1Precomp") -> "HPSKECiphertext":
        """Transport a ``G``-ciphertext of ``m`` to a ``GT``-ciphertext of
        ``e(point, m)`` under the same key (the f_i -> d_i reuse).

        Accepts a :class:`~repro.groups.bilinear.G1Precomp` handle so a
        caller pairing *many* ciphertexts against the same point (the
        run-period ``d_i`` derivation) runs the Miller schedule once.
        """
        if isinstance(point, G1Precomp):
            values = point.pair_many(self.elements())  # type: ignore[arg-type]
            return HPSKECiphertext(tuple(values[:-1]), values[-1])
        group = point.group
        return HPSKECiphertext(
            tuple(group.pair(point, c) for c in self.coins),  # type: ignore[arg-type]
            group.pair(point, self.body),  # type: ignore[arg-type]
        )

    def elements(self) -> tuple[Element, ...]:
        return self.coins + (self.body,)

    def to_bits(self) -> BitString:
        return concat_all(e.to_bits() for e in self.elements())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HPSKECiphertext):
            return NotImplemented
        return self.coins == other.coins and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.coins, self.body))

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

    def keygen(self, rng: random.Random) -> HPSKEKey:
        """``Gen'(1^n)``: a uniform key in ``Z_p^kappa``."""
        p = self.group.p
        return HPSKEKey(tuple(rng.randrange(p) for _ in range(self.kappa)), p)

    def sample_coins(self, rng: random.Random) -> tuple[Element, ...]:
        """Fresh encryption randomness: kappa uniform carrier-group
        elements with unknown discrete logs."""
        if self.space == "G":
            return tuple(self.group.random_g_batch(rng, self.kappa))
        return tuple(self.group.random_gt(rng) for _ in range(self.kappa))

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
        if len(coins) != self.kappa:
            raise ParameterError("wrong number of coins")
        # m * prod b_j^{sigma_j} as one multiexp (the message rides along
        # with exponent 1).
        mask = _multiexp((message, *coins), (1, *key.sigma))
        return HPSKECiphertext(coins, mask)

    def encrypt_batch(
        self,
        key: HPSKEKey,
        messages: "Sequence[Element]",
        rng: random.Random,
    ) -> list[HPSKECiphertext]:
        """``[encrypt(key, m, rng) for m in messages]`` as one vector.

        Coins come from ``rng`` in exactly the loop's order (all of the
        first message's coins, then the second's, ...), so the
        ciphertexts and the RNG state afterwards are identical.  ``G``
        coins are drawn by one :meth:`~repro.groups.bilinear.BilinearGroup.random_g_batch`
        and every mask shares the exponent vector ``(1, sigma)``, so
        all masks go through one ``multiexp_batch`` call.  Operation
        counts equal the loop's.
        """
        if key.kappa != self.kappa:
            raise ParameterError("key width does not match scheme kappa")
        if not messages:
            return []
        count = self.kappa * len(messages)
        if self.space == "G":
            coins: list[Element] = list(self.group.random_g_batch(rng, count))
        else:
            coins = [self.group.random_gt(rng) for _ in range(count)]
        grouped = [
            tuple(coins[i * self.kappa : (i + 1) * self.kappa])
            for i in range(len(messages))
        ]
        exponents = (1, *key.sigma)
        masks = _multiexp_batch(
            [((message, *coins_i), exponents) for message, coins_i in zip(messages, grouped)]
        )
        return [
            HPSKECiphertext(coins_i, mask) for coins_i, mask in zip(grouped, masks)
        ]

    def decrypt(self, key: HPSKEKey, ciphertext: HPSKECiphertext) -> Element:
        """``Dec'_{sk_comm}(b_1..b_kappa, b_0) = b_0 / prod b_j^{sigma_j}``."""
        if ciphertext.kappa != self.kappa:
            raise ParameterError("ciphertext width does not match scheme kappa")
        # Division folds into the multiexp: x^{p - sigma} = x^{-sigma} in
        # the order-p carrier groups.
        p = self.group.p
        return _multiexp(
            (ciphertext.body, *ciphertext.coins),
            (1, *((p - sigma) % p for sigma in key.sigma)),
        )

    def ciphertext_bits(self) -> int:
        """Encoded size of one ciphertext (for communication accounting)."""
        per = (
            self.group.g_element_bits()
            if self.space == "G"
            else self.group.gt_element_bits()
        )
        return (self.kappa + 1) * per
