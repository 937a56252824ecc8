"""Long-term secret storage on hardware that leaks (paper section 4.4).

"Store ``Enc_pk(s)`` on one leaky hardware device and ``sk`` on another
... the devices will periodically refresh the ciphertext (stored on the
first device) and the secret key (stored on the second device) using a
refresh protocol."

With a *distributed* scheme the key itself is already split: device 1
holds the ciphertext (public memory) and P1's key share, device 2 holds
P2's key share.  Each period the share-refresh protocol runs and the
ciphertext is re-randomized (``(A, B) -> (A g^{t'}, B z^{t'})`` -- a
public operation, since ``z = e(g1, g2)`` is in the public key), so the
adversary's leakage about *any* fixed representation of the stored value
is bounded per period while the total leakage over the system's lifetime
is unbounded.

Two payload interfaces:

* :meth:`LeakyStore.store_element` / :meth:`retrieve_element` -- a ``GT``
  element stored natively;
* :meth:`LeakyStore.store_bytes` / :meth:`retrieve_bytes` -- arbitrary
  bytes via KEM-DEM: a random ``GT`` key is stored under the scheme and
  the payload is XOR-padded with SHA-256 of its encoding (the pad cipher
  lives in public memory, as a ciphertext may).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.core.dlr import DLR, PeriodRecord
from repro.core.keys import Ciphertext, PublicKey
from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.errors import ProtocolError
from repro.groups.bilinear import GTElement
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport
from repro.utils.rng import fork_rng

CIPHERTEXT_SLOT = "stored_ciphertext"
PAD_SLOT = "stored_pad_ciphertext"


@dataclass
class StoredSecret:
    """Handle returned by ``store_*``; names the slot the value lives in."""

    label: str
    is_bytes: bool
    length: int = 0


def _pad_for(key_element: GTElement, length: int) -> bytes:
    """Derive an XOR pad of ``length`` bytes from a GT element."""
    seed = key_element.to_bits().to_bytes()
    pad = b""
    counter = 0
    while len(pad) < length:
        pad += hashlib.sha256(counter.to_bytes(4, "big") + seed).digest()
        counter += 1
    return pad[:length]


class LeakyStore:
    """A two-device storage system with periodic refresh.

    The store owns its two devices and channel; the caller owns the
    scheme parameters and the randomness.
    """

    def __init__(
        self,
        params: DLRParams,
        rng: random.Random,
        scheme: DLR | None = None,
    ) -> None:
        self.params = params
        self.group = params.group
        self.scheme = scheme if scheme is not None else OptimalDLR(params)
        self.rng = fork_rng(rng, "leaky-store")
        generation = self.scheme.generate(self.rng)
        self.public_key: PublicKey = generation.public_key
        self.generation_randomness = generation.randomness
        self.device1 = Device("P1", self.group, self.rng)
        self.device2 = Device("P2", self.group, self.rng)
        self.channel = InMemoryTransport()
        self.scheme.install(self.device1, self.device2, generation.share1, generation.share2)
        self.periods_completed = 0
        self._stored: dict[str, StoredSecret] = {}

    # -- storing --------------------------------------------------------

    def store_element(self, label: str, value: GTElement) -> StoredSecret:
        """Store a GT element: its encryption lands in device 1's public
        memory; the plaintext is never persisted anywhere."""
        if label in self._stored:
            raise ProtocolError(f"label {label!r} already stored")
        ciphertext = self.scheme.encrypt(self.public_key, value, self.rng)
        self.device1.public.store(f"{CIPHERTEXT_SLOT}.{label}", ciphertext)
        handle = StoredSecret(label, is_bytes=False)
        self._stored[label] = handle
        return handle

    def store_bytes(self, label: str, payload: bytes) -> StoredSecret:
        """Store arbitrary bytes via KEM-DEM."""
        if label in self._stored:
            raise ProtocolError(f"label {label!r} already stored")
        kem_key = self.group.random_gt(self.rng)
        ciphertext = self.scheme.encrypt(self.public_key, kem_key, self.rng)
        pad = _pad_for(kem_key, len(payload))
        masked = bytes(a ^ b for a, b in zip(payload, pad))
        self.device1.public.store(f"{CIPHERTEXT_SLOT}.{label}", ciphertext)
        self.device1.public.store(f"{PAD_SLOT}.{label}", masked)
        handle = StoredSecret(label, is_bytes=True, length=len(payload))
        self._stored[label] = handle
        return handle

    # -- retrieving -----------------------------------------------------------

    def _ciphertext_for(self, label: str) -> Ciphertext:
        value = self.device1.public.read(f"{CIPHERTEXT_SLOT}.{label}")
        if not isinstance(value, Ciphertext):
            raise ProtocolError(f"no stored ciphertext under {label!r}")
        return value

    def retrieve_element(self, handle: StoredSecret) -> GTElement:
        """Run the 2-party decryption protocol to recover the element."""
        if handle.is_bytes:
            raise ProtocolError("handle stores bytes; use retrieve_bytes")
        return self.scheme.decrypt_protocol(
            self.device1, self.device2, self.channel, self._ciphertext_for(handle.label)
        )

    def retrieve_bytes(self, handle: StoredSecret) -> bytes:
        if not handle.is_bytes:
            raise ProtocolError("handle stores an element; use retrieve_element")
        kem_key = self.scheme.decrypt_protocol(
            self.device1, self.device2, self.channel, self._ciphertext_for(handle.label)
        )
        masked = self.device1.public.read(f"{PAD_SLOT}.{handle.label}")
        assert isinstance(masked, bytes)
        pad = _pad_for(kem_key, handle.length)
        return bytes(a ^ b for a, b in zip(masked, pad))

    # -- the periodic refresh ---------------------------------------------------

    def refresh(self) -> None:
        """One maintenance period: refresh the key shares and re-randomize
        every stored ciphertext."""
        self.scheme.refresh_protocol(self.device1, self.device2, self.channel)
        for label in self._stored:
            slot = f"{CIPHERTEXT_SLOT}.{label}"
            old = self.device1.public.read(slot)
            assert isinstance(old, Ciphertext)
            t = self.group.random_scalar(self.rng)
            rerandomized = Ciphertext(
                a=old.a * (self.group.g ** t),
                b=old.b * (self.public_key.z ** t),
            )
            self.device1.public.store(slot, rerandomized)
        self.channel.advance_period()
        self.periods_completed += 1

    def run_leaky_period(self, label: str) -> PeriodRecord:
        """One full period under observation: a decryption of the stored
        ciphertext plus a refresh, returning the leakage snapshots."""
        record = self.scheme.run_period(
            self.device1, self.device2, self.channel, self._ciphertext_for(label)
        )
        self.periods_completed += 1
        return record

    def labels(self) -> list[str]:
        return list(self._stored)
