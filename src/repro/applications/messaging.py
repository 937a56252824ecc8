"""The paper's motivating deployments (section 1.1), as ready-to-use
facades.

:class:`SharedKeySession` -- the *symmetric encryption* scenario:
    "If instead the processors agree in person on a common secret key
    but each stores only a share of it, they could still decrypt and
    refresh the secret key via an interactive protocol, but the leakage
    will be restricted to be computed on each share separately."
    The in-person agreement is ``Gen``; afterwards either processor's
    host can encrypt to the pair, and decryption/refresh are the DLR
    protocols between the two shares.

:class:`DecryptionService` -- the *auxiliary device* scenario: a main
    processor plus a smart card jointly serve decryptions, with
    automatic share refresh every ``refresh_every`` decryptions (the
    period schedule) and leakage snapshots retrievable per period.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.dlr import DLR, PeriodRecord
from repro.core.keys import Ciphertext, PublicKey
from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.errors import ProtocolError
from repro.groups.bilinear import GTElement
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport
from repro.utils.rng import fork_rng


class SharedKeySession:
    """Two processors with a jointly held (split) key.

    Construction: ``Gen`` runs "in person" (trusted setup); each
    processor keeps one share.  Messages are encrypted under the joint
    public key -- by either processor or by third parties -- and
    decrypted cooperatively.  ``rekey_period`` runs the refresh protocol.
    """

    def __init__(self, params: DLRParams, rng: random.Random) -> None:
        self.params = params
        self.group = params.group
        self.scheme = DLR(params)
        self.rng = fork_rng(rng, "shared-key-session")
        generation = self.scheme.generate(self.rng)
        self.public_key: PublicKey = generation.public_key
        self.processor_a = Device("P1", self.group, self.rng)
        self.processor_b = Device("P2", self.group, self.rng)
        self.channel = InMemoryTransport()
        self.scheme.install(
            self.processor_a, self.processor_b, generation.share1, generation.share2
        )
        self.messages_exchanged = 0

    def encrypt(self, message: GTElement, rng: random.Random | None = None) -> Ciphertext:
        """Anyone holding the public key can encrypt to the pair."""
        return self.scheme.encrypt(self.public_key, message, rng or self.rng)

    def encrypt_bytes(
        self, payload: bytes, rng: random.Random | None = None
    ) -> tuple[Ciphertext, bytes]:
        """KEM-DEM: returns (key encapsulation, XOR-masked payload)."""
        rng = rng or self.rng
        session_key = self.group.random_gt(rng)
        pad = _pad(session_key, len(payload))
        return self.encrypt(session_key, rng), bytes(
            a ^ b for a, b in zip(payload, pad)
        )

    def decrypt(self, ciphertext: Ciphertext) -> GTElement:
        """Cooperative decryption between the two processors."""
        self.messages_exchanged += 1
        return self.scheme.decrypt_protocol(
            self.processor_a, self.processor_b, self.channel, ciphertext
        )

    def decrypt_bytes(self, encapsulation: Ciphertext, masked: bytes) -> bytes:
        session_key = self.decrypt(encapsulation)
        pad = _pad(session_key, len(masked))
        return bytes(a ^ b for a, b in zip(masked, pad))

    def rekey_period(self) -> None:
        """End of a time period: refresh both shares."""
        self.scheme.refresh_protocol(self.processor_a, self.processor_b, self.channel)
        self.channel.advance_period()


class DecryptionService:
    """Main processor + auxiliary device serving decryptions with
    automatic periodic refresh."""

    def __init__(
        self,
        params: DLRParams,
        rng: random.Random,
        refresh_every: int = 1,
        optimal: bool = True,
    ) -> None:
        if refresh_every < 1:
            raise ProtocolError("refresh_every must be >= 1")
        self.params = params
        self.group = params.group
        self.scheme = OptimalDLR(params) if optimal else DLR(params)
        self.rng = fork_rng(rng, "decryption-service")
        generation = self.scheme.generate(self.rng)
        self.public_key: PublicKey = generation.public_key
        self.main_processor = Device("P1", self.group, self.rng)
        self.auxiliary = Device("P2", self.group, self.rng)
        self.channel = InMemoryTransport()
        self.scheme.install(
            self.main_processor, self.auxiliary, generation.share1, generation.share2
        )
        self.refresh_every = refresh_every
        self.decryptions_served = 0
        self.refreshes_performed = 0
        self.period_records: list[PeriodRecord] = []

    def decrypt(self, ciphertext: Ciphertext) -> GTElement:
        """Serve one decryption; refresh when the schedule says so.

        When a refresh is due, the decryption and refresh run as one
        observed period (the faithful coin-reuse flow) and the period's
        leakage snapshots are retained in ``period_records``.
        """
        self.decryptions_served += 1
        if self.decryptions_served % self.refresh_every == 0:
            record = self.scheme.run_period(
                self.main_processor, self.auxiliary, self.channel, ciphertext
            )
            self.refreshes_performed += 1
            self.period_records.append(record)
            return record.plaintext
        return self.scheme.decrypt_protocol(
            self.main_processor, self.auxiliary, self.channel, ciphertext
        )

    def leakage_surface_bits(self) -> dict[str, int]:
        """Current essential secret-memory sizes, per device."""
        return {
            "main_processor": self.main_processor.secret.size_bits(),
            "auxiliary": self.auxiliary.secret.size_bits(),
        }


def _pad(key_element: GTElement, length: int) -> bytes:
    seed = key_element.to_bits().to_bytes()
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(counter.to_bytes(4, "big") + seed).digest()
        counter += 1
    return out[:length]
