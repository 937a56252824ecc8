"""The optimal-leakage-rate variant of DLR (section 5.2, first remark).

In the basic construction P1's secret memory holds both ``sk1`` and
``sk_comm``.  To reach leakage rate ``1 - o(1)`` on P1 the paper shrinks
P1's secret memory to ``sk_comm`` alone:

* instead of ``sk1``, P1 keeps the coordinate-wise Pi_comm encryption of
  ``sk1`` in *public* memory ("the latter is public as it is to be
  transmitted over the public channel");
* the decryption and refresh protocols are adapted so P1 never holds
  more than a single un-encrypted coordinate of ``sk1`` at a time.

Resulting secret-memory sizes, matching the discussion after
Theorem 4.1:

* P1, normal operation: ``m1 + log p`` bits with ``m1 = |sk_comm| =
  kappa log p`` (key + the one scratch coordinate);
* P1, refresh: ``2 m1 + log p`` (old and new ``sk_comm`` + scratch);
* P2: ``m2 = ell log p`` normally, ``2 m2`` during refresh.

Protocol adaptations (both remain 2-message protocols with the identical
P2 role, so P2 stays the "simple device" -- P2's step generators are
literally :class:`~repro.core.dlr.DLR`'s):

* **Decryption**: the ``d_i`` are derived from the *public* encrypted
  share by pairing with ``A`` -- touching no secrets at all; only
  ``d_B = Enc'(B)`` and the final ``Dec'`` use ``sk_comm``.
* **Refresh**: P1 samples a fresh key ``sk_comm'`` and fresh ``a'_i``
  one at a time; each ``a'_i`` is encrypted twice (under the old key for
  P2's combination step, under the new key for the next public encrypted
  share) and immediately erased.  After P2's response, ``Phi'`` is
  decrypted with the old key, re-encrypted under the new key, and erased;
  then the old key is erased.

Crash safety rides on the engine's staged-commit machinery: the next
``sk_comm`` is staged under ``sk_comm_next`` (with
``signals_abort=False`` -- it is derived key material, recoverable from
fresh coins, so losing it is not a rolled-back share rotation) and P2's
share is staged as in the basic scheme; both flip at ``ref.commit``
together with the new public encrypted share.
"""

from __future__ import annotations

from repro.core.dlr import DLR, REFRESH_ABORT_MESSAGE, SK2_PENDING_SLOT
from repro.core.hpske import HPSKECiphertext, pair_ciphertexts
from repro.core.keys import Ciphertext, Share1, Share2
from repro.errors import ProtocolError
from repro.groups.bilinear import G1Element, GTElement
from repro.protocol.device import Device
from repro.protocol.engine import Commit, ProtocolSpec, Recv, Send, StagedShare
from repro.protocol.transport import Transport
from repro.telemetry.tracer import traced

SK_COMM_SLOT = "sk_comm"
SK_COMM_PENDING_SLOT = "sk_comm_next"
ENC_SHARE_SLOT = "enc_sk1"
SK2_SLOT = "sk2"

#: The optimal-variant rotation: P1 swaps ``sk_comm`` (derived material,
#: so its pending presence alone does not make an abort a rollback), P2
#: swaps its scalar share exactly as in the basic scheme.
OPTIMAL_STAGED = (
    StagedShare(1, SK_COMM_SLOT, SK_COMM_PENDING_SLOT, signals_abort=False),
    StagedShare(2, SK2_SLOT, SK2_PENDING_SLOT),
)


class OptimalDLR(DLR):
    """DLR with P1's secret memory reduced to ``sk_comm`` (+ one scratch)."""

    span_kind = "optimal"
    period_protocol = "optimal"
    period_secrets1 = (SK_COMM_PENDING_SLOT, "scratch")
    period_staged = OPTIMAL_STAGED
    period_abort_message = REFRESH_ABORT_MESSAGE

    # ------------------------------------------------------------------
    # Installation: encrypt sk1 into public memory
    # ------------------------------------------------------------------

    def install(self, device1: Device, device2: Device, share1: Share1, share2: Share2) -> None:
        """P1 stores ``Enc'_{sk_comm}(sk1)`` publicly and only ``sk_comm``
        secretly; P2 is unchanged."""
        sk_comm = self.hpske_g.keygen(device1.rng)
        device1.secret.store(SK_COMM_SLOT, sk_comm)
        encrypted = []
        for element in (*share1.a, share1.phi):
            # One coordinate of sk1 is in the clear at a time (scratch).
            # Derived: recoverable from sk_comm + the public encryption.
            device1.secret.store("scratch", element, derived=True)
            encrypted.append(self.hpske_g.encrypt(sk_comm, element, device1.rng))
            device1.secret.erase("scratch")
        device1.public.store(ENC_SHARE_SLOT, tuple(encrypted))
        device2.secret.store(SK2_SLOT, share2)

    @staticmethod
    def encrypted_share_of(device: Device) -> tuple[HPSKECiphertext, ...]:
        value = device.public.read(ENC_SHARE_SLOT)
        if not isinstance(value, tuple):
            raise ProtocolError("P1 does not hold an encrypted share")
        return value

    def _sk_comm_of(self, device: Device):
        return device.secret.read(SK_COMM_SLOT)

    # ------------------------------------------------------------------
    # P1's step generators
    # ------------------------------------------------------------------

    def _p1_decrypt_steps(
        self, device1: Device, ciphertext: Ciphertext, prefix: str = "dec"
    ):
        """P1's decryption step: the ``d_i`` come from pairing the
        *public* encrypted share with ``A``; the ``Enc'`` homomorphism
        makes them valid encryptions of ``e(A, a_i)`` under ``sk_comm``.

        ``prefix`` namespaces the message labels so the period generator
        can chain one instance per ciphertext (``dec.0``, ``dec.1``, ...)
        inside a single engine run."""
        sk_comm = self._sk_comm_of(device1)
        encrypted = self.encrypted_share_of(device1)
        with device1.computing():
            # (ell + 1)(kappa + 1) pairings share the left argument A:
            # run its Miller schedule once, in one batched leg.
            a_precomp = self.group.pairing_precomp(ciphertext.a)
            d_all = tuple(pair_ciphertexts(a_precomp, list(encrypted)))
            d_list, d_phi = d_all[:-1], d_all[-1]
            d_b = self.hpske_gt.encrypt(sk_comm, ciphertext.b, device1.rng)
        yield Send(f"{prefix}.d", (d_list, d_phi, d_b))

        message = yield Recv(f"{prefix}.c_prime")
        with device1.computing():
            plaintext = self.hpske_gt.decrypt(sk_comm, message.payload)
        assert isinstance(plaintext, GTElement)
        return plaintext

    def _p1_refresh_steps(self, device1: Device):
        """P1's refresh step: refresh the share *and* ``sk_comm``,
        handling one clear coordinate at a time; stage the new key and
        the new public encrypted share for the ``ref.commit`` boundary."""
        sk_comm_old = self._sk_comm_of(device1)
        encrypted_old = self.encrypted_share_of(device1)
        ell = self.params.ell

        with device1.computing():
            sk_comm_new = self.hpske_g.keygen(device1.rng)
            device1.secret.store(SK_COMM_PENDING_SLOT, sk_comm_new)
            f_pairs = []
            encrypted_new_a = []
            for i in range(ell):
                fresh = self.group.random_g(device1.rng)
                device1.secret.store("scratch", fresh, derived=True)
                # Under the old key: P2's combination input f'_i.
                f_pairs.append(
                    (
                        encrypted_old[i],
                        self.hpske_g.encrypt(sk_comm_old, fresh, device1.rng),
                    )
                )
                # Under the new key: the next public encrypted share.
                encrypted_new_a.append(
                    self.hpske_g.encrypt(sk_comm_new, fresh, device1.rng)
                )
                device1.secret.erase("scratch")
            f_phi = encrypted_old[-1]
        yield Send("ref.f", (tuple(f_pairs), f_phi))

        message = yield Recv("ref.f_combined")
        with device1.computing():
            new_phi = self.hpske_g.decrypt(sk_comm_old, message.payload)
            device1.secret.store("scratch", new_phi, derived=True)
            encrypted_phi = self.hpske_g.encrypt(sk_comm_new, new_phi, device1.rng)
            device1.secret.erase("scratch")
        yield Send("ref.commit", True)

        # Commit point: the new public encrypted share, the new
        # communication key (engine: erase old, rename pending -- the
        # refresh snapshot holds exactly old key + new key, the paper's
        # 2 m1 accounting), and P2's staged share flip together.
        device1.public.store(ENC_SHARE_SLOT, tuple(encrypted_new_a) + (encrypted_phi,))
        yield Commit()

    # ------------------------------------------------------------------
    # The protocols
    # ------------------------------------------------------------------

    @traced("dec")
    def decrypt_protocol(
        self,
        device1: Device,
        device2: Device,
        channel: Transport,
        ciphertext: Ciphertext,
    ) -> GTElement:
        spec = ProtocolSpec(
            "optimal.decrypt",
            device1,
            device2,
            lambda: self._p1_decrypt_steps(device1, ciphertext),
            lambda: self._p2_decrypt_steps(device2),
        )
        plaintext = self._run_engine(spec, channel)
        assert isinstance(plaintext, GTElement)
        return plaintext

    @traced("ref")
    def refresh_protocol(
        self, device1: Device, device2: Device, channel: Transport
    ) -> None:
        """Staged like the basic refresh: the new ``sk_comm`` and the new
        public encrypted share are committed together with P2's staged
        share only at the ``ref.commit`` boundary; any earlier failure
        rolls both devices back (:class:`~repro.errors.RefreshAborted`)."""
        spec = ProtocolSpec(
            "optimal.refresh",
            device1,
            device2,
            lambda: self._p1_refresh_steps(device1),
            lambda: self._p2_refresh_steps(device2),
            secrets1=(SK_COMM_PENDING_SLOT, "scratch"),
            staged=OPTIMAL_STAGED,
            abort_message=REFRESH_ABORT_MESSAGE,
        )
        self._run_engine(spec, channel)

    # ------------------------------------------------------------------
    # One faithful time period with snapshots
    # ------------------------------------------------------------------

    def _p1_period_steps(
        self,
        device1: Device,
        period: int,
        decryptions: list[tuple[str, Ciphertext]],
        snapshots: dict[tuple[int, str], object],
    ):
        """P1's whole time period for the optimal variant: one
        :meth:`_p1_decrypt_steps` per ``(label prefix, ciphertext)``,
        each pairing the *public* encrypted share with its own ``A``,
        then a single refresh that rotates ``sk_comm`` and the shares.
        P2 runs DLR's period generator unchanged -- only P1's local
        computations differ from the basic scheme, as the paper
        requires."""
        device1.secret.open_phase(f"t{period}.normal")
        plaintexts: list[GTElement] = []
        for prefix, ciphertext in decryptions:
            plaintext = yield from self._p1_decrypt_steps(device1, ciphertext, prefix)
            yield Send(f"{prefix}.output", plaintext)
            plaintexts.append(plaintext)
        snapshots[(1, "normal")] = device1.secret.close_phase()

        device1.secret.open_phase(f"t{period}.refresh")
        yield from self._p1_refresh_steps(device1)
        snapshots[(1, "refresh")] = device1.secret.close_phase()
        return plaintexts

    # ------------------------------------------------------------------
    # Test helpers
    # ------------------------------------------------------------------

    def snapshot_shares(self, device1: Device, device2: Device) -> tuple[Share1, Share2]:
        """Checkpointable form of the committed shares.

        P1's live state is ``sk_comm`` + the public encrypted share;
        a checkpoint stores the underlying *plain* ``sk1`` (recovered
        here), and :meth:`install` re-derives a fresh ``sk_comm`` and
        re-encrypts on resume.
        """
        return self.recover_share1(device1), self.share2_of(device2)

    def recover_share1(self, device1: Device) -> Share1:
        """Decrypt the public encrypted share (tests only -- the protocol
        never materializes the whole sk1)."""
        sk_comm = self._sk_comm_of(device1)
        elements: list[G1Element] = []
        for ct in self.encrypted_share_of(device1):
            element = self.hpske_g.decrypt(sk_comm, ct)
            assert isinstance(element, G1Element)
            elements.append(element)
        return Share1(a=tuple(elements[:-1]), phi=elements[-1])
