"""DLR: the distributed PKE of Construction 5.3.

The scheme is ``(Gen, Enc, Dec, Ref)``:

* ``Gen(1^n)`` outputs ``pk = (p, g, e, e(g1, g2))`` and the shares
  ``sk1 = (a_1..a_ell, Phi = g2^alpha prod a_i^{s_i})``,
  ``sk2 = (s_1..s_ell)`` -- a Pi_ss sharing of the Boneh-Boyen master
  secret ``g2^alpha``.
* ``Enc_pk(m) = (g^t, m * e(g1, g2)^t)`` for ``m`` in ``GT``.
* ``Dec`` and ``Ref`` are the 2-message 2-party protocols of the paper,
  expressed as per-device step generators and driven by the
  :class:`~repro.protocol.engine.ProtocolEngine` over a pluggable
  :class:`~repro.protocol.transport.Transport` (in-memory, faulty, or
  real sockets with the parties in separate threads).

Two protocol styles are provided:

* :meth:`DLR.decrypt_protocol` / :meth:`DLR.refresh_protocol` -- the
  construction exactly as printed (fresh ``sk_comm`` per protocol);
* :meth:`DLR.run_period` -- the section 5.2 remark variant where one
  time period executes decryption *and* refresh with a single
  ``sk_comm`` and the refresh ciphertexts ``f_i`` are reused as the
  decryption ciphertexts ``d_i`` via coordinate-wise pairing with ``A``;
  :meth:`DLR.run_period_multi` is the same period with several
  decryptions before the one refresh (a single decryption is the batch
  of one, under the labels ``dec.*`` instead of ``dec.0.*``).
  This is the flow the security proof (and the leakage accounting of the
  security game) is stated for; it also returns the phase snapshots the
  leakage oracle consumes.

Device memory discipline: shares live in the devices' *secret* memory
regions; every protocol secret (``sk_comm``, fresh share material) is
stored there too while in use and erased on every exit path (success or
exception -- the engine wraps each party in ``Device.protocol_secrets``),
so phase snapshots faithfully capture the leakage surface.  HPSKE
encryption coins, by contrast, are *public* randomness: they travel
inside the ciphertexts, and the section 5.2 remark ensures they have no
discrete logs that could sit in secret memory.

Crash safety: share rotation is *staged*.  Each protocol declares its
pending slots as :class:`~repro.protocol.engine.StagedShare` entries;
the devices park incoming shares there and yield ``Commit()`` at the
final ``ref.commit`` message boundary.  If the protocol dies at any
earlier (or that) boundary, the engine rolls both devices back to their
old, mutually consistent shares and the period can simply be re-run
(:func:`repro.runtime.drive_period_resilient`); the failure surfaces as
:class:`~repro.errors.RefreshAborted`.  An interrupted refresh can
therefore never desync the two devices, and :meth:`DLR.verify_shares`
succeeds after any abort.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.hpske import HPSKE, HPSKECiphertext, pair_ciphertexts, weighted_product
from repro.core.keys import Ciphertext, PublicKey, Share1, Share2
from repro.core.params import DLRParams
from repro.core.pss import PSS
from repro.errors import ProtocolError
from repro.groups.bilinear import G1Element, GTElement
from repro.groups.precompute import PrecomputedEncryptor
from repro.protocol.device import Device
from repro.protocol.engine import (
    Commit,
    ProtocolEngine,
    ProtocolSpec,
    Recv,
    Send,
    StagedShare,
    TranscriptStats,
)
from repro.protocol.memory import PhaseSnapshot
from repro.protocol.transport import Message, Transport
from repro.telemetry.tracer import traced

SK1_SLOT = "sk1"
SK2_SLOT = "sk2"
# Staged (not yet committed) incoming shares during a refresh.
SK1_PENDING_SLOT = "sk1.pending"
SK2_PENDING_SLOT = "sk2.pending"

#: The standard DLR share rotation, committed at ``ref.commit``.
DLR_STAGED = (
    StagedShare(1, SK1_SLOT, SK1_PENDING_SLOT),
    StagedShare(2, SK2_SLOT, SK2_PENDING_SLOT),
)

REFRESH_ABORT_MESSAGE = "refresh aborted; both devices rolled back to their old shares"


def combine_decrypt(
    share2: Share2,
    d_list: tuple[HPSKECiphertext, ...],
    d_phi: HPSKECiphertext,
    d_b: HPSKECiphertext,
) -> HPSKECiphertext:
    """P2's whole decryption job: ``d_B * prod_i d_i^{s_i} / d_Phi``.

    Evaluated as one coordinate-wise multi-exponentiation
    (:func:`~repro.core.hpske.weighted_product`): ``d_B`` rides along
    with exponent 1 and the trailing division folds in as exponent
    ``p - 1``, so each of the ``kappa + 1`` coordinates costs a single
    shared-squaring multiexp over ``ell + 2`` bases instead of ``ell``
    separate exponentiations plus multiplications.
    """
    p = share2.p
    return weighted_product(
        (d_b, *d_list, d_phi), (1, *share2.s, p - 1)
    )


def combine_refresh(
    share2: Share2,
    fresh_share: Share2,
    f_pairs: tuple[tuple[HPSKECiphertext, HPSKECiphertext], ...],
    f_phi: HPSKECiphertext,
) -> HPSKECiphertext:
    """P2's refresh combination: ``prod f'_i^{s'_i} / f_i^{s_i} * f_Phi``.

    One fused multi-exponentiation per coordinate: every divisor
    ``f_i^{s_i}`` becomes a term with exponent ``p - s_i``.
    """
    p = share2.p
    ciphertexts: list[HPSKECiphertext] = [f_phi]
    exponents: list[int] = [1]
    for (f_old, f_new), s_old, s_new in zip(f_pairs, share2.s, fresh_share.s):
        ciphertexts.append(f_new)
        exponents.append(s_new)
        ciphertexts.append(f_old)
        exponents.append((p - s_old) % p)
    return weighted_product(ciphertexts, exponents)


@dataclass
class GenerationResult:
    """Output of ``Gen`` plus the secret randomness ``r_Gen`` (the input
    to the key-generation leakage function ``h_Gen``)."""

    public_key: PublicKey
    share1: Share1
    share2: Share2
    randomness: PhaseSnapshot


@dataclass
class MultiPeriodRecord:
    """A time period containing several decryption executions
    (the section 3.3 extension: "Extensions allowing multiple executions
    of the decryption protocol at each time period are simple")."""

    period: int
    plaintexts: list[GTElement]
    snapshots: dict[tuple[int, str], PhaseSnapshot]
    messages: list[Message]


@dataclass
class PeriodRecord:
    """Everything one time period produced, for the security game.

    ``snapshots`` maps ``(device_index, phase)`` with phase in
    ``{"normal", "refresh"}`` to the secret-memory snapshot the matching
    leakage function is applied to.
    """

    period: int
    plaintext: GTElement
    snapshots: dict[tuple[int, str], PhaseSnapshot]
    messages: list[Message]


class DLR:
    """The distributed leakage-resilient PKE scheme."""

    #: Prefix for telemetry span names (``dlr.gen``, ``dlr.enc``, ...);
    #: subclasses override so their spans are distinguishable.
    span_kind = "dlr"

    #: The period protocol's spec-name prefix (``dlr.period``,
    #: ``dlr.period_multi``), P1's period secrets (erased on every exit
    #: path), its staged share rotation and its abort message; P1's
    #: period generator and these are all OptimalDLR overrides.
    period_protocol = "dlr"
    period_secrets1: tuple[str, ...] = ("period.sk_comm", "period.a_next")
    period_staged: tuple[StagedShare, ...] = DLR_STAGED
    period_abort_message = (
        "time period {period} aborted during refresh; "
        "both devices rolled back to their old shares"
    )

    def __init__(self, params: DLRParams) -> None:
        self.params = params
        self.group = params.group
        self.hpske_g = HPSKE(self.group, params.kappa, space="G")
        self.hpske_gt = HPSKE(self.group, params.kappa, space="GT")
        self.pss = PSS(self.group, params.ell)
        #: Per-step instrumentation of the last engine-driven protocol.
        self.last_stats: TranscriptStats | None = None

    # ------------------------------------------------------------------
    # Gen / Enc (plain algorithms)
    # ------------------------------------------------------------------

    @traced("gen")
    def generate(self, rng: random.Random) -> GenerationResult:
        """``Gen(1^n)``: sample the key material and share the master key."""
        group = self.group
        randomness = PhaseSnapshot("key-generation")

        alpha = group.random_scalar(rng)
        g2 = group.random_g(rng)
        randomness.record("alpha", _scalar(alpha, group.p))
        randomness.record("g2", g2)

        g1 = group.g ** alpha
        z = group.pair(g1, g2)
        public_key = PublicKey(self.params, z)

        master_secret = g2 ** alpha
        randomness.record("msk", master_secret)

        key = self.pss.keygen(rng)
        coins = tuple(group.random_g_batch(rng, self.params.ell))
        share_ciphertext = self.pss.encrypt(key, master_secret, coins=coins)
        randomness.record("s", Share2(key.sigma, group.p))
        randomness.record("a", list(coins))

        share1 = Share1(a=coins, phi=share_ciphertext.body)
        share2 = Share2(s=key.sigma, p=group.p)
        return GenerationResult(public_key, share1, share2, randomness)

    @traced("enc")
    def encrypt(
        self, public_key: PublicKey, message: GTElement, rng: random.Random
    ) -> Ciphertext:
        """``Enc_pk(m) = (g^t, m * e(g1, g2)^t)``."""
        t = self.group.random_scalar(rng)
        return Ciphertext(a=self.group.g ** t, b=message * (public_key.z ** t))

    @traced("enc_batch")
    def encrypt_batch(
        self,
        public_key: PublicKey,
        messages: "list[GTElement]",
        rng: random.Random,
        window: int = 4,
    ) -> list[Ciphertext]:
        """Encrypt a vector of messages to one public key, amortised.

        One :class:`~repro.groups.precompute.PrecomputedEncryptor` (one
        pair of fixed-base tables for ``g`` and ``z``) serves the whole
        vector, so the per-message cost drops from two full ladders to
        two table walks.  Randomness is drawn in message order from
        ``rng`` -- the ciphertext values match a loop of
        :meth:`encrypt` only up to the fixed-base evaluation being
        bit-identical, which it is (the transparency tests pin it).
        """
        if not messages:
            return []
        shared = self.encryptor(public_key, window)
        return [shared.encrypt(message, rng) for message in messages]

    def encryptor(self, public_key: PublicKey, window: int = 4) -> PrecomputedEncryptor:
        """An opt-in fixed-base encryptor for this public key.

        Builds one-time windowed tables for ``g`` and ``z`` and then
        encrypts with ``ceil(log p / w)`` multiplications per
        exponentiation instead of a full double-and-add ladder --
        worthwhile when many messages target the same key (the
        break-even point is tabulated in docs/performance.md).
        """
        return PrecomputedEncryptor(public_key, window)

    # ------------------------------------------------------------------
    # Shares in device memory
    # ------------------------------------------------------------------

    def install(self, device1: Device, device2: Device, share1: Share1, share2: Share2) -> None:
        """Place the shares into the devices' secret memories."""
        device1.secret.store(SK1_SLOT, share1)
        device2.secret.store(SK2_SLOT, share2)

    @staticmethod
    def share1_of(device: Device) -> Share1:
        share = device.secret.read(SK1_SLOT)
        if not isinstance(share, Share1):
            raise ProtocolError("P1 does not hold a Share1")
        return share

    @staticmethod
    def share2_of(device: Device) -> Share2:
        share = device.secret.read(SK2_SLOT)
        if not isinstance(share, Share2):
            raise ProtocolError("P2 does not hold a Share2")
        return share

    def snapshot_shares(self, device1: Device, device2: Device) -> tuple[Share1, Share2]:
        """The committed share pair, in checkpointable (plain) form.

        Subclasses whose P1 state is derived (OptimalDLR) override this
        to recover the underlying plain share; :meth:`install` re-derives
        the rest on resume.
        """
        return self.share1_of(device1), self.share2_of(device2)

    # ------------------------------------------------------------------
    # Engine plumbing
    # ------------------------------------------------------------------

    def _run_engine(self, spec: ProtocolSpec, transport: Transport) -> object:
        """Drive one protocol spec; always publish its stats."""
        engine = ProtocolEngine(transport)
        try:
            return engine.run(spec)
        finally:
            self.last_stats = engine.stats

    # -- reusable P2 step generators (the "simple device" role) ---------

    def _p2_decrypt_steps(self, device2: Device, prefix: str = "dec", share_of=None):
        """P2's decryption step: receive ``<prefix>.d``, send the blind
        combination; no secret randomness, no pairings."""
        if share_of is None:
            share_of = lambda: self.share2_of(device2)  # noqa: E731
        message = yield Recv(f"{prefix}.d")
        d_list, d_phi, d_b = message.payload
        share2 = share_of()
        with device2.computing():
            response = combine_decrypt(share2, d_list, d_phi, d_b)
        yield Send(f"{prefix}.c_prime", response)

    def _p2_refresh_steps(
        self,
        device2: Device,
        prefix: str = "ref",
        pending_slot: str = SK2_PENDING_SLOT,
        share_of=None,
    ):
        """P2's refresh step: sample fresh scalars, send the combination,
        *stage* the new share, and commit at ``<prefix>.commit``.

        P2 holds both shares from staging until commit/rollback -- its
        refresh secret memory is ``2 m2`` bits.  The old share is
        replaced only when P1 confirms it decrypted ``Phi'`` (the commit
        boundary); until then an abort rolls back to the old share.
        """
        if share_of is None:
            share_of = lambda: self.share2_of(device2)  # noqa: E731
        message = yield Recv(f"{prefix}.f")
        f_pairs, f_phi = message.payload
        share2 = share_of()
        with device2.computing():
            fresh_share = Share2(
                tuple(self.group.random_scalar(device2.rng) for _ in range(self.params.ell)),
                self.group.p,
            )
            response = combine_refresh(share2, fresh_share, f_pairs, f_phi)
        device2.secret.store(pending_slot, fresh_share)
        yield Send(f"{prefix}.f_combined", response)
        yield Recv(f"{prefix}.commit")
        yield Commit()

    def _p2_period_steps(
        self,
        device2: Device,
        period: int,
        prefixes: list[str],
        snapshots: dict[tuple[int, str], PhaseSnapshot],
    ):
        """P2's whole time period: answer each decryption (``<prefix>.d``,
        then observe ``<prefix>.output``), refresh -- with the two phase
        snapshots.  Every message is received by its exact label.
        Identical for DLR and OptimalDLR ("the changes to the protocols
        only involve P1's local computations")."""
        device2.secret.open_phase(f"t{period}.normal")
        share2 = self.share2_of(device2)
        for prefix in prefixes:
            yield from self._p2_decrypt_steps(device2, prefix, share_of=lambda: share2)
            yield Recv(f"{prefix}.output")
        snapshots[(2, "normal")] = device2.secret.close_phase()

        device2.secret.open_phase(f"t{period}.refresh")
        yield from self._p2_refresh_steps(device2, share_of=lambda: share2)
        snapshots[(2, "refresh")] = device2.secret.close_phase()

    # ------------------------------------------------------------------
    # The decryption protocol (Construction 5.3 as printed)
    # ------------------------------------------------------------------

    @traced("dec")
    def decrypt_protocol(
        self,
        device1: Device,
        device2: Device,
        channel: Transport,
        ciphertext: Ciphertext,
    ) -> GTElement:
        """Run ``Dec_{pk, sk1, sk2}(c)`` and return the plaintext (at P1)."""
        share1 = self.share1_of(device1)

        def p1():
            # Step 1 (P1): fresh sk_comm; send GT-encryptions of the
            # paired values.
            with device1.computing():
                sk_comm = self.hpske_gt.keygen(device1.rng)
                device1.secret.store("dec.sk_comm", sk_comm)
                # Every pairing shares the left argument A = c.a, so run
                # its Miller schedule once.
                paired = self.group.pairing_precomp(ciphertext.a).pair_many(
                    (*share1.a, share1.phi)
                )
                # The coins inside each ciphertext are *public* randomness --
                # they are transmitted verbatim -- and are sampled with unknown
                # discrete logs (section 5.2 remark), so nothing about them
                # enters secret memory.  Coins are drawn in the order of a
                # loop of single encryptions.
                *d_list, d_phi, d_b = self.hpske_gt.encrypt_batch(
                    sk_comm, (*paired, ciphertext.b), device1.rng
                )
            yield Send("dec.d", (tuple(d_list), d_phi, d_b))

            # Step 3 (P1): decrypt the response.
            message = yield Recv("dec.c_prime")
            with device1.computing():
                plaintext = self.hpske_gt.decrypt(sk_comm, message.payload)
            return plaintext

        spec = ProtocolSpec(
            "dlr.decrypt",
            device1,
            device2,
            p1,
            lambda: self._p2_decrypt_steps(device2),
            # ``sk_comm`` must not outlive the protocol on *any* exit path.
            secrets1=("dec.sk_comm",),
        )
        plaintext = self._run_engine(spec, channel)
        assert isinstance(plaintext, GTElement)
        return plaintext

    # ------------------------------------------------------------------
    # The refresh protocol (Construction 5.3 as printed)
    # ------------------------------------------------------------------

    @traced("ref")
    def refresh_protocol(
        self, device1: Device, device2: Device, channel: Transport
    ) -> None:
        """Run ``Ref_pk(sk1, sk2)``: both devices end with fresh shares.

        The rotation is staged: each device parks its incoming share in a
        pending slot and commits only at the final ``ref.commit``
        boundary.  On any mid-protocol failure the engine rolls both
        devices back to their old shares and
        :class:`~repro.errors.RefreshAborted` is raised (with the
        triggering exception as its cause).
        """
        share1 = self.share1_of(device1)
        ell = self.params.ell

        def p1():
            # Step 1 (P1): fresh a'_i; send (Enc'(a_i), Enc'(a'_i))_i,
            # Enc'(Phi).
            with device1.computing():
                sk_comm = self.hpske_g.keygen(device1.rng)
                device1.secret.store("ref.sk_comm", sk_comm)
                fresh_a = tuple(self.group.random_g_batch(device1.rng, ell))
                # Derived: the fresh a'_i are recoverable from sk_comm plus
                # the public ciphertexts f'_i, so they are not "essential"
                # secret memory in the section 3.2 sense.
                device1.secret.store("ref.a_next", list(fresh_a), derived=True)
                # Enc'(a_0), Enc'(a'_0), Enc'(a_1), ..., Enc'(Phi): the
                # order a loop of single encryptions draws its coins in.
                *f_flat, f_phi = self.hpske_g.encrypt_batch(
                    sk_comm,
                    (*(x for pair in zip(share1.a, fresh_a) for x in pair), share1.phi),
                    device1.rng,
                )
                f_pairs = list(zip(f_flat[0::2], f_flat[1::2]))
            yield Send("ref.f", (tuple(f_pairs), f_phi))

            # Step 3 (P1): decrypt Phi', stage the new share, commit.
            message = yield Recv("ref.f_combined")
            with device1.computing():
                new_phi = self.hpske_g.decrypt(sk_comm, message.payload)
            device1.secret.store(SK1_PENDING_SLOT, Share1(a=fresh_a, phi=new_phi))
            yield Send("ref.commit", True)
            yield Commit()

        spec = ProtocolSpec(
            "dlr.refresh",
            device1,
            device2,
            p1,
            lambda: self._p2_refresh_steps(device2),
            secrets1=("ref.sk_comm", "ref.a_next"),
            staged=DLR_STAGED,
            abort_message=REFRESH_ABORT_MESSAGE,
        )
        self._run_engine(spec, channel)

    # ------------------------------------------------------------------
    # One faithful time period (section 5.2 remark: coin reuse), with one
    # or several decryptions (section 3.3 extension)
    # ------------------------------------------------------------------

    def run_period(
        self,
        device1: Device,
        device2: Device,
        channel: Transport,
        ciphertext: Ciphertext,
    ) -> PeriodRecord:
        """Execute one full time period: decryption then refresh, with one
        ``sk_comm`` and the ``f_i -> d_i`` ciphertext reuse; returns the
        phase snapshots for the leakage oracle.

        Crash-safe: an exception at any message boundary rolls back any
        staged share rotation, erases every protocol secret, and closes
        the open phase snapshots before propagating, so the period can be
        re-run against intact shares
        (:func:`repro.runtime.drive_period_resilient`).
        """
        period, [plaintext], snapshots, messages = self._run_period(
            device1, device2, channel, [("dec", ciphertext)], "period"
        )
        return PeriodRecord(period, plaintext, snapshots, messages)

    def run_period_multi(
        self,
        device1: Device,
        device2: Device,
        channel: Transport,
        ciphertexts: list[Ciphertext],
    ) -> MultiPeriodRecord:
        """Like :meth:`run_period`, but with several decryption protocol
        executions (labels ``dec.<i>.*``) inside one time period, all
        sharing one ``sk_comm`` and one set of refresh ciphertexts
        ``f_i`` (each decryption pairs them with its own ``A``), and one
        refresh at the end -- so the per-ciphertext cost approaches the
        marginal decryption work as the batch grows.  An empty batch
        still refreshes.  Crash-safe the same way."""
        return MultiPeriodRecord(
            *self._run_period(
                device1,
                device2,
                channel,
                [(f"dec.{index}", c) for index, c in enumerate(ciphertexts)],
                "period_multi",
            )
        )

    def _run_period(
        self,
        device1: Device,
        device2: Device,
        channel: Transport,
        decryptions: list[tuple[str, Ciphertext]],
        kind: str,
    ) -> tuple[int, list[GTElement], dict[tuple[int, str], PhaseSnapshot], list[Message]]:
        """The one period path: decrypt each ``(label prefix,
        ciphertext)`` pair in order, refresh once, then read the
        period's transcript and advance the channel."""
        period = channel.current_period
        snapshots: dict[tuple[int, str], PhaseSnapshot] = {}
        prefixes = [prefix for prefix, _ in decryptions]
        spec = ProtocolSpec(
            f"{self.period_protocol}.{kind}",
            device1,
            device2,
            lambda: self._p1_period_steps(device1, period, decryptions, snapshots),
            lambda: self._p2_period_steps(device2, period, prefixes, snapshots),
            secrets1=self.period_secrets1,
            staged=self.period_staged,
            abort_message=self.period_abort_message.format(period=period),
            abort_period=period,
            snapshots=snapshots,
        )
        plaintexts = self._run_engine(spec, channel)
        assert isinstance(plaintexts, list)
        messages = channel.transcript(period)
        channel.advance_period()
        return period, plaintexts, snapshots, messages

    def _p1_period_steps(
        self,
        device1: Device,
        period: int,
        decryptions: list[tuple[str, Ciphertext]],
        snapshots: dict[tuple[int, str], PhaseSnapshot],
    ):
        """P1's whole time period.  P1 computes the refresh ciphertexts
        ``f_i`` first and derives each decryption's ``d_i`` by pairing
        them with its ``A`` (remark, section 5.2); the refresh then
        reuses the same ``sk_comm`` and ``f_i``."""
        share1 = self.share1_of(device1)
        device1.secret.open_phase(f"t{period}.normal")
        with device1.computing():
            sk_comm = self.hpske_g.keygen(device1.rng)
            device1.secret.store("period.sk_comm", sk_comm)
            *f_list, f_phi = self.hpske_g.encrypt_batch(
                sk_comm, (*share1.a, share1.phi), device1.rng
            )

        plaintexts: list[GTElement] = []
        for prefix, ciphertext in decryptions:
            with device1.computing():
                # One Miller schedule for A, reused across every f_i
                # coordinate (kappa + 1 pairings per ciphertext), all
                # evaluated in one batched leg.
                a_precomp = self.group.pairing_precomp(ciphertext.a)
                transported = pair_ciphertexts(a_precomp, [*f_list, f_phi])
                d_b = self.hpske_gt.encrypt(sk_comm, ciphertext.b, device1.rng)
            yield Send(f"{prefix}.d", (tuple(transported[:-1]), transported[-1], d_b))
            message = yield Recv(f"{prefix}.c_prime")
            with device1.computing():
                plaintext = self.hpske_gt.decrypt(sk_comm, message.payload)
            assert isinstance(plaintext, GTElement)
            yield Send(f"{prefix}.output", plaintext)
            plaintexts.append(plaintext)
        snapshots[(1, "normal")] = device1.secret.close_phase()

        # --- refresh phase (same sk_comm, f_i reused) -------------------
        device1.secret.open_phase(f"t{period}.refresh")
        with device1.computing():
            fresh_a = tuple(self.group.random_g_batch(device1.rng, self.params.ell))
            device1.secret.store("period.a_next", list(fresh_a), derived=True)
            f_new = self.hpske_g.encrypt_batch(sk_comm, fresh_a, device1.rng)
        yield Send("ref.f", (tuple(zip(f_list, f_new)), f_phi))

        message = yield Recv("ref.f_combined")
        with device1.computing():
            new_phi = self.hpske_g.decrypt(sk_comm, message.payload)
        device1.secret.store(SK1_PENDING_SLOT, Share1(a=fresh_a, phi=new_phi))
        yield Send("ref.commit", True)
        yield Commit()

        # Erase every protocol secret of the period before the snapshot
        # closes (the slots must not seed the next phase).
        device1.secret.erase("period.sk_comm")
        device1.secret.erase("period.a_next")
        snapshots[(1, "refresh")] = device1.secret.close_phase()
        return plaintexts

    # ------------------------------------------------------------------
    # Share health check
    # ------------------------------------------------------------------

    def verify_shares(
        self,
        public_key: PublicKey,
        device1: Device,
        device2: Device,
        channel: Transport,
        rng: random.Random,
    ) -> bool:
        """A cooperative self-test: do the current shares still decrypt
        under this public key?

        P1 encrypts a fresh random probe message to the public key and
        the devices run the real decryption protocol on it.  A mismatch
        means the shares have drifted (corruption, interrupted refresh,
        mixed generations).  The probe plaintext is chosen by P1 and
        never trusted by anyone, so the check reveals nothing beyond a
        normal protocol run.
        """
        probe = self.group.random_gt(rng)
        ciphertext = self.encrypt(public_key, probe, rng)
        try:
            return self.decrypt_protocol(device1, device2, channel, ciphertext) == probe
        except ProtocolError:
            return False

    # ------------------------------------------------------------------
    # Reference (non-distributed) decryption, for tests only
    # ------------------------------------------------------------------

    def reference_decrypt(
        self, share1: Share1, share2: Share2, ciphertext: Ciphertext
    ) -> GTElement:
        """Decrypt by reconstructing ``g2^alpha`` in one place.

        The protocols never do this; it pins down the functionality the
        2-party decryption must match.
        """
        p = self.group.p
        master = G1Element.multiexp(
            (share1.phi, *share1.a),
            (1, *((p - s_i) % p for s_i in share2.s)),
        )
        return ciphertext.b / self.group.pair(ciphertext.a, master)


def _scalar(value: int, p: int):
    from repro.protocol.device import _ScalarInMemory

    return _ScalarInMemory(value, p)
