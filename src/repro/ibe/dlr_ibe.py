"""DLRIBE: distributed IBE secure against continual memory leakage
(paper section 4.2).

Both the master secret key *and* every identity secret key are shared
between the two devices:

* the master shares and their refresh protocol are identical to DLR's
  (``msk = g2^alpha`` shared via Pi_ss), so :class:`DLRIBE` subclasses
  :class:`~repro.core.dlr.DLR` and inherits them;
* an identity key ``sk_ID = ((g^{r_j})_j, M = g2^alpha prod_j
  u_{j,b_j}^{r_j})`` is shared as
  ``sk_ID^1 = ((g^{r_j})_j, (a'_i)_i, Psi = M prod_i a'_i{}^{s'_i})`` and
  ``sk_ID^2 = (s'_1..s'_ell)``.

The 2-party protocols (all engine-driven step-generator pairs; P2's
steps are the shared DLR generators -- the identity protocols differ
from the master ones only in P1's local computation and the labels):

* **Extraction** mirrors the refresh protocol: P1 samples the BB
  randomness ``r_j`` and fresh ``a'_i``, sends
  ``(Enc'(a_i), Enc'(a'_i))_i`` and ``Enc'(Phi * prod u_{j,b_j}^{r_j})``;
  P2 samples ``s'`` and returns the blinded combination, which decrypts
  to ``Psi``.  Per Remark 4.1 the leakage bound during extraction is the
  normal ``(b1, b2)`` -- only *master* key generation needs ``b0``.
  There is one extraction path: a lone identity
  (:meth:`DLRIBE.extract_protocol`) is an :meth:`DLRIBE.extract_batch`
  of one, and a batch shares one ``sk_comm`` and one ``Enc'(a_i)`` set.
* **Identity decryption** mirrors DLR decryption after P1 folds
  ``prod_j e(C_j, g^{r_j})`` into ``B``.
* **Identity refresh** additionally re-randomizes the BB exponents:
  P1 shifts ``r_j -> r_j + delta_j`` by multiplying ``g^{delta_j}`` into
  the public parts and ``prod u_{j,b_j}^{delta_j}`` into the blinded
  ``Psi`` homomorphically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.dlr import DLR, MultiPeriodRecord, PeriodRecord, combine_refresh
from repro.core.keys import Share1, Share2
from repro.errors import ProtocolError
from repro.groups.bilinear import G1Element, GTElement
from repro.ibe.boneh_boyen import BonehBoyenIBE, IBECiphertext, IBEPublicParams
from repro.ibe.extract_cache import IdentityKeyCache
from repro.ibe.identity_hash import hash_identity
from repro.protocol.device import Device
from repro.protocol.engine import Commit, ProtocolSpec, Recv, Send, StagedShare
from repro.protocol.memory import PhaseSnapshot
from repro.protocol.transport import Transport
from repro.telemetry.tracer import traced
from repro.utils.bits import BitString, concat_all


@dataclass(frozen=True)
class IdentityShare1:
    """P1's share of an identity key: ``((g^{r_j})_j, (a'_i)_i, Psi)``."""

    r_pub: tuple[G1Element, ...]
    a: tuple[G1Element, ...]
    psi: G1Element

    def to_bits(self) -> BitString:
        return (
            concat_all(e.to_bits() for e in self.r_pub)
            + concat_all(e.to_bits() for e in self.a)
            + self.psi.to_bits()
        )

    def size_bits(self) -> int:
        return len(self.to_bits())


@dataclass
class DIBESetupResult:
    """Output of DLRIBE setup: public params, master shares, and the
    secret setup randomness (input to ``h_Gen``)."""

    public_params: IBEPublicParams
    share1: Share1
    share2: Share2
    randomness: PhaseSnapshot


def _id_slot(device_index: int, identity: str) -> str:
    return f"id.{identity}.sk{device_index}"


@dataclass
class IdentityPeriodRecord:
    """One identity-key time period (extract-if-absent, decrypt, refresh)."""

    period: int
    identity: str
    plaintext: GTElement
    extracted: bool  # whether this period had to (re-)extract the key
    messages: list


class DLRIBE(DLR):
    """The distributed leakage-resilient IBE."""

    span_kind = "dlribe"

    def __init__(
        self, params, n_id: int = 16, extract_cache_size: int = 32
    ) -> None:
        super().__init__(params)
        self.n_id = n_id
        self._bb = BonehBoyenIBE(params.group, n_id)
        #: Bounded LRU over extracted identities; entries go stale on
        #: identity refresh (new generation) and on master rotation
        #: (epoch advance).  See :mod:`repro.ibe.extract_cache`.
        self.extract_cache = IdentityKeyCache(extract_cache_size)

    # ------------------------------------------------------------------
    # Setup (master key generation)
    # ------------------------------------------------------------------

    @traced("setup")
    def setup(self, rng: random.Random) -> DIBESetupResult:
        """Master key generation: BB public parameters + DLR-style shares
        of ``msk = g2^alpha``."""
        group = self.group
        base = self.generate(rng)  # DLR generation: shares of g2^alpha
        randomness = base.randomness
        # The DLR public key hides g1, g2; the IBE needs them public,
        # along with the U matrix.
        g2 = randomness.get("g2")
        alpha_mem = randomness.get("alpha")
        assert isinstance(g2, G1Element)
        g1 = group.g ** int(alpha_mem)  # type: ignore[call-overload]
        u = tuple((group.random_g(rng), group.random_g(rng)) for _ in range(self.n_id))
        pp = IBEPublicParams(group, g1, g2, u, base.public_key.z)
        return DIBESetupResult(pp, base.share1, base.share2, randomness)

    # ------------------------------------------------------------------
    # Encryption (public operation, identical to BB)
    # ------------------------------------------------------------------

    @traced("enc")
    def encrypt_to(
        self,
        pp: IBEPublicParams,
        identity: str,
        message: GTElement,
        rng: random.Random,
    ) -> IBECiphertext:
        return self._bb.encrypt(pp, identity, message, rng)

    # ------------------------------------------------------------------
    # 2-party identity key extraction
    # ------------------------------------------------------------------

    @traced("extract")
    def extract_protocol(
        self,
        pp: IBEPublicParams,
        device1: Device,
        device2: Device,
        channel: Transport,
        identity: str,
    ) -> None:
        """Derive and install the identity key shares for ``identity``.

        Requires the master shares to be installed (``DLR.install``).
        A mid-protocol failure erases any partially installed identity
        share on either device (the ``abort_erase`` entries of the spec;
        the master shares are never touched), so extraction can simply
        be retried.  This is :meth:`extract_batch` of one, without the
        cache skip (labels ``ext.*``).
        """
        self._extract(pp, device1, device2, channel, [("ext", identity)], "extract")

    @traced("extract_batch")
    def extract_batch(
        self,
        pp: IBEPublicParams,
        device1: Device,
        device2: Device,
        channel: Transport,
        identities: "list[str]",
        skip_cached: bool = True,
    ) -> list[str]:
        """Extract identity keys for a whole vector in **one** protocol.

        Amortisation: a single ``sk_comm`` and a single set of old-share
        encryptions ``Enc'(a_i)`` serve every identity -- only the fresh
        ``a'`` encryptions, the blinded ``M``, and P2's fresh scalars are
        per-identity (labels ``ext.<i>.*``).  This is the batch analogue
        of the section 5.2 coin-reuse remark applied to extraction.

        With ``skip_cached`` (the default), identities whose extraction
        is cache-fresh *and* whose shares are still resident on both
        devices are skipped; duplicates are extracted once.  Returns the
        identities actually extracted, in protocol order.  A mid-batch
        failure erases every identity share the batch touched on both
        devices (``abort_erase``) plus their cache entries, so a retry
        re-extracts the whole batch.
        """
        todo: list[str] = []
        seen: set[str] = set()
        for identity in identities:
            if identity in seen:
                continue
            seen.add(identity)
            if (
                skip_cached
                and self.extract_cache.is_fresh(identity)
                and self.has_identity_key(device1, device2, identity)
            ):
                self.extract_cache.touch(identity)
                continue
            todo.append(identity)
        if todo:
            self._extract(
                pp,
                device1,
                device2,
                channel,
                [(f"ext.{index}", identity) for index, identity in enumerate(todo)],
                "extract_batch",
            )
        return todo

    def _extract(
        self,
        pp: IBEPublicParams,
        device1: Device,
        device2: Device,
        channel: Transport,
        extractions: "list[tuple[str, str]]",
        kind: str,
    ) -> None:
        """The one extraction path: extract each ``(label prefix,
        identity)`` pair in order under one ``sk_comm`` (spec
        ``dlribe.<kind>``).

        The first identity draws the shared leg -- ``sk_comm`` and the
        old-share encryptions ``Enc'(a_i)`` -- right after its BB
        randomness ``r``; later identities reuse ``Enc'(a_i)`` and
        encrypt only their fresh ``a'`` and blinded ``M``.
        """
        msk1 = self.share1_of(device1)
        ell = self.params.ell
        identities = [identity for _, identity in extractions]

        def p1():
            sk_comm = None
            f_old: list = []
            for index, (prefix, identity) in enumerate(extractions):
                u_sel = pp.u_for(hash_identity(identity, self.n_id))
                with device1.computing():
                    # BB randomness r_j: secret while the blinded M is
                    # formed, and overwritten per identity.
                    r = [self.group.random_scalar(device1.rng) for _ in range(self.n_id)]
                    device1.secret.store("ext.r", Share2(tuple(r), self.group.p))
                    r_pub = tuple(self.group.g ** r_j for r_j in r)
                    # Phi * prod_j u_j^{r_j} as one multiexp (Phi rides
                    # along with exponent 1).
                    blinding = G1Element.multiexp((msk1.phi, *u_sel), (1, *r))
                    if index == 0:
                        sk_comm = self.hpske_g.keygen(device1.rng)
                        device1.secret.store("ext.sk_comm", sk_comm)
                    fresh_a = tuple(self.group.random_g_batch(device1.rng, ell))
                    device1.secret.store("ext.a_next", list(fresh_a), derived=True)
                    if index == 0:
                        # Enc'(a_0), Enc'(a'_0), Enc'(a_1), ..., Enc'(M): the
                        # order a loop of single encryptions draws its
                        # coins in.  Enc'(a_i) of the *old* master share is
                        # identity-independent, so later identities reuse it.
                        *f_flat, f_m = self.hpske_g.encrypt_batch(
                            sk_comm,
                            (*(x for pair in zip(msk1.a, fresh_a) for x in pair), blinding),
                            device1.rng,
                        )
                        f_old, f_new = f_flat[0::2], f_flat[1::2]
                    else:
                        *f_new, f_m = self.hpske_g.encrypt_batch(
                            sk_comm, (*fresh_a, blinding), device1.rng
                        )
                yield Send(f"{prefix}.f", (tuple(zip(f_old, f_new)), f_m))

                message = yield Recv(f"{prefix}.f_combined")
                with device1.computing():
                    psi = self.hpske_g.decrypt(sk_comm, message.payload)
                assert isinstance(psi, G1Element)
                device1.secret.store(
                    _id_slot(1, identity), IdentityShare1(r_pub=r_pub, a=fresh_a, psi=psi)
                )

        def p2():
            # Identical shape to the refresh step, but the fresh scalars
            # become the *identity* share, leaving the master share in place.
            msk2 = self.share2_of(device2)
            for prefix, identity in extractions:
                message = yield Recv(f"{prefix}.f")
                f_pairs, f_m = message.payload
                with device2.computing():
                    id_share2 = Share2(
                        tuple(self.group.random_scalar(device2.rng) for _ in range(ell)),
                        self.group.p,
                    )
                    combined = combine_refresh(msk2, id_share2, f_pairs, f_m)
                device2.secret.store(_id_slot(2, identity), id_share2)
                yield Send(f"{prefix}.f_combined", combined)

        spec = ProtocolSpec(
            f"dlribe.{kind}",
            device1,
            device2,
            p1,
            p2,
            secrets1=("ext.r", "ext.sk_comm", "ext.a_next"),
            # A half-installed identity key must not linger on either side.
            abort_erase=tuple(
                (device_index, _id_slot(device_index, identity))
                for identity in identities
                for device_index in (1, 2)
            ),
        )
        try:
            self._run_engine(spec, channel)
        except Exception:
            for identity in identities:
                self.extract_cache.invalidate(identity)
            raise
        for identity in identities:
            # The cache bounds secret-memory residency: an identity the
            # LRU bound pushed out loses its share slots on both devices.
            evicted = self.extract_cache.record(identity)
            if evicted is not None and evicted != identity:
                device1.secret.erase_if_present(_id_slot(1, evicted))
                device2.secret.erase_if_present(_id_slot(2, evicted))

    # ------------------------------------------------------------------
    # 2-party identity decryption
    # ------------------------------------------------------------------

    @traced("dec_id")
    def decrypt_protocol_id(
        self,
        device1: Device,
        device2: Device,
        channel: Transport,
        identity: str,
        ciphertext: IBECiphertext,
    ) -> GTElement:
        """Decrypt a ciphertext for ``identity`` with its key shares."""
        share1 = self.identity_share1_of(device1, identity)

        def p1():
            with device1.computing():
                b_star = ciphertext.b
                for c_j, r_j in zip(ciphertext.c, share1.r_pub):
                    b_star = b_star * self.group.pair(c_j, r_j)

                sk_comm = self.hpske_gt.keygen(device1.rng)
                device1.secret.store("iddec.sk_comm", sk_comm)
                # One Miller schedule for A = c.a, reused over every a_i
                # and Psi.
                paired = self.group.pairing_precomp(ciphertext.a).pair_many(
                    (*share1.a, share1.psi)
                )
                *d_list, d_psi, d_b = self.hpske_gt.encrypt_batch(
                    sk_comm, (*paired, b_star), device1.rng
                )
            yield Send("iddec.d", (tuple(d_list), d_psi, d_b))

            message = yield Recv("iddec.c_prime")
            with device1.computing():
                plaintext = self.hpske_gt.decrypt(sk_comm, message.payload)
            return plaintext

        spec = ProtocolSpec(
            "dlribe.decrypt",
            device1,
            device2,
            p1,
            lambda: self._p2_decrypt_steps(
                device2,
                prefix="iddec",
                share_of=lambda: self.identity_share2_of(device2, identity),
            ),
            secrets1=("iddec.sk_comm",),
        )
        plaintext = self._run_engine(spec, channel)
        assert isinstance(plaintext, GTElement)
        return plaintext

    # ------------------------------------------------------------------
    # 2-party identity key refresh
    # ------------------------------------------------------------------

    @traced("ref_id")
    def refresh_identity_protocol(
        self,
        pp: IBEPublicParams,
        device1: Device,
        device2: Device,
        channel: Transport,
        identity: str,
    ) -> None:
        """Refresh the identity key shares: fresh ``a''``, fresh ``s''``,
        and re-randomized BB exponents ``r_j + delta_j``.

        Staged like the master refresh: both devices park their fresh
        identity share in a pending slot and only swap it in at the
        ``idref.commit`` boundary; any earlier failure rolls both back
        to the old identity shares (:class:`~repro.errors.RefreshAborted`).
        """
        share1 = self.identity_share1_of(device1, identity)
        ell = self.params.ell
        u_sel = pp.u_for(hash_identity(identity, self.n_id))
        slot1 = _id_slot(1, identity)
        slot2 = _id_slot(2, identity)
        pending1 = slot1 + ".pending"
        pending2 = slot2 + ".pending"

        def p1():
            with device1.computing():
                delta = [self.group.random_scalar(device1.rng) for _ in range(self.n_id)]
                device1.secret.store("idref.delta", Share2(tuple(delta), self.group.p))
                new_r_pub = tuple(
                    r_j * (self.group.g ** d_j) for r_j, d_j in zip(share1.r_pub, delta)
                )
                shift = G1Element.multiexp((share1.psi, *u_sel), (1, *delta))

                sk_comm = self.hpske_g.keygen(device1.rng)
                device1.secret.store("idref.sk_comm", sk_comm)
                fresh_a = tuple(self.group.random_g_batch(device1.rng, ell))
                device1.secret.store("idref.a_next", list(fresh_a), derived=True)
                # Enc'(a_0), Enc'(a'_0), Enc'(a_1), ..., Enc'(shift): the
                # order a loop of single encryptions draws its coins in.
                *f_flat, f_psi = self.hpske_g.encrypt_batch(
                    sk_comm,
                    (*(x for pair in zip(share1.a, fresh_a) for x in pair), shift),
                    device1.rng,
                )
            yield Send("idref.f", (tuple(zip(f_flat[0::2], f_flat[1::2])), f_psi))

            message = yield Recv("idref.f_combined")
            with device1.computing():
                new_psi = self.hpske_g.decrypt(sk_comm, message.payload)
            assert isinstance(new_psi, G1Element)
            device1.secret.store(
                pending1,
                IdentityShare1(r_pub=new_r_pub, a=fresh_a, psi=new_psi),
            )
            yield Send("idref.commit", True)
            yield Commit()

        spec = ProtocolSpec(
            "dlribe.refresh_identity",
            device1,
            device2,
            p1,
            lambda: self._p2_refresh_steps(
                device2,
                prefix="idref",
                pending_slot=pending2,
                share_of=lambda: self.identity_share2_of(device2, identity),
            ),
            secrets1=("idref.delta", "idref.sk_comm", "idref.a_next"),
            staged=(
                StagedShare(1, slot1, pending1),
                StagedShare(2, slot2, pending2),
            ),
            abort_message=(
                f"identity refresh for {identity!r} aborted; "
                "both devices rolled back to their old identity shares"
            ),
        )
        self._run_engine(spec, channel)
        # A refresh mints a new generation: tokens captured against the
        # pre-refresh extraction must observe staleness.
        self.extract_cache.record(identity)

    # ------------------------------------------------------------------
    # Master rotation closes the extract-cache epoch
    # ------------------------------------------------------------------
    #
    # The master shares rotating is a period boundary on the master
    # leakage ledger; identity keys extracted under the previous master
    # generation stop being vouched for (see
    # :meth:`repro.ibe.extract_cache.IdentityKeyCache.advance_epoch`).

    def refresh_protocol(self, device1, device2, channel):
        super().refresh_protocol(device1, device2, channel)
        self.extract_cache.advance_epoch()

    def _run_period(self, *args):
        result = super()._run_period(*args)
        self.extract_cache.advance_epoch()
        return result

    # ------------------------------------------------------------------
    # One identity-key time period (for the session supervisor)
    # ------------------------------------------------------------------

    def has_identity_key(self, device1: Device, device2: Device, identity: str) -> bool:
        """Do both devices hold committed identity shares for ``identity``?"""
        return device1.secret.has(_id_slot(1, identity)) and device2.secret.has(
            _id_slot(2, identity)
        )

    def run_identity_period(
        self,
        pp: IBEPublicParams,
        device1: Device,
        device2: Device,
        channel: Transport,
        identity: str,
        ciphertext: IBECiphertext,
    ) -> IdentityPeriodRecord:
        """One full *identity-key* time period: extract the key shares if
        absent (first period, or after a resume -- identity keys are
        derived material, re-extractable from the master shares and never
        checkpointed), decrypt this period's traffic, refresh the
        identity shares.

        Crash-safe like :meth:`~repro.core.dlr.DLR.run_period`: a failed
        extraction erases its partial shares, a failed refresh rolls both
        devices back, so a supervisor simply re-runs the period.  The
        channel period advances only on success.
        """
        period = channel.current_period
        extracted = False
        if not self.has_identity_key(device1, device2, identity):
            self.extract_protocol(pp, device1, device2, channel, identity)
            extracted = True
        else:
            self.extract_cache.touch(identity)
        plaintext = self.decrypt_protocol_id(device1, device2, channel, identity, ciphertext)
        self.refresh_identity_protocol(pp, device1, device2, channel, identity)
        messages = channel.transcript(period)
        channel.advance_period()
        return IdentityPeriodRecord(period, identity, plaintext, extracted, messages)

    # ------------------------------------------------------------------
    # Share accessors / reference decryption
    # ------------------------------------------------------------------

    @staticmethod
    def identity_share1_of(device: Device, identity: str) -> IdentityShare1:
        share = device.secret.read(_id_slot(1, identity))
        if not isinstance(share, IdentityShare1):
            raise ProtocolError(f"P1 has no identity share for {identity!r}")
        return share

    @staticmethod
    def identity_share2_of(device: Device, identity: str) -> Share2:
        share = device.secret.read(_id_slot(2, identity))
        if not isinstance(share, Share2):
            raise ProtocolError(f"P2 has no identity share for {identity!r}")
        return share

    def reference_decrypt_id(
        self,
        share1: IdentityShare1,
        share2: Share2,
        ciphertext: IBECiphertext,
    ) -> GTElement:
        """Single-place decryption from the identity shares (tests only)."""
        p = self.group.p
        m = G1Element.multiexp(
            (share1.psi, *share1.a),
            (1, *((p - s_i) % p for s_i in share2.s)),
        )
        numerator = ciphertext.b
        for c_j, r_j in zip(ciphertext.c, share1.r_pub):
            numerator = numerator * self.group.pair(c_j, r_j)
        return numerator / self.group.pair(ciphertext.a, m)
