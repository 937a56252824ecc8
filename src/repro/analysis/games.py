"""Executable security games (paper Definition 3.2 and its CCA2 variant).

:class:`CPACMLGame` runs the semantic-security-against-continual-
memory-leakage game for a DLR-style scheme, exactly as in Definition 3.2:

1. the challenger generates keys and hands the adversary ``pk``;
2. the adversary may request key-generation leakage (``h_Gen``, bound
   ``b0``);
3. for as many periods as the adversary chooses, it submits
   ``(h_1^t, h_1^{t,Ref}, h_2^t, h_2^{t,Ref})``; the challenger draws a
   ciphertext from the distribution ``C``, runs the decryption and
   refresh protocols, and answers the leakage queries under the
   ``(b1, b2)`` accounting of :class:`~repro.leakage.oracle.LeakageOracle`;
4. challenge: the adversary names ``m0, m1``, receives ``Enc(m_b)`` and
   guesses ``b``.

Over-budget requests abort the game (the challenger aborts in the
paper); the result records this.  :class:`CCA2CMLGame` adds a decryption
oracle for the DLRCCA2 scheme, refusing only the challenge ciphertext.

These games are *mechanism* checks, not asymptotic proofs: benchmarks
run them with in-budget adversaries (advantage statistically
indistinguishable from zero), over-budget adversaries (advantage ~ 1,
validating that the leaked bits really determine the key), and against
the single-memory ElGamal baseline (same budget, total break).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.dlr import DLR, PeriodRecord
from repro.core.keys import Ciphertext, PublicKey
from repro.errors import DecryptionError, LeakageBudgetExceeded, ProtocolError
from repro.groups.bilinear import GTElement
from repro.leakage.functions import LeakageFunction, LeakageInput
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport
from repro.utils.bits import BitString
from repro.utils.rng import fork_rng

CiphertextSampler = Callable[[random.Random, PublicKey, int], Ciphertext]


@dataclass
class AdversaryView:
    """Everything the adversary legitimately sees.

    Live references: reading ``public_memory_*`` or ``channel`` reflects
    the current state, exactly as a real observer of the public channel
    and public memory would.
    """

    public_key: PublicKey
    channel: InMemoryTransport
    device1: Device
    device2: Device
    leakage_log: list[tuple[int, dict[tuple[int, str], BitString]]] = field(
        default_factory=list
    )
    decryption_log: list[tuple[Ciphertext, GTElement]] = field(default_factory=list)

    @property
    def group(self):
        return self.public_key.group


class Adversary:
    """Base adversary: never leaks, guesses at random.

    Subclasses override the hooks they care about.  ``m0/m1`` default to
    two fixed distinct messages.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.view: AdversaryView | None = None

    def begin(self, view: AdversaryView) -> None:
        self.view = view

    def generation_leakage(self) -> LeakageFunction | None:
        return None

    def period_functions(
        self, period: int
    ) -> tuple[LeakageFunction, LeakageFunction, LeakageFunction, LeakageFunction] | None:
        """Return ``(h1, h1_ref, h2, h2_ref)`` or None to move to the
        challenge phase."""
        return None

    def observe_leakage(
        self, period: int, results: dict[tuple[int, str], BitString]
    ) -> None:
        if self.view is not None:
            self.view.leakage_log.append((period, results))

    def choose_messages(self) -> tuple[GTElement, GTElement]:
        assert self.view is not None
        group = self.view.group
        m0 = group.random_gt(self.rng)
        while True:
            m1 = group.random_gt(self.rng)
            if m1 != m0:
                return m0, m1

    def guess(self, challenge: Ciphertext, m0: GTElement, m1: GTElement) -> int:
        return self.rng.getrandbits(1)


@dataclass
class GameResult:
    """Outcome of one game run."""

    won: bool
    challenge_bit: int
    guess: int
    periods: int
    aborted: bool = False
    abort_reason: str = ""


class CPACMLGame:
    """The Definition 3.2 game for a DLR-style scheme."""

    def __init__(
        self,
        scheme: DLR,
        budget: LeakageBudget,
        rng: random.Random,
        ciphertext_sampler: CiphertextSampler | None = None,
        max_periods: int = 64,
    ) -> None:
        self.scheme = scheme
        self.budget = budget
        self.rng = rng
        self.max_periods = max_periods
        self._sampler = ciphertext_sampler or self._default_sampler

    def _default_sampler(
        self, rng: random.Random, public_key: PublicKey, period: int
    ) -> Ciphertext:
        """The distribution C: encryptions of uniform messages (background
        decryptions "run, say, by other users of the scheme")."""
        return self.scheme.encrypt(public_key, self.scheme.group.random_gt(rng), rng)

    def run(self, adversary: Adversary) -> GameResult:
        rng = fork_rng(self.rng, "game")
        generation = self.scheme.generate(rng)
        oracle = LeakageOracle(self.budget)

        device1 = Device("P1", self.scheme.group, rng)
        device2 = Device("P2", self.scheme.group, rng)
        channel = InMemoryTransport()
        self.scheme.install(device1, device2, generation.share1, generation.share2)

        view = AdversaryView(generation.public_key, channel, device1, device2)
        adversary.begin(view)

        # Leakage on key generation (bound b0).
        h_gen = adversary.generation_leakage()
        if h_gen is not None:
            try:
                leaked = oracle.leak_generation(
                    h_gen, LeakageInput(generation.randomness, [])
                )
            except LeakageBudgetExceeded as exc:
                return GameResult(False, 0, 0, 0, aborted=True, abort_reason=str(exc))
            adversary.observe_leakage(-1, {(0, "gen"): leaked})

        # Leakage at every time period.
        periods = 0
        for period in range(self.max_periods):
            request = adversary.period_functions(period)
            if request is None:
                break
            h1, h1_ref, h2, h2_ref = request
            ciphertext = self._sampler(rng, generation.public_key, period)
            record = self.scheme.run_period(device1, device2, channel, ciphertext)
            view.decryption_log.append((ciphertext, record.plaintext))
            try:
                results = self._answer_leakage(
                    oracle, record, (h1, h1_ref, h2, h2_ref)
                )
            except LeakageBudgetExceeded as exc:
                return GameResult(
                    False, 0, 0, periods, aborted=True, abort_reason=str(exc)
                )
            oracle.end_period()
            adversary.observe_leakage(period, results)
            periods += 1

        # Challenge phase.
        m0, m1 = adversary.choose_messages()
        bit = rng.getrandbits(1)
        challenge = self.scheme.encrypt(generation.public_key, (m0, m1)[bit], rng)
        guess = adversary.guess(challenge, m0, m1)
        return GameResult(guess == bit, bit, guess, periods)

    def _answer_leakage(
        self,
        oracle: LeakageOracle,
        record: PeriodRecord,
        functions: tuple[LeakageFunction, ...],
    ) -> dict[tuple[int, str], BitString]:
        h1, h1_ref, h2, h2_ref = functions
        public = record.messages
        results: dict[tuple[int, str], BitString] = {}
        results[(1, "normal")] = oracle.leak(
            1, h1, LeakageInput(record.snapshots[(1, "normal")], public)
        )
        results[(2, "normal")] = oracle.leak(
            2, h2, LeakageInput(record.snapshots[(2, "normal")], public)
        )
        results[(1, "refresh")] = oracle.leak_refresh(
            1, h1_ref, LeakageInput(record.snapshots[(1, "refresh")], public)
        )
        results[(2, "refresh")] = oracle.leak_refresh(
            2, h2_ref, LeakageInput(record.snapshots[(2, "refresh")], public)
        )
        return results


class CCA2Adversary(Adversary):
    """Base CCA2 adversary: additionally receives a decryption oracle and
    the scheme's public setup (needed to form its own ciphertexts)."""

    def set_oracle(self, oracle: Callable[[object], GTElement]) -> None:
        self.oracle = oracle

    def receive_setup(self, setup) -> None:
        self.setup = setup

    def guess_cca(self, challenge: object, m0: GTElement, m1: GTElement) -> int:
        return self.rng.getrandbits(1)


class CCA2CMLGame:
    """The CCA2-against-CML game for DLRCCA2.

    Each pre-challenge period wraps one background decryption (through
    the full verify/extract/decrypt path) and one master-share refresh in
    leakage phases; the decryption oracle is available throughout, except
    on the challenge ciphertext itself.
    """

    def __init__(
        self,
        scheme,  # DLRCCA2 (duck-typed to avoid an import cycle)
        budget: LeakageBudget,
        rng: random.Random,
        max_periods: int = 16,
    ) -> None:
        self.scheme = scheme
        self.budget = budget
        self.rng = rng
        self.max_periods = max_periods

    def run(self, adversary: CCA2Adversary) -> GameResult:
        rng = fork_rng(self.rng, "cca2-game")
        setup = self.scheme.setup(rng)
        oracle = LeakageOracle(self.budget)
        group = self.scheme.params.group

        device1 = Device("P1", group, rng)
        device2 = Device("P2", group, rng)
        channel = InMemoryTransport()
        self.scheme.install(device1, device2, setup.share1, setup.share2)

        view = AdversaryView(
            PublicKey(self.scheme.params, setup.public_params.z),
            channel,
            device1,
            device2,
        )
        adversary.begin(view)
        adversary.receive_setup(setup)

        challenge_holder: list[object] = []

        def decryption_oracle(ciphertext) -> GTElement:
            if challenge_holder and ciphertext == challenge_holder[0]:
                raise ProtocolError("decryption oracle refuses the challenge")
            return self.scheme.decrypt_protocol(
                setup, device1, device2, channel, ciphertext
            )

        adversary.set_oracle(decryption_oracle)

        periods = 0
        for period in range(self.max_periods):
            request = adversary.period_functions(period)
            if request is None:
                break
            h1, h1_ref, h2, h2_ref = request
            # Background decryption inside the "normal" leakage phase.
            snap1 = device1.secret.open_phase(f"t{period}.normal")
            snap2 = device2.secret.open_phase(f"t{period}.normal")
            background = self.scheme.encrypt(setup, group.random_gt(rng), rng)
            try:
                self.scheme.decrypt_protocol(setup, device1, device2, channel, background)
            except DecryptionError:  # pragma: no cover - honest ciphertexts verify
                pass
            device1.secret.close_phase()
            device2.secret.close_phase()
            # Master-share refresh inside the "refresh" phase.
            ref1 = device1.secret.open_phase(f"t{period}.refresh")
            ref2 = device2.secret.open_phase(f"t{period}.refresh")
            self.scheme.ibe.refresh_protocol(device1, device2, channel)
            device1.secret.close_phase()
            device2.secret.close_phase()

            public = channel.transcript(channel.current_period)
            try:
                results = {
                    (1, "normal"): oracle.leak(1, h1, LeakageInput(snap1, public)),
                    (2, "normal"): oracle.leak(2, h2, LeakageInput(snap2, public)),
                    (1, "refresh"): oracle.leak_refresh(
                        1, h1_ref, LeakageInput(ref1, public)
                    ),
                    (2, "refresh"): oracle.leak_refresh(
                        2, h2_ref, LeakageInput(ref2, public)
                    ),
                }
            except LeakageBudgetExceeded as exc:
                return GameResult(False, 0, 0, periods, aborted=True, abort_reason=str(exc))
            oracle.end_period()
            channel.advance_period()
            adversary.observe_leakage(period, results)
            periods += 1

        m0, m1 = adversary.choose_messages()
        bit = rng.getrandbits(1)
        challenge = self.scheme.encrypt(setup, (m0, m1)[bit], rng)
        challenge_holder.append(challenge)
        guess = adversary.guess_cca(challenge, m0, m1)
        return GameResult(guess == bit, bit, guess, periods)
