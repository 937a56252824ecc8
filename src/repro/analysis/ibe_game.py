"""The CPA-against-CML game for the distributed IBE (paper sections 3.3
and 4.2 -- "our definitions for distributed identity based encryption
are analogous").

Relative to the DPKE game, the IBE adversary additionally drives a
*key-extraction oracle*: at each period it may name identities whose key
shares the devices derive via the 2-party extraction protocol (leaking
under the normal ``(b1, b2)`` budgets, per Remark 4.1).  The challenge
identity must be one the adversary never had extracted -- the game
enforces this, mirroring the standard IBE restriction.

Per period the challenger also runs one background identity-decryption
(the distribution C analog) and refreshes the master shares plus every
extracted identity's shares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.games import GameResult
from repro.errors import LeakageBudgetExceeded, ProtocolError
from repro.groups.bilinear import GTElement
from repro.ibe.boneh_boyen import IBECiphertext, IBEPublicParams
from repro.ibe.dlr_ibe import DLRIBE
from repro.leakage.functions import LeakageFunction, LeakageInput
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport
from repro.utils.bits import BitString
from repro.utils.rng import fork_rng


@dataclass
class IBEPeriodRequest:
    """What the adversary asks of one time period."""

    extract_identities: list[str]
    h1: LeakageFunction
    h1_refresh: LeakageFunction
    h2: LeakageFunction
    h2_refresh: LeakageFunction


@dataclass
class IBEAdversaryView:
    public_params: IBEPublicParams
    channel: InMemoryTransport
    device1: Device
    device2: Device
    extracted: set[str] = field(default_factory=set)
    leakage_log: list[tuple[int, dict[tuple[int, str], BitString]]] = field(
        default_factory=list
    )


class IBEAdversary:
    """Base DIBE adversary: no extractions, no leakage, random guess."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.view: IBEAdversaryView | None = None

    def begin(self, view: IBEAdversaryView) -> None:
        self.view = view

    def period_request(self, period: int) -> IBEPeriodRequest | None:
        return None

    def observe_leakage(self, period: int, results) -> None:
        if self.view is not None:
            self.view.leakage_log.append((period, results))

    def choose_challenge(self) -> tuple[str, GTElement, GTElement]:
        """Return (identity, m0, m1); identity must be unextracted."""
        assert self.view is not None
        group = self.view.public_params.group
        m0 = group.random_gt(self.rng)
        while True:
            m1 = group.random_gt(self.rng)
            if m1 != m0:
                break
        return "challenge-identity", m0, m1

    def guess(self, challenge: IBECiphertext, m0: GTElement, m1: GTElement) -> int:
        return self.rng.getrandbits(1)


class IBECPACMLGame:
    """The Definition 3.2 game, IBE flavor."""

    def __init__(
        self,
        scheme: DLRIBE,
        budget: LeakageBudget,
        rng: random.Random,
        max_periods: int = 16,
    ) -> None:
        self.scheme = scheme
        self.budget = budget
        self.rng = rng
        self.max_periods = max_periods

    def run(self, adversary: IBEAdversary) -> GameResult:
        rng = fork_rng(self.rng, "ibe-game")
        scheme = self.scheme
        setup = scheme.setup(rng)
        oracle = LeakageOracle(self.budget)
        group = scheme.group

        device1 = Device("P1", group, rng)
        device2 = Device("P2", group, rng)
        channel = InMemoryTransport()
        scheme.install(device1, device2, setup.share1, setup.share2)

        view = IBEAdversaryView(setup.public_params, channel, device1, device2)
        adversary.begin(view)

        periods = 0
        for period in range(self.max_periods):
            request = adversary.period_request(period)
            if request is None:
                break

            # --- normal phase: extractions + one background decryption --
            snap1 = device1.secret.open_phase(f"t{period}.normal")
            snap2 = device2.secret.open_phase(f"t{period}.normal")
            for identity in request.extract_identities:
                if identity in view.extracted:
                    continue
                scheme.extract_protocol(
                    setup.public_params, device1, device2, channel, identity
                )
                view.extracted.add(identity)
            if view.extracted:
                target = sorted(view.extracted)[rng.randrange(len(view.extracted))]
                background = scheme.encrypt_to(
                    setup.public_params, target, group.random_gt(rng), rng
                )
                scheme.decrypt_protocol_id(device1, device2, channel, target, background)
            device1.secret.close_phase()
            device2.secret.close_phase()

            # --- refresh phase: master + every identity share ------------
            ref1 = device1.secret.open_phase(f"t{period}.refresh")
            ref2 = device2.secret.open_phase(f"t{period}.refresh")
            scheme.refresh_protocol(device1, device2, channel)
            for identity in sorted(view.extracted):
                scheme.refresh_identity_protocol(
                    setup.public_params, device1, device2, channel, identity
                )
            device1.secret.close_phase()
            device2.secret.close_phase()

            public = channel.transcript(channel.current_period)
            try:
                results = {
                    (1, "normal"): oracle.leak(
                        1, request.h1, LeakageInput(snap1, public)
                    ),
                    (2, "normal"): oracle.leak(
                        2, request.h2, LeakageInput(snap2, public)
                    ),
                    (1, "refresh"): oracle.leak_refresh(
                        1, request.h1_refresh, LeakageInput(ref1, public)
                    ),
                    (2, "refresh"): oracle.leak_refresh(
                        2, request.h2_refresh, LeakageInput(ref2, public)
                    ),
                }
            except LeakageBudgetExceeded as exc:
                return GameResult(False, 0, 0, periods, aborted=True, abort_reason=str(exc))
            oracle.end_period()
            channel.advance_period()
            adversary.observe_leakage(period, results)
            periods += 1

        identity, m0, m1 = adversary.choose_challenge()
        if identity in view.extracted:
            raise ProtocolError(
                "challenge identity was extracted -- the game forbids this"
            )
        bit = rng.getrandbits(1)
        challenge = scheme.encrypt_to(
            setup.public_params, identity, (m0, m1)[bit], rng
        )
        guess = adversary.guess(challenge, m0, m1)
        return GameResult(guess == bit, bit, guess, periods)
