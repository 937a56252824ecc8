"""End-to-end integration tests across the whole stack."""

import random

import pytest

from repro.analysis.games import Adversary, CCA2Adversary, CCA2CMLGame, CPACMLGame
from repro.cca.dlr_cca import DLRCCA2
from repro.core.dlr import DLR
from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.ibe.dlr_ibe import DLRIBE
from repro.leakage.functions import PrefixBits
from repro.leakage.oracle import LeakageBudget
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport
from repro.storage.leaky_store import LeakyStore


class TestFullLifecycleMediumGroup:
    """A handful of checks at the 64-bit preset (closer to real sizes)."""

    def test_dlr_lifecycle(self, medium_params):
        rng = random.Random(1)
        scheme = OptimalDLR(medium_params)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        channel = InMemoryTransport()
        scheme.install(p1, p2, generation.share1, generation.share2)
        for _ in range(2):
            message = scheme.group.random_gt(rng)
            ciphertext = scheme.encrypt(generation.public_key, message, rng)
            record = scheme.run_period(p1, p2, channel, ciphertext)
            assert record.plaintext == message

    def test_cross_scheme_share_compatibility(self, medium_params):
        """Shares produced by Gen work in both the basic and optimal
        protocol suites (they implement the same scheme)."""
        rng = random.Random(2)
        basic = DLR(medium_params)
        optimal = OptimalDLR(medium_params)
        generation = basic.generate(rng)
        message = basic.group.random_gt(rng)
        ciphertext = basic.encrypt(generation.public_key, message, rng)

        b1 = Device("P1", basic.group, rng)
        b2 = Device("P2", basic.group, rng)
        basic.install(b1, b2, generation.share1, generation.share2)
        assert basic.decrypt_protocol(b1, b2, InMemoryTransport(), ciphertext) == message

        o1 = Device("P1", basic.group, rng)
        o2 = Device("P2", basic.group, rng)
        optimal.install(o1, o2, generation.share1, generation.share2)
        assert optimal.decrypt_protocol(o1, o2, InMemoryTransport(), ciphertext) == message


class TestGameWithLeakageEveryPhase:
    """Leakage at generation, every period (normal + refresh), for both
    devices -- all budget paths exercised in one run."""

    def test_full_leakage_schedule(self, small_params):
        scheme = OptimalDLR(small_params)
        budget = LeakageBudget(16, 64, 64)

        class EverywhereAdversary(Adversary):
            def generation_leakage(self):
                return PrefixBits(16)

            def period_functions(self, period):
                if period >= 3:
                    return None
                # 16 + 16 + carried 16 = 48 <= 64: sustainable forever.
                return (PrefixBits(16), PrefixBits(16), PrefixBits(16), PrefixBits(16))

        game = CPACMLGame(scheme, budget, random.Random(3))
        result = game.run(EverywhereAdversary(random.Random(4)))
        assert not result.aborted
        assert result.periods == 3


class TestDIBEWithStorage:
    def test_dibe_and_store_share_group(self, small_params):
        """Multiple subsystems coexisting over one group instance."""
        rng = random.Random(5)
        dibe = DLRIBE(small_params, n_id=4)
        setup = dibe.setup(rng)
        p1 = Device("P1", dibe.group, rng)
        p2 = Device("P2", dibe.group, rng)
        channel = InMemoryTransport()
        dibe.install(p1, p2, setup.share1, setup.share2)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "device-42")
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(setup.public_params, "device-42", message, rng)
        assert dibe.decrypt_protocol_id(p1, p2, channel, "device-42", ct) == message

        store = LeakyStore(small_params, rng)
        handle = store.store_element("session-key", message)
        store.refresh()
        assert store.retrieve_element(handle) == message


class TestCCA2Game:
    def test_oracle_used_and_challenge_refused(self, small_params):
        cca = DLRCCA2(small_params, n_id=4)
        game = CCA2CMLGame(cca, LeakageBudget(0, 64, 64), random.Random(6), max_periods=1)

        class ProbingAdversary(CCA2Adversary):
            oracle_worked = False
            challenge_refused = False

            def period_functions(self, period):
                if period >= 1:
                    return None
                return (PrefixBits(8), PrefixBits(8), PrefixBits(8), PrefixBits(8))

            def guess_cca(self, challenge, m0, m1):
                own = cca.encrypt(self.setup, m0, self.rng)
                type(self).oracle_worked = self.oracle(own) == m0
                try:
                    self.oracle(challenge)
                except Exception:
                    type(self).challenge_refused = True
                return self.rng.getrandbits(1)

        result = game.run(ProbingAdversary(random.Random(7)))
        assert not result.aborted
        assert ProbingAdversary.oracle_worked
        assert ProbingAdversary.challenge_refused


class TestParameterSweeps:
    @pytest.mark.parametrize("lam", [16, 48, 96])
    def test_dlr_works_across_lambda(self, small_group, lam):
        rng = random.Random(lam)
        params = DLRParams(group=small_group, lam=lam)
        scheme = OptimalDLR(params)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)
        assert scheme.decrypt_protocol(p1, p2, InMemoryTransport(), ciphertext) == message
