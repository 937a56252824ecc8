"""T10 -- DLRCCA2: CCA2 security mechanisms under continual leakage
(section 4.3).

Measures the BCHK overhead (OTS keygen/sign + identity extraction per
decryption) and validates the rejection paths that give CCA2: every
mauling strategy is refused or yields garbage, while leakage flows
through the usual budgets.
"""

import random

import pytest

from repro.analysis.games import CCA2Adversary, CCA2CMLGame
from repro.cca.dlr_cca import CCACiphertext, DLRCCA2
from repro.errors import DecryptionError
from repro.ibe.boneh_boyen import IBECiphertext
from repro.leakage.functions import PrefixBits
from repro.leakage.oracle import LeakageBudget

N_ID = 4


class TestCCA2:
    def test_generate_table(self, benchmark, small_params, table_writer):
        from repro.protocol.device import Device
        from repro.protocol.transport import InMemoryTransport

        cca = DLRCCA2(small_params, n_id=N_ID)
        rng = random.Random(1)
        setup = cca.setup(rng)
        p1 = Device("P1", cca.params.group, rng)
        p2 = Device("P2", cca.params.group, rng)
        channel = InMemoryTransport()
        cca.install(p1, p2, setup.share1, setup.share2)
        group = cca.params.group
        message = group.random_gt(rng)

        def count(operation):
            before = group.counter.snapshot()
            result = operation()
            return group.counter.diff(before), result

        enc_cost, ciphertext = count(lambda: cca.encrypt(setup, message, rng))
        dec_cost, plaintext = count(
            lambda: cca.decrypt_protocol(setup, p1, p2, channel, ciphertext)
        )
        assert plaintext == message

        # Mauling outcomes.
        outcomes = {}
        ct = cca.encrypt(setup, message, rng)
        mauled = CCACiphertext(
            ct.verify_key,
            IBECiphertext(ct.inner.a, ct.inner.c, ct.inner.b * group.random_gt(rng)),
            ct.signature,
        )
        try:
            cca.decrypt_protocol(setup, p1, p2, channel, mauled)
            outcomes["tampered body"] = "ACCEPTED (bug!)"
        except DecryptionError:
            outcomes["tampered body"] = "rejected (signature)"

        attacker = cca.ots.keygen(rng)
        rewrapped = CCACiphertext(
            attacker.verify_key,
            ct.inner,
            cca.ots.sign(attacker, ct.inner.to_bits().to_bytes()),
        )
        rewrap_result = cca.decrypt_protocol(setup, p1, p2, channel, rewrapped)
        outcomes["re-signed under attacker vk"] = (
            "decrypts to garbage (wrong identity)" if rewrap_result != message
            else "ACCEPTED (bug!)"
        )

        def pairing_work(cost):
            return cost.pairings + cost.pairings_precomp

        def exp_terms(cost):
            return cost.exponentiations + cost.g_multiexp + cost.gt_multiexp

        rows = [
            ["encrypt: pairings / exp terms",
             f"{pairing_work(enc_cost)} / {exp_terms(enc_cost)}", ""],
            ["decrypt: pairings / exp terms",
             f"{pairing_work(dec_cost)} / {exp_terms(dec_cost)}",
             "includes extraction"],
            ["ciphertext identity", "fresh OTS vk per encryption", ""],
            ["tampered body", outcomes["tampered body"], ""],
            ["re-signed under attacker vk", outcomes["re-signed under attacker vk"], ""],
        ]
        table_writer(
            "T10_cca2",
            ["quantity / attack", "outcome", "notes"],
            rows,
            note="DLRCCA2 (BCHK over DLRIBE + Lamport OTS): costs and mauling defenses.",
        )

        assert outcomes["tampered body"].startswith("rejected")
        assert outcomes["re-signed under attacker vk"].startswith("decrypts to garbage")
        assert enc_cost.pairings + enc_cost.pairings_precomp == 0

        benchmark.pedantic(
            lambda: cca.encrypt(setup, message, rng), rounds=3, iterations=1
        )

    def test_cca2_game_with_leakage(self, benchmark, small_params, table_writer):
        """One full CCA2-CML game: leakage periods with a live decryption
        oracle, then the challenge with oracle refusal."""
        cca = DLRCCA2(small_params, n_id=N_ID)
        game = CCA2CMLGame(cca, LeakageBudget(0, 64, 64), random.Random(2), max_periods=1)

        results = {"oracle_ok": False, "challenge_refused": False}

        class Probing(CCA2Adversary):
            def period_functions(self, period):
                if period >= 1:
                    return None
                return (PrefixBits(16), PrefixBits(16), PrefixBits(16), PrefixBits(16))

            def guess_cca(self, challenge, m0, m1):
                own = cca.encrypt(self.setup, m0, self.rng)
                results["oracle_ok"] = self.oracle(own) == m0
                try:
                    self.oracle(challenge)
                except Exception:
                    results["challenge_refused"] = True
                return self.rng.getrandbits(1)

        def run_game():
            return game.run(Probing(random.Random(3)))

        outcome = benchmark.pedantic(run_game, rounds=1, iterations=1)
        assert not outcome.aborted
        assert outcome.periods == 1
        assert results["oracle_ok"]
        assert results["challenge_refused"]
        table_writer(
            "T10_cca2_game",
            ["check", "result"],
            [
                ["leakage periods completed", outcome.periods],
                ["oracle decrypts adversary ciphertexts", results["oracle_ok"]],
                ["oracle refuses challenge", results["challenge_refused"]],
            ],
            note="CCA2-against-CML game mechanics.",
        )
