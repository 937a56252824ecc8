"""Long-horizon soak test: many observed periods, all subsystems active.

20 time periods over one key pair: every period decrypts background
traffic, leaks at the theorem budget on both devices in both phases,
refreshes, and health-checks.  At the end the very first ciphertext
still decrypts, the leakage totals dwarf the secret-state size, and no
invariant has drifted.
"""

import random

import pytest

from repro.core.optimal import OptimalDLR
from repro.leakage.functions import LeakageInput, PrefixBits
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

PERIODS = 20


class TestLifecycleSoak:
    @pytest.fixture(scope="class")
    def soak(self, small_params):
        scheme = OptimalDLR(small_params)
        rng = random.Random(2012)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        channel = InMemoryTransport()
        scheme.install(p1, p2, generation.share1, generation.share2)

        budget = LeakageBudget(
            0, small_params.theorem_b1(), small_params.theorem_b2()
        )
        oracle = LeakageOracle(budget)
        # Steady state under the Def 3.2 carry: carried + normal + refresh
        # <= b, so equal thirds are sustainable forever.
        half1, half2 = budget.b1 // 3, budget.b2 // 3

        first_message = scheme.group.random_gt(rng)
        first_ciphertext = scheme.encrypt(generation.public_key, first_message, rng)

        plaintext_errors = 0
        for period in range(PERIODS):
            message = scheme.group.random_gt(rng)
            ciphertext = scheme.encrypt(generation.public_key, message, rng)
            record = scheme.run_period(p1, p2, channel, ciphertext)
            if record.plaintext != message:
                plaintext_errors += 1
            oracle.leak(
                1, PrefixBits(half1),
                LeakageInput(record.snapshots[(1, "normal")], record.messages),
            )
            oracle.leak_refresh(
                1, PrefixBits(half1),
                LeakageInput(record.snapshots[(1, "refresh")], record.messages),
            )
            oracle.leak(
                2, PrefixBits(half2),
                LeakageInput(record.snapshots[(2, "normal")], record.messages),
            )
            oracle.leak_refresh(
                2, PrefixBits(half2),
                LeakageInput(record.snapshots[(2, "refresh")], record.messages),
            )
            oracle.end_period()
        return {
            "scheme": scheme,
            "generation": generation,
            "p1": p1,
            "p2": p2,
            "channel": channel,
            "oracle": oracle,
            "rng": rng,
            "first_message": first_message,
            "first_ciphertext": first_ciphertext,
            "plaintext_errors": plaintext_errors,
        }

    def test_no_decryption_errors_over_lifetime(self, soak):
        assert soak["plaintext_errors"] == 0

    def test_first_ciphertext_still_decrypts(self, soak):
        plaintext = soak["scheme"].decrypt_protocol(
            soak["p1"], soak["p2"], soak["channel"], soak["first_ciphertext"]
        )
        assert plaintext == soak["first_message"]

    def test_total_leakage_exceeds_state_size(self, soak, small_params):
        """Unbounded total leakage, the point of the continual model."""
        oracle = soak["oracle"]
        total = oracle.total_leaked_bits[1] + oracle.total_leaked_bits[2]
        state = small_params.sk_comm_bits() + small_params.sk2_bits()
        assert total > 5 * state

    def test_health_check_passes(self, soak):
        assert soak["scheme"].verify_shares(
            soak["generation"].public_key,
            soak["p1"],
            soak["p2"],
            soak["channel"],
            soak["rng"],
        )

    def test_no_transient_slots_left(self, soak, small_params):
        assert soak["p1"].secret.names() == ["sk_comm"]
        assert soak["p2"].secret.names() == ["sk2"]
        assert soak["p1"].secret.size_bits() == small_params.sk_comm_bits()

    def test_periods_counted(self, soak):
        # PERIODS run_period calls + the verify/decrypt calls afterwards.
        assert soak["oracle"].period == PERIODS
        assert soak["channel"].current_period == PERIODS
