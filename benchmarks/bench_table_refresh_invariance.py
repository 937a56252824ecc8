"""T5 -- Definition 3.1: refresh preserves the share distribution exactly
(``SD((sk^0), (sk^t)) = 0``) and correctness holds across arbitrarily
many refreshes.

Statistical check on the toy group (chi-squared of fresh vs refreshed
share components), exact-correctness check at benchmark size.
"""

import random

import pytest

from repro.analysis.stattests import chi_squared_two_sample
from repro.core.dlr import DLR
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

TRIALS = 30
REFRESH_DEPTH = 3


class TestRefreshInvariance:
    def test_generate_table(self, benchmark, toy_params, table_writer):
        scheme = DLR(toy_params)

        def collect(depth, seed):
            """Share2 scalars after `depth` refreshes."""
            rng = random.Random(seed)
            generation = scheme.generate(rng)
            if depth == 0:
                return list(generation.share2.s[:4])
            p1 = Device("P1", scheme.group, rng)
            p2 = Device("P2", scheme.group, rng)
            channel = InMemoryTransport()
            scheme.install(p1, p2, generation.share1, generation.share2)
            for _ in range(depth):
                scheme.refresh_protocol(p1, p2, channel)
            return list(scheme.share2_of(p2).s[:4])

        benchmark.pedantic(lambda: collect(1, 0), rounds=2, iterations=1)

        fresh = []
        rows = []
        for seed in range(TRIALS):
            fresh.extend(collect(0, seed))
        p_values = {}
        for depth in range(1, REFRESH_DEPTH + 1):
            refreshed = []
            for seed in range(TRIALS):
                refreshed.extend(collect(depth, 1000 * depth + seed))
            result = chi_squared_two_sample(
                [s % 8 for s in fresh], [s % 8 for s in refreshed]
            )
            p_values[depth] = result.p_value
            rows.append([depth, len(refreshed), f"{result.statistic:.2f}", f"{result.p_value:.4f}"])
        table_writer(
            "T5_refresh_invariance",
            ["refresh depth t", "samples", "chi2 vs fresh", "p-value"],
            rows,
            note="Definition 3.1: sk^t must be distributed exactly like sk^0.",
        )

        # No depth shows a detectable distribution shift.
        for depth, p_value in p_values.items():
            assert p_value > 0.001, f"distribution drift at depth {depth}"

    def test_correctness_across_deep_refresh_chains(self, benchmark, small_params):
        """Dec(Enc(m)) = m after t* refreshes for every t* (Def 3.1's
        functional requirement), at the 32-bit preset."""
        scheme = DLR(small_params)
        rng = random.Random(7)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        channel = InMemoryTransport()
        scheme.install(p1, p2, generation.share1, generation.share2)
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)

        def one_refresh_and_decrypt():
            scheme.refresh_protocol(p1, p2, channel)
            assert scheme.decrypt_protocol(p1, p2, channel, ciphertext) == message

        benchmark.pedantic(one_refresh_and_decrypt, rounds=5, iterations=1)
