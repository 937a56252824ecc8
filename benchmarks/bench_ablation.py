"""Ablation benchmarks for the design choices DESIGN.md calls out.

A1 -- **coin reuse** (section 5.2 remark): one time period run as the
      combined flow (one sk_comm, ``f_i`` reused as ``d_i``) vs. the
      construction-as-printed (separate Dec and Ref with fresh keys and
      coins).  Coin reuse trades ``ell`` GT-coin samplings + ``ell``
      GT-encryptions for ``(ell+1)(kappa+1)`` pairings; we measure both
      so the trade-off is on record, and verify communication drops.

A2 -- **basic vs. optimal variant**: identical functionality, very
      different leakage accounting -- the optimal variant shrinks P1's
      normal secret memory from ``(ell+1)|G| + m1`` to ``m1``.

A3 -- **fixed-base precomputation**: encryption with windowed tables vs.
      the plain ladder.
"""

import random

import pytest

from repro.core.dlr import DLR
from repro.core.optimal import OptimalDLR
from repro.groups.precompute import PrecomputedEncryptor
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport


def fresh_setting(scheme, seed=1):
    rng = random.Random(seed)
    generation = scheme.generate(rng)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    return generation, p1, p2, InMemoryTransport(), rng


class TestCoinReuseAblation:
    def test_combined_flow(self, benchmark, small_params, table_writer):
        scheme = DLR(small_params)
        generation, p1, p2, channel, rng = fresh_setting(scheme)
        ciphertext = scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)

        group = scheme.group

        def combined():
            return scheme.run_period(p1, p2, channel, ciphertext)

        before = group.counter.snapshot()
        benchmark.pedantic(combined, rounds=2, iterations=1)
        combined_ops = group.counter.diff(before)
        combined_comm = channel.bits_on_wire()

        # Separate flow on fresh devices.
        scheme2 = DLR(small_params)
        generation2, q1, q2, channel2, rng2 = fresh_setting(scheme2, seed=2)
        ciphertext2 = scheme2.encrypt(
            generation2.public_key, scheme2.group.random_gt(rng2), rng2
        )
        before = group.counter.snapshot()
        for _ in range(2):
            scheme2.decrypt_protocol(q1, q2, channel2, ciphertext2)
            scheme2.refresh_protocol(q1, q2, channel2)
        separate_ops = group.counter.diff(before)
        separate_comm = channel2.bits_on_wire()

        combined_pairings = combined_ops.pairings + combined_ops.pairings_precomp
        separate_pairings = separate_ops.pairings + separate_ops.pairings_precomp
        rows = [
            ["combined (coin reuse, 2 periods)", combined_pairings,
             combined_ops.gt_samples, combined_comm],
            ["separate Dec+Ref (2 periods)", separate_pairings,
             separate_ops.gt_samples, separate_comm],
        ]
        table_writer(
            "A1_coin_reuse",
            ["flow", "pairings", "GT coin samples", "comm bits"],
            rows,
            note="Section 5.2 remark: reusing f_i as d_i trades GT sampling/encryption for pairings.",
        )
        # The reuse eliminates almost all GT coin sampling...
        assert combined_ops.gt_samples < separate_ops.gt_samples
        # ...at the price of more pairings (f_i pair_with A per coordinate;
        # with the fixed-argument schedule they land in pairings_precomp).
        assert combined_pairings > separate_pairings


class TestVariantAblation:
    def test_basic_vs_optimal_leakage_surface(self, benchmark, small_params, table_writer):
        basic = DLR(small_params)
        optimal = OptimalDLR(small_params)
        rows = []
        surfaces = {}
        for name, scheme in (("basic", basic), ("optimal", optimal)):
            generation, p1, p2, channel, rng = fresh_setting(scheme, seed=3)
            ciphertext = scheme.encrypt(
                generation.public_key, scheme.group.random_gt(rng), rng
            )
            record = scheme.run_period(p1, p2, channel, ciphertext)
            sizes = {key: snap.size_bits() for key, snap in record.snapshots.items()}
            surfaces[name] = sizes
            b1 = small_params.theorem_b1()
            rows.append(
                [
                    name,
                    sizes[(1, "normal")],
                    sizes[(1, "refresh")],
                    f"{b1 / sizes[(1, 'normal')]:.3f}",
                    f"{b1 / sizes[(1, 'refresh')]:.3f}",
                ]
            )
        table_writer(
            "A2_variant_surface",
            ["variant", "P1 normal bits", "P1 refresh bits", "rho1", "rho1_ref"],
            rows,
            note="Optimal variant (P1 keeps only sk_comm) vs basic: the leakage-rate payoff.",
        )
        m1 = small_params.sk_comm_bits()
        assert surfaces["optimal"][(1, "normal")] == m1
        assert surfaces["basic"][(1, "normal")] > 2 * m1
        # Same P2 surface either way.
        assert surfaces["optimal"][(2, "normal")] == surfaces["basic"][(2, "normal")]

        generation, p1, p2, channel, rng = fresh_setting(optimal, seed=4)
        ciphertext = optimal.encrypt(generation.public_key, optimal.group.random_gt(rng), rng)
        benchmark.pedantic(
            lambda: optimal.decrypt_protocol(p1, p2, channel, ciphertext),
            rounds=2,
            iterations=1,
        )


class TestPrecomputeAblation:
    def test_plain_encryption(self, benchmark, bench_params):
        scheme = DLR(bench_params)
        rng = random.Random(5)
        generation = scheme.generate(rng)
        message = scheme.group.random_gt(rng)
        benchmark(lambda: scheme.encrypt(generation.public_key, message, rng))

    def test_precomputed_encryption(self, benchmark, bench_params, table_writer):
        scheme = DLR(bench_params)
        rng = random.Random(6)
        generation = scheme.generate(rng)
        message = scheme.group.random_gt(rng)
        encryptor = PrecomputedEncryptor(generation.public_key, window=5)

        result = benchmark(lambda: encryptor.encrypt(message, rng))
        # Correctness of the fast path.
        assert scheme.reference_decrypt(
            generation.share1, generation.share2, encryptor.encrypt(message, rng)
        ) == message
        table_writer(
            "A3_precompute",
            ["quantity", "value"],
            [
                ["window", 5],
                ["table elements (g + z)",
                 encryptor._g_table.table_elements() + encryptor._z_table.table_elements()],
                ["mults per exponentiation", encryptor._g_table.digits],
                ["ladder equivalent (~1.5 log p)", int(1.5 * bench_params.log_p)],
            ],
            note="Fixed-base windowed exponentiation for the two fixed bases of Enc.",
        )
