"""T4 -- the "P2 is a simple device" claim (section 1.1, item 4).

"All P2 does is: (a) sample random coins s_1..s_ell in Z_p, and (b)
given a list of group elements, compute the product of these elements to
the power of s_1..s_ell."

We measure, per full time period (Dec + Ref), each device's operation
counts and single-number cost, across group sizes, and assert P1
dominates: P2 performs *zero* pairings and zero group-element sampling,
and its total cost is a small fraction of P1's.
"""

import random

import pytest

from repro.core.dlr import DLR, combine_decrypt
from repro.core.params import DLRParams
from repro.groups import preset_group
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

GROUP_SIZES = (32, 64, 96)


def run_period_with_counts(n_bits, seed=1):
    group = preset_group(n_bits)
    params = DLRParams(group=group, lam=64)
    scheme = DLR(params)
    rng = random.Random(seed)
    generation = scheme.generate(rng)
    p1, p2 = Device("P1", group, rng), Device("P2", group, rng)
    channel = InMemoryTransport()
    scheme.install(p1, p2, generation.share1, generation.share2)
    ciphertext = scheme.encrypt(generation.public_key, group.random_gt(rng), rng)
    scheme.run_period(p1, p2, channel, ciphertext)
    return p1.ops, p2.ops


class TestDeviceAsymmetry:
    def test_generate_table(self, benchmark, table_writer):
        benchmark.pedantic(lambda: run_period_with_counts(32), rounds=2, iterations=1)

        rows = []
        measured = {}
        for n_bits in GROUP_SIZES:
            ops1, ops2 = run_period_with_counts(n_bits)
            measured[n_bits] = (ops1, ops2)
            rows.append(
                [
                    n_bits, "P1", ops1.pairings + ops1.pairings_precomp,
                    ops1.g_exp + ops1.g_multiexp, ops1.gt_exp + ops1.gt_multiexp,
                    ops1.g_samples + ops1.gt_samples, ops1.total_cost(),
                ]
            )
            rows.append(
                [
                    n_bits, "P2", ops2.pairings + ops2.pairings_precomp,
                    ops2.g_exp + ops2.g_multiexp, ops2.gt_exp + ops2.gt_multiexp,
                    ops2.g_samples + ops2.gt_samples, ops2.total_cost(),
                ]
            )
        table_writer(
            "T4_device_asymmetry",
            ["n", "device", "pairings", "G exp terms", "GT exp terms", "samples", "cost"],
            rows,
            note="Per-period work split between the main processor P1 and the auxiliary device P2.",
        )

        for n_bits, (ops1, ops2) in measured.items():
            # P2's whole job: products of powers. No pairings, no sampling.
            assert ops2.pairings == 0 and ops2.pairings_precomp == 0
            assert ops2.g_samples == 0 and ops2.gt_samples == 0
            # P1 performs all pairings (the d_i derivation), whether via
            # full Miller loops or precomputed schedules.
            assert ops1.pairings + ops1.pairings_precomp > 0
            # And P1's aggregate cost dominates.
            assert ops1.total_cost() > 1.5 * ops2.total_cost()

    def test_p2_decryption_step_timing(self, benchmark, bench_params):
        """Wall-clock of P2's decryption step alone."""
        scheme = DLR(bench_params)
        rng = random.Random(2)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        channel = InMemoryTransport()
        scheme.install(p1, p2, generation.share1, generation.share2)
        ciphertext = scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)

        # Drive P1's step once to produce P2's inputs.
        share1 = scheme.share1_of(p1)
        sk_comm = scheme.hpske_gt.keygen(p1.rng)
        p1.secret.store("dec.sk_comm", sk_comm)
        d_list = tuple(
            scheme.hpske_gt.encrypt(sk_comm, scheme.group.pair(ciphertext.a, a_i), p1.rng)
            for a_i in share1.a
        )
        d_phi = scheme.hpske_gt.encrypt(
            sk_comm, scheme.group.pair(ciphertext.a, share1.phi), p1.rng
        )
        d_b = scheme.hpske_gt.encrypt(sk_comm, ciphertext.b, p1.rng)
        p1.secret.erase("dec.sk_comm")

        def p2_step():
            with p2.computing():
                return combine_decrypt(scheme.share2_of(p2), d_list, d_phi, d_b)

        benchmark(p2_step)

    def test_p1_decryption_step_timing(self, benchmark, bench_params):
        """Wall-clock of P1's step (pairings + encryptions): the companion
        number to compare with P2's step above."""
        scheme = DLR(bench_params)
        rng = random.Random(3)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        ciphertext = scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
        share1 = scheme.share1_of(p1)

        def p1_step():
            sk_comm = scheme.hpske_gt.keygen(p1.rng)
            d_list = [
                scheme.hpske_gt.encrypt(
                    sk_comm, scheme.group.pair(ciphertext.a, a_i), p1.rng
                )
                for a_i in share1.a
            ]
            return sk_comm, d_list

        benchmark.pedantic(p1_step, rounds=3, iterations=1)
