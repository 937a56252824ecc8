"""T9 -- DLRIBE: leakage from the master secret key AND identity keys
(section 4.2 + Remark 4.1), with per-operation costs.

The paper's DIBE table: master-key shares tolerate the same
(1 - o(1), 1) / (1/2 - o(1), 1) rates as DLR; identity-key generation
leaks at most (b1, b2) (not the stricter b0); identity keys refresh too.
"""

import random

import pytest

from repro.core.params import DLRParams
from repro.ibe.dlr_ibe import DLRIBE
from repro.leakage.functions import LeakageInput, PrefixBits
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

N_ID = 8


class TestDIBELifecycle:
    def test_generate_table(self, benchmark, small_params, table_writer):
        dibe = DLRIBE(small_params, n_id=N_ID)
        rng = random.Random(1)
        setup = dibe.setup(rng)
        p1 = Device("P1", dibe.group, rng)
        p2 = Device("P2", dibe.group, rng)
        channel = InMemoryTransport()
        dibe.install(p1, p2, setup.share1, setup.share2)

        budget = LeakageBudget(0, small_params.theorem_b1(), small_params.theorem_b2())
        oracle = LeakageOracle(budget)

        # --- extraction under leakage (Remark 4.1: bound is b1/b2) ------
        snap1 = p1.secret.open_phase("extract")
        snap2 = p2.secret.open_phase("extract")
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        p1.secret.close_phase()
        p2.secret.close_phase()
        extract_leak_1 = oracle.leak(
            1, PrefixBits(min(budget.b1, 64)), LeakageInput(snap1, [])
        )
        extract_leak_2 = oracle.leak(
            2, PrefixBits(min(budget.b2, 64)), LeakageInput(snap2, [])
        )
        oracle.end_period()

        # --- decryption + both refresh flavors under leakage ------------
        message = dibe.group.random_gt(rng)
        ciphertext = dibe.encrypt_to(setup.public_params, "alice", message, rng)

        # Split the per-period budget b1 between the normal and refresh
        # phases (the Def 3.2 accounting sums them).
        half_b1 = budget.b1 // 2

        snap1 = p1.secret.open_phase("decrypt")
        snap2 = p2.secret.open_phase("decrypt")
        plaintext = dibe.decrypt_protocol_id(p1, p2, channel, "alice", ciphertext)
        p1.secret.close_phase()
        p2.secret.close_phase()
        dec_leak_1 = oracle.leak(1, PrefixBits(half_b1), LeakageInput(snap1, []))

        ref1 = p1.secret.open_phase("refresh")
        ref2 = p2.secret.open_phase("refresh")
        dibe.refresh_protocol(p1, p2, channel)  # master
        dibe.refresh_identity_protocol(setup.public_params, p1, p2, channel, "alice")
        p1.secret.close_phase()
        p2.secret.close_phase()
        ref_leak_1 = oracle.leak_refresh(1, PrefixBits(half_b1), LeakageInput(ref1, []))
        oracle.end_period()

        # Still decrypts after leaking on everything and refreshing both
        # the master and identity shares.
        assert dibe.decrypt_protocol_id(p1, p2, channel, "alice", ciphertext) == message
        assert plaintext == message

        # --- cost rows -----------------------------------------------------
        group = dibe.group

        def count(operation):
            before = group.counter.snapshot()
            operation()
            return group.counter.diff(before)

        extract_cost = count(
            lambda: dibe.extract_protocol(setup.public_params, p1, p2, channel, "bob")
        )
        ct_bob = dibe.encrypt_to(setup.public_params, "bob", message, rng)
        enc_cost = count(lambda: dibe.encrypt_to(setup.public_params, "carol", message, rng))
        dec_cost = count(
            lambda: dibe.decrypt_protocol_id(p1, p2, channel, "bob", ct_bob)
        )
        idref_cost = count(
            lambda: dibe.refresh_identity_protocol(setup.public_params, p1, p2, channel, "bob")
        )

        def exp_terms(cost):
            # Exponentiation work whether done as single ladders or as
            # folded multiexp terms (the fast-kernel profile).
            return (
                cost.exponentiations + cost.g_multiexp + cost.gt_multiexp
            )

        rows = [
            ["extract (2-party)",
             extract_cost.pairings + extract_cost.pairings_precomp,
             exp_terms(extract_cost)],
            ["encrypt-to-ID",
             enc_cost.pairings + enc_cost.pairings_precomp,
             exp_terms(enc_cost)],
            ["decrypt (2-party)",
             dec_cost.pairings + dec_cost.pairings_precomp,
             exp_terms(dec_cost)],
            ["identity refresh (2-party)",
             idref_cost.pairings + idref_cost.pairings_precomp,
             exp_terms(idref_cost)],
        ]
        table_writer(
            "T9_dibe_costs",
            ["operation", "pairings", "exp terms"],
            rows,
            note=f"DLRIBE operation costs at n=32, n_id={N_ID}; leakage exercised on msk and identity shares.",
        )

        leak_rows = [
            ["extraction leak P1 (bits)", len(extract_leak_1), f"<= b1 = {budget.b1}"],
            ["extraction leak P2 (bits)", len(extract_leak_2), f"<= b2 = {budget.b2}"],
            ["decryption leak P1 (bits)", len(dec_leak_1), "normal-phase budget"],
            ["refresh leak P1 (bits)", len(ref_leak_1), "refresh-phase budget"],
        ]
        table_writer(
            "T9_dibe_leakage",
            ["phase", "leaked", "bound"],
            leak_rows,
            note="Remark 4.1: identity-key generation leaks under (b1, b2), not the stricter b0.",
        )

        # Encryption has no pairings (z in the params) per footnote 3 logic.
        assert enc_cost.pairings + enc_cost.pairings_precomp == 0
        # Extraction and identity refresh need no pairings either.
        assert extract_cost.pairings + extract_cost.pairings_precomp == 0
        assert idref_cost.pairings + idref_cost.pairings_precomp == 0
        # Decryption pairs: ell + 2 for the DLR part + n_id for the C_j
        # (full Miller loops or cached-schedule evaluations).
        assert dec_cost.pairings + dec_cost.pairings_precomp >= N_ID

        benchmark.pedantic(
            lambda: dibe.encrypt_to(setup.public_params, "dave", message, rng),
            rounds=3,
            iterations=1,
        )

    def test_identity_share_rates_match_master(self, benchmark, small_params, table_writer):
        """Remark 4.1: 'the above leakage bounds hold both when P1, P2
        are sharing the master secret key and when they are sharing an
        identity based secret key.'  Measure the identity-share phase
        snapshots during identity refresh: P2's identity share doubles
        (old s' + new s''), same as the master share."""
        dibe = DLRIBE(small_params, n_id=N_ID)
        rng = random.Random(9)
        setup = dibe.setup(rng)
        p1 = Device("P1", dibe.group, rng)
        p2 = Device("P2", dibe.group, rng)
        channel = InMemoryTransport()
        dibe.install(p1, p2, setup.share1, setup.share2)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")

        # Master share sizes, for the comparison column.
        m2 = small_params.sk2_bits()
        id_share2 = dibe.identity_share2_of(p2, "alice")
        id_m2 = id_share2.size_bits()

        snap1 = p1.secret.open_phase("idref")
        snap2 = p2.secret.open_phase("idref")

        def one_refresh():
            dibe.refresh_identity_protocol(setup.public_params, p1, p2, channel, "alice")

        one_refresh()
        p1.secret.close_phase()
        p2.secret.close_phase()
        benchmark.pedantic(one_refresh, rounds=2, iterations=1)

        # P2's snapshot = master share (untouched) + id share old + new.
        p2_refresh_bits = snap2.size_bits()
        id_refresh_bits = p2_refresh_bits - m2
        b2_id = id_m2  # Remark 4.1: same full-share bound applies

        rows = [
            ["master share m2", m2, "b2 = m2 -> rho2 = 1"],
            ["identity share |sk_ID^2|", id_m2, "= ell log p = m2"],
            ["identity share during refresh", id_refresh_bits, "= 2 |sk_ID^2|"],
            ["rho (identity, normal)", f"{b2_id / id_m2:.2f}", "= 1"],
            ["rho (identity, refresh)", f"{b2_id / id_refresh_bits:.2f}", "= 1/2"],
        ]
        table_writer(
            "T9_identity_rates",
            ["quantity", "bits / value", "Remark 4.1 expectation"],
            rows,
            note="Identity-key shares obey the same leakage accounting as master shares.",
        )
        assert id_m2 == m2                      # ell scalars either way
        assert id_refresh_bits == 2 * id_m2     # doubling during refresh
        assert b2_id / id_refresh_bits == pytest.approx(0.5)

    def test_extract_timing(self, benchmark, small_params):
        dibe = DLRIBE(small_params, n_id=N_ID)
        rng = random.Random(2)
        setup = dibe.setup(rng)
        p1 = Device("P1", dibe.group, rng)
        p2 = Device("P2", dibe.group, rng)
        channel = InMemoryTransport()
        dibe.install(p1, p2, setup.share1, setup.share2)
        counter = [0]

        def extract():
            counter[0] += 1
            dibe.extract_protocol(setup.public_params, p1, p2, channel, f"id{counter[0]}")

        benchmark.pedantic(extract, rounds=3, iterations=1)
