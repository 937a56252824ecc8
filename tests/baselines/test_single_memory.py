"""Tests for the single-memory strawman and the msk-extraction leakage
function -- the executable version of the paper's section 1.1 argument."""

import random

import pytest

from repro.baselines.single_memory import (
    MskExtractionLeakage,
    SingleMemoryDLR,
    decrypt_with_leaked_msk,
)
from repro.leakage.functions import LeakageInput
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.protocol.memory import MemoryRegion


@pytest.fixture()
def setting(small_params):
    scheme = SingleMemoryDLR(small_params)
    rng = random.Random(1)
    generation = scheme.generate(rng)
    memory = MemoryRegion("combined")
    scheme.install(memory, generation.share1, generation.share2)
    return scheme, generation, memory, rng


class TestFunctionality:
    def test_local_decryption_works(self, setting):
        scheme, generation, memory, rng = setting
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)
        assert scheme.decrypt(memory, ciphertext) == message

    def test_reconstruct_msk_matches_pk(self, setting):
        scheme, generation, _, _ = setting
        msk = scheme.reconstruct_msk(generation.share1, generation.share2)
        assert scheme.group.pair(scheme.group.g, msk) == generation.public_key.z

    def test_memory_holds_everything(self, setting, small_params):
        scheme, _, memory, _ = setting
        expected = small_params.sk1_bits() + small_params.sk2_bits()
        assert scheme.secret_memory_bits(memory) == expected


class TestOneShotBreak:
    def test_msk_extraction_is_tiny(self, setting, small_params):
        """The killer function outputs log q + 2 bits -- a small fraction
        of the combined memory AND far below DLR's own b2 budget."""
        scheme, _, memory, _ = setting
        fn = MskExtractionLeakage(scheme.group)
        assert fn.output_length == scheme.group.g_element_bits()
        assert fn.output_length < 0.1 * scheme.secret_memory_bits(memory)
        assert fn.output_length < small_params.theorem_b2()

    def test_one_leak_breaks_everything(self, setting):
        scheme, generation, memory, rng = setting
        snap = memory.open_phase("t0")
        memory.close_phase()
        leaked = MskExtractionLeakage(scheme.group)(LeakageInput(snap, []))
        # The adversary now decrypts arbitrary ciphertexts offline.
        for _ in range(3):
            message = scheme.group.random_gt(rng)
            ciphertext = scheme.encrypt(generation.public_key, message, rng)
            assert decrypt_with_leaked_msk(scheme.group, leaked, ciphertext) == message

    def test_break_fits_in_dlr_budgets(self, setting, small_params):
        """Formally: run the leakage through the same oracle with DLR's
        (b1, b2) budgets -- it is comfortably in budget.  The SAME budget
        that provably protects the distributed scheme is a total loss for
        the single-memory one."""
        scheme, generation, memory, rng = setting
        budget = LeakageBudget(0, small_params.theorem_b1(), small_params.theorem_b2())
        oracle = LeakageOracle(budget)
        snap = memory.open_phase("t0")
        memory.close_phase()
        leaked = oracle.leak(
            2, MskExtractionLeakage(scheme.group), LeakageInput(snap, [])
        )
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)
        assert decrypt_with_leaked_msk(scheme.group, leaked, ciphertext) == message

    def test_function_cannot_exist_in_distributed_setting(self, setting, small_params):
        """Mechanical impossibility: per-device snapshots lack the other
        share, so the extraction function fails on either device's
        leakage input."""
        from repro.core.dlr import DLR
        from repro.protocol.device import Device
        from repro.protocol.transport import InMemoryTransport

        scheme, generation, _, rng = setting
        distributed = DLR(small_params)
        p1 = Device("P1", distributed.group, rng)
        p2 = Device("P2", distributed.group, rng)
        distributed.install(p1, p2, generation.share1, generation.share2)
        ciphertext = distributed.encrypt(
            generation.public_key, distributed.group.random_gt(rng), rng
        )
        record = distributed.run_period(p1, p2, InMemoryTransport(), ciphertext)
        fn = MskExtractionLeakage(distributed.group)
        from repro.errors import ProtocolError

        for key in ((1, "normal"), (2, "normal")):
            with pytest.raises((ProtocolError, AssertionError)):
                fn(LeakageInput(record.snapshots[key], record.messages))
