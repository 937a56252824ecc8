"""Measured leakage rates vs Theorem 4.1 -- the integration version of
experiment T3: run real periods, measure real snapshot sizes, compute
the five rates, compare against the paper's formulas."""

import random

import pytest

from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.leakage.oracle import LeakageBudget
from repro.leakage.rates import MemoryProfile, compute_rates
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport


def measure_profiles(params, seed=1):
    """Run one period of the optimal scheme; return measured memory sizes."""
    rng = random.Random(seed)
    scheme = OptimalDLR(params)
    generation = scheme.generate(rng)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    channel = InMemoryTransport()
    scheme.install(p1, p2, generation.share1, generation.share2)
    ciphertext = scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
    record = scheme.run_period(p1, p2, channel, ciphertext)
    sizes = {key: snap.size_bits() for key, snap in record.snapshots.items()}
    gen_bits = generation.randomness.size_bits()
    profile1 = MemoryProfile(
        share_bits=sizes[(1, "normal")],
        normal_randomness_bits=0,
        refresh_randomness_bits=sizes[(1, "refresh")] - sizes[(1, "normal")],
    )
    profile2 = MemoryProfile(
        share_bits=sizes[(2, "normal")],
        normal_randomness_bits=0,
        refresh_randomness_bits=sizes[(2, "refresh")] - sizes[(2, "normal")],
    )
    return gen_bits, profile1, profile2


class TestMeasuredRates:
    def test_rates_match_theorem_formulas(self, small_params):
        gen_bits, profile1, profile2 = measure_profiles(small_params)
        params = small_params
        budget = LeakageBudget(0, params.theorem_b1(), params.theorem_b2())
        rates = compute_rates(budget, gen_bits, profile1, profile2)
        lam, n = params.lam, params.n
        assert rates.rho1 == pytest.approx(lam / (lam + 3 * n), rel=0.02)
        assert rates.rho2 == pytest.approx(1.0)
        assert rates.rho1_refresh == pytest.approx(rates.rho1 / 2, rel=0.02)
        assert rates.rho2_refresh == pytest.approx(0.5)

    def test_rho1_grows_toward_one_with_lambda(self, small_group):
        previous = 0.0
        for lam in (32, 128, 512):
            params = DLRParams(group=small_group, lam=lam)
            gen_bits, profile1, profile2 = measure_profiles(params, seed=lam)
            budget = LeakageBudget(0, params.theorem_b1(), params.theorem_b2())
            rates = compute_rates(budget, gen_bits, profile1, profile2)
            assert rates.rho1 > previous
            previous = rates.rho1
        assert previous > 0.8

    def test_refresh_memory_exactly_doubles(self, small_params):
        _, profile1, profile2 = measure_profiles(small_params)
        assert profile1.refresh_bits == 2 * profile1.normal_bits
        assert profile2.refresh_bits == 2 * profile2.normal_bits

    def test_generation_randomness_dominates_b0(self, small_params):
        """rho_Gen = b0 / |r_Gen| is o(1): b0 = O(log n) while |r_Gen| is
        hundreds of bits."""
        gen_bits, _, _ = measure_profiles(small_params)
        b0 = small_params.n.bit_length()  # Omega(log n) bits
        assert b0 / gen_bits < 0.05
