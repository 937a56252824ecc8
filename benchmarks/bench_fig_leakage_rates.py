"""T3 -- Theorem 4.1 leakage parameters as a function of lambda and n.

Regenerates the series:

    b1 = (1 - c n / (lambda + c n)) m1,   m1 = kappa log p ~ lambda + 3n
    rho1 = b1/m1 -> 1 - o(1)      rho1_ref = b1/2m1 -> 1/2 - o(1)
    rho2 = 1                      rho2_ref = 1/2 (1 in the proof)
    rho_gen = o(1)

Every row is measured from real phase snapshots, not formulas.
"""

import random

import pytest

from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.groups import preset_group
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

LAMBDAS = (32, 64, 128, 256, 512, 1024)
GROUP_SIZES = (32, 64)


def measure(group, lam, seed):
    params = DLRParams(group=group, lam=lam)
    scheme = OptimalDLR(params)
    rng = random.Random(seed)
    generation = scheme.generate(rng)
    p1, p2 = Device("P1", group, rng), Device("P2", group, rng)
    channel = InMemoryTransport()
    scheme.install(p1, p2, generation.share1, generation.share2)
    ciphertext = scheme.encrypt(generation.public_key, group.random_gt(rng), rng)
    record = scheme.run_period(p1, p2, channel, ciphertext)
    sizes = {key: snap.size_bits() for key, snap in record.snapshots.items()}
    b1, b2 = params.theorem_b1(), params.theorem_b2()
    return {
        "m1": sizes[(1, "normal")],
        "m2": sizes[(2, "normal")],
        "b1": b1,
        "b2": b2,
        "rho1": b1 / sizes[(1, "normal")],
        "rho2": b2 / sizes[(2, "normal")],
        "rho1_ref": b1 / sizes[(1, "refresh")],
        "rho2_ref": b2 / sizes[(2, "refresh")],
        "rho_gen": params.n.bit_length() / generation.randomness.size_bits(),
        "kappa": params.kappa,
        "ell": params.ell,
    }


class TestLeakageRateFigure:
    def test_generate_series(self, benchmark, table_writer):
        group = preset_group(32)
        benchmark.pedantic(lambda: measure(group, 64, 0), rounds=2, iterations=1)

        rows = []
        series = {}
        for n_bits in GROUP_SIZES:
            g = preset_group(n_bits)
            for lam in LAMBDAS:
                point = measure(g, lam, seed=lam)
                series[(n_bits, lam)] = point
                rows.append(
                    [
                        n_bits,
                        lam,
                        point["kappa"],
                        point["ell"],
                        point["m1"],
                        point["b1"],
                        f"{point['rho1']:.4f}",
                        f"{point['rho1_ref']:.4f}",
                        f"{point['rho2']:.2f}",
                        f"{point['rho2_ref']:.2f}",
                        f"{point['rho_gen']:.4f}",
                    ]
                )
        table_writer(
            "T3_leakage_rates",
            ["n", "lambda", "kappa", "ell", "m1", "b1",
             "rho1", "rho1_ref", "rho2", "rho2_ref", "rho_gen"],
            rows,
            note="Theorem 4.1 leakage rates, measured from real period snapshots.",
        )

        # --- claims ------------------------------------------------------
        for n_bits in GROUP_SIZES:
            rhos = [series[(n_bits, lam)]["rho1"] for lam in LAMBDAS]
            # rho1 increases monotonically toward 1 (the 1 - o(1) claim).
            assert rhos == sorted(rhos)
            assert rhos[-1] > 0.8
            # rho1_ref is exactly half of rho1 (memory doubles in refresh).
            for lam in LAMBDAS:
                point = series[(n_bits, lam)]
                assert point["rho1_ref"] == pytest.approx(point["rho1"] / 2)
                assert point["rho2"] == pytest.approx(1.0)
                assert point["rho2_ref"] == pytest.approx(0.5)
                # rho_gen stays o(1)-small.
                assert point["rho_gen"] < 0.05
                # b1 formula: (1 - 3n/(lam+3n)) m1, up to rounding.
                n = n_bits
                expected = point["m1"] * lam / (lam + 3 * n)
                assert point["b1"] == pytest.approx(expected, rel=0.02)
