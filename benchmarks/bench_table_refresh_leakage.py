"""T1 -- the section 1.2.1 refresh-leakage comparison table.

Paper claim: during key refresh DLR tolerates a ``(1/2 - o(1), 1)``
fraction of the secret memory of (P1, P2), versus ``o(1)`` for BKKV10
and LRW11, ``1/258`` for LLW11, ``1/672`` for DLWW11, and ``0`` for
DHLW10.

The DLR rows are *measured*: one real period of the optimal variant is
executed, the phase snapshots give the true secret-memory sizes, and the
tolerated budgets come from Theorem 4.1.  Baseline rows come from the
cost models carrying the paper's cited numbers.
"""

import random

import pytest

from repro.baselines.cost_models import COMPARISON_SCHEMES, dlr_model
from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

LAMBDAS = (64, 256, 1024)


def measure_refresh_rates(group, lam, seed=1):
    """Run one real period; return (rho1_ref, rho2_ref) measured."""
    params = DLRParams(group=group, lam=lam)
    scheme = OptimalDLR(params)
    rng = random.Random(seed)
    generation = scheme.generate(rng)
    p1 = Device("P1", group, rng)
    p2 = Device("P2", group, rng)
    channel = InMemoryTransport()
    scheme.install(p1, p2, generation.share1, generation.share2)
    ciphertext = scheme.encrypt(generation.public_key, group.random_gt(rng), rng)
    record = scheme.run_period(p1, p2, channel, ciphertext)
    refresh1 = record.snapshots[(1, "refresh")].size_bits()
    refresh2 = record.snapshots[(2, "refresh")].size_bits()
    return params.theorem_b1() / refresh1, params.theorem_b2() / refresh2


class TestRefreshLeakageTable:
    def test_generate_table(self, benchmark, small_group, table_writer):
        measured = {}

        def run_once():
            return measure_refresh_rates(small_group, LAMBDAS[0])

        benchmark.pedantic(run_once, rounds=2, iterations=1)

        for lam in LAMBDAS:
            measured[lam] = measure_refresh_rates(small_group, lam)

        n = small_group.params.n
        rows = []
        for lam in LAMBDAS:
            rho1, rho2 = measured[lam]
            rows.append(
                [
                    f"DLR (measured, lambda={lam})",
                    "distributed",
                    f"({rho1:.3f}, {rho2:.3f})",
                    "(1/2 - o(1), 1/2..1)",
                ]
            )
        ours_model = dlr_model()
        rows.append(
            [
                "DLR (paper statement)",
                "distributed",
                f"({ours_model.refresh_leakage_fn(n):.3f}, 0.5)",
                ours_model.refresh_leakage_symbolic,
            ]
        )
        for model in COMPARISON_SCHEMES:
            rows.append(
                [
                    model.name,
                    "single processor",
                    f"{model.refresh_leakage_fn(n):.5f}",
                    model.refresh_leakage_symbolic,
                ]
            )
        table = table_writer(
            "T1_refresh_leakage",
            ["scheme", "model", "refresh leakage fraction", "paper form"],
            rows,
            note=(
                "Tolerated leakage during key refresh as a fraction of "
                "secret memory (section 1.2.1). DLR rows measured from "
                "real period snapshots."
            ),
        )

        # --- the paper's qualitative claims ---------------------------------
        for lam in LAMBDAS:
            rho1, rho2 = measured[lam]
            # P1: approaches 1/2 from below as lambda grows.
            assert 0.1 < rho1 < 0.5
            # P2: exactly 1/2 with b2 = m2 (the proof strengthens to 1).
            assert rho2 == pytest.approx(0.5)
        rho1_values = [measured[lam][0] for lam in LAMBDAS]
        assert rho1_values == sorted(rho1_values)  # -> 1/2 - o(1)

        # DLR beats every single-processor baseline.  The claim is
        # asymptotic (1/2 - o(1) vs o(1)): we assert it at the largest
        # measured lambda, and additionally check the *trends* point the
        # right way (DLR's rate rises with lambda; the o(1) baselines
        # fall with n).
        best_dlr = max(rho1_values)
        for model in COMPARISON_SCHEMES:
            assert best_dlr > model.refresh_leakage_fn(n), model.name
        from repro.baselines.cost_models import BKKV10

        assert BKKV10.refresh_leakage_fn(4 * n) < BKKV10.refresh_leakage_fn(n)

        benchmark.extra_info["rho1_refresh_by_lambda"] = {
            str(lam): measured[lam][0] for lam in LAMBDAS
        }
        assert "DLR" in table
