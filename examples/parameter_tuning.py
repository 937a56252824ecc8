#!/usr/bin/env python3
"""Choosing lambda: the leakage-rate / cost dial.

Theorem 4.1 gives ``rho1 = lambda / (lambda + 3n)``: tolerance on the
main processor approaches 100% of its secret memory as lambda grows,
but kappa, ell, share sizes and per-period communication all grow
linearly with lambda.  This example sweeps target rates, shows what each
costs, and demonstrates the `DLRParams.for_target_rate` advisor plus the
fixed-base precomputation fast path for encryption-heavy deployments.

Run:  python examples/parameter_tuning.py
"""

import random
import time

from repro import DLRParams, preset_group
from repro.core.dlr import DLR
from repro.groups.precompute import PrecomputedEncryptor
from repro.protocol import Device, InMemoryTransport

TARGETS = (0.50, 0.75, 0.90, 0.95)


def main() -> None:
    group = preset_group(64)
    n = group.params.n
    rng = random.Random(7)

    print(f"security parameter n = {n}; rho1 = lambda/(lambda + 3n)\n")
    header = (f"{'target rho1':>11} {'lambda':>7} {'kappa':>6} {'ell':>5} "
              f"{'P1 secret':>10} {'P2 secret':>10} {'comm/period':>12}")
    print(header)
    print("-" * len(header))

    for target in TARGETS:
        params = DLRParams.for_target_rate(group, target)
        scheme = DLR(params)
        generation = scheme.generate(rng)
        p1, p2 = Device("P1", group, rng), Device("P2", group, rng)
        channel = InMemoryTransport()
        scheme.install(p1, p2, generation.share1, generation.share2)
        ciphertext = scheme.encrypt(generation.public_key, group.random_gt(rng), rng)
        scheme.run_period(p1, p2, channel, ciphertext)
        print(f"{params.achieved_rho1():>11.3f} {params.lam:>7} "
              f"{params.kappa:>6} {params.ell:>5} "
              f"{params.sk_comm_bits():>9}b {params.sk2_bits():>9}b "
              f"{channel.bits_on_wire():>11}b")

    # --- the encryption fast path ---------------------------------------
    params = DLRParams.for_target_rate(group, 0.75)
    scheme = DLR(params)
    generation = scheme.generate(rng)
    message = group.random_gt(rng)

    start = time.perf_counter()
    for _ in range(20):
        scheme.encrypt(generation.public_key, message, rng)
    plain = (time.perf_counter() - start) / 20

    encryptor = PrecomputedEncryptor(generation.public_key, window=5)
    start = time.perf_counter()
    for _ in range(20):
        encryptor.encrypt(message, rng)
    fast = (time.perf_counter() - start) / 20

    print(f"\nencryption: plain {plain * 1000:.2f} ms -> "
          f"precomputed tables {fast * 1000:.2f} ms "
          f"({plain / fast:.1f}x, {encryptor._g_table.table_elements() + encryptor._z_table.table_elements()} cached elements)")
    ciphertext = encryptor.encrypt(message, rng)
    ok = scheme.reference_decrypt(generation.share1, generation.share2, ciphertext) == message
    print(f"fast-path ciphertexts decrypt correctly: {ok}")


if __name__ == "__main__":
    main()
