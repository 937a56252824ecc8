#!/usr/bin/env python3
"""The auxiliary-device scenario (paper section 1.1, bullet 2).

"Do not store the secret memory on the device in its entirety but
instead add an auxiliary simpler computing gadget (say, a smart card)
... This will be particularly attractive if one can make the computation
on the auxiliary device much simpler than the computation on the main
processor."

This example runs full decrypt+refresh periods and prints each device's
measured workload, demonstrating the asymmetry: P2 (the smart card)
never computes a pairing and never samples group elements -- it only
raises received elements to powers of its scalars.

Run:  python examples/auxiliary_device.py
"""

import random
import time

from repro import DLRParams, preset_group
from repro.core.dlr import DLR
from repro.protocol import Device, InMemoryTransport

PERIODS = 3


def main() -> None:
    rng = random.Random(2024)
    group = preset_group(64)
    params = DLRParams(group=group, lam=128)
    scheme = DLR(params)

    generation = scheme.generate(rng)
    main_processor = Device("P1", group, rng)
    smart_card = Device("P2", group, rng)
    channel = InMemoryTransport()
    scheme.install(main_processor, smart_card, generation.share1, generation.share2)

    print(f"running {PERIODS} periods (decrypt + refresh each) ...")
    start = time.perf_counter()
    for _ in range(PERIODS):
        message = group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)
        record = scheme.run_period(main_processor, smart_card, channel, ciphertext)
        assert record.plaintext == message
    elapsed = time.perf_counter() - start
    print(f"done in {elapsed:.2f}s\n")

    print(f"{'':24}{'P1 (main processor)':>22}{'P2 (smart card)':>18}")
    for label, attr in [
        ("pairings", "pairings"),
        ("G exponentiations", "g_exp"),
        ("GT exponentiations", "gt_exp"),
        ("G multiplications", "g_mul"),
        ("GT multiplications", "gt_mul"),
        ("element samplings", None),
    ]:
        if attr is None:
            v1 = main_processor.ops.g_samples + main_processor.ops.gt_samples
            v2 = smart_card.ops.g_samples + smart_card.ops.gt_samples
        else:
            v1 = getattr(main_processor.ops, attr)
            v2 = getattr(smart_card.ops, attr)
        print(f"{label:24}{v1:>22}{v2:>18}")
    cost1 = main_processor.ops.total_cost()
    cost2 = smart_card.ops.total_cost()
    print(f"{'aggregate cost':24}{cost1:>22}{cost2:>18}")
    print(f"\nP2's job is {cost1 / max(cost2, 1):.1f}x cheaper: it only samples "
          "scalars and computes products of received elements raised to them --")
    print("exactly the 'simplicity of one of the two devices' property "
          "(paper section 1.1, item 4).")


if __name__ == "__main__":
    main()
