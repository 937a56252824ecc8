#!/usr/bin/env python3
"""Quickstart: distributed public-key encryption that survives leakage.

Creates a DLR instance, splits the secret key across two devices,
encrypts, runs the 2-party decryption protocol, refreshes the shares,
and shows that (a) decryption still works and (b) a leakage function
applied to either device alone sees only its share.

Run:  python examples/quickstart.py
"""

import random

from repro import DLR, DLRParams, preset_group
from repro.protocol import Device, InMemoryTransport

SECURITY_BITS = 64
LEAKAGE_PARAMETER = 128


def main() -> None:
    rng = random.Random()

    # --- setup: G(1^n) and the scheme parameters ----------------------
    group = preset_group(SECURITY_BITS)
    params = DLRParams(group=group, lam=LEAKAGE_PARAMETER)
    scheme = DLR(params)
    print(f"bilinear group: |p| = {group.p.bit_length()} bits, "
          f"kappa = {params.kappa}, ell = {params.ell}")

    # --- key generation: pk public, shares split across devices -------
    generation = scheme.generate(rng)
    device1 = Device("P1", group, rng)   # the main processor
    device2 = Device("P2", group, rng)   # the auxiliary device
    channel = InMemoryTransport()                  # public, transcript recorded
    scheme.install(device1, device2, generation.share1, generation.share2)
    print(f"shares installed: P1 holds {device1.secret.size_bits()} secret bits, "
          f"P2 holds {device2.secret.size_bits()}")

    # --- encrypt / 2-party decrypt -------------------------------------
    message = group.random_gt(rng)
    ciphertext = scheme.encrypt(generation.public_key, message, rng)
    print(f"ciphertext: {ciphertext.size_group_elements()} group elements")

    decrypted = scheme.decrypt_protocol(device1, device2, channel, ciphertext)
    print(f"2-party decryption correct: {decrypted == message}")

    # --- refresh: same pk, brand-new shares ---------------------------
    old_share2 = scheme.share2_of(device2)
    scheme.refresh_protocol(device1, device2, channel)
    print(f"shares refreshed (P2 share changed: "
          f"{scheme.share2_of(device2) != old_share2})")
    decrypted = scheme.decrypt_protocol(device1, device2, channel, ciphertext)
    print(f"decryption after refresh still correct: {decrypted == message}")

    # --- what the adversary sees ----------------------------------------
    print(f"public transcript so far: {channel.bits_on_wire()} bits "
          f"({len(channel.transcript())} messages) -- all of it is public")
    print("a leakage function on P2 sees only (s_1..s_ell); on P1 only "
          "(a_1..a_ell, Phi) -- never the master key g2^alpha in one place")


if __name__ == "__main__":
    main()
