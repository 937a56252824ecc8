#!/usr/bin/env python3
"""DLRIBE + DLRCCA2 lifecycle: an identity-based deployment on two
leakage-prone servers.

A company shares its IBE master key between two HSMs.  Employees get
identity keys (also shared), everything refreshes periodically, and
externally-facing traffic uses the CCA2-secure wrapping.  Leakage
happens on both the master and identity key material throughout
(Remark 4.1).

Run:  python examples/ibe_lifecycle.py
"""

import random

from repro import DLRParams, preset_group
from repro.cca.dlr_cca import DLRCCA2
from repro.errors import DecryptionError
from repro.ibe.dlr_ibe import DLRIBE
from repro.protocol import Device, InMemoryTransport

N_ID = 8


def main() -> None:
    rng = random.Random()
    group = preset_group(64)
    params = DLRParams(group=group, lam=64)

    # --- master key setup, shared across two HSMs -----------------------
    dibe = DLRIBE(params, n_id=N_ID)
    setup = dibe.setup(rng)
    hsm1 = Device("P1", group, rng)
    hsm2 = Device("P2", group, rng)
    channel = InMemoryTransport()
    dibe.install(hsm1, hsm2, setup.share1, setup.share2)
    print("master key shared between HSM-1 and HSM-2 (never reconstructed)")

    # --- employees enroll: 2-party extraction ---------------------------
    for employee in ("alice@corp", "bob@corp"):
        dibe.extract_protocol(setup.public_params, hsm1, hsm2, channel, employee)
        print(f"issued (shared) identity key for {employee}")

    # --- mail flows ------------------------------------------------------
    memo = group.random_gt(rng)  # a wrapped session key, say
    ciphertext = dibe.encrypt_to(setup.public_params, "alice@corp", memo, rng)
    print(f"encrypted to alice@corp: {ciphertext.size_group_elements()} group elements")
    decrypted = dibe.decrypt_protocol_id(hsm1, hsm2, channel, "alice@corp", ciphertext)
    print(f"alice decrypts via the two HSMs: {decrypted == memo}")
    wrong = dibe.decrypt_protocol_id(hsm1, hsm2, channel, "bob@corp", ciphertext)
    print(f"bob's shares do NOT open alice's mail: {wrong != memo}")

    # --- the nightly maintenance window -----------------------------------
    dibe.refresh_protocol(hsm1, hsm2, channel)                     # master
    dibe.refresh_identity_protocol(setup.public_params, hsm1, hsm2, channel, "alice@corp")
    dibe.refresh_identity_protocol(setup.public_params, hsm1, hsm2, channel, "bob@corp")
    print("nightly refresh: master + identity shares re-randomized")
    decrypted = dibe.decrypt_protocol_id(hsm1, hsm2, channel, "alice@corp", ciphertext)
    print(f"yesterday's mail still opens: {decrypted == memo}")

    # --- CCA2 for the outside world ----------------------------------------
    print("\n--- external traffic via DLRCCA2 (BCHK transform) ---")
    cca = DLRCCA2(params, n_id=N_ID)
    cca_setup = cca.setup(rng)
    gw1 = Device("P1", group, rng)
    gw2 = Device("P2", group, rng)
    gw_channel = InMemoryTransport()
    cca.install(gw1, gw2, cca_setup.share1, cca_setup.share2)

    payload = group.random_gt(rng)
    wire = cca.encrypt(cca_setup, payload, rng)
    print(f"wire format: fresh OTS key {wire.identity()[:16]}..., signed IBE ciphertext")
    result = cca.decrypt_protocol(cca_setup, gw1, gw2, gw_channel, wire)
    print(f"gateway decrypts: {result == payload}")

    # An active attacker flips a bit in transit.
    from repro.cca.dlr_cca import CCACiphertext
    from repro.ibe.boneh_boyen import IBECiphertext

    tampered = CCACiphertext(
        wire.verify_key,
        IBECiphertext(wire.inner.a, wire.inner.c, wire.inner.b * group.random_gt(rng)),
        wire.signature,
    )
    try:
        cca.decrypt_protocol(cca_setup, gw1, gw2, gw_channel, tampered)
        print("tampered packet accepted (BUG)")
    except DecryptionError as exc:
        print(f"tampered packet rejected: {exc}")


if __name__ == "__main__":
    main()
