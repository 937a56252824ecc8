"""repro -- Distributed Public Key Schemes Secure against Continual Leakage.

A from-scratch Python reproduction of Akavia, Goldwasser & Hazay
(PODC 2012): distributed public-key encryption (DLR), distributed IBE
(DLRIBE) and CCA2-secure DPKE (DLRCCA2) in the continual-memory-leakage
model, together with the full substrate stack (symmetric pairing groups,
two-device protocol runtime, leakage oracles) and the secure-storage
application.

Quickstart::

    import random
    from repro import DLR, DLRParams, preset_group
    from repro.protocol import Device, InMemoryTransport

    group = preset_group(128)
    scheme = DLR(DLRParams(group=group, lam=256))
    rng = random.Random()

    gen = scheme.generate(rng)
    message = group.random_gt(rng)
    ciphertext = scheme.encrypt(gen.public_key, message, rng)

    p1, p2 = Device("P1", group, rng), Device("P2", group, rng)
    scheme.install(p1, p2, gen.share1, gen.share2)
    channel = InMemoryTransport()
    assert scheme.decrypt_protocol(p1, p2, channel, ciphertext) == message
    scheme.refresh_protocol(p1, p2, channel)   # same pk, fresh shares
"""

from repro.core import DLR, DLRParams, OptimalDLR
from repro.groups import BilinearGroup, preset_group
from repro.leakage import LeakageBudget, LeakageOracle

__version__ = "1.0.0"

__all__ = [
    "BilinearGroup",
    "DLR",
    "DLRParams",
    "LeakageBudget",
    "LeakageOracle",
    "OptimalDLR",
    "preset_group",
    "__version__",
]
