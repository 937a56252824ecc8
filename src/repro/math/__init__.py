"""Number-theoretic and algebraic substrate.

Modules:

* :mod:`repro.math.backend` -- the pluggable field-arithmetic backend seam.
* :mod:`repro.math.modular` -- modular inverse, square roots, CRT.
* :mod:`repro.math.primes` -- Miller-Rabin primality and prime generation.
* :mod:`repro.math.fields` -- the fields ``F_q`` and ``F_{q^2}``.
* :mod:`repro.math.linalg` -- dense linear algebra over ``Z_p``.
* :mod:`repro.math.entropy` -- min-entropy, statistical distance, LHL.
"""

from repro.math.backend import (
    FieldBackend,
    active_backend,
    available_backends,
    backend_available,
    get_backend,
    register_backend,
    select_backend,
    set_backend,
    use_backend,
)
from repro.math.modular import (
    crt_pair,
    inv_mod,
    is_quadratic_residue,
    legendre_symbol,
    pow_mod,
    sqrt_mod,
    sqrt_mod_or_none,
)
from repro.math.primes import is_prime, next_prime, random_prime

__all__ = [
    "FieldBackend",
    "active_backend",
    "available_backends",
    "backend_available",
    "crt_pair",
    "get_backend",
    "inv_mod",
    "is_prime",
    "is_quadratic_residue",
    "legendre_symbol",
    "next_prime",
    "pow_mod",
    "random_prime",
    "register_backend",
    "select_backend",
    "set_backend",
    "sqrt_mod",
    "sqrt_mod_or_none",
    "use_backend",
]
