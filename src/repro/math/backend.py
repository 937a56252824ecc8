"""Pluggable field-arithmetic backends: the seam under every modular op.

Every hot path in the reproduction -- pairing Miller loops, multiexp
combines, share-refresh algebra -- bottoms out in arithmetic modulo the
field prime ``q`` or the group order ``p``.  This module defines the
**backend contract** for that arithmetic and the registry that selects
an implementation at import time, so the layers above
(:mod:`repro.math.fields`, :mod:`repro.math.modular`,
:mod:`repro.groups.curve`, :mod:`repro.groups.pairing`,
:mod:`repro.groups.fastops` and, through them, every scheme) never call
``pow(..., q)`` or hand-rolled inverses directly.

Two implementations ship:

* :class:`PythonBackend` (``"python"``) -- the always-available
  reference: plain CPython integers, the interpreter's native bignum
  reduction.  Same spirit as
  :func:`repro.groups.fastops.reference_mode`: the ground truth every
  other backend must agree with bit-for-bit.
* :class:`Gmpy2Backend` (``"gmpy2"``) -- GMP-backed acceleration when
  the optional ``gmpy2`` wheel is importable (``pip install
  repro[fast]``).  It does not re-implement any formula: it *lifts*
  operands into ``mpz`` so the shared algebra runs on GMP limbs, and
  routes modular powers/inverses to ``gmpy2.powmod`` /
  ``gmpy2.invert``.

The contract has two halves, because the two kinds of consumer need
different shapes:

1. **Functional ops** -- ``mul_mod`` / ``pow_mod`` / ``inv_mod`` /
   ``batch_inv`` and the raw ``F_{q^2}`` kernel (``fq2_mul`` with lazy
   reduction: Karatsuba cross terms accumulate unreduced, one reduction
   per output coordinate).  These serve the element APIs and one-off
   callers.
2. **Representation hooks** -- :meth:`FieldBackend.lift` /
   :meth:`FieldBackend.unlift` convert to and from the backend's native
   integer type *once per kernel invocation*, so the inline Jacobian /
   Miller-loop formulas in :mod:`repro.groups` run unchanged on whatever
   type the backend computes fastest with (identity for pure Python,
   ``mpz`` for gmpy2).  Kernels must ``unlift`` every value that escapes
   into a :class:`~repro.groups.curve.Point`, :class:`~repro.math.fields.Fq2`
   or serialized form, keeping golden transcripts byte-identical across
   backends.

Selection: :func:`select_backend` runs at import, honouring the
``REPRO_BACKEND`` environment variable (``auto`` | ``python`` |
``gmpy2``; ``auto`` picks gmpy2 iff importable).  ``repro-dlr
--backend`` overrides per invocation, :func:`use_backend` per code
block, and :func:`register_backend` lets tests (or future accelerators)
plug in additional implementations.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.errors import ParameterError

#: Environment variable consulted at import time (and by the CLI default).
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The ``auto`` preference order: first importable backend wins.
AUTO_ORDER = ("gmpy2", "python")


# ---------------------------------------------------------------------------
# The backend contract


_RawFq2 = tuple  # (a, b) representing a + b*i, i^2 = -1


class FieldBackend:
    """Base class and reference semantics for field-arithmetic backends.

    The base implementations are the *generic algebra*: they are written
    against plain integer operators, so a subclass that only overrides
    :meth:`lift` / :meth:`pow_mod` / :meth:`inv_mod` (the operations
    with genuinely faster native equivalents) inherits everything else
    running on its lifted type.
    """

    #: Registry/display name; subclasses must override.
    name = "abstract"

    #: ``(add_cost, double_cost)`` relative operation costs consumed by
    #: the window-selection models in :mod:`repro.groups.windows`.  Both
    #: shipped backends multiply and square at the same relative cost; a
    #: backend with a cheaper dedicated squaring would lower the second
    #: entry and shift the optimal window widths.
    window_costs: tuple[float, float] = (1.0, 1.0)

    #: True when :meth:`lift` is the identity and every operation already
    #: returns canonical ints, letting hot callers skip their per-element
    #: lift/unlift passes (the pure backend's exemption -- measurable on
    #: ``batch_inv`` and the ``F_{q^2}`` multiexp).  Backends whose native
    #: type is not exactly :class:`int` must leave this False.
    native_ints = False

    # -- representation hooks -------------------------------------------

    @staticmethod
    def lift(value: int):
        """Convert into the backend's native integer type (identity here)."""
        return value

    @staticmethod
    def unlift(value) -> int:
        """Convert back to a canonical :class:`int` for storage/serialization."""
        return int(value)

    # -- scalar ops ------------------------------------------------------

    def mul_mod(self, a: int, b: int, m: int) -> int:
        return a * b % m

    def pow_mod(self, base: int, exponent: int, m: int) -> int:
        return pow(base, exponent, m)

    def inv_mod(self, a: int, m: int) -> int:
        """Inverse of ``a`` mod ``m``; :class:`~repro.errors.ParameterError`
        if not invertible."""
        a %= m
        if a == 0:
            raise ParameterError(f"0 is not invertible modulo {m}")
        return pow(a, -1, m)

    def batch_inv(self, values: Sequence[int], m: int, skip_zero: bool = False) -> list:
        """Montgomery's trick: ``n`` inverses for one :meth:`inv_mod` plus
        ``3(n-1)`` multiplications.  Raises on any ``0 (mod m)`` input
        (reporting the offending index), leaving no partial output.
        With ``skip_zero`` a ``0 (mod m)`` entry is *skipped and
        backfilled* as ``0`` instead -- the shape mixed vectors need
        (Jacobian points at infinity riding along with finite ones) --
        while every other entry still shares the single inversion.
        Returns lifted values; callers that store results must unlift."""
        n = len(values)
        if n == 0:
            return []
        m = self.lift(m)
        zero = self.lift(0)
        prefix = [0] * n
        reduced_values = [zero] * n
        acc = self.lift(1)
        for i, value in enumerate(values):
            reduced = value % m
            if reduced == 0:
                if not skip_zero:
                    raise ParameterError(f"0 is not invertible modulo {m} (index {i})")
            else:
                acc = acc * reduced % m
                reduced_values[i] = reduced
            # Zero entries keep the running product unchanged, so their
            # prefix slot simply repeats the previous accumulator.
            prefix[i] = acc
        inverses = [zero] * n
        acc = self.lift(self.inv_mod(acc, m))
        for i in range(n - 1, 0, -1):
            if reduced_values[i] == 0:
                continue
            inverses[i] = acc * prefix[i - 1] % m
            acc = acc * reduced_values[i] % m
        if reduced_values[0] != 0:
            inverses[0] = acc
        return inverses

    # -- raw F_{q^2} = F_q[i]/(i^2+1) ops --------------------------------

    def fq2_mul(self, u: _RawFq2, v: _RawFq2, q) -> _RawFq2:
        """Karatsuba product with **lazy reduction**: the three cross
        products stay unreduced and each output coordinate is reduced
        exactly once."""
        a, b = u
        c, d = v
        ac = a * c
        bd = b * d
        cross = (a + b) * (c + d) - ac - bd
        return ((ac - bd) % q, cross % q)

    def fq2_square(self, u: _RawFq2, q) -> _RawFq2:
        a, b = u
        return ((a - b) * (a + b) % q, 2 * a * b % q)

    def fq2_pow(self, u: _RawFq2, exponent: int, q) -> _RawFq2:
        if exponent < 0:
            return self.fq2_pow(self.fq2_inverse(u, q), -exponent, q)
        q = self.lift(q)
        result: _RawFq2 = (self.lift(1), self.lift(0))
        base = (self.lift(u[0]), self.lift(u[1]))
        while exponent:
            if exponent & 1:
                result = self.fq2_mul(result, base, q)
            base = self.fq2_square(base, q)
            exponent >>= 1
        return result

    def fq2_inverse(self, u: _RawFq2, q) -> _RawFq2:
        a, b = u
        norm = a * a + b * b
        if norm % q == 0:
            raise ParameterError("0 is not invertible in F_{q^2}")
        if norm % q == 1:
            # Unitary elements (all of the order-p pairing subgroup)
            # invert by conjugation -- no modular inversion needed.
            return (a % q, (-b) % q)
        norm_inv = self.lift(self.inv_mod(norm, q))
        return (a * norm_inv % q, (-b) * norm_inv % q)

    # -- misc -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<FieldBackend {self.name}>"


class PythonBackend(FieldBackend):
    """The always-available pure-Python reference backend.

    Plain :class:`int` everywhere; ``lift`` is the identity, and every
    reduction is CPython's native ``%`` (measured faster than a
    Python-level Montgomery REDC at these modulus sizes; see
    docs/performance.md).
    """

    name = "python"
    native_ints = True


class Gmpy2Backend(FieldBackend):
    """GMP-accelerated backend over ``gmpy2.mpz``.

    ``lift`` converts operands to ``mpz`` once per kernel entry, so the
    shared inline formulas (Jacobian doubling, Miller line evaluations,
    lazy-reduction ``F_{q^2}`` products) run on GMP limbs; modular
    powers and inverses route to ``gmpy2.powmod`` / ``gmpy2.invert``.
    Instantiation raises :class:`~repro.errors.ParameterError` when the
    ``gmpy2`` wheel is missing.
    """

    name = "gmpy2"

    def __init__(self) -> None:
        try:
            import gmpy2
        except ImportError as exc:  # pragma: no cover - depends on env
            raise ParameterError(
                "the gmpy2 backend requires the optional gmpy2 dependency "
                "(pip install repro[fast])"
            ) from exc
        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz

    def lift(self, value):  # type: ignore[override]
        return self._mpz(value)

    @staticmethod
    def unlift(value) -> int:
        return int(value)

    def mul_mod(self, a, b, m):
        return self._mpz(a) * b % m

    def pow_mod(self, base, exponent, m):
        return self._gmpy2.powmod(self._mpz(base), exponent, m)

    def inv_mod(self, a, m):
        a = self._mpz(a) % m
        if a == 0:
            raise ParameterError(f"0 is not invertible modulo {m}")
        try:
            return self._gmpy2.invert(a, m)
        except ZeroDivisionError as exc:
            raise ParameterError(f"{a} is not invertible modulo {m}") from exc


# ---------------------------------------------------------------------------
# Registry and selection

_REGISTRY: dict[str, type[FieldBackend]] = {
    PythonBackend.name: PythonBackend,
    Gmpy2Backend.name: Gmpy2Backend,
}

_INSTANCES: dict[str, FieldBackend] = {}
_ACTIVE: FieldBackend | None = None


def register_backend(backend_cls: type[FieldBackend]) -> None:
    """Register an additional backend class under ``backend_cls.name``.

    Used by the cross-backend test suite (to plug in instrumented
    shims) and available to future accelerators.  Re-registering a name
    replaces the class and drops its cached instance.
    """
    name = backend_cls.name
    if not name or name in ("abstract", "auto"):
        raise ParameterError(f"invalid backend name {name!r}")
    _REGISTRY[name] = backend_cls
    _INSTANCES.pop(name, None)


def backend_available(name: str) -> bool:
    """Can ``name`` be instantiated in this environment?"""
    if name not in _REGISTRY:
        return False
    try:
        _instance(name)
    except ParameterError:
        return False
    return True


def available_backends() -> list[str]:
    """Registered backend names that instantiate in this environment."""
    return [name for name in _REGISTRY if backend_available(name)]


def _instance(name: str) -> FieldBackend:
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = _REGISTRY[name]()
    return instance


def get_backend(name: str) -> FieldBackend:
    """The (cached) backend instance for ``name``; ``"auto"`` resolves to
    the first importable backend in :data:`AUTO_ORDER`."""
    if name == "auto":
        for candidate in AUTO_ORDER:
            if backend_available(candidate):
                return _instance(candidate)
        raise ParameterError("no field backend available")  # pragma: no cover
    if name not in _REGISTRY:
        raise ParameterError(
            f"unknown field backend {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return _instance(name)


def active_backend() -> FieldBackend:
    """The backend every field/group operation currently routes through."""
    assert _ACTIVE is not None
    return _ACTIVE


def set_backend(backend: str | FieldBackend) -> FieldBackend:
    """Install a backend process-wide; returns the previous one.

    Accepts a registered name (including ``"auto"``) or an instance.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = get_backend(backend) if isinstance(backend, str) else backend
    return previous  # type: ignore[return-value]


@contextmanager
def use_backend(backend: str | FieldBackend) -> Iterator[FieldBackend]:
    """Run the block on ``backend``, restoring the previous one after.

    The workhorse of the cross-backend equivalence suite and of
    same-machine benchmark comparisons (``bench_speed.py --backends``).
    """
    previous = set_backend(backend)
    try:
        yield active_backend()
    finally:
        set_backend(previous)


def select_backend() -> FieldBackend:
    """Import-time selection from :data:`BACKEND_ENV_VAR` (default auto).

    An explicit request for an unavailable backend raises loudly -- a
    deployment that sets ``REPRO_BACKEND=gmpy2`` wants to know the wheel
    is missing, not to silently run 10x slower.
    """
    requested = os.environ.get(BACKEND_ENV_VAR, "auto").strip() or "auto"
    set_backend(requested)
    return active_backend()


select_backend()
