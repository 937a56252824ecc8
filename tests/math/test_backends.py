"""The field-backend seam: registry, contract, and cross-backend equivalence.

Three layers of assurance:

1. **Registry mechanics** -- selection (``auto``/env/override), caching,
   registration validation, scoped switching with :func:`use_backend`.
2. **Representation discipline** -- an instrumented shim backend whose
   ``lift`` returns a traceable :class:`int` subclass proves that the
   kernels (a) actually route through the active backend and (b) never
   let a lifted value escape into a :class:`~repro.groups.curve.Point`,
   :class:`~repro.math.fields.Fq2`, or any other stored/serialized form:
   everything that comes back must be *exactly* ``int``.  This is the
   property that keeps golden transcripts byte-identical across backends.
3. **Cross-backend equivalence** -- seeded algebra laws (fields, curve,
   multiexp, Miller loops, batch inversion) parametrized over every
   backend available in this environment, each pinned bit-for-bit to the
   pure-Python reference.
"""

import random

import pytest

from repro.errors import GroupError, ParameterError
from repro.groups import fastops
from repro.groups.bilinear import (
    COST_WEIGHTS_BY_BACKEND,
    DEFAULT_COST_WEIGHTS,
    G1Element,
    GTElement,
    OperationCounter,
)
from repro.groups.curve import batch_to_affine, scalar_mul, scalar_mul_affine
from repro.groups.pairing import (
    PairingPrecomp,
    final_exponentiation,
    miller_loop,
    miller_loop_affine,
    tate_pairing,
)
from repro.math import modular
from repro.math.backend import (
    AUTO_ORDER,
    BACKEND_ENV_VAR,
    FieldBackend,
    PythonBackend,
    active_backend,
    available_backends,
    backend_available,
    get_backend,
    register_backend,
    select_backend,
    set_backend,
    use_backend,
)
from repro.math.fields import Fq, Fq2


# ---------------------------------------------------------------------------
# The instrumented shim: a fake accelerator whose native type is traceable


class FakeMpz(int):
    """Stand-in for an accelerator's native integer (``mpz``): an ``int``
    subclass *closed under arithmetic*, so once a value is lifted every
    derived value stays ``FakeMpz`` until someone explicitly unlifts.
    ``type(x) is int`` is then a leak detector for the backend seam."""

    __slots__ = ()


def _closed(name):
    plain = getattr(int, name)

    def method(self, *args):
        result = plain(self, *args)
        if result is NotImplemented or not isinstance(result, int):
            return result
        return FakeMpz(result)

    method.__name__ = name
    return method


for _name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__mod__", "__rmod__", "__floordiv__", "__rfloordiv__", "__pow__",
    "__neg__", "__pos__", "__abs__", "__lshift__", "__rshift__",
    "__and__", "__rand__", "__or__", "__xor__",
):
    setattr(FakeMpz, _name, _closed(_name))


class FakeAccelBackend(FieldBackend):
    """A "fast" backend that computes exactly like the reference but on
    :class:`FakeMpz`, counting every lift.  Inherits the entire generic
    algebra from :class:`FieldBackend` -- precisely the shape a real
    accelerator takes (only the representation hooks differ)."""

    name = "fake-accel"
    window_costs = (1.0, 0.75)  # distinct from the stock backends

    def __init__(self):
        super().__init__()
        self.lift_calls = 0

    def lift(self, value):  # type: ignore[override]
        self.lift_calls += 1
        return FakeMpz(value)

    @staticmethod
    def unlift(value) -> int:
        # int(FakeMpz) still *is* a FakeMpz via __class__; force the
        # canonical type the same way a real backend converts from mpz.
        return int.__add__(0, value)

    # Mirror Gmpy2Backend: the scalar ops return *lifted* values, so a
    # caller that forgets to unlift leaks FakeMpz into stored state.
    def mul_mod(self, a, b, m):
        return self.lift(a) * b % m

    def pow_mod(self, base, exponent, m):
        return self.lift(pow(int(base), int(exponent), int(m)))

    def inv_mod(self, a, m):
        return self.lift(super().inv_mod(int(a), int(m)))


register_backend(FakeAccelBackend)

#: Every backend this environment can run the equivalence suite on.
BACKENDS = available_backends()


def exact_int(value) -> bool:
    return type(value) is int


@pytest.fixture()
def rng():
    return random.Random(0xBACC)


@pytest.fixture()
def fake_accel():
    """The fake accelerator installed as the active backend."""
    with use_backend("fake-accel") as backend:
        backend.lift_calls = 0
        yield backend


# ---------------------------------------------------------------------------
# Registry and selection


class TestRegistry:
    def test_python_backend_always_available(self):
        assert backend_available("python")
        assert "python" in BACKENDS

    def test_instances_are_cached(self):
        assert get_backend("python") is get_backend("python")

    def test_auto_resolves_along_preference_order(self):
        resolved = get_backend("auto")
        expected = next(name for name in AUTO_ORDER if backend_available(name))
        assert resolved.name == expected

    def test_gmpy2_availability_matches_import(self):
        try:
            import gmpy2  # noqa: F401
        except ImportError:
            assert not backend_available("gmpy2")
            with pytest.raises(ParameterError, match="gmpy2"):
                get_backend("gmpy2")
        else:
            assert backend_available("gmpy2")
            assert get_backend("gmpy2").name == "gmpy2"

    def test_unknown_backend_raises(self):
        with pytest.raises(ParameterError, match="unknown field backend"):
            get_backend("vax-780")
        assert not backend_available("vax-780")

    def test_register_rejects_reserved_names(self):
        for bad in ("abstract", "auto", ""):
            shim = type("Shim", (FieldBackend,), {"name": bad})
            with pytest.raises(ParameterError, match="invalid backend name"):
                register_backend(shim)

    def test_set_backend_returns_previous(self):
        previous = set_backend("python")
        try:
            assert active_backend().name == "python"
        finally:
            set_backend(previous)

    def test_use_backend_restores_on_exit_and_error(self):
        before = active_backend()
        with use_backend("fake-accel") as backend:
            assert backend.name == "fake-accel"
            assert active_backend() is backend
        assert active_backend() is before
        with pytest.raises(RuntimeError):
            with use_backend("fake-accel"):
                raise RuntimeError("boom")
        assert active_backend() is before

    def test_select_backend_honours_environment(self, monkeypatch):
        previous = active_backend()
        try:
            monkeypatch.setenv(BACKEND_ENV_VAR, "python")
            assert select_backend().name == "python"
            monkeypatch.setenv(BACKEND_ENV_VAR, "fake-accel")
            assert select_backend().name == "fake-accel"
            monkeypatch.setenv(BACKEND_ENV_VAR, "no-such-backend")
            with pytest.raises(ParameterError, match="unknown field backend"):
                select_backend()
        finally:
            set_backend(previous)

    def test_select_backend_empty_env_means_auto(self, monkeypatch):
        previous = active_backend()
        try:
            monkeypatch.setenv(BACKEND_ENV_VAR, "  ")
            assert select_backend() is get_backend("auto")
        finally:
            set_backend(previous)


# ---------------------------------------------------------------------------
# Representation discipline: lift is consulted, nothing lifted escapes


class TestUnliftDiscipline:
    def test_fq_arithmetic_stays_canonical(self, fake_accel):
        a, b = Fq(1234567, 1000003), Fq(7654321, 1000003)
        for result in (a * b, a ** 977, a.inverse(), a / b):
            assert exact_int(result.value), result
        assert fake_accel.lift_calls > 0

    def test_fq2_arithmetic_stays_canonical(self, fake_accel):
        q = 1000003
        u, v = Fq2(123456, 654321, q), Fq2(31337, 271828, q)
        for result in (u * v, u.square(), u ** 12345, u.inverse(), u / v):
            assert exact_int(result.a) and exact_int(result.b), result

    def test_modular_helpers_stay_canonical(self, fake_accel):
        q = 1000003
        assert exact_int(modular.pow_mod(12345, 678, q))
        assert exact_int(modular.inv_mod(12345, q))
        inverses = modular.batch_inv([3, 5, 7, 11], q)
        assert all(exact_int(v) for v in inverses)
        assert fake_accel.lift_calls > 0

    def test_curve_kernels_stay_canonical(self, small_group, rng, fake_accel):
        point = small_group.random_g(rng).point
        q, p = small_group.q, small_group.p
        for result in (
            scalar_mul(point, 123456789, q, p),
            scalar_mul_affine(point, 123456789, q),
        ):
            assert exact_int(result.x) and exact_int(result.y), result
        assert fake_accel.lift_calls > 0

    def test_multiexp_outputs_stay_canonical(self, small_group, rng, fake_accel):
        g_bases = [small_group.random_g(rng) for _ in range(9)]
        gt_bases = [small_group.random_gt(rng) for _ in range(9)]
        exponents = [rng.randrange(1, small_group.p) for _ in range(9)]
        g_out = G1Element.multiexp(g_bases, exponents)
        gt_out = GTElement.multiexp(gt_bases, exponents)
        assert exact_int(g_out.point.x) and exact_int(g_out.point.y)
        assert exact_int(gt_out.value.a) and exact_int(gt_out.value.b)

    def test_pairing_outputs_stay_canonical(self, small_group, rng, fake_accel):
        left = small_group.random_g(rng).point
        right = small_group.random_g(rng).point
        params = small_group.params
        for raw in (
            miller_loop(left, right, params),
            miller_loop_affine(left, right, params),
            final_exponentiation(miller_loop(left, right, params), params),
        ):
            assert exact_int(raw[0]) and exact_int(raw[1]), raw
        paired = tate_pairing(left, right, params)
        assert exact_int(paired.a) and exact_int(paired.b)
        precomp = PairingPrecomp(left, params)
        for dbl_coeffs, add_coeffs in precomp.steps:
            for coeffs in (dbl_coeffs, add_coeffs):
                if coeffs is not None:
                    assert exact_int(coeffs[0]) and exact_int(coeffs[1]), coeffs
        via_precomp = precomp.pair_with(right)
        assert exact_int(via_precomp.a) and exact_int(via_precomp.b)
        assert via_precomp == paired

    def test_transcript_survives_fake_backend(self, fake_accel):
        """End-to-end: a full protocol period under the shim backend still
        produces the byte-identical pinned transcript (the same property
        the gmpy2 CI leg asserts)."""
        import hashlib

        from repro.core.dlr import DLR
        from repro.core.params import DLRParams
        from repro.groups import preset_group
        from repro.protocol.device import Device
        from repro.protocol.transport import InMemoryTransport

        group = preset_group(32)
        scheme = DLR(DLRParams(group=group, lam=32))
        run_rng = random.Random(1234)
        generation = scheme.generate(run_rng)
        p1 = Device("P1", group, run_rng)
        p2 = Device("P2", group, run_rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        channel = InMemoryTransport()
        message = group.random_gt(run_rng)
        ciphertext = scheme.encrypt(generation.public_key, message, run_rng)
        record = scheme.run_period(p1, p2, channel, ciphertext)
        assert record.plaintext == message
        digest = hashlib.sha256(channel.transcript_bits(0).to_bytes()).hexdigest()
        assert digest == (
            "9e5b8488f23b63d2597555c23ac7ad90c0306a1a886ac502fef10d8ede51f522"
        )
        assert fake_accel.lift_calls > 0


# ---------------------------------------------------------------------------
# Cross-backend equivalence: every backend agrees with the reference


def _with_python(fn):
    with use_backend("python"):
        return fn()


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestCrossBackendEquivalence:
    def test_fq_laws(self, small_group, rng, backend_name):
        q = small_group.q
        with use_backend(backend_name):
            for _ in range(25):
                a = Fq(rng.randrange(1, q), q)
                b = Fq(rng.randrange(1, q), q)
                c = Fq(rng.randrange(1, q), q)
                assert (a * b) * c == a * (b * c)
                assert a * a.inverse() == Fq(1, q)
                k = rng.randrange(1, q)
                assert (a ** k).value == pow(a.value, k, q)
                assert a ** -2 == (a.inverse()) ** 2

    def test_fq2_laws(self, small_group, rng, backend_name):
        q = small_group.q
        with use_backend(backend_name):
            for _ in range(25):
                u = Fq2(rng.randrange(q), rng.randrange(1, q), q)
                v = Fq2(rng.randrange(q), rng.randrange(1, q), q)
                w = Fq2(rng.randrange(q), rng.randrange(1, q), q)
                assert (u * v) * w == u * (v * w)
                assert u.square() == u * u
                assert u * u.inverse() == Fq2.one(q)
                assert u ** 5 == u * u * u * u * u
                assert (u * v).conjugate() == u.conjugate() * v.conjugate()

    def test_fq2_pow_matches_reference(self, small_group, rng, backend_name):
        q = small_group.q
        u = Fq2(rng.randrange(q), rng.randrange(1, q), q)
        exponent = rng.randrange(1, q * q)
        expected = _with_python(lambda: u ** exponent)
        with use_backend(backend_name):
            assert u ** exponent == expected

    def test_scalar_mul_agrees(self, small_group, rng, backend_name):
        point = small_group.random_g(rng).point
        scalar = rng.randrange(1, small_group.p)
        q, p = small_group.q, small_group.p
        expected = _with_python(lambda: scalar_mul(point, scalar, q, p))
        with use_backend(backend_name):
            assert scalar_mul(point, scalar, q, p) == expected
            assert scalar_mul_affine(point, scalar, q) == expected

    @pytest.mark.parametrize("terms", [2, 7, 40])
    def test_multiexp_agrees(self, small_group, rng, backend_name, terms):
        g_bases = [small_group.random_g(rng) for _ in range(terms)]
        gt_bases = [small_group.random_gt(rng) for _ in range(terms)]
        exponents = [rng.randrange(1, small_group.p) for _ in range(terms)]
        g_expected = _with_python(lambda: G1Element.multiexp(g_bases, exponents))
        gt_expected = _with_python(lambda: GTElement.multiexp(gt_bases, exponents))
        with use_backend(backend_name):
            assert G1Element.multiexp(g_bases, exponents) == g_expected
            assert GTElement.multiexp(gt_bases, exponents) == gt_expected

    def test_pairing_agrees_and_is_bilinear(self, small_group, rng, backend_name):
        a = rng.randrange(2, small_group.p)
        b = rng.randrange(2, small_group.p)
        g = small_group.g
        expected = _with_python(lambda: small_group.pair(g ** a, g ** b))
        with use_backend(backend_name):
            paired = small_group.pair(g ** a, g ** b)
            assert paired == expected
            assert paired == small_group.pair(g, g) ** (a * b)
            left = (g ** a).point
            right = (g ** b).point
            params = small_group.params
            projective = final_exponentiation(
                miller_loop(left, right, params), params
            )
            affine = final_exponentiation(
                miller_loop_affine(left, right, params), params
            )
            assert projective == affine
            assert PairingPrecomp(left, params).pair_with(right) == tate_pairing(
                left, right, params
            )

    def test_batch_inv_agrees_and_reports_zero_index(
        self, small_group, rng, backend_name
    ):
        q = small_group.q
        values = [rng.randrange(1, q) for _ in range(17)]
        expected = _with_python(lambda: modular.batch_inv(values, q))
        with use_backend(backend_name):
            result = modular.batch_inv(values, q)
            assert result == expected
            assert all(type(v) is int for v in result)
            assert modular.batch_inv([], q) == []
            with pytest.raises(ParameterError, match=r"index 2"):
                modular.batch_inv([3, 5, 2 * q, 7], q)

    def test_batch_to_affine_agrees(self, small_group, rng, backend_name):
        q = small_group.q
        jacobians = []
        for _ in range(6):
            point = small_group.random_g(rng).point
            z = rng.randrange(2, q)
            jacobians.append(
                (point.x * z * z % q, point.y * z * z * z % q, z)
            )
        expected = _with_python(lambda: batch_to_affine(jacobians, q))
        with use_backend(backend_name):
            affine = batch_to_affine(jacobians, q)
            assert affine == expected
            for point in affine:
                assert type(point.x) is int and type(point.y) is int


# ---------------------------------------------------------------------------
# Trusted constructors (satellite: skip re-reduction, keep invariants)


class TestTrustedConstructors:
    def test_from_reduced_skips_reduction(self):
        # Deliberately out-of-range input: the trusted constructor must
        # store it verbatim (callers guarantee canonicity; the public
        # constructor is the one that reduces).
        element = Fq._from_reduced(7, 5)
        assert element.value == 7
        assert Fq(7, 5).value == 2

    def test_fq2_from_reduced_skips_validation(self):
        # q = 5 is 1 mod 4: the public constructor rejects it, the
        # trusted one (used only with pre-validated group parameters)
        # does not re-check.
        with pytest.raises(ParameterError):
            Fq2(1, 2, 5)
        element = Fq2._from_reduced(1, 2, 5)
        assert (element.a, element.b) == (1, 2)

    def test_public_and_trusted_agree_on_canonical_input(self):
        q = 1000003
        assert Fq._from_reduced(123, q) == Fq(123, q)
        assert Fq2._from_reduced(12, 34, q) == Fq2(12, 34, q)


# ---------------------------------------------------------------------------
# Backend contract details


class TestBackendContract:
    def test_inv_mod_zero_raises(self):
        for name in BACKENDS:
            backend = get_backend(name)
            with pytest.raises(ParameterError, match="not invertible"):
                backend.inv_mod(0, 97)
            with pytest.raises(ParameterError, match="not invertible"):
                backend.inv_mod(97 * 3, 97)

    def test_fq2_inverse_zero_raises(self):
        for name in BACKENDS:
            backend = get_backend(name)
            with pytest.raises(ParameterError, match="not invertible"):
                backend.fq2_inverse((0, 0), 97)

    def test_fq2_element_inverse_keeps_group_error(self):
        with pytest.raises(GroupError, match="not invertible"):
            Fq2.zero(1000003).inverse()

    def test_fq2_unitary_inverse_is_conjugation(self, small_group, rng):
        """Norm-1 elements (the whole pairing subgroup) invert by
        conjugation on every backend."""
        unit = small_group.random_gt(rng).value
        assert unit.norm() == 1
        for name in BACKENDS:
            backend = get_backend(name)
            a, b = backend.fq2_inverse((unit.a, unit.b), unit.q)
            assert (int(a), int(b)) == (unit.a, (-unit.b) % unit.q)

    def test_window_costs_exposed(self):
        assert FieldBackend.window_costs == (1.0, 1.0)
        assert get_backend("python").window_costs == (1.0, 1.0)
        assert get_backend("fake-accel").window_costs == (1.0, 0.75)

    def test_native_ints_flag(self):
        # Only the pure backend may claim the skip-lift exemption; the
        # conservative default protects custom backends that override
        # lift without thinking about it.
        assert get_backend("python").native_ints is True
        assert FieldBackend.native_ints is False
        assert get_backend("fake-accel").native_ints is False
        if backend_available("gmpy2"):
            assert get_backend("gmpy2").native_ints is False


# ---------------------------------------------------------------------------
# OperationCounter backend tag and per-backend cost weights


class TestCounterBackendTag:
    def test_counter_records_active_backend(self):
        with use_backend("fake-accel"):
            counter = OperationCounter()
        assert counter.backend == "fake-accel"
        assert OperationCounter().backend == active_backend().name

    def test_backend_tag_excluded_from_counts(self):
        counter = OperationCounter()
        counter.g_exp += 3
        as_dict = counter.as_dict()
        assert "backend" not in as_dict
        assert as_dict["g_exp"] == 3

    def test_reset_snapshot_diff_preserve_tag(self):
        with use_backend("fake-accel"):
            counter = OperationCounter()
        counter.pairings += 2
        snapshot = counter.snapshot()
        assert snapshot.backend == "fake-accel"
        assert snapshot.pairings == 2
        counter.pairings += 1
        delta = counter.diff(snapshot)
        assert delta.backend == "fake-accel"
        assert delta.pairings == 1
        counter.reset()
        assert counter.backend == "fake-accel"
        assert not counter.nonzero()

    def test_total_cost_uses_per_backend_weights(self):
        python_counter = OperationCounter(backend="python")
        gmpy2_counter = OperationCounter(backend="gmpy2")
        for counter in (python_counter, gmpy2_counter):
            counter.pairings += 10
            counter.g_exp += 10
        assert python_counter.total_cost() == (
            10 * DEFAULT_COST_WEIGHTS["pairings"]
            + 10 * DEFAULT_COST_WEIGHTS["g_exp"]
        )
        gmpy2_weights = COST_WEIGHTS_BY_BACKEND["gmpy2"]
        assert gmpy2_counter.total_cost() == (
            10 * gmpy2_weights["pairings"] + 10 * gmpy2_weights["g_exp"]
        )
        assert gmpy2_counter.total_cost() < python_counter.total_cost()

    def test_unknown_backend_falls_back_to_default_weights(self):
        counter = OperationCounter(backend="fake-accel")
        counter.pairings += 1
        assert counter.total_cost() == DEFAULT_COST_WEIGHTS["pairings"]

    def test_total_cost_overrides_still_win(self):
        counter = OperationCounter(backend="gmpy2")
        counter.pairings += 2
        assert counter.total_cost(weights={"pairings": 100.0}) == 200.0
