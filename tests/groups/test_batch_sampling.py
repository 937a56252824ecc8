"""RNG-stream identity of the batched samplers.

``BilinearGroup.random_g_batch``, ``BilinearGroup.random_gt_batch`` and
``HPSKE.encrypt_batch`` replace loops of ``random_g`` / ``random_gt`` /
``encrypt`` inside a period.  The period's
transcript, and every later draw from the device RNG, depend on them
consuming the stream exactly like the loops, so each test compares the
values *and* the RNG state afterwards against the sequential loop on an
identically seeded generator.  The identity outcome (a candidate that
maps to the identity) is driven deterministically with a scripted RNG
on the Python path, and with a searched seed of an exact
``random.Random`` on the native ``G`` path.

With the compiled kernels, an exact ``random.Random`` samples a whole
vector in one native call that consumes the generator's pre-drawn
output words; those tests pin it against the Python loop (run under
:func:`~repro.groups.native._python_kernels`) and skip where the
extension cannot be built.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hpske import HPSKE
from repro.groups import fastops, native, preset_group, sampling
from repro.groups.curve import Point, scalar_mul
from repro.math.modular import sqrt_mod
from tests.groups.test_sampling import power_gt_value

SMALL = preset_group(32)
SIZES = (16, 32, 64, 128, 256)

needs_native = pytest.mark.skipif(
    native.kernels() is None, reason="the native kernels cannot be built here"
)


class ScriptedRandom(random.Random):
    """A ``random.Random`` whose ``randrange`` calls listed in ``script``
    (by call index) return a fixed value instead; the call index is part
    of the saved state, so ``setstate`` replays the script too."""

    def __init__(self, seed: int, script: dict[int, int]) -> None:
        self.script = script
        self.calls = 0
        super().__init__(seed)

    def randrange(self, *args, **kwargs):
        index = self.calls
        self.calls += 1
        value = super().randrange(*args, **kwargs)
        return self.script.get(index, value)

    def getstate(self):
        return super().getstate(), self.calls

    def setstate(self, state):
        inner, self.calls = state
        super().setstate(inner)


def small_order_abscissa(params) -> int:
    """The abscissa of a point of order 3, which divides the cofactor
    ``h`` -- the sampler's identity outcome."""
    assert params.h % 3 == 0
    q = params.q
    rng = random.Random(11)
    while True:
        x = rng.randrange(1, q)
        rhs = (x * x * x + x) % q
        if pow(rhs, (q - 1) // 2, q) != 1:
            continue
        point = scalar_mul(Point(x, sqrt_mod(rhs, q), False), (q + 1) // 3, q)
        if not point.is_infinity():
            return point.x


class TestRandomGBatch:
    @given(seed=st.integers(0, 2**30), count=st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_matches_sequential_loop(self, seed, count):
        batch_rng, loop_rng = random.Random(seed), random.Random(seed)
        before = SMALL.counter.g_samples
        batched = SMALL.random_g_batch(batch_rng, count)
        middle = SMALL.counter.g_samples
        looped = [SMALL.random_g(loop_rng) for _ in range(count)]
        assert batched == looped
        assert batch_rng.getstate() == loop_rng.getstate()
        assert middle - before == SMALL.counter.g_samples - middle == count

    def test_reference_mode_is_the_loop(self):
        batch_rng, loop_rng = random.Random(5), random.Random(5)
        with fastops.reference_mode():
            batched = SMALL.random_g_batch(batch_rng, 6)
        assert batched == [SMALL.random_g(loop_rng) for _ in range(6)]
        assert batch_rng.getstate() == loop_rng.getstate()

    def test_identity_outcome_is_refilled_from_the_stream(self, monkeypatch):
        """A candidate of order 3 clears to the identity: the sequential
        sampler redraws right after it, and the batch drops it and
        refills the vector from the stream, which draws the same
        candidates in the same order without a sequential redraw."""
        params = SMALL.params
        x = small_order_abscissa(params)
        script = {2: x}  # the third abscissa drawn
        fallbacks = []
        original = sampling.random_subgroup_point

        def spy(*args):
            fallbacks.append(1)
            return original(*args)

        batch_rng = ScriptedRandom(7, script)
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "random_subgroup_point", spy)
            batched = SMALL.random_g_batch(batch_rng, 5)
        loop_rng = ScriptedRandom(7, script)
        looped = [SMALL.random_g(loop_rng) for _ in range(5)]
        assert fallbacks == []
        assert batched == looped
        assert batch_rng.getstate() == loop_rng.getstate()
        assert all(not element.is_identity() for element in batched)
        assert x not in {element.point.x for element in batched}


class TestRandomGTBatch:
    @given(seed=st.integers(0, 2**30), count=st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_matches_sequential_loop(self, seed, count):
        batch_rng, loop_rng = random.Random(seed), random.Random(seed)
        before = SMALL.counter.gt_samples
        batched = SMALL.random_gt_batch(batch_rng, count)
        middle = SMALL.counter.gt_samples
        looped = [SMALL.random_gt(loop_rng) for _ in range(count)]
        assert batched == looped
        assert batch_rng.getstate() == loop_rng.getstate()
        assert middle - before == SMALL.counter.gt_samples - middle == count

    def test_reference_mode_is_the_loop(self):
        batch_rng, loop_rng = random.Random(5), random.Random(5)
        with fastops.reference_mode():
            batched = SMALL.random_gt_batch(batch_rng, 6)
        assert batched == [SMALL.random_gt(loop_rng) for _ in range(6)]
        assert batch_rng.getstate() == loop_rng.getstate()

    def test_zero_and_identity_candidates_mid_vector(self):
        """The second candidate is zero (redrawn in place) and the third
        is ``(5, 0)``, which lies in ``F_q^*`` and so maps to the
        identity (dropped, and the vector refilled from the stream)."""
        script = {2: 0, 3: 0, 6: 5, 7: 0}
        batch_rng = ScriptedRandom(7, script)
        batched = SMALL.random_gt_batch(batch_rng, 5)
        loop_rng = ScriptedRandom(7, script)
        looped = [SMALL.random_gt(loop_rng) for _ in range(5)]
        power_rng = ScriptedRandom(7, script)
        powered = [power_gt_value(SMALL.params, power_rng) for _ in range(5)]
        assert batched == looped
        assert [element.value for element in batched] == powered
        assert batch_rng.getstate() == loop_rng.getstate() == power_rng.getstate()
        # Five outputs, one zero redraw and one identity refill.
        assert batch_rng.calls == 2 * (5 + 2)
        assert all(not element.is_identity() for element in batched)


def python_sample(params, seed: int, count: int):
    """The Python sampler's points and final RNG state."""
    rng = random.Random(seed)
    with native._python_kernels():
        points = sampling.random_subgroup_points(params, rng, count)
    return points, rng.getstate()


@needs_native
class TestNativeSampler:
    @given(
        seed=st.integers(0, 2**30),
        count=st.integers(0, 300),
        n=st.sampled_from(SIZES),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_python_sampler(self, seed, count, n):
        params = preset_group(n).params
        rng = random.Random(seed)
        points = sampling.random_subgroup_points(params, rng, count)
        assert (points, rng.getstate()) == python_sample(params, seed, count)

    def test_a_budget_that_runs_out_is_doubled(self):
        """The wrapper redraws a larger budget from the same state."""
        compiled = native.kernels()
        budgets = []

        class Starved:
            def sample_points(self, q, h, count, words):
                budgets.append(len(words) // 4)
                if len(budgets) == 1:
                    words = words[:8]
                return compiled.sample_points(q, h, count, words)

        rng = random.Random(3)
        points = sampling._native_subgroup_points(Starved(), SMALL.params, rng, 40)
        assert (points, rng.getstate()) == python_sample(SMALL.params, 3, 40)
        assert budgets[1] == 2 * budgets[0]

    def test_identity_outcome_falls_back_to_the_loop(self, monkeypatch):
        """Seed 131 draws a candidate of order dividing h = 20 among its
        first 200 on the 16-bit group: the native call reports it, and
        the vector is redrawn sequentially from the restored state."""
        group = preset_group(16)
        words = random.Random(131).getrandbits(32 * 4000).to_bytes(16000, "little")
        points, _ = native.kernels().sample_points(
            group.params.q, group.params.h, 200, words
        )
        assert points is None
        fallbacks = []
        original = sampling.random_subgroup_point

        def spy(*args):
            fallbacks.append(1)
            return original(*args)

        batch_rng, loop_rng = random.Random(131), random.Random(131)
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "random_subgroup_point", spy)
            batched = group.random_g_batch(batch_rng, 200)
        looped = [group.random_g(loop_rng) for _ in range(200)]
        assert len(fallbacks) == 200
        assert batched == looped
        assert batch_rng.getstate() == loop_rng.getstate()

    def test_rng_subclasses_keep_the_python_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a random.Random subclass reached the kernel")

        monkeypatch.setattr(sampling, "_native_subgroup_points", refuse)
        batch_rng, loop_rng = ScriptedRandom(9, {}), ScriptedRandom(9, {})
        batched = SMALL.random_g_batch(batch_rng, 30)
        assert batched == [SMALL.random_g(loop_rng) for _ in range(30)]
        assert batch_rng.getstate() == loop_rng.getstate()


def test_unbuildable_kernels_keep_the_python_path(monkeypatch, tmp_path):
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_loaded", False)
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path / "cache")
    monkeypatch.setattr(native, "_COMPILER", "repro-no-such-compiler")

    def refuse(*args):
        raise AssertionError("the native sampler ran without kernels")

    monkeypatch.setattr(sampling, "_native_subgroup_points", refuse)
    batch_rng, loop_rng = random.Random(12), random.Random(12)
    batched = SMALL.random_g_batch(batch_rng, 30)
    assert batched == [SMALL.random_g(loop_rng) for _ in range(30)]
    assert batch_rng.getstate() == loop_rng.getstate()


class TestSampleCoins:
    @given(seed=st.integers(0, 2**30))
    @settings(max_examples=15, deadline=None)
    def test_g_coins_are_the_kappa_loop(self, seed):
        scheme = HPSKE(SMALL, kappa=4, space="G")
        coin_rng, loop_rng = random.Random(seed), random.Random(seed)
        before = SMALL.counter.g_samples
        coins = scheme.sample_coins(coin_rng)
        middle = SMALL.counter.g_samples
        assert coins == tuple(SMALL.random_g(loop_rng) for _ in range(4))
        assert coin_rng.getstate() == loop_rng.getstate()
        assert middle - before == SMALL.counter.g_samples - middle == 4

    @given(seed=st.integers(0, 2**30))
    @settings(max_examples=15, deadline=None)
    def test_gt_coins_are_the_kappa_loop(self, seed):
        scheme = HPSKE(SMALL, kappa=4, space="GT")
        coin_rng, loop_rng = random.Random(seed), random.Random(seed)
        before = SMALL.counter.gt_samples
        coins = scheme.sample_coins(coin_rng)
        middle = SMALL.counter.gt_samples
        assert coins == tuple(SMALL.random_gt(loop_rng) for _ in range(4))
        assert coin_rng.getstate() == loop_rng.getstate()
        assert middle - before == SMALL.counter.gt_samples - middle == 4


class TestEncryptBatch:
    @pytest.mark.parametrize("space", ["G", "GT"])
    @given(seed=st.integers(0, 2**30), count=st.integers(0, 12))
    @settings(max_examples=15, deadline=None)
    def test_matches_sequential_encrypts(self, space, seed, count):
        scheme = HPSKE(SMALL, kappa=3, space=space)
        setup = random.Random(seed ^ 0x5EED)
        key = scheme.keygen(setup)
        sample = SMALL.random_g if space == "G" else SMALL.random_gt
        messages = [sample(setup) for _ in range(count)]

        batch_rng, loop_rng = random.Random(seed), random.Random(seed)
        before = SMALL.counter.snapshot()
        batched = scheme.encrypt_batch(key, messages, batch_rng)
        middle = SMALL.counter.snapshot()
        looped = [scheme.encrypt(key, message, loop_rng) for message in messages]
        assert batched == looped
        assert batch_rng.getstate() == loop_rng.getstate()
        assert middle.diff(before).as_dict() == SMALL.counter.diff(middle).as_dict()
        assert [scheme.decrypt(key, c) for c in batched] == messages

    def test_key_width_checked(self):
        from repro.errors import ParameterError

        scheme = HPSKE(SMALL, kappa=3)
        key = HPSKE(SMALL, kappa=2).keygen(random.Random(1))
        with pytest.raises(ParameterError):
            scheme.encrypt_batch(key, [SMALL.g], random.Random(2))
