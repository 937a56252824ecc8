"""RNG-stream identity of the batched samplers.

``BilinearGroup.random_g_batch`` and ``HPSKE.encrypt_batch`` replace
loops of ``random_g`` / ``encrypt`` inside a period.  The period's
transcript, and every later draw from the device RNG, depend on them
consuming the stream exactly like the loops, so each test compares the
values *and* the RNG state afterwards against the sequential loop on an
identically seeded generator.  The identity-fallback branch (a
candidate whose cofactor multiple is the identity) is driven
deterministically with a scripted RNG.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hpske import HPSKE
from repro.groups import fastops, preset_group, sampling
from repro.groups.curve import Point, scalar_mul
from repro.math.modular import sqrt_mod

SMALL = preset_group(32)


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

    def test_identity_outcome_falls_back_to_the_loop(self, monkeypatch):
        """A candidate of order 3 clears to the identity: the sequential
        sampler redraws right after it, so the batch must restore the
        stream and draw sequentially to stay identical."""
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
        assert len(fallbacks) == 5
        assert batched == looped
        assert batch_rng.getstate() == loop_rng.getstate()
        assert all(not element.is_identity() for element in batched)
        assert x not in {element.point.x for element in batched}


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
