"""The compiled GMP kernels against the Python kernels they mirror.

:mod:`repro.groups.native` runs five loops in C: the lockstep affine
multiexp, the batched cofactor-clearing scalar multiplication, the
subgroup sampler, the Miller-schedule chunk and the ``F_{q^2}`` Straus
loop.  Each is pinned here against its Python kernel, run inside
:func:`~repro.groups.native._python_kernels`, at every preset size from
16 to 256 bits (multi-limb ``mpz_t`` from 128 up), with the special
cases of a round drawn in: infinity operands, ``P + P`` and
``P + (-P)`` inside one round, the 2-torsion point ``(0, 0)``,
``y_Q = 0``, and empty and width-1 vectors.  Lone ``G`` instances of
every term count, with duplicate and negated bases and the exponents 1
and ``p - 1``, are pinned on both kernel sets against the
``reference_mode()`` ladder.

The native legs skip where the extension cannot be built; the fallback
tests run everywhere.
"""

from __future__ import annotations

import functools
import os
import random
import signal
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dlr import DLR
from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.groups import fastops, native, preset_group, sampling
from repro.groups.bilinear import G1Element
from repro.groups.curve import INFINITY, Point, batch_scalar_mul
from repro.groups.pairing import PairingPrecomp, evaluate_schedule_chunk
from repro.groups.windows import straus_window
from repro.ibe.dlr_ibe import DLRIBE
from repro.math.backend import use_backend
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

SIZES = (16, 32, 64, 128, 256)
TWO_TORSION = Point(0, 0, False)

needs_native = pytest.mark.skipif(
    native.kernels() is None, reason="the native kernels cannot be built here"
)
COMMON = dict(max_examples=30, deadline=None)
seeds = st.integers(min_value=0, max_value=2**30)
sizes = st.sampled_from(SIZES)


def draw_words(seed: int, words: int) -> bytes:
    """``words`` output words of a seeded ``random.Random``, as the
    sampling kernel takes them."""
    return random.Random(seed).getrandbits(32 * words).to_bytes(4 * words, "little")


def both(run):
    """``run()`` on the native kernels and on the Python kernels."""
    native_result = run()
    with native._python_kernels():
        python_result = run()
    return native_result, python_result


@functools.lru_cache(maxsize=None)
def point_pool(n: int) -> tuple[Point, ...]:
    """Subgroup points with their negatives, the 2-torsion point and
    infinity: operands that collide inside a round."""
    group = preset_group(n)
    rng = random.Random(n)
    points = [group.random_g(rng).point for _ in range(6)]
    negatives = [pt.negate(group.q) for pt in points[:3]]
    return tuple(points + negatives + [TWO_TORSION, INFINITY])


def draw_instances(n: int, seed: int, width: int) -> list:
    group = preset_group(n)
    rng = random.Random(seed)
    pool = point_pool(n)
    instances = []
    for _ in range(width):
        terms = rng.randint(1, 9)
        bases = [rng.choice(pool) for _ in range(terms)]
        exponents = [
            rng.choice([0, 1, 3, group.p - 1, rng.randrange(1, group.p)])
            for _ in range(terms)
        ]
        instances.append((bases, exponents))
    return instances


@needs_native
class TestAffineMultiexp:
    @given(n=sizes, seed=seeds, width=st.integers(min_value=1, max_value=12))
    @settings(**COMMON)
    def test_matches_python(self, n, seed, width):
        group = preset_group(n)
        instances = draw_instances(n, seed, width)
        got, want = both(lambda: fastops._batch_affine_multiexp(instances, group.q))
        assert got == want

    @pytest.mark.parametrize("n", SIZES)
    def test_special_cases_share_one_round(self, n):
        """``P + (-P)``, ``P + P``, the 2-torsion point and infinity
        meet in the same column-tree round, one instance each."""
        group = preset_group(n)
        p_point = point_pool(n)[0]
        e = random.Random(n).randrange(1, group.p)
        instances = [
            ([p_point, p_point.negate(group.q)], [e, e]),
            ([p_point, p_point], [e, e]),
            ([TWO_TORSION, p_point], [e, e]),
            ([INFINITY, p_point], [e, e]),
            ([TWO_TORSION, TWO_TORSION], [1, 1]),
        ]
        got, want = both(lambda: fastops._batch_affine_multiexp(instances, group.q))
        assert got == want
        assert got[0] == INFINITY and got[4] == INFINITY

    @pytest.mark.parametrize("n", SIZES)
    def test_infinity_base_after_a_call_of_the_same_shape(self, n):
        """A None base leaves its table slot holding whatever the last
        call wrote there; an accumulator that passes it through must
        still read as infinity when its slice's trees are recycled."""
        group = preset_group(n)
        rng = random.Random(n)
        finite = point_pool(n)[:6]
        instances = [
            (
                [rng.choice(finite) for _ in range(terms)],
                [rng.randrange(1, group.p) for _ in range(terms)],
            )
            for terms in [30] + [9] * 39
        ]
        fastops._batch_affine_multiexp(instances, group.q)
        # Thirty terms put a digit of instance 0 at nearly every position.
        instances[0] = ([INFINITY] * 30, instances[0][1])
        got, want = both(lambda: fastops._batch_affine_multiexp(instances, group.q))
        assert got == want
        assert got[0] == INFINITY

    @pytest.mark.parametrize("n", SIZES)
    def test_many_slices(self, n):
        """Wide enough that the column trees run in several slices."""
        instances = draw_instances(n, 99, 40)
        q = preset_group(n).q
        got, want = both(lambda: fastops._batch_affine_multiexp(instances, q))
        assert got == want


def lone_instance(n: int, terms: int) -> tuple[list[Point], list[int]]:
    """One instance of ``terms`` terms over subgroup points, with a
    duplicated and a negated base once there is room, and the exponents
    1 and ``p - 1`` among random ones."""
    group = preset_group(n)
    rng = random.Random(n * 1000 + terms)
    finite = point_pool(n)[:6]
    bases = [rng.choice(finite) for _ in range(terms)]
    if terms >= 3:
        bases[1] = bases[0]
        bases[2] = bases[0].negate(group.q)
    exponents = [rng.randrange(1, group.p) for _ in range(terms)]
    exponents[0] = 1
    exponents[-1] = group.p - 1
    return bases, exponents


@pytest.mark.parametrize("kernels", ["native", "python"])
@pytest.mark.parametrize("n", SIZES)
def test_lone_instances_match_the_reference_ladder(kernels, n):
    """A lone instance is a batch of one, whatever its term count: the
    same value as the per-term ladder on either kernel set."""
    if kernels == "native" and native.kernels() is None:
        pytest.skip("the native kernels cannot be built here")
    group = preset_group(n)
    for terms in (1, 2, 5, 63, 64, 65, 256):
        bases, exponents = lone_instance(n, terms)
        with fastops.reference_mode():
            want = G1Element.multiexp(
                [G1Element(group, point) for point in bases], exponents
            ).point
        if kernels == "native":
            got = fastops.batch_multiexp_points([(bases, exponents)], group.q)
        else:
            with native._python_kernels():
                got = fastops.batch_multiexp_points([(bases, exponents)], group.q)
        assert got == [want], terms


@needs_native
class TestScalarMulVector:
    @given(n=sizes, seed=seeds, count=st.integers(min_value=0, max_value=10))
    @settings(**COMMON)
    def test_matches_python(self, n, seed, count):
        group = preset_group(n)
        rng = random.Random(seed)
        points = [rng.choice(point_pool(n)) for _ in range(count)]
        scalar = rng.choice([1, 2, group.params.h, rng.randrange(1, group.p)])
        got, want = both(lambda: batch_scalar_mul(points, scalar, group.q))
        assert got == want


@needs_native
class TestSamplePoints:
    """The sampling kernel consumes exactly the words it reports.  Its
    values and RNG state against the Python sampler are pinned in
    ``test_batch_sampling.py``."""

    @pytest.mark.parametrize("n", SIZES)
    def test_reports_the_words_it_used_and_running_out(self, n):
        """The Python sampler on the same seed returns the same points
        and consumes exactly ``used`` words; one word fewer runs out."""
        params = preset_group(n).params
        kernel = native.kernels().sample_points
        words = draw_words(n, 4000)
        points, used = kernel(params.q, params.h, 50, words)
        rng, skipped = random.Random(n), random.Random(n)
        with native._python_kernels():
            want = sampling.random_subgroup_points(params, rng, 50)
        skipped.getrandbits(32 * used)
        assert points == [(point.x, point.y) for point in want]
        assert skipped.getstate() == rng.getstate()
        assert kernel(params.q, params.h, 50, words[: 4 * used]) == (points, used)
        assert kernel(params.q, params.h, 50, words[: 4 * (used - 1)]) is None
        assert kernel(params.q, params.h, 50, b"") is None
        assert kernel(params.q, params.h, 2**62, words) is None
        assert kernel(params.q, params.h, 0, b"") == ([], 0)

    def test_rejects_a_partial_word_and_bad_parameters(self):
        kernel = native.kernels().sample_points
        params = preset_group(32).params
        with pytest.raises(ValueError):
            kernel(params.q, params.h, 1, b"\0" * 6)
        with pytest.raises(ValueError):
            kernel(params.q + 2, params.h, 1, bytes(8))  # q = 1 (mod 4)
        with pytest.raises(ValueError):
            kernel(params.q, 0, 1, bytes(8))
        with pytest.raises(ValueError):
            kernel(params.q, params.h, -1, b"")


@needs_native
class TestScheduleChunk:
    @given(n=sizes, seed=seeds, count=st.integers(min_value=0, max_value=8))
    @settings(**COMMON)
    def test_matches_python(self, n, seed, count):
        group = preset_group(n)
        rng = random.Random(seed)
        schedule = PairingPrecomp(rng.choice(point_pool(n)[:6]), group.params)
        q = group.q
        xys = [
            rng.choice(
                [
                    None,
                    (0, 0),  # y_Q = 0
                    (rng.randrange(q), 0),
                    (rng.randrange(q), rng.randrange(q)),
                    (rng.choice(point_pool(n)[:9]).x, rng.choice(point_pool(n)[:9]).y),
                ]
            )
            for _ in range(count)
        ]
        got, want = both(
            lambda: evaluate_schedule_chunk(schedule.steps, q, group.params.h, xys)
        )
        assert got == want

    @pytest.mark.parametrize("n", SIZES)
    def test_pairings_match(self, n):
        group = preset_group(n)
        left, *rights = point_pool(n)
        schedule = PairingPrecomp(left, group.params)
        got, want = both(lambda: schedule.evaluate_many(rights))
        assert got == want


@needs_native
class TestStrausFq2:
    @given(n=sizes, seed=seeds, count=st.integers(min_value=0, max_value=10))
    @settings(**COMMON)
    def test_matches_python(self, n, seed, count):
        group = preset_group(n)
        rng = random.Random(seed)
        q = group.q
        values = [
            rng.choice([(1, 0), (0, 1), (rng.randrange(q), rng.randrange(q))])
            for _ in range(count)
        ]
        exponents = [rng.choice([0, 1, rng.randrange(1, group.p)]) for _ in values]
        bits = max((e.bit_length() for e in exponents), default=1)
        w = straus_window(max(count, 1), bits)
        digits = -(-bits // w)
        got, want = both(
            lambda: fastops._straus_fq2_shared(values, exponents, w, digits, q)
        )
        assert got == want


def _period_view(scheme_cls, seed):
    """Transcript bits, plaintexts and per-group op counts of two
    periods (a single and a batch-of-3) on fixed seeds."""
    group = preset_group(32)
    scheme = scheme_cls(DLRParams(group=group, lam=32))
    rng = random.Random(seed)
    generation = scheme.generate(rng)
    p1, p2 = Device("P1", group, rng), Device("P2", group, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    channel = InMemoryTransport()
    messages = [group.random_gt(rng) for _ in range(4)]
    ciphertexts = [scheme.encrypt(generation.public_key, m, rng) for m in messages]
    group.counter.reset()
    plaintexts = [scheme.run_period(p1, p2, channel, ciphertexts[0]).plaintext]
    plaintexts += scheme.run_period_multi(p1, p2, channel, ciphertexts[1:]).plaintexts
    assert plaintexts == messages
    bits = [channel.transcript_bits(period).to_bytes() for period in (0, 1)]
    return bits, group.counter.as_dict()


@needs_native
@pytest.mark.parametrize("scheme_cls", [DLR, OptimalDLR, DLRIBE])
def test_scheme_periods_match_python_and_reference_mode(scheme_cls):
    native_view, python_view = both(lambda: _period_view(scheme_cls, 2012))
    assert native_view == python_view  # transcripts and op counts
    with fastops.reference_mode():
        reference_bits, _ = _period_view(scheme_cls, 2012)
    assert native_view[0] == reference_bits


@needs_native
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_children_run_kernels_while_a_parent_thread_is_in_one():
    """The process pool forks; a child must not inherit another
    thread's hold on the kernels' scratch."""
    group = preset_group(128)
    busy = draw_instances(128, 1, 40)
    small = draw_instances(32, 2, 3)
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            fastops._batch_affine_multiexp(busy, group.q)

    spinner = threading.Thread(target=spin)
    spinner.start()
    statuses = []
    try:
        for _ in range(5):
            time.sleep(0.02)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child process
                signal.alarm(10)  # a deadlocked child dies instead
                fastops._batch_affine_multiexp(small, preset_group(32).q)
                os._exit(0)
            statuses.append(os.waitpid(pid, 0)[1])
    finally:
        stop.set()
        spinner.join(timeout=30.0)
    assert not spinner.is_alive()
    assert statuses == [0] * 5


class TestFallback:
    """An extension that cannot be built leaves the Python kernels in
    charge, silently."""

    @pytest.fixture()
    def unbuilt(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "_module", None)
        monkeypatch.setattr(native, "_loaded", False)
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path / "cache")
        return monkeypatch

    def _assert_python_kernels(self):
        group = preset_group(32)
        instances = draw_instances(32, 5, 4)
        assert native.kernel_backend() == "python"
        assert native.kernels() is None
        got = fastops._batch_affine_multiexp(instances, group.q)
        with native._python_kernels():
            assert got == fastops._batch_affine_multiexp(instances, group.q)

    def test_missing_compiler(self, unbuilt):
        unbuilt.setattr(native, "_COMPILER", "repro-no-such-compiler")
        self._assert_python_kernels()

    def test_failing_compiler(self, unbuilt):
        # The interpreter rejects the compiler's flags: a build that fails.
        unbuilt.setattr(native, "_COMPILER", sys.executable)
        self._assert_python_kernels()
        assert list((native._cache_dir()).iterdir()) == []  # no temp file left

    def test_unwritable_cache(self, unbuilt, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        unbuilt.setattr(native, "_cache_dir", lambda: blocker / "cache")
        self._assert_python_kernels()

    def test_other_backends_keep_the_python_kernels(self):
        from tests.math.test_backends import FakeAccelBackend

        with use_backend(FakeAccelBackend.name):
            assert native.kernels() is None
            assert native.kernel_backend() == "python"

    def test_forcing_the_python_kernels(self):
        with native._python_kernels():
            assert native.kernel_backend() == "python"


@needs_native
def test_build_lands_in_the_cache_and_is_reused(monkeypatch, tmp_path):
    monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path / "cache")
    module = native._load()
    built = list((tmp_path / "cache").iterdir())
    assert [path.suffix for path in built] == [".so"]
    assert module.straus_fq2([], [], 4, 0, 7) == (1, 0)

    def no_compiler(*args, **kwargs):
        raise AssertionError("a cached build must not recompile")

    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    assert native._load() is not None
