"""The compiled GMP kernels against the Python kernels they mirror.

:mod:`repro.groups.native` runs six loops in C: the lockstep affine
multiexp, the batched cofactor-clearing scalar multiplication, the
subgroup sampler, the Miller schedule, its evaluation (the schedule
chunk) and the ``F_{q^2}`` Straus loop.  Each is pinned here against
its Python kernel, run inside
:func:`~repro.groups.native._python_kernels`, at every preset size from
16 to 256 bits (word-sized residues below ``q = 2^63``, ``mpz_t`` from
64 up, multi-limb from 128 up), with the special cases of a round
drawn in: infinity operands, ``P + P`` and ``P + (-P)`` inside one
round, the 2-torsion point ``(0, 0)``, ``y_Q = 0``, and empty and
width-1 vectors.  Lone ``G`` instances of
every term count, with duplicate and negated bases and the exponents 1
and ``p - 1``, are pinned on both kernel sets against the
``reference_mode()`` ladder.  :class:`TestWordBoundary` runs all six
on groups either side of the word bound, with residues at ``q - 1``,
unreduced and negative operands, and singular slopes, and
:func:`test_threads_share_the_kernels` calls them from four threads on
both field layers at once.

The native legs skip where the extension cannot be built; the fallback
tests run everywhere.
"""

from __future__ import annotations

import functools
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dlr import DLR
from repro.core.optimal import OptimalDLR
from repro.core.params import DLRParams
from repro.errors import ParameterError
from repro.groups import fastops, native, preset_group, sampling
from repro.groups.bilinear import BilinearGroup, G1Element
from repro.groups.curve import INFINITY, Point, batch_scalar_mul
from repro.groups.pairing import (
    PairingPrecomp,
    evaluate_schedule_chunk,
    miller_schedule,
)
from repro.groups.pairing_params import generate_params
from repro.groups.windows import straus_window
from repro.ibe.dlr_ibe import DLRIBE
from repro.math.primes import is_prime
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


def affine(points) -> list:
    """Points in the kernels' raw affine form, ``None`` at infinity."""
    return [None if point.infinity else (point.x, point.y) for point in points]


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
        instances.append((affine(bases), exponents))
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
            (affine([p_point, p_point.negate(group.q)]), [e, e]),
            (affine([p_point, p_point]), [e, e]),
            (affine([TWO_TORSION, p_point]), [e, e]),
            (affine([INFINITY, p_point]), [e, e]),
            (affine([TWO_TORSION, TWO_TORSION]), [1, 1]),
        ]
        got, want = both(lambda: fastops._batch_affine_multiexp(instances, group.q))
        assert got == want
        assert got[0] is None and got[4] is None

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
                affine([rng.choice(finite) for _ in range(terms)]),
                [rng.randrange(1, group.p) for _ in range(terms)],
            )
            for terms in [30] + [9] * 39
        ]
        fastops._batch_affine_multiexp(instances, group.q)
        # Thirty terms put a digit of instance 0 at nearly every position.
        instances[0] = ([None] * 30, instances[0][1])
        got, want = both(lambda: fastops._batch_affine_multiexp(instances, group.q))
        assert got == want
        assert got[0] is None

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
            ).raw
        instances = [(affine(bases), exponents)]
        if kernels == "native":
            got = fastops.batch_multiexp_points(instances, group.q)
        else:
            with native._python_kernels():
                got = fastops.batch_multiexp_points(instances, group.q)
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
        got, want = both(lambda: schedule.evaluate_many(affine(rights)))
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
    """A forked child must not inherit another thread's hold on the
    kernels' scratch.  The parent's thread runs an ``mpz_t`` group
    (n=128), whose every call computes without the interpreter lock, so
    a fork can land while it holds the scratch; a word call releases
    the lock only when it is long, and most are not."""
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


@needs_native
def test_threads_share_the_kernels():
    """Four threads call every entry point at once, on word groups
    (n=32, and n=59 just under the bound) and on an ``mpz_t`` group
    (n=128): short word calls keep the interpreter lock, long word calls
    (the wide multiexp) and every ``mpz_t`` call release it, and every
    call still returns the Python kernels' value, without deadlock."""

    def calls(n):
        group = preset_group(n)
        q, h = group.q, group.params.h
        rng = random.Random(n)
        left, *rights = point_pool(n)[:6]
        instances = draw_instances(n, n, 6)
        wide = draw_instances(n, n + 1, 40)
        xys = [(pt.x, pt.y) for pt in rights] + [None, (0, 0)]
        steps = PairingPrecomp(left, group.params).steps
        values = [(rng.randrange(q), rng.randrange(q)) for _ in range(4)]
        exponents = [rng.randrange(1, group.p) for _ in values]
        w = straus_window(len(values), group.p.bit_length())
        digits = -(-group.p.bit_length() // w)
        return [
            lambda: fastops._batch_affine_multiexp(instances, q),
            lambda: fastops._batch_affine_multiexp(wide, q),
            lambda: batch_scalar_mul(list(rights), h, q),
            lambda: sampling.random_subgroup_points(group.params, random.Random(n), 8),
            lambda: miller_schedule(left, group.params),
            lambda: evaluate_schedule_chunk(steps, q, h, xys),
            lambda: fastops._straus_fq2_shared(values, exponents, w, digits, q),
        ]

    work = [call for n in (32, 59, 128) for call in calls(n)]
    with native._python_kernels():
        want = [call() for call in work]
    failures = []

    def run(offset):
        try:
            for round_ in range(16):
                for k in range(len(work)):
                    k = (k + offset * 5 + round_) % len(work)
                    if work[k]() != want[k]:
                        failures.append(k)
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    def timed_out(signum, frame):
        raise TimeoutError("a kernel call deadlocked")

    previous = signal.signal(signal.SIGALRM, timed_out)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads as often as possible
    signal.alarm(120)
    try:
        threads = [
            threading.Thread(target=run, args=(i,), daemon=True) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=110)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


@needs_native
def test_only_long_word_calls_release_the_interpreter_lock():
    """A second thread counts while it holds the interpreter lock, so
    its count moves during a call only if that call released the lock:
    a short word call keeps it, a long word call and an ``mpz_t`` call
    release it."""
    word, wide = preset_group(32), preset_group(128)
    left = point_pool(32)[0]
    short = draw_instances(32, 5, 2)
    long_word = draw_instances(32, 7, 200)
    long_wide = draw_instances(128, 7, 40)
    count = [0]
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            count[0] += 1

    def moved(call):
        before = count[0]
        call()
        return count[0] - before

    interval = sys.getswitchinterval()
    # The spinner takes the lock only when a call releases it, or after
    # this interval, which these calls never reach.
    sys.setswitchinterval(0.2)
    spinner = threading.Thread(target=spin, daemon=True)
    try:
        spinner.start()
        while count[0] == 0:
            time.sleep(0.001)
        short_moves = [
            moved(call)
            for call in (
                lambda: miller_schedule(left, word.params),
                lambda: fastops._batch_affine_multiexp(short, word.q),
            )
            for _ in range(3)
        ]
        # A released lock reaches the spinner only once it is scheduled.
        long_moves = [
            max(moved(call) for _ in range(3))
            for call in (
                lambda: fastops._batch_affine_multiexp(long_word, word.q),
                lambda: fastops._batch_affine_multiexp(long_wide, wide.q),
            )
        ]
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        spinner.join(timeout=10.0)
    assert short_moves == [0] * 6
    assert all(moves > 0 for moves in long_moves)


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

    def test_forcing_the_python_kernels(self):
        with native._python_kernels():
            assert native.kernel_backend() == "python"


@needs_native
def test_an_importable_gmpy2_keeps_the_native_kernels(tmp_path):
    """Nothing but a failed build turns the compiled kernels off: with a
    ``gmpy2`` module on the path they still serve the hot loops."""
    (tmp_path / "gmpy2.py").write_text(
        "mpz = int\npowmod = pow\n\n\ndef invert(a, m):\n    return pow(a, -1, m)\n"
    )
    source_root = pathlib.Path(native.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(source_root)])
    probe = (
        "import gmpy2; from repro.groups.native import kernel_backend; "
        "print(gmpy2.__file__); print(kernel_backend())"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    stub, kernels = result.stdout.split()
    assert pathlib.Path(stub) == tmp_path / "gmpy2.py"
    assert kernels == "native"


def test_the_build_key_covers_every_file_the_build_reads():
    """Each local header the C source includes is hashed into the cache
    key, so editing it rebuilds the module instead of loading a stale
    one."""
    included = set(re.findall(r'#include "([^"]+)"', native._SOURCE.read_text()))
    assert included
    assert {path.name for path in native._SOURCES} == {native._SOURCE.name, *included}
    sources = [path.read_bytes() for path in native._SOURCES]
    edited = [*sources[:-1], sources[-1] + b"\n"]
    compiler = sys.executable  # any existing file stands in for the compiler
    assert native._build_key(sources, compiler) != native._build_key(edited, compiler)


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


# ---------------------------------------------------------------------------
# The word/mpz_t boundary: residues are uint64_t words for every q < 2^63
# and mpz_t above.


@functools.lru_cache(maxsize=None)
def boundary_group(key) -> BilinearGroup:
    """A preset group by its ``n``, or ``"q63"``: a pinned group whose
    63-bit ``q`` sits just under 2^63, the largest the words take."""
    if key == "q63":
        group = BilinearGroup(generate_params(58, random.Random(4)))
        assert 2**63 - 2**54 < group.q < 2**63
        return group
    return preset_group(key)


#: Preset n=59 (a 61-bit q, words), the pinned 63-bit q (words), preset
#: n=56 (a 64-bit q, mpz_t), and every preset size the suite uses.
BOUNDARY = (59, "q63", 56) + SIZES


def test_the_boundary_groups_straddle_two_to_the_63():
    assert boundary_group(59).q.bit_length() == 61
    assert boundary_group("q63").q.bit_length() == 63
    assert boundary_group(56).q.bit_length() == 64


def raw(points) -> list:
    return [None if point.infinity else (point.x, point.y) for point in points]


def unreduced(xy, q: int, rng: random.Random):
    """``xy`` with each coordinate lifted by a multiple of ``q``: past
    ``q``, past 2^64, or far past it."""
    if xy is None:
        return None
    return tuple(c + q * rng.choice([1, 2**64 // q + 1, 2**80 + 3]) for c in xy)


def boundary_operands(group) -> tuple[list, list]:
    """Points (as raw pairs or None) whose rounds meet every special
    case, and exponents at the edges of ``[0, p)``."""
    q, p = group.q, group.p
    rng = random.Random(q)
    finite = [group.random_g(rng).point for _ in range(3)]
    points = raw(finite) + [
        raw([finite[0].negate(q)])[0],  # P + (-P) with finite[0]
        (0, 0),  # 2-torsion
        None,  # infinity
        (q - 1, q - 1),  # off the curve: the largest residues
        (q - 1, 1),
    ]
    exponents = [0, 1, 2, p - 1, p - 2, rng.randrange(1, p), rng.randrange(1, p)]
    return points, exponents


@needs_native
class TestWordBoundary:
    """All six entry points at the word/``mpz_t`` boundary, the native
    result taking unreduced coordinates and the Python kernels reduced
    ones."""

    @pytest.mark.parametrize("key", BOUNDARY)
    def test_affine_multiexp(self, key):
        group = boundary_group(key)
        q = group.q
        points, exponents = boundary_operands(group)
        rng = random.Random(1)
        instances = [
            ([points[0], points[0]], [exponents[5], exponents[5]]),  # P + P
            ([points[0], points[3]], [exponents[6], exponents[6]]),  # P + (-P)
            ([points[4], points[1]], [1, exponents[3]]),
            ([points[5], points[2]], [exponents[4], 0]),
            ([points[6], points[7]], [exponents[5], exponents[6]]),
            (points, exponents + [1]),
            ([points[0]], [0]),
        ]
        bits = max(e.bit_length() for _, exps in instances for e in exps)
        lifted = [
            ([unreduced(xy, q, rng) for xy in bases], exps) for bases, exps in instances
        ]
        got = native.kernels().affine_multiexp(
            q, fastops.wnaf_window(bits), fastops._TREE_ENTRIES, lifted
        )
        with native._python_kernels():
            want = fastops._batch_affine_multiexp(instances, q)
        assert got == want
        assert got[1] is None and got[-1] is None

    @pytest.mark.parametrize("key", BOUNDARY)
    def test_scalar_mul_vector(self, key):
        group = boundary_group(key)
        q, p = group.q, group.p
        points, _ = boundary_operands(group)
        rng = random.Random(2)
        lifted = [unreduced(xy, q, rng) for xy in points]
        vector = [INFINITY if xy is None else Point(*xy, False) for xy in points]
        for scalar in (1, 2, 3, group.params.h, p - 1, p):
            got = native.kernels().scalar_mul_vector(q, scalar, lifted)
            with native._python_kernels():
                want = batch_scalar_mul(vector, scalar, q)
            assert got == raw(want), scalar
        assert native.kernels().scalar_mul_vector(q, p, lifted[:3]) == [None] * 3

    @pytest.mark.parametrize("key", BOUNDARY)
    def test_sample_points(self, key):
        params = boundary_group(key).params
        native_rng, python_rng = random.Random(3), random.Random(3)
        got = sampling.random_subgroup_points(params, native_rng, 24)
        with native._python_kernels():
            want = sampling.random_subgroup_points(params, python_rng, 24)
        assert got == want
        assert native_rng.getstate() == python_rng.getstate()

    @pytest.mark.parametrize("key", BOUNDARY)
    def test_schedule_chunk(self, key):
        group = boundary_group(key)
        q, h = group.q, group.params.h
        points, _ = boundary_operands(group)
        rng = random.Random(4)
        steps = PairingPrecomp(Point(*points[0], False), group.params).steps
        xys = points + [(q - 1, 0), (rng.randrange(q), q - 1)]
        lifted_steps = [
            tuple(unreduced(line, q, rng) for line in step) for step in steps
        ]
        lifted = [unreduced(xy, q, rng) for xy in xys]
        got = native.kernels().schedule_chunk(lifted_steps, q, h, lifted)
        with native._python_kernels():
            want = evaluate_schedule_chunk(steps, q, h, xys)
        assert got == want

    @pytest.mark.parametrize("key", BOUNDARY)
    def test_miller_schedule(self, key):
        group = boundary_group(key)
        q, p = group.q, group.p
        points, _ = boundary_operands(group)
        rng = random.Random(7)
        # Three subgroup points, the negation of the first, and two points
        # off the curve with the largest residues.
        for xy in points[:4] + points[6:]:
            got = native.kernels().miller_schedule(q, p, unreduced(xy, q, rng))
            with native._python_kernels():
                want = miller_schedule(Point(*xy, False), group.params)
            assert got is not None and len(got) == p.bit_length() - 1
            assert got == want, xy

    @pytest.mark.parametrize("key", BOUNDARY)
    def test_miller_schedule_eliminates_t_equal_to_minus_p(self, key):
        """Every subgroup point meets ``T = -P`` at the last addition of
        its own order; an order with bits appended meets it mid-chain,
        and each step after it only squares."""
        group = boundary_group(key)
        q, p = group.q, group.p
        xy = boundary_operands(group)[0][0]
        for order in (p, p << 3 | 5):
            params = SimpleNamespace(p=order, q=q)
            got = native.kernels().miller_schedule(q, order, xy)
            with native._python_kernels():
                want = miller_schedule(Point(*xy, False), params)
            assert got == want
            last = p.bit_length() - 2  # the step of p's lowest bit
            assert got[last][0] is not None and got[last][1] is None
            assert got[last + 1:] == [(None, None)] * (order.bit_length() - p.bit_length())

    @pytest.mark.parametrize("key", BOUNDARY)
    def test_miller_schedule_hands_irregular_walks_back(self, key):
        """``P`` at infinity has no steps.  A 2-torsion ``P`` doubles at
        ``y = 0`` and an order of ``p + 2`` adds ``T = P``: the kernel
        returns None for both, and the Python build reports them with
        the same error on either kernel set."""
        group = boundary_group(key)
        q, p = group.q, group.p
        xy = boundary_operands(group)[0][0]
        kernel = native.kernels().miller_schedule
        assert kernel(q, p, None) == []
        assert PairingPrecomp(INFINITY, group.params).steps == []
        for point, order in ((TWO_TORSION, p), (Point(*xy, False), p + 2)):
            assert kernel(q, order, (point.x, point.y)) is None
            params = SimpleNamespace(p=order, q=q)
            with pytest.raises(ParameterError) as on_native:
                miller_schedule(point, params)
            with native._python_kernels(), pytest.raises(ParameterError) as on_python:
                miller_schedule(point, params)
            assert str(on_native.value) == str(on_python.value)

    @pytest.mark.parametrize("key", BOUNDARY)
    def test_straus_fq2(self, key):
        group = boundary_group(key)
        self._check_straus(group.q, group.p, random.Random(5))

    @pytest.mark.parametrize("bound", [2**63, 2**64])
    def test_straus_fq2_at_the_primes_beside_the_bound(self, bound):
        """The largest prime below 2^63 (words) and the smallest above
        (mpz_t); likewise around 2^64."""
        below = next(q for q in range(bound - 1, 0, -2) if is_prime(q))
        above = next(q for q in range(bound + 1, 2 * bound, 2) if is_prime(q))
        for q in (below, above):
            self._check_straus(q, q - 1, random.Random(q))

    @staticmethod
    def _check_straus(q, p, rng):
        values = [(1, 0), (0, 1), (q - 1, q - 1), (q - 1, 0), (0, q - 1)]
        values += [(rng.randrange(q), rng.randrange(q)) for _ in range(3)]
        exponents = [0, 1, p - 1, p - 2, 2, 1, p - 1, rng.randrange(p)]
        w = straus_window(len(values), p.bit_length())
        digits = -(-p.bit_length() // w)
        lifted = [unreduced(value, q, rng) for value in values]
        got = native.kernels().straus_fq2(lifted, exponents, w, digits, q)
        with native._python_kernels():
            want = fastops._straus_fq2_shared(values, exponents, w, digits, q)
        assert got == want

    @pytest.mark.parametrize("key", [59, "q63", 56, 128])
    @pytest.mark.parametrize("negative", [-1, -(2**70)])
    def test_negative_operands_raise_overflow(self, key, negative):
        group = boundary_group(key)
        q, h = group.q, group.params.h
        kernel = native.kernels()
        good = raw([group.random_g(random.Random(6)).point])[0]
        bad = (good[0], negative)
        w, entries = fastops.wnaf_window(8), fastops._TREE_ENTRIES
        calls = [
            lambda: kernel.affine_multiexp(q, w, entries, [([good, bad], [3, 5])]),
            lambda: kernel.affine_multiexp(q, w, entries, [([good], [negative])]),
            lambda: kernel.scalar_mul_vector(q, 3, [good, bad]),
            lambda: kernel.schedule_chunk([], q, h, [good, bad]),
            lambda: kernel.schedule_chunk([(bad, None)], q, h, [good]),
            lambda: kernel.miller_schedule(q, group.p, bad),
            lambda: kernel.miller_schedule(q, negative, good),
            lambda: kernel.straus_fq2([good, bad], [1, 1], 2, 1, q),
            lambda: kernel.straus_fq2([good], [negative], 2, 1, q),
        ]
        for call in calls:
            with pytest.raises(OverflowError):
                call()
        # The scratch serves the next call as before.
        assert kernel.scalar_mul_vector(q, 1, [good]) == [good]

    @pytest.mark.parametrize("q, factor", [(15, 5), (2**64 + 1, 274177)])
    def test_a_singular_slope_raises_zero_division(self, q, factor):
        """Over a composite modulus (words below 2^63, mpz_t above) a
        denominator sharing a factor with q has no inverse."""
        kernel = native.kernels()
        shared = (1, factor)  # doubling divides by 2 * factor
        with pytest.raises(ZeroDivisionError):
            kernel.scalar_mul_vector(q, 2, [shared])
        with pytest.raises(ZeroDivisionError):
            kernel.affine_multiexp(q, 2, 8, [([shared], [2])])
        with pytest.raises(ZeroDivisionError):
            kernel.schedule_chunk([], q, 4, [shared])
        # The schedule hands a non-unit back to the Python build.
        assert kernel.miller_schedule(q, 5, shared) is None
        assert kernel.scalar_mul_vector(q, 1, [shared]) == [shared]
