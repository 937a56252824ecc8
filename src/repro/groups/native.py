"""Compiled GMP kernels for the hot group loops, built on first use.

The lockstep affine multiexp
(:func:`repro.groups.fastops._batch_affine_multiexp`) and the cofactor
clearing that runs on the same rounds
(:func:`repro.groups.curve.batch_scalar_mul`), the unknown-dlog
sampler (:func:`repro.groups.sampling.random_subgroup_points`), the
Miller schedule (:func:`repro.groups.pairing.miller_schedule`), its
evaluation (:func:`repro.groups.pairing.evaluate_schedule_chunk`) and
the ``F_{q^2}`` Straus loop
(:func:`repro.groups.fastops._straus_fq2_shared`) each have a C twin in
``_kernels.c``, shipped beside this module.  Every call runs a whole
loop.  The modulus it is passed picks the residues' representation: a
``q`` below 2^63 computes on ``uint64_t`` words with 128-bit products,
a larger one on GMP ``mpz_t``.  Both run one kernel body,
``_kernels_body.h``, which ``_kernels.c`` includes once per
representation.  A word-field call releases the interpreter lock only
when its estimated work is long enough for that to pay; an ``mpz_t``
call always releases it.  The Python kernels stay the
reference: the C versions return the same canonical residues.  The
sampler takes a ``random.Random``'s raw 32-bit output words, drawn
ahead in Python, and consumes them exactly as ``randrange`` and
``getrandbits(1)`` would, so the RNG stream is the Python loop's.

The first :func:`kernels` call compiles the source with a plain ``gcc``
run against the interpreter's headers and ``-lgmp``, into a per-user
cache directory keyed by a hash of both source files, the Python ABI
and the compiler.  The build goes to a temporary file that is renamed into
place, so servers starting together cannot load a half-written module.
Any failure (no compiler, no ``gmp.h``, an unwritable cache, a module
that does not load) leaves the Python kernels in charge, silently.
Everything under :func:`repro.groups.fastops.reference_mode` keeps the
Python algebra.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager, suppress
from typing import Iterator

_SOURCE = pathlib.Path(__file__).with_name("_kernels.c")
#: Every file the build reads: the source and the kernel body it
#: includes once per residue representation.
_SOURCES = (_SOURCE, _SOURCE.with_name("_kernels_body.h"))
_MODULE_NAME = "_repro_kernels"
_COMPILER = "gcc"
_BUILD_TIMEOUT_S = 120.0
#: This interpreter's extension-module suffix, which names its ABI.
_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]

_lock = threading.Lock()
_module = None
_loaded = False  # a build or load was attempted (and _module is its result)
_forced_python = 0


def _cache_dir() -> pathlib.Path:
    return pathlib.Path.home() / ".cache" / "repro-dlr" / "kernels"


def _build_key(sources: list[bytes], compiler: str) -> str:
    stat = os.stat(compiler)
    digest = hashlib.sha256()
    for source in sources:
        digest.update(hashlib.sha256(source).digest())
    for part in (
        sys.version,
        _SUFFIX,
        compiler,
        f"{stat.st_size}:{stat.st_mtime_ns}",
    ):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()[:20]


def _build(target: pathlib.Path, compiler: str) -> None:
    import sysconfig  # only a build needs it: it costs a serving process RSS

    paths = sysconfig.get_paths()
    includes = dict.fromkeys((paths["include"], paths["platinclude"]))
    fd, temp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC",
             *(f"-I{path}" for path in includes),
             str(_SOURCE), "-o", temp, "-lgmp"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=_BUILD_TIMEOUT_S,
            check=True,
        )
        os.replace(temp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _load():
    compiler = shutil.which(_COMPILER)
    if compiler is None:
        return None
    compiler = os.path.realpath(compiler)
    sources = [path.read_bytes() for path in _SOURCES]
    cache = _cache_dir()
    target = cache / f"{_MODULE_NAME}-{_build_key(sources, compiler)}{_SUFFIX}"
    if not target.exists():
        cache.mkdir(parents=True, exist_ok=True)
        _build(target, compiler)
    loader = importlib.machinery.ExtensionFileLoader(_MODULE_NAME, str(target))
    spec = importlib.util.spec_from_file_location(
        _MODULE_NAME, str(target), loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    # A fork from any thread may copy another thread's hold on the
    # kernels' scratch lock into the child.
    os.register_at_fork(after_in_child=module.reset_after_fork)
    return module


def _compiled():
    """The compiled module, building it on the first call; ``None`` if
    it cannot be built or loaded here."""
    global _module, _loaded
    if not _loaded:
        with _lock:
            if not _loaded:
                try:
                    _module = _load()
                except Exception:  # noqa: BLE001 - any failure means Python
                    _module = None
                _loaded = True
    return _module


def kernels():
    """The compiled kernels, or ``None`` when they cannot be built or
    :func:`_python_kernels` is in force (the caller runs its Python
    kernel)."""
    if _forced_python:
        return None
    return _compiled()


def kernel_backend() -> str:
    """``"native"`` when the compiled kernels serve the hot loops, else
    ``"python"``: the name the server banner and ``health`` show."""
    return "python" if kernels() is None else "native"


@contextmanager
def _python_kernels() -> Iterator[None]:
    """Run the Python kernels inside the block, process-wide (the tests
    compare the two paths through this)."""
    global _forced_python
    _forced_python += 1
    try:
        yield
    finally:
        _forced_python -= 1
