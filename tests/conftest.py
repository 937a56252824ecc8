"""Shared fixtures.

Group sizes: ``toy`` (16-bit order) is for exhaustive / statistical
tests, ``small`` (32-bit) for protocol tests, ``medium`` (64-bit) for a
handful of end-to-end checks at a more realistic size.  All are
deterministic presets, cached per session.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.core.params import DLRParams
from repro.groups import native, preset_group


def pytest_configure(config):
    # The library's own deprecations must not be exercised silently: a
    # test that still calls a deprecated repro API fails unless it
    # asserts the warning with pytest.warns.  Scoped to this suite (the
    # category lives in repro, which this suite imports anyway).
    config.addinivalue_line(
        "filterwarnings", "error::repro.errors.ReproDeprecationWarning"
    )


@pytest.fixture(scope="session")
def toy_group():
    return preset_group(16)


@pytest.fixture(scope="session")
def small_group():
    return preset_group(32)


@pytest.fixture(scope="session")
def medium_group():
    return preset_group(64)


@pytest.fixture(scope="session")
def toy_params(toy_group):
    return DLRParams(group=toy_group, lam=16)


@pytest.fixture(scope="session")
def small_params(small_group):
    return DLRParams(group=small_group, lam=32)


@pytest.fixture(scope="session")
def medium_params(medium_group):
    return DLRParams(group=medium_group, lam=128)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


def make_rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


#: The two kernel sets a cross-kernel check runs on, by the names
#: :func:`repro.groups.native.kernel_backend` reports.
KERNEL_SETS = ("python", "native")


def built_kernel_sets() -> list[str]:
    """The kernel sets this environment can run."""
    return [name for name in KERNEL_SETS if name == "python" or native.kernels()]


@contextmanager
def kernel_set(name: str) -> Iterator[None]:
    """Run the block on the named kernel set: the Python kernels, or the
    compiled ones (skipping the test where they cannot be built)."""
    if name == "native":
        if native.kernels() is None:
            pytest.skip("the native kernels cannot be built here")
        yield
    else:
        with native._python_kernels():
            yield
