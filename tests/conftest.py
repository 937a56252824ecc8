"""Shared fixtures.

Group sizes: ``toy`` (16-bit order) is for exhaustive / statistical
tests, ``small`` (32-bit) for protocol tests, ``medium`` (64-bit) for a
handful of end-to-end checks at a more realistic size.  All are
deterministic presets, cached per session.
"""

from __future__ import annotations

import random

import pytest

from repro.core.params import DLRParams
from repro.groups import preset_group


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
