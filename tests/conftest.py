"""Shared fixtures and markers for the test suite."""

import random

import pytest

from repro.core.kernels import (
    GAIN_BACKINGS,
    Incidence,
    PythonKernel,
    make_kernel,
    resolve_gain_backing,
)


def available_gain_backings():
    """Every gain backing runnable in this environment."""
    available = []
    for backing in GAIN_BACKINGS:
        try:
            resolve_gain_backing(backing)
        except ValueError:
            continue
        available.append(backing)
    return available


def kernel_implementations():
    """Every kernel implementation a search can be checked on.

    ``gain`` is the kernel as production builds it (auto backing); each
    runnable backing is also pinned by name; ``oracle`` is the full-scan
    :class:`PythonKernel`, independent of the incremental gain logic.
    """
    return ["gain"] + available_gain_backings() + ["oracle"]


def build_kernel(name, placement, s):
    """The kernel ``name`` (see kernel_implementations) for (placement, s)."""
    if name == "oracle":
        return PythonKernel(Incidence(placement), s)
    backing = None if name == "gain" else name
    return make_kernel(placement, s, gain_backing=backing)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')"
    )


@pytest.fixture
def rng():
    """A deterministic RNG; tests needing different streams derive their own."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def gain_backings():
    """The gain backings runnable in this environment, fastest first."""
    return available_gain_backings()


@pytest.fixture(params=kernel_implementations())
def each_kernel(request):
    """A ``(placement, s) -> kernel`` factory, once per implementation.

    Tests hand the kernel it builds to the search engines explicitly, so
    no process-wide selection state exists that could leak between tests.
    """
    return lambda placement, s: build_kernel(request.param, placement, s)
