"""Shared fixtures: catalogs and testbeds are expensive, so session-scope
the read-only ones and keep mutating tests on their own instances."""

from __future__ import annotations

from functools import partial

import pytest

from repro.cloud import build_testbed
from repro.core import ModChecker, ParallelModChecker
from repro.guest import build_catalog
from repro.pe import build_driver

SEED = 42


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="Rewrite golden files (tests/forensics/golden/) from the "
             "current output instead of diffing against them.")


@pytest.fixture(scope="session")
def catalog():
    """The standard driver catalog (read-only; do not mutate)."""
    return build_catalog(seed=SEED)


@pytest.fixture(scope="session")
def hal_blueprint(catalog):
    return catalog["hal.dll"]


@pytest.fixture(scope="session")
def dummy_blueprint(catalog):
    return catalog["dummy.sys"]


@pytest.fixture(scope="session")
def small_driver():
    """A small standalone driver for unit tests."""
    return build_driver("unit.sys", seed=7, n_functions=4,
                        avg_function_size=80, data_size=0x200)


@pytest.fixture(scope="session")
def clean_testbed_session():
    """A 5-VM clean cloud shared by read-only tests."""
    return build_testbed(5, seed=SEED)


@pytest.fixture(params=["sequential", "parallel"])
def checker_cls(request):
    """ModChecker, then ParallelModChecker(threads=4): one check path
    under both Dom0 scheduling policies, so neither can drift."""
    if request.param == "sequential":
        return ModChecker
    return partial(ParallelModChecker, threads=4)


@pytest.fixture
def clean_testbed():
    """A fresh 4-VM clean cloud for tests that mutate state."""
    return build_testbed(4, seed=SEED)
