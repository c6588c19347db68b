"""Fixtures shared by the test modules."""

import functools
import time

import pytest

from exactqfa import verify


@pytest.fixture(scope="session")
def suite_run():
    """``suite_run(name, *args)`` runs a verification suite once per
    session and gives its checks, in order, and the seconds the run took."""
    suites = dict(verify.SUITES)

    @functools.cache
    def run(name, *args):
        start = time.perf_counter()
        checks = suites[name](*args)
        return checks, time.perf_counter() - start

    return run
