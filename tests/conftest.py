"""Hypothesis profiles, and a watchdog for hung tests.

Tier-1 runs the default profile; HYPOTHESIS_PROFILE=thorough runs ten
times hypothesis' default of 100 examples in every test that does not fix
its own count. hypothesis' pytest plugin marks every @given test as
hypothesis, so one command runs them all for that longer search:

    HYPOTHESIS_PROFILE=thorough python -m pytest -m hypothesis

A test that runs longer than TEST_TIMEOUT_S (a loop that never ends, say a
bisection that stops halving) ends the run: faulthandler prints every
thread's stack and exits, so the failure names the line it hung on.
"""

import faulthandler
import os

import pytest
from hypothesis import settings

settings.register_profile("thorough", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# the slowest tests take about 10 s in tier-1, and about 50 s under the
# thorough profile (the lazy cobweb points against the held reference)
TEST_TIMEOUT_S = 120
# the terminal's stderr, copied before any test runs: pytest captures fd 2
# during a test, and a stack written there would end with the process
STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True,
                                      file=item.config.stash[STDERR_FD])
    yield  # a hookwrapper's yield hands back the outcome and never raises
    faulthandler.cancel_dump_traceback_later()
