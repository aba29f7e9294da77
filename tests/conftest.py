"""A time limit of its own for every test, and cold gluing caches.

A stalled test then fails with a traceback at the line it was stuck on,
and the rest of the suite still runs.  Each test starts with the two
process-wide caches, ``gluing._component_analysis`` and
``semigroup.cached_semigroup``, empty, so a spy on the component
computations, or on the round robin that builds a component's Apéry set,
sees them whatever ran before.
"""

import signal

import pytest

from curvegluing import gluing, semigroup

# the slowest test takes about 3 s on a 2-vCPU machine
TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """A test ran past TIME_LIMIT_S.

    Not an ``Exception``: Hypothesis re-raises it at once, where it would
    shrink a failure by replaying the slow example over and over.
    """


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def cold_component_cache():
    gluing._component_analysis.cache_clear()
    semigroup.cached_semigroup.cache_clear()
