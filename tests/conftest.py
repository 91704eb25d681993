"""Ceilings for every test, from the standard library alone.

- A test that runs past TEST_SECONDS (the slowest takes about a second)
  dumps the stack of every thread to stderr and ends the process, so a
  runaway loop stops the suite with a traceback instead of hanging it.
- Where the `resource` module exists, the process lowers its own soft
  address-space limit to ADDRESS_SPACE, so a runaway allocation raises
  MemoryError in the test instead of taking the machine's memory."""

import faulthandler
import os
import sys

import pytest

try:
    import resource
except ImportError:  # Windows
    resource = None

TEST_SECONDS = 60
ADDRESS_SPACE = 2 << 30
# a copy of the stderr descriptor, as pytest's own faulthandler plugin
# keeps: the captured sys.stderr of a test would swallow the dump
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR] = os.dup(sys.stderr.fileno())
    if resource is not None:
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
        if soft == resource.RLIM_INFINITY or soft > limit:
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_SECONDS, exit=True, file=item.config.stash[STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
