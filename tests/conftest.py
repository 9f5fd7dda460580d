"""Helpers shared by the tests that start cbsum's worker pool."""
from __future__ import annotations

import os
import signal

import pytest


def assert_no_children() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def within_a_minute():
    """A pool that hangs fails the test: TimeoutError after 60 s."""

    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
