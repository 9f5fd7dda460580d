"""``cbsum.pool.imap`` called directly: how far workers run ahead of the
caller, and what a fork that fails part-way leaves behind."""
from __future__ import annotations

import errno
import json
import os
import time

import pytest

from cbsum import pool
from conftest import assert_no_children

#: Bytes of one result: more than a pipe's buffer (64 KiB on Linux) holds,
#: so a worker's write of it waits for the caller to read it.
RESULT_BYTES = 256 * 1024


def test_workers_run_at_most_one_item_each_ahead_of_the_caller(tmp_path, within_a_minute):
    # each worker logs the index of every item it starts, the caller every
    # index it takes, as lines appended to one file
    log = tmp_path / "events"
    workers = 2

    def record(event: str, index: int) -> None:
        with open(log, "a") as out:
            out.write(json.dumps([event, index]) + "\n")

    def fn(index: int) -> bytes:
        record("start", index)
        return index.to_bytes(4, "little") * (RESULT_BYTES // 4)

    for index, result in enumerate(pool.imap(fn, range(12), workers)):
        record("take", index)
        assert result == index.to_bytes(4, "little") * (RESULT_BYTES // 4)
        time.sleep(0.05)  # a slow caller: workers run ahead as far as they can
    assert_no_children()

    taken = -1  # the last index the caller took
    lead = []
    for event, index in (json.loads(line) for line in log.read_text().splitlines()):
        if event == "take":
            assert index == taken + 1
            taken = index
        else:
            lead.append(index - taken)
    assert taken == 11 and len(lead) == 12
    assert max(lead) <= workers + 1


def test_failed_fork_leaves_no_child_and_no_open_pipe(monkeypatch, within_a_minute):
    real_fork = os.fork
    forks = []

    def fork() -> int:
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "planted: no second worker")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="planted: no second worker"):
        list(pool.imap(str, range(10), 2))
    assert len(forks) == 2
    assert_no_children()
    assert len(os.listdir("/proc/self/fd")) <= open_fds
