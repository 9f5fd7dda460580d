"""The worker pool behind ``--jobs``: forked processes, pipes and ``pickle``.

:func:`imap` is imported only when two or more workers start, so a serial
call never compiles it. Each worker is forked from the caller and inherits
``fn`` and ``items``, so only results are pickled, and ``items`` may be a
``range``. The items are dealt out by stride: of ``W`` workers, worker
``w`` runs items ``w``, ``w + W``, ``w + 2W``, ... in that order, and sends
each result back through a pipe of its own, as a length-prefixed pickle.
The caller reads item ``i`` from pipe ``i % W``, so results come back in
input order with no queue or reordering; a worker runs ahead of the caller
only as far as its pipe's buffer lets it. The cost of one ``n`` grows
smoothly with ``n``, so over a contiguous range the workers' shares of the
work differ by less than the cost of the last ``n``.

A worker ends in ``os._exit``, whatever happens, so it never runs the
caller's ``finally`` blocks, atexit handlers or flush of stdout. It ends
when its items run out, and it stops at a broken result pipe: each worker
closes the other workers' read ends, so a worker whose caller died ends
too. On every way out of :func:`imap`, end of results, an exception or the
generator being closed, the caller closes its pipes and kills and reaps
every worker. A fork copies only the calling thread, so the caller must
hold no other thread that a worker's work would wait on; the CLI starts
none.

An exception raised by ``fn`` reaches the caller as the same type and
message, with the worker's traceback text as its ``__cause__``, as
``concurrent.futures`` attaches it; one that does not survive pickling
arrives as a ``RuntimeError`` with that traceback. A worker whose pipe
ends where its next result is due has lost its results: that raises a
``RuntimeError`` naming its pid, its exit status and the item due.
"""
from __future__ import annotations

import os
import pickle
import signal
from typing import Any, Callable, Iterator, Sequence

#: Bytes of the length that opens each result record.
LENGTH_BYTES = 8


class RemoteTraceback(Exception):
    """The traceback text of an exception raised in a worker."""

    def __init__(self, tb: str) -> None:
        self.tb = tb

    def __str__(self) -> str:
        return self.tb


def imap(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> Iterator[Any]:
    """``fn`` over ``items`` in ``workers`` forked processes, each result
    handed back in input order as it arrives."""
    # this process's pipe ends, closed on the way out; once every worker is
    # forked, only the read ends are left, worker w's at pipes[w]
    pipes: list[int] = []
    running: dict[int, int] = {}  # a worker's index -> its pid, until reaped
    try:
        for w in range(workers):
            pipes.extend(os.pipe())  # read end, then write end
            pid = os.fork()
            if pid == 0:  # the worker
                code = 1
                try:
                    for fd in pipes[:-1]:
                        os.close(fd)
                    code = _serve(fn, items, range(w, len(items), workers), pipes[-1])
                finally:
                    os._exit(code)
            running[w] = pid
            os.close(pipes.pop())

        for index in range(len(items)):
            w = index % workers
            record = _read(pipes[w], LENGTH_BYTES)
            if record is not None:
                record = _read(pipes[w], int.from_bytes(record, "little"))
            if record is None:  # the worker ended without this result
                pid = running[w]
                status = os.waitpid(pid, 0)[1]
                del running[w]  # only once reaped: else the way out reaps it
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(
                    f"pool worker {pid} ended with exit status {code} before sending its results "
                    f"(item {items[index]!r} was due)"
                )
            ok, value = pickle.loads(record)
            if not ok:
                exc, tb = value
                exc.__cause__ = RemoteTraceback(tb)
                raise exc
            yield value
    finally:
        for fd in pipes:
            os.close(fd)
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _read(fd: int, size: int) -> bytearray | None:
    """Exactly ``size`` bytes from ``fd``, or None if it ends before them."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def _serve(fn: Callable[[Any], Any], items: Sequence[Any], indices: range, results: int) -> int:
    """A worker's loop: run its items in order, and send each result, or
    the exception that replaced it."""
    for index in indices:
        try:
            record = pickle.dumps((True, fn(items[index])), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # the caller raises it again, whatever it is
            record = _failure(exc)
        data = memoryview(len(record).to_bytes(LENGTH_BYTES, "little") + record)
        while data:
            data = data[os.write(results, data) :]
    return 0


def _failure(exc: BaseException) -> bytes:
    """The record of an exception raised by ``fn``, with its traceback
    text, framed as ``concurrent.futures`` frames it."""
    import traceback  # only a failing worker needs it

    tb = '\n"""\n' + "".join(traceback.format_exception(exc)) + '"""'
    try:
        record = pickle.dumps((False, (exc, tb)), pickle.HIGHEST_PROTOCOL)
        pickle.loads(record)  # the caller must be able to rebuild it
    except Exception:
        stand_in = RuntimeError(f"{type(exc).__name__} raised in pool worker {os.getpid()} could not be pickled: {exc}")
        record = pickle.dumps((False, (stand_in, tb)), pickle.HIGHEST_PROTOCOL)
    return record
