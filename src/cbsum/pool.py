"""The worker pool behind ``--jobs``: forked processes, pipes and ``pickle``.

:func:`imap` is imported only when two or more workers start, so a serial
call never compiles it. Each worker is forked from the caller and inherits
``fn`` and ``items``, so only results are pickled, and ``items`` may be a
``range``. Workers read task indices from one shared pipe, one fixed-size
record per read, so a worker that is free takes the next one. Each worker
sends its results back through a pipe of its own, as a length-prefixed
pickle. The caller hands them back in input order, with at most
``2 * workers + 1`` tasks in flight.

A worker ends in ``os._exit``, whatever happens, so it never runs the
caller's ``finally`` blocks, atexit handlers or flush of stdout. When the
tasks run out it sees EOF on the task pipe, and it stops at a broken
result pipe, so a worker whose caller died ends too. On every way out of
:func:`imap`, end of results, an exception or the generator being closed,
the caller closes its pipes and kills and reaps every worker. A fork
copies only the calling thread, so the caller must hold no other thread
that a worker's work would wait on; the CLI starts none.

An exception raised by ``fn`` reaches the caller as the same type and
message, with the worker's traceback text as its ``__cause__``, as
``concurrent.futures`` attaches it; one that does not survive pickling
arrives as a ``RuntimeError`` with that traceback. A worker that ends
before the task pipe is closed, or with a nonzero status, has lost its
results: that raises a ``RuntimeError`` naming its pid and exit status.
"""
from __future__ import annotations

import os
import pickle
import select
import signal
from typing import Any, Callable, Iterator, Sequence

#: Bytes of one task record, a task index. A write of at most PIPE_BUF
#: bytes (4096 on Linux, at least 512 by POSIX) to a pipe is never split,
#: so every read of this size takes one whole record.
TASK_BYTES = 8
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
    owned: set[int] = set()  # this process's pipe ends, closed on the way out
    running: dict[int, int] = {}  # a worker's result pipe -> its pid, until reaped
    buffers: dict[int, bytearray] = {}
    arrived: dict[int, tuple[bool, Any]] = {}
    readable = select.poll()  # unlike select.select, takes fds above FD_SETSIZE

    def pipe() -> tuple[int, int]:
        ends = os.pipe()
        owned.update(ends)
        return ends

    def close(fd: int) -> None:
        owned.discard(fd)
        os.close(fd)

    def receive() -> None:
        """Wait until some worker sends data or ends, and file every whole
        result record that has come in under its task index."""
        if not running:
            raise RuntimeError("every pool worker ended before all results arrived")
        for fd, _ in readable.poll():
            chunk = os.read(fd, 1 << 16)
            if not chunk:  # the worker has ended
                pid = running[fd]
                status = os.waitpid(pid, 0)[1]
                del running[fd]  # only once reaped: else the way out reaps it
                readable.unregister(fd)
                close(fd)
                if status or tasks_w in owned:
                    code = os.waitstatus_to_exitcode(status)
                    raise RuntimeError(f"pool worker {pid} ended with exit status {code} before sending its results")
                continue
            buffer = buffers[fd]
            buffer += chunk
            while len(buffer) >= LENGTH_BYTES:
                end = LENGTH_BYTES + int.from_bytes(buffer[:LENGTH_BYTES], "little")
                if len(buffer) < end:
                    break
                index, ok, value = pickle.loads(buffer[LENGTH_BYTES:end])
                arrived[index] = ok, value
                del buffer[:end]

    try:
        tasks_r, tasks_w = pipe()
        for _ in range(workers):
            results_r, results_w = pipe()
            pid = os.fork()
            if pid == 0:  # the worker
                code = 1
                try:
                    for fd in owned - {tasks_r, results_w}:
                        os.close(fd)
                    code = _serve(fn, items, tasks_r, results_w)
                finally:
                    os._exit(code)
            close(results_w)
            running[results_r] = pid
            buffers[results_r] = bytearray()
            readable.register(results_r, select.POLLIN)
        close(tasks_r)

        sent = 0
        for index in range(len(items)):
            while sent < min(len(items), index + 2 * workers + 1):
                os.write(tasks_w, sent.to_bytes(TASK_BYTES, "little"))
                sent += 1
            if sent == len(items) and tasks_w in owned:
                close(tasks_w)  # no task left: each worker ends at EOF
            while index not in arrived:
                receive()
            ok, value = arrived.pop(index)
            if not ok:
                exc, tb = value
                exc.__cause__ = RemoteTraceback(tb)
                raise exc
            yield value
    finally:
        for fd in list(owned):
            close(fd)
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn: Callable[[Any], Any], items: Sequence[Any], tasks: int, results: int) -> int:
    """A worker's loop: run the tasks it reads until EOF, and send each
    result, or the exception that replaced it."""
    while task := os.read(tasks, TASK_BYTES):
        index = int.from_bytes(task, "little")
        try:
            record = pickle.dumps((index, True, fn(items[index])), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # the caller raises it again, whatever it is
            record = _failure(index, exc)
        data = memoryview(len(record).to_bytes(LENGTH_BYTES, "little") + record)
        while data:
            data = data[os.write(results, data) :]
    return 0


def _failure(index: int, exc: BaseException) -> bytes:
    """The record of an exception raised by task ``index``, with its
    traceback text, framed as ``concurrent.futures`` frames it."""
    import traceback  # only a failing worker needs it

    tb = '\n"""\n' + "".join(traceback.format_exception(exc)) + '"""'
    try:
        record = pickle.dumps((index, False, (exc, tb)), pickle.HIGHEST_PROTOCOL)
        pickle.loads(record)  # the caller must be able to rebuild it
    except Exception:
        stand_in = RuntimeError(f"{type(exc).__name__} raised in pool worker {os.getpid()} could not be pickled: {exc}")
        record = pickle.dumps((index, False, (stand_in, tb)), pickle.HIGHEST_PROTOCOL)
    return record
