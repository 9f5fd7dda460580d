"""Run one command and report its wall time and peak memory.

    python3 -S launch.py FD COMMAND...

The command inherits stdin, stdout and stderr. When it exits, one JSON
object ``{"wall_s", "peak_rss_mb", "returncode"}`` is written to file
descriptor FD. The launcher exists because Linux carries a process's
peak-RSS high-water mark across ``exec``: a child started directly by the
benchmark, whose own footprint grows with its oracle and records, would
report the benchmark's peak instead of its own. This small process keeps
that floor below any ``cbsum`` invocation. The peak covers the command's
own reaped children, such as pool workers.
"""
import os
import sys
import time


def main() -> None:
    # os and time only: every module imported here raises the floor.
    fd, command = int(sys.argv[1]), sys.argv[2:]
    os.set_inheritable(fd, False)
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with os.fdopen(fd, "w") as out:
        out.write(f'{{"wall_s": {wall!r}, "peak_rss_mb": {usage.ru_maxrss / 1024!r}, "returncode": {code}}}')


if __name__ == "__main__":
    main()
