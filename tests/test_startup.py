"""Start-up guard: a call loads only the machinery its command runs.

Every ``cbsum`` call is a fresh interpreter, so each standard-library
module imported at start-up costs every call. bench's durations and
median, the traceback printer, ``decimal`` (for values too long for
``str(int)``) and cbsum's own worker pool, ``cbsum.pool``, are imported
where they are used. The other cbsum modules are not deferred: tracers
look them up in ``sys.modules`` right after ``import cbsum.cli``. No
command loads ``hashlib`` or OpenSSL's binding ``_hashlib``, which adds
about 3.6 MB to the resident set: digests take SHA-256 from the
interpreter's built-in module. Nor does any command load
``multiprocessing`` or ``concurrent.futures``, which with ``socket``,
``subprocess`` and ``logging`` added about 1.9 MB to every pooled process:
``--jobs`` runs on ``cbsum.pool``'s forked workers and pipes. Nor does any
command load ``select``: each worker runs a fixed share of the range, so
the caller reads the pipe whose result is due next, and waits on no other.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import cbsum

SRC = Path(cbsum.__file__).resolve().parent.parent

DEFERRED = ("cbsum.pool", "array", "statistics", "traceback", "decimal")
EAGER = (
    "cbsum.runs",
    "cbsum.identity",
    "cbsum.combinatorics",
    "cbsum.chain",
    "cbsum.digests",
    "cbsum.report",
)
NEVER = ("multiprocessing", "concurrent.futures", "hashlib", "_hashlib", "select")


def loaded_after(calls: list[list[str]], names: tuple[str, ...]) -> dict[str, bool]:
    """Which of ``names`` one fresh interpreter has loaded after running
    each of ``calls`` through the embedded CLI."""
    probe = f"""
import json, os, sys
os.cpu_count = lambda: 2  # so that --jobs 2 starts two workers on any host
from cbsum.cli import main
for argv in {calls!r}:
    code = main.main(argv, standalone_mode=False)
    assert code == 0, (argv, code)
print(json.dumps({{name: name in sys.modules for name in {names!r}}}))
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_eval_and_table_load_no_pool_median_or_traceback():
    calls = [["eval", "--n", "5", "--format", "json"], ["table", "--range", "0..3", "--format", "csv"]]
    loaded = loaded_after(calls, DEFERRED + EAGER)
    assert [name for name in DEFERRED if loaded[name]] == []
    assert [name for name in EAGER if not loaded[name]] == []


def test_no_command_loads_openssl():
    calls = [
        ["eval", "--n", "5", "--format", "json"],
        ["table", "--range", "0..3", "--format", "csv"],
        ["verify", "--range", "0..3"],
        ["verify", "--range", "0..3", "--jobs", "2"],  # the pool's import chain
        ["steps", "--range", "1..3"],
        ["steps", "--range", "1..3", "--jobs", "2"],
        ["bench", "--n", "3", "--repetitions", "1"],
    ]
    loaded = loaded_after(calls, NEVER + ("cbsum.digests", "cbsum.pool"))
    assert loaded == {**dict.fromkeys(NEVER, False), "cbsum.digests": True, "cbsum.pool": True}
