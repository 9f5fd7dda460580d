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
Nor does any command load ``click``, ``dataclasses`` or ``inspect``, which
``dataclasses`` brings in with ``ast``, ``dis`` and ``tokenize``: together
they added about 25 ms and 1.9 MB of peak resident set to every call. The
command line is parsed by cbsum's own parser and the records are named
tuples, so click is a dependency of the tests alone.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import cbsum

from test_golden import mask_durations

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
NEVER = (
    "multiprocessing", "concurrent.futures", "hashlib", "_hashlib", "select", "click", "dataclasses", "inspect",
)

#: One call of each command, serial and pooled.
EVERY_COMMAND = [
    ["eval", "--n", "5", "--format", "json"],
    ["table", "--range", "0..3", "--format", "csv"],
    ["verify", "--range", "0..3"],
    ["verify", "--range", "0..3", "--jobs", "2"],  # the pool's import chain
    ["steps", "--range", "1..3"],
    ["steps", "--range", "1..3", "--jobs", "2"],
    ["bench", "--n", "3", "--repetitions", "1"],
]


def run_fresh(calls: list[list[str]], names: tuple[str, ...] = (), blocked: tuple[str, ...] = ()) -> dict:
    """Run each of ``calls`` through the embedded CLI in one fresh
    interpreter in which importing any of ``blocked`` fails. Returns the
    stdout of each call and which of ``names`` are loaded after the last."""
    probe = f"""
import contextlib, io, json, os, sys
os.cpu_count = lambda: 2  # so that --jobs 2 starts two workers on any host
for name in {blocked!r}:
    sys.modules[name] = None  # importing it raises ImportError
from cbsum.cli import main
outputs = []
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main.main(argv, standalone_mode=False)
    assert code == 0, (argv, code)
    outputs.append(out.getvalue())
loaded = {{name: name in sys.modules for name in {names!r}}}
print(json.dumps({{"outputs": outputs, "loaded": loaded}}))
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
    loaded = run_fresh(calls, DEFERRED + EAGER)["loaded"]
    assert [name for name in DEFERRED if loaded[name]] == []
    assert [name for name in EAGER if not loaded[name]] == []


def test_no_command_loads_openssl():
    loaded = run_fresh(EVERY_COMMAND, NEVER + ("cbsum.digests", "cbsum.pool"))["loaded"]
    assert loaded == {**dict.fromkeys(NEVER, False), "cbsum.digests": True, "cbsum.pool": True}


def test_every_command_runs_where_click_cannot_be_imported():
    without = run_fresh(EVERY_COMMAND, blocked=("click",))["outputs"]
    with_click = run_fresh(EVERY_COMMAND)["outputs"]
    assert all(without)
    assert [mask_durations(out) for out in without] == [mask_durations(out) for out in with_click]
