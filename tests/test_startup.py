"""Start-up guard: a call loads only the machinery its command runs.

Every ``cbsum`` call is a fresh interpreter, so each standard-library
module imported at start-up costs every call. The process pool, bench's
durations and median, the traceback printer and ``decimal`` (for values
too long for ``str(int)``) are imported where they are used.
cbsum's own modules are not deferred: tracers look them up in
``sys.modules`` right after ``import cbsum.cli``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import cbsum

SRC = Path(cbsum.__file__).resolve().parent.parent

DEFERRED = ("multiprocessing", "concurrent.futures", "array", "statistics", "traceback", "decimal")
EAGER = (
    "cbsum.runs",
    "cbsum.identity",
    "cbsum.combinatorics",
    "cbsum.chain",
    "cbsum.digests",
    "cbsum.report",
)

PROBE = f"""
import json, sys
from cbsum.cli import main
for argv in (["eval", "--n", "5", "--format", "json"], ["table", "--range", "0..3", "--format", "csv"]):
    code = main.main(argv, standalone_mode=False)
    assert code == 0, (argv, code)
print(json.dumps({{name: name in sys.modules for name in {DEFERRED + EAGER!r}}}))
"""


def test_eval_and_table_load_no_pool_median_or_traceback():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert [name for name in DEFERRED if loaded[name]] == []
    assert [name for name in EAGER if not loaded[name]] == []
