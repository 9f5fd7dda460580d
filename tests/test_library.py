"""README's Library snippet runs as written, and names the whole top-level API."""
from __future__ import annotations

from pathlib import Path

import cbsum

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> list[str]:
    """The lines of the first python block under README's "## Library"."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_snippet_runs_as_written():
    imports, *examples = library_snippet()
    namespace: dict = {}
    exec(imports, namespace)
    assert len(examples) == 3
    for line in examples:
        expression, comment = line.split("#", 1)
        expected = comment.split(":", 1)[0].strip()
        assert repr(eval(expression, namespace)) == expected, line


def test_top_level_exports_what_the_snippet_imports():
    imports = library_snippet()[0]
    assert imports.startswith("from cbsum import ")
    names = [name.strip() for name in imports.removeprefix("from cbsum import ").split(",")]
    assert cbsum.__all__ == sorted(names) == ["Strategy", "evaluate", "half_row_sum", "verify_chain"]
