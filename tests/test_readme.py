"""The README's Library example runs, and every value it shows is the one
the package returns."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The fenced ``python`` block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    return block


def test_library_example_runs_and_shows_true_values():
    block = library_block()
    namespace: dict = {}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, str(README), "exec"), namespace)
    assert stdout.getvalue().startswith("n,degrees,total_degree,dimension,verdict,")
    checked = 0
    for line in block.splitlines():
        expr, sep, comment = line.partition("#")
        if not (sep and expr.strip()):
            continue
        expected = ast.literal_eval(comment.strip())
        assert eval(expr, namespace) == expected, line
        checked += 1
    assert checked == 7


def test_every_public_name_is_documented():
    import ci_invariants

    text = README.read_text(encoding="utf-8")
    public = [name for name in ci_invariants.__all__ if name != "__version__"]
    assert [name for name in public if not re.search(rf"\b{name}\b", text)] == []
