"""The README's library example runs as written, so a public API it uses
cannot be deleted without a failing test."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert printed.getvalue().startswith("# Profile report: raj.reddy@example.edu\n")
