"""The README's quick tour runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, "README.md", "exec"), {})
    assert buf.getvalue() == "3 [1, 2]\n"
