"""The README's quick tour runs as written, its command table matches the
parser, and its library overview names only what the modules hold."""

import argparse
import contextlib
import importlib
import io
import re
from pathlib import Path

from quivergrass.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, "README.md", "exec"), {})
    assert buf.getvalue() == "3 [1, 2]\n"


def test_readme_command_table_lists_the_flags_of_every_subcommand():
    """Each row of the command table names exactly the flags its subparser
    accepts, each by its first spelling."""
    rows = re.findall(r"^\| `([a-z-]+)` \| ([^|]*) \|", README.read_text(), re.M)
    listed = {name: set(re.findall(r"`(-[^`]*)`", cell)) for name, cell in rows}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {a.option_strings[0] for a in p._actions if a.option_strings} - {"-h"}
        for name, p in sub.choices.items()
    }
    assert len(rows) == len(listed) == 11
    assert listed == accepted


def test_readme_library_overview_names_resolve():
    """Each backticked identifier in a row of the library-overview table is
    an attribute of the row's module or a word of its source, so a name the
    library dropped does not linger in the table."""
    rows = re.findall(r"^\| `quivergrass\.(\w+)` \| (.*) \|$", README.read_text(), re.M)
    assert len(rows) == 8
    checked = 0
    for module, cell in rows:
        mod = importlib.import_module(f"quivergrass.{module}")
        words = set(re.findall(r"\w+", Path(mod.__file__).read_text()))
        for name in re.findall(r"`([A-Za-z_]\w*)`", cell):
            assert hasattr(mod, name) or name in words, (module, name)
            checked += 1
    assert checked > 50
