"""tools/code_lines.py on a small hand-made source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os


def f(x):
    """Function docstring."""
    y = (x +
         1)  # a statement on two lines
    s = """a string,
not a docstring"""
    return y, s


class C:
    """Class docstring."""

    z = os.sep
'''


def test_counts_every_physical_line_of_code():
    # import, def, y (2), s (2), return, class, z
    assert code_lines.count(SOURCE) == (20, 9)


def test_prints_each_file_and_the_total(tmp_path, capsys):
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    for path in paths:
        path.write_text(SOURCE)
    assert code_lines.main([str(path) for path in paths]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    20      9  {paths[0]}",
        f"    20      9  {paths[1]}",
        "    40     18  total",
    ]
