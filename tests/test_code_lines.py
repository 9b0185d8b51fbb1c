"""The code-line counter, tools/code_lines.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment; the line counts

# a comment line


class Point:
    """A class docstring."""

    def norm(self,
             scale=1.0):
        """A function docstring
        over three lines
        """
        text = """a string
        that is not a docstring"""
        return (self.x
                + len(text))
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, class, the def and its continuation, the two string lines, the return and its continuation
    assert _tool().code_lines(SOURCE) == 8


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\nx = 1\n')
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert _tool().main([str(tmp_path / "pkg")]) == 9
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines] == ["8", "1", "9"]
    assert lines[0].startswith(str(tmp_path / "pkg" / "a.py")) and lines[-1].startswith("total")
