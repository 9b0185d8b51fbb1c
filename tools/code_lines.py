"""Count the code lines of Python files.

    python3 tools/code_lines.py PATH [PATH ...]

A code line is a line that holds a Python token other than a comment;
docstrings (the leading string of a module, class or function) are left
out, and so are blank lines.  A line inside a bracketed continuation or a
multi-line string that is not a docstring counts.  Each PATH is a file or
a directory, whose ``*.py`` files are counted recursively.  One line is
printed per file, then the total.  Only the standard library is used.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python text `source`."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    """Print the code lines of each file under the given paths, then the total; return that total."""
    parser = argparse.ArgumentParser(description="Count the code lines of Python files.")
    parser.add_argument("paths", nargs="+", type=Path, help="a .py file or a directory searched for them")
    files = []
    for path in parser.parse_args(argv).paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    counts = {str(f): code_lines(f.read_text()) for f in files}
    counts["total"] = sum(counts.values())
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name.ljust(width)}  {count:6,}")
    return counts["total"]


if __name__ == "__main__":
    main()
