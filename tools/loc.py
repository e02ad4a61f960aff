"""Code lines of Python modules: non-blank lines that are neither comments
nor docstrings.

    python3 tools/loc.py [PATH ...]

Each PATH is a module or a directory searched for ``*.py``; the default is
``src/`` of the checkout this script sits in.  Prints each module's code
lines and path, then the total.  Docstrings are the string constants that
open a module, class or function body, found with ``ast``; comments come
from ``tokenize``.  A line holding code and a comment counts as code.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of non-blank lines of ``source`` that hold a token other
    than a comment, outside docstrings."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    blank = {i for i, line in enumerate(source.splitlines(), 1) if not line.strip()}
    return len(code - blank - docstring_lines(ast.parse(source)))


def count(paths):
    """``[(path, code lines)]`` for every module under ``paths``, sorted."""
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    return [(f, code_lines(f.read_text())) for f in files]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src"])
    counts = count(parser.parse_args(argv).paths)
    for path, lines in counts:
        print(f"{lines:6d}  {path}")
    print(f"{sum(lines for _, lines in counts):6d}  total, {len(counts)} modules")


if __name__ == "__main__":
    main()
