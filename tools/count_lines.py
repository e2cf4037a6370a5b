"""Print the raw and code line counts of the package source, src/deft.

Usage, from anywhere:

    python3 tools/count_lines.py

A raw line is any line of a .py file under src/deft. A code line is a
non-blank line that holds a token outside comments and outside module,
class and function docstrings; a token spanning several lines, such as a
multi-line string that is not a docstring, makes each of them a code line.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "deft")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """(row, col) of the first token of every module, class and function docstring."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {(node.body[0].lineno, node.body[0].col_offset) for node in ast.walk(tree)
            if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None}


def count(text):
    """(raw lines, code lines) of one source file's text."""
    docstrings = _docstring_starts(ast.parse(text))
    lines = text.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(row for row in range(tok.start[0], tok.end[0] + 1) if lines[row - 1].strip())
    return len(lines), len(code)


def main():
    raw = code = 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                r, c = count(f.read())
            raw += r
            code += c
    print(f"src/deft: {raw} raw lines, {code} code lines")


if __name__ == "__main__":
    main()
