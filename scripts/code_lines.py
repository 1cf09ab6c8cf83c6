#!/usr/bin/env python3
"""Print the code lines of Python source files, without docstrings, comments or blank lines.

A line counts when a token other than a comment or a line break is on it, so
a statement that spans lines counts each line it spans, and a line that holds
only part of a docstring (the first statement of a module, class or function,
when it is a string) does not count. Prints one ``<count>  <file>`` line per
file, then ``<total>  total``::

    python scripts/code_lines.py src/semimediation/*.py
"""

import argparse
import ast
import io
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines spanned by the docstrings of the module and of every class and function in it."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code other than a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args()
    total = 0
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count}  {path}")
    print(f"{total}  total")


if __name__ == "__main__":
    main()
