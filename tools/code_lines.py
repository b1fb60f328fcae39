"""Count the code lines of Python files: every line that holds a token,
minus blank, comment-only and docstring lines.

    python tools/code_lines.py FILE...

Prints one line per file, ``<count> <path>``, then ``<sum> total``.  A line
that holds part of a multi-line statement or string counts; a docstring (the
string that opens a module, class or function body) does not, over all its
lines.
"""

import argparse
import ast
import io
import sys
import tokenize

# tokens that hold no code: a comment, a line end, indentation
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="Python source files")
    total = 0
    for path in parser.parse_args(argv).files:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        print(f"{count} {path}")
        total += count
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
