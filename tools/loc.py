"""Count the code lines of each module of src/cdkit and the public names.

Run from anywhere, with no options:

    python3 tools/loc.py

A module's code lines are the lines its statements and expressions span,
less the lines of module, class and function docstrings, blank lines and
comment-only lines. This prints one "<module> <count>" line per module in
name order, then "total <sum>" and "__all__ <len(cdkit.__all__)>", the
names the package exports.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cdkit")


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines of one module's source text."""
    tree = ast.parse(source)
    spanned = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.expr)):
            spanned.update(range(node.lineno, node.end_lineno + 1))
    text = source.splitlines()
    kept = (text[n - 1].strip() for n in spanned - _docstring_lines(tree))
    return sum(1 for line in kept if line and not line.startswith("#"))


def main():
    counts = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                counts[name[:-3]] = code_lines(fh.read())
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cdkit

    for module, count in counts.items():
        print(f"{module:<12} {count:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")
    print(f"{'__all__':<12} {len(cdkit.__all__):>5}")


if __name__ == "__main__":
    main()
