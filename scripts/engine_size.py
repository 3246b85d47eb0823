"""Print the size of the engine: the code lines of every graphx_ray/
module and the number of public ``CsrShard`` methods.

A code line holds at least one token that is not part of a comment or a
docstring (blank lines, comment lines and docstrings do not count).

Usage: python scripts/engine_size.py [repo root]
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(src: str) -> int:
    """Lines holding a token that is not a comment or a docstring."""
    doc = set()
    for node in ast.walk(ast.parse(src)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            doc.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


def public_methods(src: str, cls: str) -> int:
    node = next(n for n in ast.parse(src).body if isinstance(n, ast.ClassDef) and n.name == cls)
    return sum(1 for f in node.body
               if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))


def main(root: str) -> None:
    pkg = os.path.join(root, "graphx_ray")
    total = 0
    for d, _, files in sorted(os.walk(pkg)):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path) as fh:
                    n = code_lines(fh.read())
                total += n
                print(f"{n:6d}  {os.path.relpath(path, root)}")
    print(f"{total:6d}  total")
    with open(os.path.join(pkg, "state", "csr.py")) as fh:
        print(f"{public_methods(fh.read(), 'CsrShard'):6d}  public CsrShard methods")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
