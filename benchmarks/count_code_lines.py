"""Count code lines the way simplicity PRs report them.

A code line is a physical line carrying a token that is neither a
comment nor part of a module/class/function docstring; blank lines do
not count. ``python benchmarks/count_code_lines.py src`` prints the
total; ``... src repro/storage/engine.py:StagedPut,StagedGet`` also
prints that file's count and the named top-level definitions'.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    root = Path(argv[0])
    counts = {
        str(path.relative_to(root)): code_lines(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }
    print("total", sum(len(lines) for lines in counts.values()))
    for spec in argv[1:]:
        name, _, definitions = spec.partition(":")
        print(name, len(counts[name]))
        wanted = set(definitions.split(",")) if definitions else set()
        for node in ast.parse((root / name).read_text()).body:
            if getattr(node, "name", None) in wanted:
                span = range(node.lineno, node.end_lineno + 1)
                print(" ", node.name, len(counts[name].intersection(span)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
