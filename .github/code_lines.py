"""Count the code lines of the dasqos package, per module and in total.

A code line holds part of a token that is not a comment: blank lines,
comment-only lines and the lines of module, class and function docstrings
(found through ast) do not count. A line a multi-line token spans counts
once. Run from the repository root:

    python .github/code_lines.py [package-dir]

It prints one "count path" line per module and then the total; it sets no
bound.
"""
import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        source = fh.read()
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/dasqos")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
