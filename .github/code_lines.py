"""Count the code lines of the dasqos package, per module and in total.

A code line holds part of a token that is not a comment: blank lines,
comment-only lines and the lines of module, class and function docstrings
(found through ast) do not count. A line a multi-line token spans counts
once. Run from the repository root:

    python .github/code_lines.py [--base REF] [package-dir]

It prints one "count path" line per module and then the total; it sets no
bound. With --base it prints "count base change path": each module's count
here, at the git ref REF, and the difference (a module missing on one side
counts 0 there).
"""
import argparse
import ast
import io
import subprocess
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


def code_lines(source: bytes, name: str = "<source>") -> int:
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, name)))


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="count the package's code lines")
    parser.add_argument("root", nargs="?", default="src/dasqos", help="package directory")
    parser.add_argument("--base", metavar="REF", help="git ref to compare with")
    args = parser.parse_args(argv[1:])
    root = Path(args.root)
    counts = {p.as_posix(): code_lines(p.read_bytes(), str(p)) for p in root.glob("*.py")}
    if args.base is None:
        for path in sorted(counts):
            print(f"{counts[path]:6d} {path}")
        print(f"{sum(counts.values()):6d} total")
        return 0
    listed = git("ls-tree", "--name-only", args.base, "--", f"{root.as_posix()}/").decode()
    base = {
        path: code_lines(git("show", f"{args.base}:./{path}"), path)
        for path in listed.splitlines()
        if path.endswith(".py")
    }
    for path in sorted(counts.keys() | base.keys()):
        n, b = counts.get(path, 0), base.get(path, 0)
        print(f"{n:6d} {b:6d} {n - b:+6d} {path}")
    n, b = sum(counts.values()), sum(base.values())
    print(f"{n:6d} {b:6d} {n - b:+6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
