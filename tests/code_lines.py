"""Count the code lines of each module in src/hurwitz, and their total,
then the total of tests/*.py and each of its modules.

A code line is a line that holds a token of code: blank lines,
comment-only lines and the lines of a docstring (module, class or
function) are left out. A statement split over several lines counts
each of its lines.

    python tests/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hurwitz"

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstring = node.body[0]
            lines.difference_update(
                range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def counts(directory: Path) -> dict[str, int]:
    return {path.stem: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def main() -> None:
    package = counts(PACKAGE)
    for module, count in sorted(package.items(), key=lambda kv: -kv[1]):
        print(f"{module:<14}{count:>5}")
    print(f"{'total':<14}{sum(package.values()):>5}")
    tests = counts(TESTS)
    print(f"{'tests/*.py':<14}{sum(tests.values()):>5}")
    for module, count in sorted(tests.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<18}{count:>5}")


if __name__ == "__main__":
    main()
