"""Count the code lines of each module in src/hurwitz, and their total.

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

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hurwitz"

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


def main() -> None:
    counts = {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    for module, count in sorted(counts.items(), key=lambda kv: -kv[1]):
        print(f"{module:<14}{count:>5}")
    print(f"{'total':<14}{sum(counts.values()):>5}")


if __name__ == "__main__":
    main()
