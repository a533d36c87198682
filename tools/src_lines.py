"""Count the lines of the package's modules.

Usage: python tools/src_lines.py [FILE ...]

With no arguments it counts src/mcca/*.py. For each module, and in total,
it prints three counts:

* wc: physical lines, as ``wc -l`` counts them (newline characters);
* code: lines outside docstrings that are neither blank nor comment-only;
* doc: lines spanned by docstrings (module, class and function).

Only the standard library is used.
"""

import argparse
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the module's, classes' and functions' docstrings."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> tuple:
    """``(wc, code, doc)`` line counts of one Python file."""
    text = path.read_text(encoding="utf-8")
    doc = docstring_lines(ast.parse(text, filename=str(path)))
    code = sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in doc and line.strip() and not line.strip().startswith("#")
    )
    return text.count("\n"), code, len(doc)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="Python files (default: src/mcca/*.py)")
    files = parser.parse_args(argv).files or sorted((ROOT / "src" / "mcca").glob("*.py"))
    totals = [0, 0, 0]
    print(f"{'module':<24} {'wc':>6} {'code':>6} {'doc':>6}")
    for path in files:
        counts = count(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<24} {counts[0]:>6} {counts[1]:>6} {counts[2]:>6}")
    print(f"{'total':<24} {totals[0]:>6} {totals[1]:>6} {totals[2]:>6}")


if __name__ == "__main__":
    main()
