"""List the statements of the package that the test suite never runs.

Usage: python tools/uncovered.py [PYTEST OPTION ...]

Runs pytest on tests/ with every line of src/mcca traced, in the pytest
process and in each Python process it starts, such as the ``python -m mcca``
children of the CLI tests. Then prints ``path:line: source`` for each
statement that never ran, and their total, and exits with pytest's status.
Options such as ``-k cli`` or ``-x`` are passed on to pytest.

No coverage package is needed. The tracer is a ``sitecustomize`` module
written into a temporary directory that goes first on PYTHONPATH, so every
Python process started under it loads it. It follows the frames of
src/mcca with ``sys.settrace`` and ``threading.settrace`` and writes the
lines they ran to a file of its own when its process exits; a process
ended by a signal or by ``os._exit`` writes none. Statements come from
``ast``, and a statement counts as run if any line it spans ran.
Docstrings, ``def``, ``class`` and imports are not listed. pytest runs in
the temporary directory, without its cache and without writing bytecode,
so the run leaves no file in the repository.

Only the standard library is used.
"""

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mcca"

TRACER = '''\
"""Line tracer of tools/uncovered.py, loaded by each Python process it starts."""
import atexit
import json
import os
import sys
import tempfile
import threading

_PACKAGE = os.environ.get("MCCA_UNCOVERED_PACKAGE")
_OUT = os.environ.get("MCCA_UNCOVERED_OUT")
_hits = {}


def _call(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PACKAGE):
        return None
    lines = _hits.setdefault(frame.f_code.co_filename, set())

    def _line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return _line

    return _line


def _save():
    # registered first, so it runs after every other exit handler; no line
    # runs under the tracer once the interpreter starts to tear down
    sys.settrace(None)
    threading.settrace(None)
    fd, _ = tempfile.mkstemp(suffix=".json", dir=_OUT)
    with os.fdopen(fd, "w") as fh:
        json.dump({name: sorted(lines) for name, lines in _hits.items()}, fh)


if _PACKAGE and _OUT:
    sys.settrace(_call)
    threading.settrace(_call)
    atexit.register(_save)
'''

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> list:
    """Sorted ``(first, last)`` line spans of the statements of ``source``,
    leaving out docstrings, ``def``, ``class`` and imports."""
    tree = ast.parse(source)
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None
    }
    return sorted(
        (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, _SKIPPED) and node not in docstrings
    )


def never_ran(source: str, ran: set) -> list:
    """The spans of :func:`statements` that hold none of the lines in ``ran``.

    A whole span counts, because the line events of a statement that spans
    lines may all fall on its continuation lines.
    """
    return [(a, b) for a, b in statements(source) if ran.isdisjoint(range(a, b + 1))]


def run_traced(options: list) -> tuple:
    """pytest's exit status on tests/ under the tracer, and the lines run,
    per absolute file name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp, "hits")
        out.mkdir()
        pathlib.Path(tmp, "sitecustomize.py").write_text(TRACER, encoding="utf-8")
        paths = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, paths)),
            PYTHONDONTWRITEBYTECODE="1",
            MCCA_UNCOVERED_PACKAGE=str(PACKAGE) + os.sep,
            MCCA_UNCOVERED_OUT=str(out),
        )
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors", *options, str(ROOT / "tests")]
        status = subprocess.run(command, cwd=tmp, env=env).returncode
        ran = {}
        for path in out.glob("*.json"):
            for name, lines in json.loads(path.read_text()).items():
                ran.setdefault(name, set()).update(lines)
    return status, ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    options = parser.parse_known_args(argv)[1]
    status, ran = run_traced(options)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, _ in never_ran(source, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
            total += 1
    print(f"{total} statements never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
