"""List the executable lines of ``src/logitpath`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace``, tracing lines only in
frames whose code lies in ``src/logitpath``, then prints
``module:line: source`` for each executable statement that no test ran,
and their count.  A statement is any AST statement but a ``def``, a
``class``, an import or a docstring; it ran when a line event fell on one
of its lines (for a compound statement, on its header: the lines before
its body).  Standard library only, for a machine without ``coverage``.
Always exits 0: it is a guide to missing tests, not a gate.

    python tools/untested_lines.py              # the whole suite
    python tools/untested_lines.py tests/test_cli.py -k simulate

Arguments are passed to pytest.  The run takes a few times as long as the
suite.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logitpath"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom)


def statements(path: Path) -> dict:
    """{first line: the set of lines any of whose line events runs it}
    for each executable statement of the module at ``path``."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue    # a docstring, or a string left as a comment
        body = [s.lineno for field in ("body", "orelse", "handlers",
                                       "finalbody", "cases")
                for s in getattr(node, field, ())]
        end = min(body) - 1 if body else node.end_lineno
        out[node.lineno] = set(range(node.lineno, max(end, node.lineno) + 1))
    return out


def run(pytest_args) -> dict:
    """{file name: the set of lines that ran} over a pytest run."""
    ran = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main(argv) -> int:
    ran = run(argv or [str(ROOT / "tests")])
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran.get(str(path), set())
        source = path.read_text().splitlines()
        for line, lines in sorted(statements(path).items()):
            if not lines & hit:
                missed.append(f"{path.name}:{line}: "
                              f"{source[line - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} executable lines of src/logitpath never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
