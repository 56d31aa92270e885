"""List the statements in ``src/`` that the tier-1 tests never run.

The script runs the tier-1 suite in this process under a ``sys.settrace``
line tracer that records the lines greenlab's functions run.  It then reads
the syntax tree of every module under ``src/greenlab`` and lists each
statement inside a function body none of whose own lines ran: a simple
statement owns all its lines, a compound one (``if``, ``for``, ``while``,
``with``, ``def``) only its header, down to the colon.  Docstrings,
``global``/``nonlocal`` (no code of their own) and ``try``/``else``
keywords are not statements here.  A statement whose first line carries
``# pragma: no cover`` is not listed, nor is anything nested in it.  Module
and class bodies run on import and are not counted.  What a test runs in a
subprocess (the installed console script) is not seen.

It is a gate: it exits 1 when more than CEILING statements never ran, and
0 otherwise, whatever pytest's own exit status, which it prints.  Lower
CEILING when tests reach more; a change that leaves a new statement unrun
must reach one of the old ones, or say why it raises the ceiling.  The line
tracer slows the suite several times over.  ``coverage`` is not a
dependency, hence the tracer.  Run it from the repository root:

    PYTHONPATH=src python tests/never_run_report.py
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "greenlab"
# the most function-body statements under src/ that tier-1 may leave unrun
CEILING = 4


def _traced_run() -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the line tracer: pytest's exit status, and the
    lines run in each file under SRC, by path."""
    hits: dict[str, set[int]] = {}
    prefix = str(SRC)

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        add = hits.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def _own_lines(node: ast.stmt) -> range:
    """The lines a statement runs code on: a compound statement's header,
    a simple statement's every line."""
    if isinstance(node, (ast.If, ast.While)):
        end = node.test.end_lineno
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        end = node.iter.end_lineno
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        end = node.items[-1].context_expr.end_lineno
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        # decorators run first, then the def line makes the function
        start = min([d.lineno for d in node.decorator_list] + [node.lineno])
        return range(start, node.lineno + 1)
    elif isinstance(node, ast.Match):
        end = node.subject.end_lineno
    else:
        end = node.end_lineno
    return range(node.lineno, end + 1)


def _body_statements(tree: ast.Module, lines: list[str]):
    """Every statement inside a function body, nested bodies included,
    except those under a ``# pragma: no cover`` line."""
    skip = (ast.Global, ast.Nonlocal, ast.Try)

    def walk(stmts, in_function):
        for i, node in enumerate(stmts):
            if "pragma: no cover" in lines[node.lineno - 1]:
                continue
            docstring = (i == 0 and in_function
                         and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if in_function and not docstring and not isinstance(node, skip):
                yield node
            inner = in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                yield from walk(getattr(node, field, ()), inner)
            for handler in getattr(node, "handlers", ()):
                yield from walk(handler.body, inner)
            for case in getattr(node, "cases", ()):
                yield from walk(case.body, inner)

    yield from walk(tree.body, False)


def never_run(hits: dict[str, set[int]]) -> list[tuple[Path, int, str]]:
    """(path, line, source line) of every function-body statement under
    SRC that ran no line, in file and line order."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        for node in _body_statements(ast.parse(source), lines):
            if not ran.intersection(_own_lines(node)):
                out.append((path, node.lineno,
                            lines[node.lineno - 1].strip()))
    return sorted(out, key=lambda t: (t[0], t[1]))


def main() -> int:
    status, hits = _traced_run()
    missed = never_run(hits)
    print(f"\ntier-1 under the line tracer: pytest exit status {status}")
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} statements in function bodies under src/ never "
          f"ran; the ceiling is {CEILING}")
    return 1 if len(missed) > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
