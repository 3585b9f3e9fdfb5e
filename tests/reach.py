"""Line reach of the tier-1 suite: every function-body line of ``src/truncsym`` that no test reaches.

Run from the repository root, with pytest and hypothesis installed::

    PYTHONPATH=src python tests/reach.py

The script runs the tier-1 suite in this process under ``sys.settrace``.  A
statement of a function body counts as reached when a line event fires on one
of its lines: any line of a simple statement, the header of a compound one
(``if``, ``for``, ``with``, ``def``, ``except`` ...).
Hypothesis runs in a profile of its own: no deadline, since tracing slows every
example, derandomized and without its example database, so that two runs of one
tree reach the same lines.  What only a subprocess or another thread runs is
not seen.

It prints each unreached statement as ``file:line: text`` and exits 1 when the
suite fails, when an unreached statement has no entry in ``ALLOWED``, or when an
entry is left over (its line is reached now, so the entry goes).  An entry is
keyed by the file and the stripped text of the statement's first line, allows
that many unreached statements with that text, and says why no test reaches
them.  Tier-1 does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "truncsym"

# (file, stripped first line of the statement): (how many, why no test reaches it).  Every line is reached now.
ALLOWED: dict[tuple[str, str], tuple[int, str]] = {}


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement of a function body, in source order: the header of a compound
    statement, the whole of a simple one.  Docstrings and other bare constants compile to nothing and are left out."""
    spans = []

    def header(node: ast.AST, children: list[ast.AST]) -> None:
        last = min(child.lineno for child in children) - 1 if children else node.end_lineno
        spans.append((node.lineno, max(node.lineno, last)))

    def walk(body: list[ast.stmt], in_function: bool) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            blocks = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
            handlers = getattr(stmt, "handlers", [])
            if in_function:
                header(stmt, [child for block in blocks for child in block] + handlers)
            inner = in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for block in blocks:
                walk(block, inner)
            for handler in handlers:
                if in_function:
                    header(handler, handler.body)
                walk(handler.body, in_function)

    walk(ast.parse(source).body, False)
    return sorted(set(spans))


def unreached(name: str, source: str, fired: set[int]) -> list[tuple[str, int, str]]:
    """(file, line, stripped text) of each function-body statement of ``source`` on whose lines no event fired."""
    lines = source.splitlines()
    return [(name, first, lines[first - 1].strip()) for first, last in statement_spans(source)
            if fired.isdisjoint(range(first, last + 1))]


def judge(missed: list[tuple[str, int, str]], allowed: dict) -> tuple[list[str], list[str]]:
    """The unreached statements that no entry allows, and the entries that allow more than is unreached."""
    left = Counter({key: count for key, (count, _) in allowed.items()})
    refused = []
    for name, line, text in missed:
        if left[name, text] > 0:
            left[name, text] -= 1
        else:
            refused.append(f"{name}:{line}: {text}")
    return refused, [f"{name}: {text}" for (name, text), count in left.items() if count > 0]


def run_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` under the tracer: its exit status, and the lines on which events fired, per file."""
    import pytest
    from hypothesis import settings

    settings.register_profile("reach", deadline=None, derandomize=True, database=None)
    fired = {str(path): set() for path in PACKAGE.glob("*.py")}

    def on_line(frame, event, arg):
        if event == "line":
            fired[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in fired else None

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              "--hypothesis-profile=reach", "-W", "ignore::pytest.PytestAssertRewriteWarning", *args])
    finally:
        sys.settrace(None)
    return int(status), fired


def main(argv: list[str]) -> int:
    status, fired = run_suite(argv or [str(ROOT / "tests")])
    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        total += len(statement_spans(source))
        missed += unreached(path.name, source, fired[str(path)])
    refused, stale = judge(missed, ALLOWED)
    for name, line, text in missed:
        print(f"{name}:{line}: {text}")
    print(f"{len(missed)} of {total} function-body statements unreached, {len(refused)} not allowed, "
          f"{len(stale)} allowed but reached")
    for entry in refused:
        print(f"not allowed: {entry}")
    for entry in stale:
        print(f"allowed but reached, drop the entry: {entry}")
    if status != 0:
        print(f"the suite failed: pytest exit status {status}")
    return 1 if status != 0 or refused or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
