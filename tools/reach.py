"""Report the code of the germclass package that no benchmark operation reaches.

Usage:
    python tools/reach.py

Sets up the three workloads of perfbench (scrambled, invariance,
documents) at seed 905, then runs every operation of each once, untimed,
each judged as the benchmark judges it, under a `sys.settrace` line trace
limited to src/germclass.  Set-up itself is not traced.  It prints, per
module, the functions that no operation enters, then the statements that
no operation runs inside the functions that are entered; then each
workload's operation count and how many of them failed.

This is the traffic check for deleting code: a branch that no operation
runs costs the benchmark nothing to delete.  The package is imported
from src/ and the workloads from perfbench/ of this checkout; both are
only read.  One pass takes about 16 s on a 2-core machine.  The script
uses the standard library only.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "germclass"
SEED = 905

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _children(node):
    """The statements directly inside a compound statement (every body and handler)."""
    out = []
    for name in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, name, ()):
            if isinstance(child, (ast.excepthandler, ast.match_case)):
                out += child.body
            else:
                out.append(child)
    return out


def _statements(body, skip_docstring):
    """(statement, own lines, nested statements) for each statement of a function body.

    A statement's own lines are its lines outside the bodies it holds; the
    body of a nested function or class is its own scope and is left out.
    """
    out = []
    for k, stmt in enumerate(body):
        if (skip_docstring and k == 0 and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)):
            continue
        lines = set(range(stmt.lineno, stmt.end_lineno + 1))
        nested = [] if isinstance(stmt, _SCOPES) else _statements(_children(stmt), False)
        inner = stmt.body if isinstance(stmt, _SCOPES) else _children(stmt)
        for child in inner:
            lines -= set(range(child.lineno, child.end_lineno + 1))
        out.append((stmt, lines, nested))
    return out


def functions(source: str):
    """(qualified name, first line, statements) for each function of a module.

    The first line is the one a code object reports as co_firstlineno: the
    first decorator's, or the def's.
    """
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((name, first, _statements(child.body, True)))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.stmt):
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def _unrun(statements, hit):
    """The statements that ran none of their own lines nor any nested statement,
    as (line, first source line); a nested statement that did not run is listed
    only when its parent ran."""
    out, ran_any = [], False
    for stmt, lines, nested in statements:
        inner, inner_ran = _unrun(nested, hit)
        if lines & hit or inner_ran:
            ran_any = True
            out += inner
        else:
            out.append(stmt.lineno)
    return out, ran_any


def trace(root: Path, run):
    """Run `run()` under a line trace of the files under root.

    Returns ({file: lines run}, {file: co_firstlineno of the code entered}),
    keyed by resolved path.
    """
    root = Path(root).resolve()
    files = {}   # co_filename -> (lines, entered) for files under root, else None
    by_path = {}

    def sets(filename):
        if filename not in files:
            path = Path(os.path.realpath(filename))
            if path.is_relative_to(root):
                files[filename] = by_path.setdefault(path, (set(), set()))
            else:
                files[filename] = None
        return files[filename]

    def tracer(frame, event, arg):
        code = frame.f_code
        found = sets(code.co_filename)
        if found is None:
            return None
        lines, entered = found
        entered.add(code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return ({path: found[0] for path, found in by_path.items()},
            {path: found[1] for path, found in by_path.items()})


def reach(root: Path, run) -> dict:
    """Per module under root (a path relative to it): the functions `run()` never
    enters, and the statements it never runs inside the functions it enters,
    as (qualified name, line)."""
    root = Path(root).resolve()
    lines, entered = trace(root, run)
    report = {}
    for path in sorted(root.rglob("*.py")):
        hit = lines.get(path, set())
        calls = entered.get(path, set())
        missed, unrun = [], []
        for name, first, statements in functions(path.read_text(encoding="utf-8")):
            if first not in calls:
                missed.append(name)
            else:
                unrun += [(name, line) for line in _unrun(statements, hit)[0]]
        report[path.relative_to(root).as_posix()] = (missed, unrun)
    return report


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run as bench
    import workloads

    G = bench.import_germclass()
    results = []
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        corpora = {name: build(G, SEED, Path(workdir) / name)
                   for name, build in workloads.WORKLOADS.items()}

        def every_op():
            for name, corpus in corpora.items():
                failed = sum(not bench.run_checked(op)[1] for op in corpus.ops)
                results.append((name, len(corpus.ops), failed))

        report = reach(PACKAGE, every_op)
    for name, (missed, unrun) in report.items():
        if not missed and not unrun:
            continue
        source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        print("%s:" % name)
        for function in missed:
            print("  not entered: %s" % function)
        for function, line in unrun:
            print("  not run: %d in %s: %s" % (line, function, source[line - 1].strip()))
    for name, ops, failed in results:
        print("%s: %d ops, %d failed" % (name, ops, failed))
    return 1 if any(failed for _, _, failed in results) else 0


if __name__ == "__main__":
    sys.exit(main())
