"""Report the code of the germclass package that no benchmark operation reaches.

Usage:
    python tools/reach.py

Sets up the three workloads of perfbench (scrambled, invariance,
documents) at seed 905, then runs every operation of each once, untimed,
each judged as the benchmark judges it, under a `sys.settrace` line trace
limited to src/germclass.  Set-up itself is not traced.  It prints, per
module, the functions that no operation enters, then the statements that
no operation runs inside the functions that are entered; then each
workload's operation count, how many of them failed, its package line
events per operation (the "line" events the trace saw in src/germclass
while the workload ran, over its operation count) and its all-Python line
events per operation (the same count over every Python file, the standard
library's included).  Under each count line come the ten functions of
src/germclass with the most self line events per operation, one to a line:
the events seen in the function's own frame, so a comprehension or
generator expression counts under its own qualified name
(`directional.<locals>.<genexpr>`), and the self counts of a workload sum
to its package count.  That is a per-layer profile that does not drift
with the load either.

This is the traffic check for deleting code: a branch that no operation
runs costs the benchmark nothing to delete.  The line-event count is a
work count that does not drift with the machine's load: two runs of one
checkout give the same count, so two checkouts' counts show whether a
change made the package do more or less Python work per operation.  The
all-Python count also sees work that a change moves between the package
and the standard library (a draw made through `random`'s Python methods
or on `getrandbits` directly).  Neither sees work done in C (bigint
products, dict operations), so they go beside the benchmark's timings,
not in their place.  The package is imported
from src/ and the workloads from perfbench/ of this checkout; both are
only read.  One pass takes about 10 s on a 2-core machine.  The script
uses the standard library only.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from functools import partial
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


def trace(root: Path, runs):
    """Call each callable of `runs`, a dict {name: callable}, in turn under one
    line trace of the files under root.

    Returns ({file: lines run}, {file: co_firstlineno of the code entered},
    {name: (line events in those files, line events in every Python file)
    during its call}, {name: {code object run under root: line events in its
    own frames during its call}}), files keyed by resolved path.
    """
    root = Path(root).resolve()
    files = {}   # co_filename -> (lines, entered) for files under root, else None
    by_path = {}
    own = {}     # code object under root -> [line events in its own frames]
    events = every = 0

    def sets(filename):
        if filename not in files:
            path = Path(os.path.realpath(filename))
            if path.is_relative_to(root):
                files[filename] = by_path.setdefault(path, (set(), set()))
            else:
                files[filename] = None
        return files[filename]

    def outside(frame, event, arg):
        nonlocal every
        if event == "line":
            every += 1
        return outside

    def tracer(frame, event, arg):
        code = frame.f_code
        found = sets(code.co_filename)
        if found is None:
            return outside
        lines, entered = found
        entered.add(code.co_firstlineno)
        cell = own.setdefault(code, [0])

        def local(frame, event, arg):
            nonlocal events, every
            if event == "line":
                lines.add(frame.f_lineno)
                events += 1
                every += 1
                cell[0] += 1
            return local
        return local

    counts, selves = {}, {}
    sys.settrace(tracer)
    try:
        for name, run in runs.items():
            start = {code: cell[0] for code, cell in own.items()}
            before = events, every
            run()
            counts[name] = (events - before[0], every - before[1])
            selves[name] = {code: cell[0] - start.get(code, 0) for code, cell in own.items()}
    finally:
        sys.settrace(None)
    return ({path: found[0] for path, found in by_path.items()},
            {path: found[1] for path, found in by_path.items()}, counts, selves)


def reach(root: Path, runs):
    """Per module under root (a path relative to it): the functions that no
    callable of `runs` ({name: callable}) enters, and the statements that none
    runs inside the functions entered, as (qualified name, line); per name, the
    line events under root and in every Python file during its call; and per
    name, the self line events of each function under root during its call,
    keyed "module.qualified name" (module the dotted path under root)."""
    root = Path(root).resolve()
    lines, entered, counts, selves = trace(root, runs)
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
    per_function = {}
    for name, by_code in selves.items():
        per_function[name] = named = {}
        for code, n in by_code.items():
            if n:
                module = Path(os.path.realpath(code.co_filename)).relative_to(root).with_suffix("")
                key = "%s.%s" % (module.as_posix().replace("/", "."), code.co_qualname)
                named[key] = named.get(key, 0) + n
    return report, counts, per_function


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run as bench
    import workloads

    G = bench.import_germclass()
    failures = {}
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        corpora = {name: build(G, SEED, Path(workdir) / name)
                   for name, build in workloads.WORKLOADS.items()}

        def every_op(name):
            failures[name] = sum(not bench.run_checked(op)[1] for op in corpora[name].ops)

        report, events, per_function = reach(
            PACKAGE, {name: partial(every_op, name) for name in corpora})
    for name, (missed, unrun) in report.items():
        if not missed and not unrun:
            continue
        source = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        print("%s:" % name)
        for function in missed:
            print("  not entered: %s" % function)
        for function, line in unrun:
            print("  not run: %d in %s: %s" % (line, function, source[line - 1].strip()))
    for name, corpus in corpora.items():
        ops = len(corpus.ops)
        package, every = events[name]
        print("%s: %d ops, %d failed, %.1f package and %.1f all-Python line events per op"
              % (name, ops, failures[name], package / ops, every / ops))
        top = sorted(per_function[name].items(), key=lambda item: (-item[1], item[0]))[:10]
        for function, n in top:
            print("  %8.1f  %s" % (n / ops, function))
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
