import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)

TOY = '''import functools


def used(x):
    if x > 0:
        return 1
    return 2


def unused():
    return 3


@functools.cache
def decorated(x):
    """Docstring."""
    try:
        y = [k for k in range(x)]
    except ValueError:
        y = None
    return len(y)


class C:
    @property
    def value(self):
        def inner():
            return 4
        return 5

    def never(self):
        pass
'''


def _line(text):
    return TOY.splitlines().index(text) + 1


def test_reports_functions_not_entered_and_statements_not_run(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    path = package / "toy.py"
    path.write_text(TOY)

    toy_spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(toy_spec)

    def calls():
        assert toy.used(1) == 1 and toy.decorated(2) == 2 and toy.C().value == 5

    report, events, per_function = reach.reach(
        package, {"import": lambda: toy_spec.loader.exec_module(toy), "calls": calls})
    assert report == {"toy.py": (
        ["unused", "C.value.inner", "C.never"],
        [("used", _line("    return 2")), ("decorated", _line("        y = None"))])}
    # (package, all-Python) line events.  The calls: used 2, decorated 6 (try,
    # the assignment, the list comprehension's entry and its two turns,
    # return) and value 2 in the package, and the one line of `calls` outside
    # it.  The import also runs importlib's Python code, whose line count
    # depends on the interpreter.
    assert events["calls"] == (10, 11)
    assert events["import"][0] == 14 and events["import"][1] > 14
    # self line events: the list comprehension's entry and turns count under
    # its own qualified name, not under `decorated`; the import runs the
    # module's statements and the class body
    assert per_function == {
        "import": {"toy.<module>": 8, "toy.C": 6},
        "calls": {"toy.used": 2, "toy.decorated": 3, "toy.decorated.<locals>.<listcomp>": 3,
                  "toy.C.value": 2}}
    for name, (package_events, _) in events.items():
        assert sum(per_function[name].values()) == package_events


def test_a_statement_inside_one_that_did_not_run_is_not_listed():
    source = "def f(x):\n    if x:\n        if x > 1:\n            y = 1\n    return 0\n"
    (name, first, body), = reach.functions(source)
    assert (name, first) == ("f", 1)
    assert reach._unrun(body, {5}) == ([2], True)
    assert reach._unrun(body, {2, 3, 5}) == ([4], True)
    assert reach._unrun(body, set()) == ([2, 5], False)
