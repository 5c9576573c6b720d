import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a trailing comment keeps the line


# a comment-only line
class A:
    """Class docstring."""

    x = """a multi-line string
that is not a docstring"""

    def f(self, a,
          b):
        \'\'\'Function docstring.\'\'\'
        return (a +
                b)
'''


def test_counts_a_snippet():
    # import, class, two lines of x, two of def, two of return
    assert code_lines.code_lines(SNIPPET) == 8


def test_counts_every_module(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    assert code_lines.count_dir(tmp_path) == {"a.py": 1, "b.py": 2}
