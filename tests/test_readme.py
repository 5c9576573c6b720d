"""The README's library example runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = README.parent / "src" / "germclass"


def python_block(heading):
    """The fenced python block of one README section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## %s\n" % heading, 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_what_its_comments_say():
    code = python_block("Library quick start")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected == ["S2", "-12"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    layout = text.split("\n## Layout\n", 1)[1].split("```", 2)[1]
    named = set(re.findall(r"^  (\w+\.py) ", layout, re.M))
    modules = {path.name for path in PACKAGE.glob("*.py")} - {"__init__.py"}
    assert named == modules
