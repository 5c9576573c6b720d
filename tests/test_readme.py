"""The README's library and CLI examples run as written and print what they say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from germclass.cli import main

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


def test_cli_examples_run_as_written(tmp_path, capsys):
    """Each `cat > NAME <<'EOF'` document of the CLI section, run by every
    `germclass` line that names it, exits 0; family commands agree."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documents = re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", section, re.S | re.M)
    assert len(documents) == 5
    runs = 0
    for name, document in documents:
        (tmp_path / name).write_text(document, encoding="utf-8")
        for line in re.findall(r"^germclass (.*)$", section, re.M):
            argv = shlex.split(line, comments=True)
            if name not in argv:
                continue
            argv[argv.index(name)] = str(tmp_path / name)
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, line
            if argv[0] != "classify":
                assert out.endswith("agreement: yes\n"), line
            runs += 1
    assert runs == 7
