import ast
from fractions import Fraction
from pathlib import Path

import pytest

import germclass
from germclass.scalars import ZeroCtx, sign

PACKAGE = Path(germclass.__file__).parent


def test_no_module_but_scalars_names_the_zero_context():
    """Zero and sign tests are plain comparisons or `sign` where they are made:
    no other module imports, reads or annotates with EXACT, ZeroCtx or Scalar."""
    banned = {"EXACT", "ZeroCtx", "Scalar"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [(path.name, name) for name in names if name in banned]
    assert found == []


BIG = 2 ** 70 + 1


@pytest.mark.parametrize("x", [0, 1, -1, BIG, -BIG, Fraction(0), Fraction(3, 7),
                               Fraction(-3, 7), Fraction(BIG, 3), Fraction(-1, BIG)])
def test_sign_matches_the_kept_zero_context(x):
    assert sign(x) == ZeroCtx().sign(x)
    assert type(sign(x)) is int
