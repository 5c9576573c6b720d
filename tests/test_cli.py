import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germclass.cli import main

S2_DOC = "[map]\nf1 = u\nf2 = v^2\nf3 = v*(u^3+v^2)\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_classify_s2(tmp_path, capsys):
    path = write(tmp_path, "s2.germ", S2_DOC)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    assert "verdict: S2" in out
    assert "s2_det = -12" in out


def test_classify_json_stable(tmp_path, capsys):
    path = write(tmp_path, "s2.germ", S2_DOC)
    code, out1, _ = run(capsys, "classify", path, "--json")
    assert code == 0
    obj = json.loads(out1)
    assert obj["verdict"] == "S2"
    assert obj["invariants"]["s2_det"] == "-12"
    assert obj["normalization"] == [["1", "0"], ["0", "1"]]
    assert "normalized_germ" in obj
    _, out2, _ = run(capsys, "classify", path, "--json")
    assert out1 == out2


def test_classify_verify(tmp_path, capsys):
    path = write(tmp_path, "s2.germ", S2_DOC)
    code, out, _ = run(capsys, "classify", path, "--verify")
    assert code == 0
    assert "verify: ok" in out


def test_classify_more_degenerate_exit_2(tmp_path, capsys):
    path = write(tmp_path, "bad.germ", "[map]\nf1 = u\nf2 = v^2\nf3 = u^4*v+v^3\n")
    code, out, _ = run(capsys, "classify", path)
    assert code == 2
    assert "MoreDegenerate" in out


def test_input_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "broken.germ", "[map]\nf1 = u**2\nf2 = v^2\nf3 = u*v\n")
    code, _, err = run(capsys, "classify", path)
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "classify", str(tmp_path / "missing.germ"))
    assert code == 1


FOLDED_HEAD = "[folded]\na02 = 1\na20 = 1\na03 = 1\na21 = 2\n"
MALFORMED = [
    ("classify", "[map]\nf1 = %s*u\nf2 = v^2\nf3 = u*v\n" % ("7" * 5000)),
    ("folded", FOLDED_HEAD + "theta = abc\n"),
    ("folded", FOLDED_HEAD + "theta = inf\n"),
    ("folded", FOLDED_HEAD + "theta = nan\n"),
    ("folded", FOLDED_HEAD + "mode = float\ntheta = 0.5\n"),
    ("folded", FOLDED_HEAD + "theta = 1e20\n"),
    ("classify", "[map]\nf1 = u\nf2 = v^2\nf3 = u*v\nf3 = v^3\n"),
]


@pytest.mark.parametrize("cmd, text", MALFORMED, ids=["5000-digits", "theta-abc",
                                                     "theta-inf", "theta-nan", "mode-key",
                                                     "theta-1e20", "duplicate-key"])
def test_malformed_document_exit_1(tmp_path, capsys, cmd, text):
    path = write(tmp_path, "malformed.germ", text)
    code, out, err = run(capsys, cmd, path, "--json")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_kind_mismatch_exit_1(tmp_path, capsys):
    path = write(tmp_path, "s2.germ", S2_DOC)
    code, _, err = run(capsys, "ruled", path)
    assert code == 1
    assert "[ruled]" in err


def test_ruled_dual_path(tmp_path, capsys):
    path = write(tmp_path, "ruled.germ",
                 "[ruled]\ngamma1 = 1\ngamma3 = v^3\nc3 = 1\n")
    code, out, _ = run(capsys, "ruled", path)
    assert code == 0
    assert "formula verdict: S2" in out
    assert "generic verdict: S2" in out
    assert "agreement: yes" in out


def test_center_dual_path(tmp_path, capsys):
    path = write(tmp_path, "center.germ",
                 "[center]\na02 = 1\na20 = 2\na03 = 1\na21 = 1\n")
    code, out, _ = run(capsys, "center", path)
    assert code == 0
    assert "formula verdict: S1-" in out
    assert "agreement: yes" in out


def test_folded_dual_path_s2(tmp_path, capsys):
    path = write(tmp_path, "folded.germ",
                 "[folded]\na02 = 1\na20 = 2\na03 = 1\na31 = 2\n")
    code, out, _ = run(capsys, "folded", path)
    assert code == 0
    assert "formula verdict: S2" in out
    assert "generic verdict: S2" in out


def test_folded_exact_angle(tmp_path, capsys):
    path = write(tmp_path, "folded.germ",
                 "[folded]\na02 = 1\na20 = 1\na03 = 4\na21 = -3\na12 = 1\n"
                 "theta_cos = 3/5\ntheta_sin = 4/5\n")
    code, out, _ = run(capsys, "folded", path)
    assert code == 0
    assert "agreement: yes" in out


def test_folded_float_angle_shows_exact_point(tmp_path, capsys):
    path = write(tmp_path, "folded.germ", FOLDED_HEAD + "theta = %r\n" % math.atan2(4, 3))
    code, out, _ = run(capsys, "folded", path, "--json")
    obj = json.loads(out)
    assert obj["formula"]["invariants"]["theta_cos"] == "3/5"
    assert obj["formula"]["invariants"]["theta_sin"] == "4/5"
    assert obj["generic"]["mode"] == "exact"
    assert obj["agree"] and code == 0


RULED_OVERFLOW = "[ruled]\ngamma1 = 1 + v^9\ngamma3 = v^3\nc3 = 1\n"


def test_dual_path_reports_parser_warnings(tmp_path, capsys):
    path = write(tmp_path, "ruled.germ", RULED_OVERFLOW)
    _, out, _ = run(capsys, "ruled", path, "--json")
    assert json.loads(out)["warnings"] == ["gamma1: degree overflow truncated to order 6"]
    code, out, _ = run(capsys, "ruled", path)
    assert "warning: gamma1: degree overflow truncated to order 6" in out
    assert code == 0


def test_oracle_sb(tmp_path, capsys):
    path = write(tmp_path, "sb.germ", "[sb-normal]\na21 = 2\na05 = 120\n")
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert "formula verdict: B2+" in out
    assert "agreement: yes" in out


def test_oracle_h(tmp_path, capsys):
    path = write(tmp_path, "h.germ", "[h-normal]\nb03 = 6\na05 = 120\n")
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert "formula verdict: H2" in out


def test_oracle_json(tmp_path, capsys):
    path = write(tmp_path, "sb.germ", "[sb-normal]\na21 = 2\na05 = 120\n")
    code, out, _ = run(capsys, "oracle", path, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["agree"] is True
    assert obj["formula"]["verdict"] == "B2+"
    assert obj["generic"]["verdict"] == "B2+"


def test_fuzz_summary(tmp_path, capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "2", "--seed", "3")
    assert code == 0
    assert "2/2 invariant" in out
    assert "total: 14/14 invariant" in out


def test_fuzz_deterministic_output(tmp_path, capsys):
    _, out1, _ = run(capsys, "fuzz", "--trials", "2", "--seed", "3", "--json")
    _, out2, _ = run(capsys, "fuzz", "--trials", "2", "--seed", "3", "--json")
    assert out1 == out2


# -- property test over [map] document text -----------------------------------

@st.composite
def polynomials(draw):
    """A polynomial without constant term: signed c*u^i*v^j terms, maybe squared."""
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), st.integers(0, 5),
                                    st.integers(1, 3), st.integers(0, 3),
                                    st.integers(0, 3)).filter(lambda t: t[3] + t[4]),
                          min_size=1, max_size=4))
    text = "".join(" %s %d/%d*u^%d*v^%d" % term for term in terms).lstrip(" +")
    return "(%s)^2" % text if draw(st.booleans()) else text


BAD_LITERALS = ["u**2", "2.5*u", "u/2", "(u+v", "1/0*u", "u^", "u v", "u^-1", "",
                "1e3*u", "u^1.5", "v)"]
BAD_ORDERS = ["-1", "0", "1", "11", "100", "10" * 20, "five", "5.0", ""]


@st.composite
def map_documents(draw):
    """(text, corrupted): a valid [map] document, or one with a single defect."""
    values = {}
    for key in ("f1", "f2", "f3"):
        lead = draw(st.sampled_from(["", "u", "v", "v^2", "u*v"]))
        poly = draw(polynomials())
        values[key] = "%s + (%s)" % (lead, poly) if lead else poly
    if draw(st.booleans()):
        values["order"] = str(draw(st.integers(2, 8)))
    defect = draw(st.sampled_from([None, "stray", "key", "literal", "order", "header",
                                   "duplicate"]))
    if defect == "literal":
        values[draw(st.sampled_from(["f1", "f2", "f3"]))] = draw(st.sampled_from(BAD_LITERALS))
    elif defect == "order":
        values["order"] = draw(st.sampled_from(BAD_ORDERS))
    elif defect == "key":
        values[draw(st.sampled_from(["f4", "F1", "theta", "a12", "g"]))] = "u"
    lines = ["%s = %s" % item for item in values.items()]
    if defect == "duplicate":
        key = draw(st.sampled_from(sorted(values)))
        lines.append("%s = %s" % (key, values[key]))
    lines += draw(st.lists(st.sampled_from(["", "# a comment", "   "]), max_size=2))
    if defect == "stray":
        lines.append(draw(st.text("uvxyz019*^ ()!", min_size=1).filter(str.strip)))
    lines = draw(st.permutations(lines))
    if defect != "header":
        lines.insert(0, "[map]")
    return "\n".join(lines) + "\n", defect is not None


@settings(max_examples=120, deadline=None)
@given(map_documents())
def test_map_document_text_never_crashes(document):
    text, corrupted = document
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "doc.germ")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["classify", path])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    if corrupted:
        assert code == 1, text
