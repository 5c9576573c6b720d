import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germclass.cli import build_parser, main
from germclass.classify import normal_forms
from germclass.jets import poly_str

S2_DOC = "[map]\nf1 = u\nf2 = v^2\nf3 = v*(u^3+v^2)\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    """Write text as UTF-8, or bytes as they are."""
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
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
    ("center", "[center]\na02 = %s\na20 = 2\na03 = 1\na21 = 1\n" % ("7" * 4000)),
    ("folded", FOLDED_HEAD + "a31 = 1\ntheta = -5.449065861911619e-282\n"),
    ("classify", "[map]\nf1 = u*(1/2+v)^99999999999\nf2 = v^2\nf3 = u*v\n"),
    ("classify", "[map]\nf1 = %su%s\nf2 = v^2\nf3 = u*v\n" % ("(" * 300, ")" * 300)),
    ("classify", b"[map]\nf1 = u\nf2 = v^2\nf3 = u*v # \xff\n"),
    ("center", "[center]\na02 = 1\na20 = 2\na03 = 1e10000000\na21 = 1\n"),
]


@pytest.mark.parametrize("cmd, text", MALFORMED, ids=["5000-digits", "theta-abc",
                                                     "theta-inf", "theta-nan", "mode-key",
                                                     "theta-1e20", "duplicate-key",
                                                     "4000-digit-product", "theta-tiny",
                                                     "huge-power", "300-deep-parentheses",
                                                     "not-utf-8", "exponent-coefficient"])
def test_malformed_document_exit_1(tmp_path, capsys, cmd, text):
    path = write(tmp_path, "malformed.germ", text)
    for fmt in (("--json",), ()):
        code, out, err = run(capsys, cmd, path, *fmt)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


README_S2 = "[map]\norder = 6\nf1 = u\nf2 = v^2\nf3 = v*(u^3+v^2)\n"


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    """A document saved with a UTF-8 byte-order mark reads as the same text."""
    plain = write(tmp_path, "s2.germ", README_S2)
    marked = write(tmp_path, "s2-bom.germ", b"\xef\xbb\xbf" + README_S2.encode())
    for fmt in ((), ("--json",)):
        want = run(capsys, "classify", plain, *fmt)
        assert want[0] == 0
        assert run(capsys, "classify", marked, *fmt) == want


TINY_ANGLE_HEAD = ("[folded]\norder = 10\na02 = 1\na20 = 1\na03 = 2\na21 = 5/7\na12 = 3\n"
                   "a30 = 1\na04 = 1\na13 = 2\na05 = 1\na31 = 4/9\na22 = 7\n")


def test_folded_float_angle_is_at_least_two_to_the_minus_64(tmp_path, capsys):
    """Below the bound the exact point would outgrow a printable certificate."""
    smallest = 2.0 ** -64
    path = write(tmp_path, "tiny.germ", TINY_ANGLE_HEAD + "theta = %r\n" % smallest)
    code, out, err = run(capsys, "folded", path, "--json")
    assert (code, err) == (0, "") and json.loads(out)["agree"]
    for theta in (math.nextafter(smallest, 0), 2e-300):
        path = write(tmp_path, "tiny.germ", TINY_ANGLE_HEAD + "theta = %r\n" % theta)
        code, out, err = run(capsys, "folded", path, "--json")
        assert (code, out) == (1, "")
        assert err == ("error: a nonzero fold angle must be at least 2^-64 in magnitude, got"
                       " %r; give an exact point as theta_cos, theta_sin\n" % theta)


def test_text_never_formats_the_normalized_germ(tmp_path, capsys):
    """Text shows the certificate summary only; JSON adds the normalized germ,
    whose u^6 coefficient here is past the print limit."""
    path = write(tmp_path, "wide.germ",
                 "[map]\nf1 = u + %d*v\nf2 = v^2\nf3 = u*v + u^6\n" % 10 ** 720)
    code, out, err = run(capsys, "classify", path)
    assert (code, err) == (0, "")
    assert out.startswith("verdict: WhitneyUmbrella\n")
    code, out, err = run(capsys, "classify", path, "--json")
    assert (code, out) == (1, "")
    assert err == "error: exact value has too many digits to print\n"


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


@pytest.mark.parametrize("option, value", [("--bound", "0"), ("--bound", "-1"),
                                           ("--degree", "0"), ("--degree", "-1")])
def test_fuzz_rejects_out_of_range_option(capsys, option, value):
    code, out, err = run(capsys, "fuzz", "--trials", "1", option, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_one_process_runs_many_commands(tmp_path, capsys):
    """The parser is built once per process; no call's flags or state reach the next."""
    s2 = write(tmp_path, "s2.germ", S2_DOC)
    sb = write(tmp_path, "sb.germ", "[sb-normal]\na21 = 2\na05 = 120\n")
    code, out, _ = run(capsys, "classify", s2, "--json", "--verify")
    assert code == 0
    assert json.loads(out)["verdict"] == "S2"
    code, text, err = run(capsys, "classify", s2)
    assert (code, err) == (0, "")
    assert text.startswith("verdict: S2\nmode: exact\n")
    assert "verify:" not in text and "{" not in text
    code, out, _ = run(capsys, "oracle", sb)
    assert code == 0
    assert out.startswith("formula verdict: B2+\n")
    assert out.endswith("agreement: yes\n")
    with pytest.raises(SystemExit) as usage_error:
        main(["classify", s2, "--no-such-flag"])
    assert usage_error.value.code == 2
    assert "usage:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as usage_error:
        main(["fuzz", "--trials", "many"])
    assert usage_error.value.code == 2
    capsys.readouterr()
    assert run(capsys, "classify", s2) == (0, text, "")
    assert build_parser() is build_parser()


# -- recorded output digest ----------------------------------------------------

RECORDED_DIGEST = "b3cab56dce176bf73f9cf18c4b657cd39906ebd6"


def _digest_runs():
    """(name, command, text, extra args): every document the digest covers."""
    runs = []
    for name, f in normal_forms().items():
        text = "[map]\n" + "".join("f%d = %s\n" % (k + 1, poly_str(c))
                                    for k, c in enumerate(f))
        runs.append(("model-" + name, "classify", text, ()))
    runs += [
        ("more-degenerate", "classify", "[map]\nf1 = u\nf2 = v^2\nf3 = u^4*v+v^3\n", ()),
        ("malformed", "classify", "[map]\nf1 = u**2\nf2 = v^2\nf3 = u*v\n", ()),
        ("verify", "classify", S2_DOC, ("--verify",)),
        ("ruled", "ruled", "[ruled]\ngamma1 = 1\ngamma3 = v^3\nc3 = 1\n", ()),
        ("center", "center", "[center]\na02 = 1\na20 = 2\na03 = 1\na21 = 1\n", ()),
        ("sb-normal", "oracle", "[sb-normal]\na21 = 2\na05 = 120\n", ()),
        ("h-normal", "oracle", "[h-normal]\nb03 = 6\na05 = 120\n", ()),
        ("folded-exact", "folded", FOLDED_HEAD + "a12 = 1\ntheta_cos = 3/5\ntheta_sin = 4/5\n",
         ()),
        ("folded-float", "folded", FOLDED_HEAD + "theta = %r\n" % math.atan2(4, 3), ()),
    ]
    return runs


def test_cli_output_matches_recorded_digest(tmp_path, capsys):
    """The bytes of every command's output, text and JSON, across commits."""
    digest = hashlib.sha1()

    def record(argv, shown):
        code, out, err = run(capsys, *argv)
        assert str(tmp_path) not in out + err
        digest.update(repr((shown, code, out, err)).encode("utf-8"))

    for name, command, text, extra in _digest_runs():
        path = write(tmp_path, name + ".germ", text)
        for fmt in ((), ("--json",)):
            argv = (command, path) + extra + fmt
            record(argv, (command, name + ".germ") + extra + fmt)
    for fmt in ((), ("--json",)):
        argv = ("fuzz", "--trials", "2", "--seed", "3") + fmt
        record(argv, argv)
    assert digest.hexdigest() == RECORDED_DIGEST


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


# -- property test over the other document kinds ---------------------------------

def _rational(draw):
    num, den = draw(st.integers(-5, 5)), draw(st.integers(1, 3))
    return str(num) if den == 1 else "%d/%d" % (num, den)


def _coefficients(draw, group, lo, hi, keep=lambda i, j: True, lead=()):
    """Coefficient keys g_ij with lo <= i + j <= hi: each lead index with
    probability 1/2 (the ones the verdicts read), then a few more."""
    indices = [(i, j) for i in range(hi + 1) for j in range(hi + 1 - i)
               if lo <= i + j and keep(i, j)]
    chosen = {ij for ij in lead if draw(st.booleans())}
    chosen.update(draw(st.lists(st.sampled_from(indices), unique=True, max_size=3)))
    chosen = sorted(chosen)
    return {"%s%d%d" % (group, i, j): _rational(draw) for i, j in chosen}


def _v_polynomial(draw, constant):
    low = 0 if constant else 1
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), st.integers(1, 5),
                                    st.integers(low, 5)), min_size=1, max_size=3))
    return "".join(" %s %d" % (sign, c) if j == 0 else " %s %d*v^%d" % (sign, c, j)
                   for sign, c, j in terms).lstrip(" +")


def _ruled_values(draw):
    return {"gamma1": _v_polynomial(draw, True), "gamma3": _v_polynomial(draw, False),
            "c3": _v_polynomial(draw, True)}


def _monge_values(draw, umbilic):
    values = _coefficients(draw, "a", 2, 6, keep=lambda i, j: (i, j) != (1, 1),
                           lead=[(0, 3), (2, 1), (1, 2), (3, 1), (1, 3), (0, 5)])
    a02 = draw(st.integers(1, 4))
    values["a02"] = str(a02)
    values["a20"] = str(a02 if umbilic else a02 + draw(st.integers(1, 3)))
    return values


EXACT_ANGLES = [("1", "0"), ("3/5", "4/5"), ("-4/5", "3/5"), ("0", "1"), ("5/13", "-12/13"),
                ("-1", "0")]


def _folded_values(draw, float_angle):
    cos, sin = draw(st.sampled_from(EXACT_ANGLES))
    values = _monge_values(draw, umbilic=float_angle or sin != "0" or draw(st.booleans()))
    if not float_angle:
        values.update(theta_cos=cos, theta_sin=sin)
    elif draw(st.booleans()):
        values["theta"] = repr(math.atan2(Fraction(sin), Fraction(cos)))
    else:
        values["theta"] = repr(draw(st.floats(-1e6, 1e6)))
    return values


def _sb_values(draw):
    values = _coefficients(draw, "a", 3, 5, keep=lambda i, j: j > 0,
                           lead=[(2, 1), (0, 3), (3, 1), (1, 3), (0, 5)])
    values.update(_coefficients(draw, "b", 3, 5, keep=lambda i, j: i == 0))
    return values


def _h_values(draw):
    values = _coefficients(draw, "a", 3, 5, lead=[(0, 5), (0, 4), (1, 3)])
    values.update(_coefficients(draw, "b", 3, 5, lead=[(0, 3), (0, 4), (1, 2)]))
    return values


BAD_RATIONALS = ["abc", "1/0", "", "1//2", "u", "--1", "1/-2", "nan", "1/2/3", "1.5", "1e3"]
ANGLE_KEYS = ("theta", "theta_cos", "theta_sin")
FOLDED_DEFECTS = [{"a11": "1"}, {"a07": "1"}, {"a01": "1"}, {"b03": "1"},
                  {"theta_cos": "3/5"}, {"theta_sin": "4/5"},
                  {"theta_cos": "1/2", "theta_sin": "1/2"},
                  {"theta": "0.5", "theta_cos": "1", "theta_sin": "0"},
                  {"theta": "inf"}, {"theta": "nan"}, {"theta": "1e20"}, {"theta": "abc"},
                  {"a20": "1", "a02": "2", "theta_cos": "3/5", "theta_sin": "4/5"},
                  {"a20": "1", "a02": "2", "theta": "0.5"}]

MONGE_KEYS = ["a02", "a20", "a03", "a21"]

# kind: (header, command, values, literal keys, bad literals, unknown keys, domain defects)
DOCUMENT_KINDS = {
    "ruled": ("ruled", "ruled", _ruled_values, ["gamma1", "gamma3", "c3"], BAD_LITERALS,
              ["f1", "a12", "theta", "gamma2", "c1"],
              [{"gamma3": "1 + v^2"}, {"c3": "u"}, {"gamma1": "1 + u*v"}]),
    "center": ("center", "center", lambda draw: _monge_values(draw, umbilic=False),
               MONGE_KEYS, BAD_RATIONALS, ["f1", "gamma1", "theta", "c12", "a1", "a123", "A02"],
               [{"a02": "0"}, {"a02": "1", "a20": "1"}, {"a11": "1"}, {"a07": "1"},
                {"a01": "1"}, {"b03": "1"}]),
    "folded-exact": ("folded", "folded", lambda draw: _folded_values(draw, False),
                     MONGE_KEYS, BAD_RATIONALS, ["f1", "gamma1", "c12", "a1", "a123", "angle"],
                     FOLDED_DEFECTS),
    "folded-float": ("folded", "folded", lambda draw: _folded_values(draw, True),
                     MONGE_KEYS, BAD_RATIONALS, ["f1", "gamma1", "c12", "a1", "a123", "angle"],
                     FOLDED_DEFECTS),
    "sb-normal": ("sb-normal", "oracle", _sb_values, ["a21", "a03", "a31", "b03"],
                  BAD_RATIONALS, ["f1", "gamma1", "theta", "c12", "a1", "a123"],
                  [{"a30": "1"}, {"a02": "1"}, {"a06": "1"}, {"b02": "1"}, {"b06": "1"},
                   {"b12": "1"}]),
    "h-normal": ("h-normal", "oracle", _h_values, ["a05", "b03", "b12"], BAD_RATIONALS,
                 ["f1", "gamma1", "theta", "c12", "a1", "a123"],
                 [{"a02": "1"}, {"b06": "1"}, {"a60": "1"}, {"b11": "1"}]),
}


@st.composite
def kind_documents(draw, kind):
    """(text, corrupted): a valid document of one kind, or one with a single defect."""
    header, _, make, literal_keys, bad_literals, unknown_keys, domain = DOCUMENT_KINDS[kind]
    values = make(draw)
    if draw(st.booleans()):
        values["order"] = str(draw(st.integers(5, 8)))
    defect = draw(st.sampled_from([None, "stray", "key", "literal", "order", "header",
                                   "duplicate", "domain"])) if draw(st.booleans()) else None
    if defect == "literal":
        values[draw(st.sampled_from(literal_keys))] = draw(st.sampled_from(bad_literals))
    elif defect == "order":
        values["order"] = draw(st.sampled_from(BAD_ORDERS))
    elif defect == "key":
        values[draw(st.sampled_from(unknown_keys))] = "1"
    elif defect == "domain":
        change = draw(st.sampled_from(domain))
        if any(key in change for key in ANGLE_KEYS):
            for key in ANGLE_KEYS:
                values.pop(key, None)
        values.update(change)
    lines = ["%s = %s" % item for item in values.items()]
    if defect == "duplicate":
        key = draw(st.sampled_from(sorted(values)))
        lines.append("%s = %s" % (key, values[key]))
    lines += draw(st.lists(st.sampled_from(["", "# a comment", "   "]), max_size=2))
    if defect == "stray":
        lines.append(draw(st.text("uvxyz019*^ ()!", min_size=1).filter(str.strip)))
    lines = draw(st.permutations(lines))
    if defect != "header":
        lines.insert(0, "[%s]" % header)
    return "\n".join(lines) + "\n", defect is not None


@pytest.mark.parametrize("kind", sorted(DOCUMENT_KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_document_text_never_crashes(kind, data):
    text, corrupted = data.draw(kind_documents(kind))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "doc.germ")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([DOCUMENT_KINDS[kind][1], path])
    assert code in (0, 1, 2), text
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    if corrupted:
        assert code == 1, text
