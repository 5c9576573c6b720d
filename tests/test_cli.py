import json

import pytest

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
]


@pytest.mark.parametrize("cmd, text", MALFORMED, ids=["5000-digits", "theta-abc",
                                                     "theta-inf", "theta-nan"])
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
