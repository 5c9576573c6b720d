import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BENCHMARK = ROOT / "BENCHMARK.json"
SPEC = json.loads(BENCHMARK.read_text(encoding="utf-8"))
NAMES = [metric["name"] for metric in SPEC["end_to_end"]]


def pairs_of(name, parent, change):
    """Pairs in which every metric reads 1 on both sides, except `name`."""
    return [{"parent": {**dict.fromkeys(NAMES, 1.0), name: p},
             "change": {**dict.fromkeys(NAMES, 1.0), name: c}}
            for p, c in zip(parent, change)]


def row(name, parent, change):
    return next(r for r in bench_pairs.summarize(SPEC, pairs_of(name, parent, change))
                if r["name"] == name)


PARENT = [1.30, 1.32, 1.31, 1.29, 1.33, 1.30, 1.31, 1.32, 1.30, 1.31]


def test_a_clear_gain_wins_every_pair():
    r = row("ops_per_ref", PARENT, [x + 0.3 for x in PARENT])
    assert (r["wins"], r["pairs"], r["gain"], r["worse"]) == (10, 10, True, False)
    q1, median, q3 = r["parent"]
    assert q1 < median == 1.31 < q3
    assert r["change"][1] == 1.61


def test_a_gain_needs_nine_wins_in_ten():
    change = [x + 0.3 for x in PARENT[:8]] + [x - 0.01 for x in PARENT[8:]]
    r = row("ops_per_ref", PARENT, change)
    assert (r["wins"], r["gain"]) == (8, False)
    change[8] = PARENT[8] + 0.3
    assert row("ops_per_ref", PARENT, change)["gain"]


def test_a_gain_needs_a_median_gap_above_the_parent_iqr():
    parent = [1.0, 1.2, 1.4, 1.1, 1.3, 1.0, 1.2, 1.4, 1.1, 1.3]
    r = row("ops_per_ref", parent, [x + 0.01 for x in parent])
    assert (r["wins"], r["gain"]) == (10, False)


def test_ties_count_for_neither_side():
    r = row("ops_per_ref", PARENT, PARENT)
    assert (r["wins"], r["gain"], r["worse"]) == (0, False, False)


def test_worse_is_judged_against_the_bound_in_the_better_direction():
    # latency is lower-better with bound 0.25: 1.2x the parent is within it, 1.3x is not
    parent = [1.0] * 10
    assert not row("latency_ref.p50", parent, [1.2] * 10)["worse"]
    r = row("latency_ref.p50", parent, [1.3] * 10)
    assert (r["worse"], r["wins"], r["gain"]) == (True, 0, False)
    # a faster change is a win for a lower-better metric
    assert row("latency_ref.p50", parent, [0.5] * 10)["gain"]
    # throughput is higher-better with bound 0.15
    assert row("ops_per_ref", parent, [0.8] * 10)["worse"]
    assert not row("ops_per_ref", parent, [0.9] * 10)["worse"]


# scrambled gmean.Regular reads about 0.022 or 0.035 from one run to the next
BIMODAL = [0.022, 0.035] * 5


def test_a_bimodal_parent_is_unresolved():
    # lower-better with bound 0.25: the parent's IQR 0.013 exceeds 0.25 * 0.0285
    r = row("latency_ref.gmean.Regular", BIMODAL, BIMODAL[::-1])
    assert (r["unresolved"], r["worse"], r["gain"]) == (True, False, False)
    # the wider of the two spreads counts, whichever side it is on
    assert row("latency_ref.gmean.Regular", [0.028] * 10, BIMODAL)["unresolved"]
    assert row("latency_ref.gmean.Regular", BIMODAL, [0.028] * 10)["unresolved"]


def test_a_steady_parent_is_resolved():
    assert not row("ops_per_ref", PARENT, PARENT)["unresolved"]
    assert not row("ops_per_ref", PARENT, [x - 0.01 for x in PARENT])["unresolved"]


def test_a_change_better_on_every_run_is_resolved_however_wide_the_spread():
    r = row("latency_ref.gmean.Regular", BIMODAL, [0.015, 0.021] * 5)
    assert (r["unresolved"], r["wins"], r["worse"]) == (False, 10, False)
    # one change run no better than the best parent run leaves it unresolved
    assert row("latency_ref.gmean.Regular", BIMODAL, [0.015, 0.021] * 4 + [0.015, 0.022]
               )["unresolved"]


def test_the_table_has_one_row_per_metric_and_the_spec_is_only_read():
    before = BENCHMARK.read_bytes()
    rows = bench_pairs.summarize(SPEC, pairs_of("ops_per_ref", PARENT, PARENT))
    table = bench_pairs.format_rows(rows).splitlines()
    assert len(table) == 2 + len(NAMES)
    assert all("`%s`" % name in line for name, line in zip(NAMES, table[2:]))
    assert table[0].endswith("| worse | unresolved |")
    assert all(line.endswith("| no | no |") for line in table[2:])
    assert bench_pairs.BENCHMARK == BENCHMARK
    assert BENCHMARK.read_bytes() == before


def fake_checkout(path, failed, digest="abc"):
    """A checkout whose benchmark prints a fixed result line, and a digest
    `digest`-W that names the workload W it was run on."""
    (path / "perfbench").mkdir(parents=True)
    result = {"correct": True, "attempted": 10, "failed": failed,
              "metrics": {name: {"value": 1.0, "unit": "x"} for name in NAMES}}
    (path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "print('  verdict_digest  %s-%%s (over 10 inputs)' %% sys.argv[2])\n"
        "print(%r)\n" % (digest, json.dumps(result)))
    return path


def test_exit_status_follows_failed_operations(tmp_path, capsys):
    good = fake_checkout(tmp_path / "good", 0)
    bad = fake_checkout(tmp_path / "bad", 1)
    args = ["--workload", "scrambled", "--seed", "1", "--pairs", "2"]
    assert bench_pairs.main(["--parent", str(good), "--change", str(good)] + args) == 0
    out = capsys.readouterr().out
    assert "verdict_digest parent abc" in out and "| `ops_per_ref`" in out
    assert bench_pairs.main(["--parent", str(good), "--change", str(bad)] + args) == 1


def test_one_table_per_workload(tmp_path, capsys):
    """Several workloads in one command: each runs its own pairs and prints its own table."""
    good = fake_checkout(tmp_path / "good", 0)
    args = ["--parent", str(good), "--change", str(good), "--workload", "scrambled",
            "documents", "--seed", "1", "--pairs", "2"]
    assert bench_pairs.main(args) == 0
    out = capsys.readouterr().out
    seconds = SPEC["run_seconds"]
    assert [line for line in out.splitlines() if line.startswith("workload ")] == [
        "workload %s  seed 1  2 pairs at %g s" % (w, seconds) for w in ("scrambled", "documents")]
    assert out.count("| metric |") == 2
    assert sum(line.startswith("pair ") for line in out.splitlines()) == 8
    for workload in ("scrambled", "documents"):
        assert "verdict_digest change abc-%s" % workload in out
    bad = fake_checkout(tmp_path / "bad", 1)
    args[3] = str(bad)
    assert bench_pairs.main(args) == 1


def test_a_verdict_change_fails_and_names_the_workload(tmp_path, capsys):
    good = fake_checkout(tmp_path / "good", 0)
    other = fake_checkout(tmp_path / "other", 0, digest="xyz")
    args = ["--workload", "scrambled", "documents", "--seed", "1", "--pairs", "2"]
    assert bench_pairs.main(["--parent", str(good), "--change", str(good)] + args) == 0
    assert "verdict digests changed" not in capsys.readouterr().out
    assert bench_pairs.main(["--parent", str(good), "--change", str(other)] + args) == 1
    out = capsys.readouterr().out
    assert "verdict_digest change xyz-scrambled" in out
    assert [line for line in out.splitlines() if line.startswith("verdict digests")] == [
        "verdict digests changed on workload scrambled",
        "verdict digests changed on workload documents"]


def test_verdicts_hold_only_on_one_digest_for_every_run():
    held = bench_pairs.verdicts_held
    assert held({"parent": {"a"}, "change": {"a"}})
    assert not held({"parent": {"a"}, "change": {"b"}})
    # one side reading two digests fails even where the two sets agree
    assert not held({"parent": {"a", "b"}, "change": {"a", "b"}})
    assert not held({"parent": {"a", "b"}, "change": {"a"}})


def test_out_writes_every_workload_and_reads_back(tmp_path, capsys):
    """--out holds, per workload, the runs behind the printed table and its digests."""
    good = fake_checkout(tmp_path / "good", 0)
    other = fake_checkout(tmp_path / "other", 0, digest="xyz")
    out = tmp_path / "BENCH_test.json"
    args = ["--parent", str(good), "--change", str(other), "--workload", "scrambled",
            "documents", "--seed", "7", "--pairs", "3", "--out", str(out)]
    assert bench_pairs.main(args) == 1
    printed = capsys.readouterr().out
    saved = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    assert list(saved) == ["scrambled", "documents"]
    for workload, result in saved.items():
        assert (result["seed"], result["pairs"], result["run_seconds"]) == (
            7, 3, SPEC["run_seconds"])
        assert len(result["per_pair"]) == 3
        assert all(set(pair) == {"parent", "change"} and set(pair["change"]) == set(NAMES)
                   for pair in result["per_pair"])
        rows = bench_pairs.summarize(SPEC, result["per_pair"])
        assert json.loads(json.dumps(rows)) == result["summary"]
        assert all(summary["unresolved"] is False for summary in result["summary"])
        assert bench_pairs.format_rows(rows) in printed
        assert result["digests"] == {"parent": ["abc-%s" % workload],
                                     "change": ["xyz-%s" % workload]}
        assert result["verdicts_held"] is False
