"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def G():
    return run.import_germclass()


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "PER_CLASS", 3)
    monkeypatch.setattr(workloads, "TRIAL_PER_CLASS", 3)
    monkeypatch.setattr(workloads, "DOC_PER_CLASS", 3)


def _documents(G, seed, tmp_path):
    corpus = workloads.build_documents(G, seed, tmp_path)
    return corpus, sorted((p.name, p.read_text()) for p in tmp_path.iterdir())


def test_scrambled_corpus_is_deterministic(G, small):
    a = workloads.build_scrambled(G, 7)
    b = workloads.build_scrambled(G, 7)
    c = workloads.build_scrambled(G, 8)
    assert [op.label for op in a.ops] == [op.label for op in b.ops]
    assert [op.input for op in a.ops] == [op.input for op in b.ops]
    assert [op.input for op in a.ops] != [op.input for op in c.ops]


def test_document_corpus_is_deterministic(G, small, tmp_path):
    corpus, first = _documents(G, 5, tmp_path / "a")
    _, again = _documents(G, 5, tmp_path / "b")
    _, other = _documents(G, 6, tmp_path / "c")
    assert first == again
    assert first != other
    assert len(first) == len(corpus.ops)
    assert sum(1 for op in corpus.ops if op.cls is None) == 2


def test_invariance_trials_are_deterministic(G, small):
    a = workloads.build_invariance(G, 3)
    b = workloads.build_invariance(G, 3)
    for op_a, op_b in zip(a.ops[:4], b.ops[:4]):
        assert run.run_checked(op_a)[1:] == run.run_checked(op_b)[1:]


def test_expected_verdicts_hold(G, small, tmp_path):
    scrambled = workloads.build_scrambled(G, 11)
    documents = workloads.build_documents(G, 11, tmp_path)
    invariance = workloads.build_invariance(G, 11)
    for op in scrambled.ops + documents.ops + invariance.ops:
        elapsed, ok, verdict = run.run_checked(op)
        assert ok, (op.label, verdict)


def test_model_verdicts_are_the_known_classes(G):
    for name, f in workloads.model_germs(G).items():
        assert G.classify.classify(f)[0].verdict.value == workloads.MODELS[name][3]


def test_malformed_document_must_exit_1_with_error_line():
    judge = workloads.judge_document
    assert judge(None, (1, "", "error: unknown kind\n"))[0]
    assert not judge(None, (0, '{"verdict": "S2"}', ""))[0]
    assert not judge(None, (2, '{"verdict": "MoreDegenerate"}', ""))[0]
    assert not judge(None, (3, '{"generic": {}}', ""))[0]
    assert not judge(None, (1, "", "something went wrong\n"))[0]


def test_raising_operation_counts_as_failed():
    def boom():
        raise ValueError("math domain error")

    op = workloads.Op("boom", None, boom, lambda outcome: (True, "unreachable"))
    elapsed, ok, verdict = run.run_checked(op)
    assert not ok and verdict.startswith("raised ValueError")


def test_unreadable_output_counts_as_failed():
    op = workloads.Op("garbled", "S2", lambda: (0, "not json", ""),
                      lambda outcome: workloads.judge_document("S2", outcome))
    elapsed, ok, verdict = run.run_checked(op)
    assert not ok and verdict.startswith("unreadable outcome: JSONDecodeError")


def test_wrong_verdict_or_exit_code_counts_as_failed():
    judge = workloads.judge_document
    assert judge("S2", (0, '{"verdict": "S2"}', ""))[0]
    assert not judge("S2", (0, '{"verdict": "S1+"}', ""))[0]
    assert not judge("S2", (2, '{"verdict": "S2"}', ""))[0]
    dual = '{"formula": {"verdict": "B2-"}, "generic": {"verdict": "B2+"}, "agree": false}'
    assert not judge("B2-", (3, dual, ""))[0]


def test_known_defects_are_all_probed(G, tmp_path):
    names = [name for name, _, _, _ in workloads.known_defect_docs()]
    assert names == ["literal-5000-digits", "theta-abc", "theta-inf", "theta-nan",
                     "b2-fold-lambda-1e-5"]
    results = workloads.probe_known_defects(G, tmp_path)
    assert len(results) == 5


def test_per_class_metrics_cover_every_class_present(G, small, tmp_path):
    assert set(workloads.CLASS_OF.values()) == set(workloads.CLASSES)
    for name in workloads.WORKLOADS:
        corpus = workloads.WORKLOADS[name](G, 2, tmp_path / name)
        present = {op.cls for op in corpus.ops if op.cls is not None}
        assert present == set(workloads.CLASSES), name
        loop = SimpleNamespace(rel=[[0.5 * (idx + 1)] for idx in range(len(corpus.ops))])
        metrics, counts = run.end_to_end(corpus, loop, [SimpleNamespace(units=lambda: 1e3)])
        for cls in present:
            assert "latency_ref.gmean.%s" % cls in metrics
            assert counts[cls] > 0


def test_traced_replay_matches_untraced_verdicts(G, small, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    corpus = workloads.build_scrambled(G, 4)
    loop = run.timed_loop(corpus, 0.0)
    assert loop.failed == 0 and loop.attempted == run.MIN_PASSES * len(corpus.ops)
    trace = run.traced_replay("scrambled", corpus, loop, 4)
    assert trace.verdicts == trace.counted == loop.verdicts[:trace.n]
    assert trace.table["classify.classify"][0] == trace.n
    for label, row in trace.table.items():
        assert row[2] <= row[1] + 1e-9, label
    assert 0 < trace.distinct_ratio <= 1
    # every per-layer metric of BENCHMARK.json resolves to a traced label
    metrics = run.layer_metrics(trace)
    names = [spec["name"] for spec in json.loads(run.BENCHMARK.read_text())["per_layer"]]
    assert list(metrics) == names
    assert metrics["classify.classify.self_ref"][0] > 0
    assert metrics["cli.main.calls"][0] == 0
    # the wrappers are gone after the replay
    assert not hasattr(G.classify.classify, "__wrapped__")
    assert not hasattr(G.jets.Jet2.__mul__, "__wrapped__")
    assert G.vfields.apply is G.frames.apply is G.classify.apply


def test_verdict_change_between_runs_counts_as_failed():
    flips = itertools.cycle(["S1+", "S1-"])
    op = workloads.Op("flip", "S1", lambda: next(flips), lambda verdict: (True, verdict))
    loop = run.timed_loop(workloads.Corpus([op], [], 1), 0.05)
    assert loop.attempted >= 2
    assert loop.failed == loop.attempted // 2


def test_tracer_wraps_every_binding_site(G):
    sites = [(G.frames, "sb2_adapt"), (G.classify, "sb2_adapt"), (G.vfields, "apply"),
             (G.frames, "apply"), (G.classify, "apply"), (G.fuzz, "apply"),
             (G.jets.Jet2, "__mul__"), (G.jets.Jet2, "__rmul__"), (G.jets.Jet2, "__init__")]
    before = [vars(owner)[name] for owner, name in sites]
    germ = workloads.model_germs(G)["S2"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = [vars(owner)[name] for owner, name in sites]
        tracer.run_op(0, lambda: G.classify.classify(germ))
    finally:
        tracer.uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert [vars(owner)[name] for owner, name in sites] == before
    table = tracer.summary([2.0])
    assert set(tracer.opid) == {0}
    assert table["op"][1] == 2.0 * (tracer.end[0] - tracer.start[0])
    assert table["frames.s3_adapt"][0] == 1
    assert table["frames.sb2_adapt"][0] == 2      # once from classify, once inside s3_adapt


def test_distinct_applies_count_per_classify_call(G):
    before = (G.classify.classify, G.frames.apply)
    counter = tracing.DistinctApplies()
    counter.install()
    try:
        germ = workloads.model_germs(G)["S2"]
        G.classify.classify(germ)
        first = (counter.calls, counter.distinct)
        G.classify.classify(germ)
    finally:
        counter.uninstall()
    # the pairs seen are reset per classify call, so a repeat counts again
    assert (counter.calls, counter.distinct) == (2 * first[0], 2 * first[1])
    assert 0 < counter.ratio() <= 1
    assert (G.classify.classify, G.frames.apply) == before


def test_setup_is_timed_in_laps(G, small):
    laps = run.Laps()
    corpus = workloads.build_scrambled(G, 1, None, laps.lap)
    assert len(laps.walls) == len(corpus.ops)
    assert len(laps.kernels) == len(laps.walls) + 1
    assert laps.units() > 0 and laps.wall() > 0
