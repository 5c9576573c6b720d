#!/usr/bin/env python3
"""The germclass benchmark: one closed-loop workload per run, one caller.

    python3 perfbench/run.py --workload scrambled --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
run sets up the workload several times (import germclass, generate the
seeded inputs, one warm-up pass) and reports the median set-up time.  It
then runs the operations back to back, in passes over the inputs, for
--seconds and at least MIN_PASSES passes, judging every outcome.

Every operation is preceded by one run of a fixed reference kernel, and
latencies are reported in units of the kernel's time measured next to them
(unit `ref`).  On a machine shared with other load the speed of the CPU
drifts by tens of percent from one minute to the next; the ratio of an
operation's time to the kernel's time next to it stays within a few
percent, so runs made at different moments compare.  For the same reason
the set-up is timed in laps (one per generated input or warm-up operation)
in kernel units, and setup_s is that time scaled to a machine on which the
kernel takes KERNEL_NOMINAL_S.  Wall-clock figures are printed alongside.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 the first rounds of operations are replayed with every layer
wrapped in spans (see tracing.py) and the last line reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  README.md defines the
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 1         # every input runs at least once
SMOOTH = 4             # an op's kernel time is the median of the 2*SMOOTH+1 around it
KERNEL_NOMINAL_S = 0.001   # setup_s is scaled to a machine where the kernel takes this
SUBMODULES = ("jets", "scalars", "vfields", "frames", "classify", "fuzz",
              "docparse", "applications", "oracle", "cli")

_KERNEL_TERMS = [Fraction(i, 7 + i % 5) for i in range(1, 17)]


def reference_kernel():
    """Fixed work independent of germclass: Fraction products summed into a dict.

    It is the same kind of work as the jet arithmetic (rational products,
    dict updates, small objects), so other load on the machine slows both
    alike.
    """
    acc = {}
    for i, a in enumerate(_KERNEL_TERMS):
        for j, b in enumerate(_KERNEL_TERMS):
            key = (i * j) % 17
            acc[key] = acc.get(key, 0) + a * b
    return acc


def time_kernel():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def import_germclass():
    """A fresh import of germclass from ./src (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "germclass" or m.startswith("germclass.")]:
        del sys.modules[name]
    package = importlib.import_module("germclass")
    if Path(package.__file__).resolve().parent != (SRC / "germclass").resolve():
        raise RuntimeError("germclass imported from %s, not from %s" % (package.__file__, SRC))
    return SimpleNamespace(**{m: importlib.import_module("germclass." + m) for m in SUBMODULES})


def run_checked(op, call=None):
    """Run one op; returns (seconds, ok, verdict string)."""
    call = call or op.run
    t0 = time.perf_counter()
    try:
        outcome = call()
    except Exception as error:  # counted as failed, never fatal to the run
        return time.perf_counter() - t0, False, "raised %s: %s" % (type(error).__name__, error)
    elapsed = time.perf_counter() - t0
    try:
        ok, verdict = op.judge(outcome)
    except (ValueError, KeyError, TypeError) as error:  # output the judge cannot read
        return elapsed, False, "unreadable outcome: %s: %s" % (type(error).__name__, error)
    return elapsed, ok, verdict


class Laps:
    """Set-up time cut into laps, each preceded by one run of the kernel.

    `lap()` ends the current lap; the kernel runs between laps are not part
    of any lap.  `units()` is the sum of the laps in kernel units, each lap
    taken relative to the kernel times around it, as for operations.
    """

    def __init__(self):
        self.walls, self.kernels = [], []
        self._start()

    def _start(self):
        self.kernels.append(time_kernel())
        self._t0 = time.perf_counter()

    def lap(self):
        self.walls.append(time.perf_counter() - self._t0)
        self._start()

    def wall(self):
        return sum(self.walls)

    def units(self):
        return sum(relative(self.walls, self.kernels))


def set_up(name, seed, workdir):
    """One set-up: returns its Laps and its results."""
    laps = Laps()
    G = import_germclass()
    laps.lap()
    corpus = workloads.WORKLOADS[name](G, seed, workdir, laps.lap)
    warm_ok = True
    for op in corpus.warmup:
        warm_ok = run_checked(op)[1] and warm_ok
        laps.lap()
    return laps, G, corpus, warm_ok


def local_kernel(kernel):
    """The median kernel time of each position's neighbourhood."""
    return [statistics.median(kernel[max(0, p - SMOOTH):p + SMOOTH + 1])
            for p in range(len(kernel))]


def relative(elapsed, kernel):
    """Each time over the median kernel time of its neighbourhood."""
    return [seconds / k for seconds, k in zip(elapsed, local_kernel(kernel))]


def timed_loop(corpus, seconds):
    """Closed loop, one caller: each op starts when the previous one ended.

    Passes over the inputs until `seconds` have elapsed and at least
    MIN_PASSES passes are complete.  Returns, per input, its times in ms
    and in kernel units, its verdict, and the failure count.  An input
    whose verdict differs between its runs counts as failed.
    """
    ops = corpus.ops
    order, elapsed, kernel = [], [], []
    verdicts = [None] * len(ops)
    failed = 0
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for idx, op in enumerate(ops):
            if passes >= MIN_PASSES and time.perf_counter() >= deadline:
                break
            kernel.append(time_kernel())
            seconds_taken, ok, verdict = run_checked(op)
            order.append(idx)
            elapsed.append(seconds_taken)
            if verdicts[idx] is None:
                verdicts[idx] = verdict
            elif verdict != verdicts[idx]:
                ok = False
            if not ok:
                failed += 1
                print("failed: %s -> %s" % (op.label, verdict))
        passes += 1
    rel = [[] for _ in ops]
    ms = [[] for _ in ops]
    for idx, seconds_taken, r in zip(order, elapsed, relative(elapsed, kernel)):
        rel[idx].append(r)
        ms[idx].append(seconds_taken * 1000.0)
    return SimpleNamespace(rel=rel, ms=ms, verdicts=verdicts, failed=failed,
                           attempted=len(order), kernel_ms=statistics.median(kernel) * 1000.0)


def digest(verdicts):
    return hashlib.sha1("\n".join(verdicts).encode("utf-8")).hexdigest()


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(corpus, per_input, unit):
    """Latency metrics over inputs; an input's latency is the median of its runs."""
    lat = [statistics.median(runs) for runs in per_input]
    metrics = {
        "latency_%s.p50" % unit: (statistics.median(lat), unit),
        "latency_%s.p90" % unit: (percentile(lat, 90), unit),
    }
    by_class = {}
    for op, value in zip(corpus.ops, lat):
        if op.cls is not None:
            by_class.setdefault(op.cls, []).append(value)
    missing = [c for c in workloads.CLASSES if c not in by_class]
    if missing:
        raise RuntimeError("no inputs of classes %s" % ", ".join(missing))
    for cls in workloads.CLASSES:
        metrics["latency_%s.gmean.%s" % (unit, cls)] = (
            statistics.geometric_mean(by_class[cls]), unit)
    return metrics, lat, {cls: len(v) for cls, v in by_class.items()}


def end_to_end(corpus, loop, setups):
    """setups: the Laps of each set-up."""
    rel, lat, counts = summarize(corpus, loop.rel, "ref")
    metrics = {
        "setup_s": (statistics.median(laps.units() for laps in setups) * KERNEL_NOMINAL_S, "s"),
        "ops_per_ref": (len(lat) / sum(lat), "1/ref"),
        **rel,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, counts


BENCHMARK = ROOT / "BENCHMARK.json"
# per-layer metric suffix -> column of Tracer.summary
COLUMNS = {"calls": 0, "incl_ref": 1, "self_ref": 2}


def replay(ops, call):
    """Run ops through call(idx, op); returns kernel-timed runs and verdicts."""
    elapsed, kernel, verdicts = [], [], []
    for idx, op in enumerate(ops):
        kernel.append(time_kernel())
        seconds_taken, ok, verdict = run_checked(op, lambda: call(idx, op))
        elapsed.append(seconds_taken)
        verdicts.append(verdict)
    return elapsed, kernel, verdicts


def traced_replay(name, corpus, loop, seed):
    """Replay the first rounds of ops twice: counting distinct applies, untimed,
    then with every layer wrapped in spans.

    Returns the span summary in kernel units, the op count, the verdicts of
    both passes, the distinct-apply ratio and the overhead: the traced time
    of those ops over their untraced time, minus one, both in kernel units.
    """
    ops = corpus.ops[:workloads.TRACED_ROUNDS * corpus.round_size]
    counter = tracing.DistinctApplies()
    counter.install()
    try:
        counted = replay(ops, lambda idx, op: op.run())[2]
    finally:
        counter.uninstall()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        elapsed, kernel, traced = replay(ops, lambda idx, op: tracer.run_op(idx, op.run))
    finally:
        tracer.uninstall()
    untraced = sum(statistics.median(loop.rel[idx]) for idx in range(len(ops)))
    overhead = sum(relative(elapsed, kernel)) / untraced - 1.0
    tracer.write(WORK / ("spans-%s-%d" % (name, seed)))
    table = tracer.summary([1.0 / k for k in local_kernel(kernel)])
    return SimpleNamespace(table=table, n=len(ops), verdicts=traced, counted=counted,
                           distinct_ratio=counter.ratio(), overhead=overhead)


def layer_metrics(trace):
    """Every per-layer metric that BENCHMARK.json lists, per replayed op.

    A name is <tracer label>.<calls|incl_ref|self_ref>, apart from the two
    that are not a column of the span summary.
    """
    special = {"vfields.apply.distinct_ratio": trace.distinct_ratio,
               "trace.overhead_frac": trace.overhead}
    out = {}
    for spec in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]:
        name = spec["name"]
        if name in special:
            value = special[name]
        else:
            label, kind = name.rsplit(".", 1)
            value = trace.table[label][COLUMNS[kind]] / trace.n
        out[name] = (value, spec["unit"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "germclass" / "__init__.py").is_file():
        print("error: no germclass package under %s; run from a checkout root" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / ("docs-%s-%d" % (args.workload, args.seed))

    setups = []
    warm_ok = True
    for _ in range(SETUP_REPEATS):
        laps, G, corpus, ok = set_up(args.workload, args.seed, workdir)
        setups.append(laps)
        warm_ok = warm_ok and ok

    loop = timed_loop(corpus, args.seconds)
    metrics, counts = end_to_end(corpus, loop, setups)
    wall, _, _ = summarize(corpus, loop.ms, "ms")
    verdict_digest = digest(loop.verdicts)
    correct = warm_ok and loop.failed == 0

    print("workload %s  seed %d  seconds %g  trace %d  (closed loop, 1 caller)"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("  %-34s %s s wall, %s s scaled" % (
        "setup_s.runs", " ".join("%.4f" % laps.wall() for laps in setups),
        " ".join("%.4f" % (laps.units() * KERNEL_NOMINAL_S) for laps in setups)))
    for key, (value, unit) in list(metrics.items()) + list(wall.items()):
        print("  %-34s %.6g %s" % (key, value, unit))
    print("  %-34s %.6g ms (median over the run)" % ("reference_kernel", loop.kernel_ms))
    runs = [len(r) for r in loop.rel]
    print("  %-34s %d inputs, %d-%d runs each; per class %s" % (
        "samples", len(runs), min(runs), max(runs),
        " ".join("%s=%d" % kv for kv in sorted(counts.items()))))
    print("  %-34s %.6g ratio (%d of %d)" % ("failed_frac", loop.failed / loop.attempted,
                                           loop.failed, loop.attempted))
    print("  %-34s %s (over %d inputs)" % ("verdict_digest", verdict_digest, len(runs)))
    if not warm_ok:
        print("  warm-up pass: an operation failed")

    if args.workload == "documents":
        defects = workloads.probe_known_defects(G, workdir)
        bad = sum(1 for _, ok, _ in defects if not ok)
        print("  %-34s %d of %d fail (untimed probe, not in failed_frac)"
              % ("known_defects", bad, len(defects)))
        for name, ok, what in defects:
            print("    %-32s %s  %s" % (name, "ok" if ok else "FAILED", what))

    if args.trace:
        trace = traced_replay(args.workload, corpus, loop, args.seed)
        traced_digest = digest(trace.verdicts)
        same = digest(loop.verdicts[:trace.n]) == traced_digest == digest(trace.counted)
        correct = correct and same
        metrics = layer_metrics(trace)
        print("traced replay of %d ops: overhead_frac %.4f, verdict digest %s %s"
              % (trace.n, trace.overhead, traced_digest, "matches" if same else "DIFFERS"))
        print("  %-36s %12s %12s %12s" % ("layer (per op)", "calls", "incl_ref", "self_ref"))
        for label in sorted(trace.table):
            calls, incl, self_ref = trace.table[label]
            print("  %-36s %12.2f %12.4f %12.4f" % (label, calls / trace.n, incl / trace.n,
                                                   self_ref / trace.n))
        print("  %-36s %.4f" % ("vfields.apply.distinct_ratio", trace.distinct_ratio))

    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": bool(correct), "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
