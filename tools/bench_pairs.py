"""Run the benchmark on two checkouts in alternating pairs and judge the difference.

Usage:
    python tools/bench_pairs.py --parent DIR --change DIR --workload W [W ...] \
        --seed S --pairs N [--out BENCH_<label>.json]

For each workload W in turn, each pair runs `perfbench/run.py --workload W
--seed S --seconds R --trace 0` once in each checkout, one process at a
time, where R is `run_seconds` of this repository's BENCHMARK.json; the
parent goes first in the odd pairs and the change first in the even ones.
Every run is printed as it ends, and each workload's summary after its
last pair, so one command gives one table per workload.
For each end-to-end metric of BENCHMARK.json, a summary gives each
side's quartiles (q1, median, q3), the pairs the change won (ties count
for neither) and three verdicts:

- gain: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's interquartile
  range;
- worse: the change's median is worse than the parent's by more than the
  metric's `bound`, read as a fraction of the parent's median;
- unresolved: the wider of the two sides' interquartile ranges exceeds
  that same bound, unless every run of the change is better than every
  run of the parent.  The runs spread too widely to tell "unchanged" from
  "worse", so such a metric is reported as unresolved, not as unchanged.

The verdict digests of the two sides are printed too; a perf claim
counts only if they show the verdicts held.  With --out, the results are
also written to that JSON file, keyed by workload: its seed, pair count
and run_seconds, every pair's metrics on each side, the summary rows,
each side's digests and whether they held.  It is written once every
workload has run, unless a run failed.  The script reads
BENCHMARK.json and never writes it; it uses the standard library only.
It exits 1 when a run fails (at once), when any run reports
`correct: false` or has `failed > 0`, or when a workload's digests
differ between the two sides or from one run to the next on one side
(it prints a line naming that workload).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`: (its JSON result line, its verdict digest)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError("run in %s exited %d: %s" % (checkout, proc.returncode,
                                                         proc.stderr.strip()[-500:]))
    digest = re.search(r"verdict_digest\s+(\S+)", proc.stdout)
    return json.loads(lines[-1]), digest.group(1) if digest else None


def quartiles(values):
    """(q1, median, q3) of the values, by `statistics.quantiles`' default method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(spec, pairs):
    """One row per end-to-end metric of `spec` over `pairs`, a list of {side: {name: value}}."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        gap = sign * (cmed - pmed)
        bound = metric["bound"] * abs(pmed)
        separated = min(sign * c for c in change) > max(sign * p for p in parent)
        rows.append({
            "name": name, "unit": metric["unit"], "better": metric["better"],
            "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "wins": wins, "pairs": len(pairs),
            "gain": 10 * wins >= 9 * len(pairs) and gap > pq3 - pq1,
            "worse": -gap > bound,
            "unresolved": max(pq3 - pq1, cq3 - cq1) > bound and not separated,
        })
    return rows


def verdicts_held(digests):
    """Whether every run of both sides read one and the same verdict digest."""
    return len(digests["parent"] | digests["change"]) == 1


def format_rows(rows):
    """The summary as a Markdown table."""
    out = ["| metric | parent q1 / median / q3 | change q1 / median / q3 | wins | gain | worse"
           " | unresolved |",
           "|---|---|---|---|---|---|---|"]
    for row in rows:
        out.append("| `%s` (%s, %s better) | %s | %s | %d/%d | %s | %s | %s |" % (
            row["name"], row["unit"], row["better"],
            " / ".join("%.4g" % x for x in row["parent"]),
            " / ".join("%.4g" % x for x in row["change"]),
            row["wins"], row["pairs"], "yes" if row["gain"] else "no",
            "WORSE" if row["worse"] else "no", "UNRESOLVED" if row["unresolved"] else "no"))
    return "\n".join(out)


def bench_workload(dirs, workload, seed, n_pairs, seconds):
    """Run one workload's pairs, printing each run: (pairs, digests, ok), or None if a run fails."""
    pairs, digests, ok = [], {side: set() for side in SIDES}, True
    for k in range(n_pairs):
        pair = {}
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            try:
                result, digest = run_once(dirs[side], workload, seed, seconds)
            except (RuntimeError, ValueError) as exc:
                print("pair %d %s: FAILED %s" % (k + 1, side, exc), flush=True)
                return None
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            bad = not result["correct"] or result["failed"] > 0
            ok = ok and not bad
            digests[side].add(digest)
            pair[side] = metrics
            print("pair %d %-6s correct %s failed %d/%d  %s" % (
                k + 1, side, result["correct"], result["failed"], result["attempted"],
                " ".join("%s=%.4g" % kv for kv in metrics.items())), flush=True)
        pairs.append(pair)
    return pairs, digests, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", type=Path, help="write the results as JSON to this file")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    dirs = {"parent": args.parent, "change": args.change}
    all_ok = True
    results = {}
    for workload in args.workload:
        done = bench_workload(dirs, workload, args.seed, args.pairs, seconds)
        if done is None:
            return 1
        pairs, digests, ok = done
        all_ok = all_ok and ok
        print("workload %s  seed %d  %d pairs at %g s" % (workload, args.seed, len(pairs),
                                                        seconds))
        for side in SIDES:
            print("verdict_digest %-6s %s" % (side, " ".join(sorted(map(str, digests[side])))))
        rows = summarize(spec, pairs)
        print(format_rows(rows))
        for row in rows:
            if row["worse"]:
                print("worse than its bound: %s" % row["name"])
        if not verdicts_held(digests):
            print("verdict digests changed on workload %s" % workload)
            all_ok = False
        results[workload] = {
            "seed": args.seed, "pairs": len(pairs), "run_seconds": seconds,
            "per_pair": pairs, "summary": rows,
            "digests": {side: sorted(map(str, digests[side])) for side in SIDES},
            "verdicts_held": verdicts_held(digests)}
    if args.out:
        args.out.write_text(json.dumps({"workloads": results}, indent=1) + "\n",
                            encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
