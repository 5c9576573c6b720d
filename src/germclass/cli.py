"""Command-line frontend emitting machine-readable classification certificates.

Commands take a document file (see `docparse`) and print a certificate:
the verdict, the branch trace, every evaluated invariant, the frame
parameters and the normalizing linear map.  `--json` emits the same data
as one JSON object with stable key names; every scalar is exact and
prints as `p/q`, so output is bit-stable for golden tests.  Parser
warnings (such as a degree overflow truncated to the document's order)
are printed as `warning:` lines, or listed under `warnings` in JSON.

Exit codes: 0 definite classification, 2 MoreDegenerate, 1 input error,
3 formula/classifier disagreement (ruled, center, folded, oracle) or a
fuzz/verify failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys

from .applications import (center_classify_formulas, center_map,
                           folded_classify_formulas, folded_map,
                           ruled_classify_formulas, ruled_map)
from .classify import classify, normal_forms
from .docparse import parse_doc
from .errors import GermError
from .fuzz import FuzzConfig, run_invariance
from .scalars import fmt_scalar


def _print_cert(classification, cert, warnings=()):
    print("verdict: %s" % classification.verdict.value)
    if classification.reason:
        print("reason: %s" % classification.reason)
    print("mode: exact")
    print("order: %d" % cert.order)
    for message in warnings:
        print("warning: %s" % message)
    print("trace:")
    for name, value in cert.trace:
        print("  %s = %s" % (name, value))
    if cert.invariants:
        print("invariants:")
        for name, value in cert.invariants.items():
            print("  %s = %s" % (name, fmt_scalar(value)))
    if cert.frame:
        print("frame:")
        for name, value in cert.frame.items():
            print("  %s = %s" % (name, fmt_scalar(value)))
    if cert.normalization is not None:
        rows = ["[%s]" % ", ".join(fmt_scalar(x) for x in row)
                for row in cert.normalization]
        print("normalization: [%s]" % ", ".join(rows))


def _exit_code(classification) -> int:
    return 0 if classification.definite else 2


def _verify(classification, cert) -> bool:
    """Re-run the classifier on the stored normalized germ and compare."""
    if cert.normalized is None:
        return True
    redone, recert = classify(cert.normalized)
    if redone.verdict != classification.verdict:
        return False
    if set(recert.invariants) != set(cert.invariants):
        return False
    return all(recert.invariants[k] == v for k, v in cert.invariants.items())


def _doc(args, *kinds):
    """The document at args.path, which must be of one of the given kinds."""
    doc = parse_doc(_read(args.path))
    if doc.kind not in kinds:
        raise GermError("%s expects a %s document, got [%s]" % (
            args.command, " or ".join("[%s]" % kind for kind in kinds), doc.kind))
    return doc


def cmd_classify(args) -> int:
    doc = _doc(args, "map")
    f = doc.to_map_jet()
    classification, cert = classify(f)
    if args.json:
        obj = cert.to_json_obj(classification)
        obj["warnings"] = doc.warnings
        print(json.dumps(obj, indent=2))
    else:
        _print_cert(classification, cert, doc.warnings)
    if args.verify and not _verify(classification, cert):
        print("verify: FAILED", file=sys.stderr)
        return 3
    if args.verify and not args.json:
        print("verify: ok")
    return _exit_code(classification)


def _dual(args, kind, formula_result, generic_input, warnings):
    formula_cls, formula_inv = formula_result
    generic_cls, cert = classify(generic_input)
    agree = formula_cls.verdict == generic_cls.verdict
    if args.json:
        obj = {
            "kind": kind,
            "formula": {
                "verdict": formula_cls.verdict.value,
                "reason": formula_cls.reason,
                "invariants": {k: fmt_scalar(v) for k, v in formula_inv.items()},
            },
            "generic": cert.to_json_obj(generic_cls),
            "agree": agree,
            "warnings": warnings,
        }
        print(json.dumps(obj, indent=2))
    else:
        print("formula verdict: %s" % formula_cls)
        for name, value in formula_inv.items():
            print("  %s = %s" % (name, fmt_scalar(value)))
        print("generic verdict: %s" % generic_cls)
        _print_cert(generic_cls, cert, warnings)
        print("agreement: %s" % ("yes" if agree else "NO"))
    if not agree:
        return 3
    return _exit_code(generic_cls)


def cmd_ruled(args) -> int:
    doc = _doc(args, "ruled")
    data = doc.to_ruled_data()
    return _dual(args, "ruled", ruled_classify_formulas(data), ruled_map(data),
                 doc.warnings)


def cmd_center(args) -> int:
    doc = _doc(args, "center")
    monge = doc.to_monge()
    return _dual(args, "center", center_classify_formulas(monge),
                 center_map(monge, doc.order), doc.warnings)


def cmd_folded(args) -> int:
    doc = _doc(args, "folded")
    monge = doc.to_monge()
    return _dual(args, "folded", folded_classify_formulas(monge, doc.theta),
                 folded_map(monge, doc.theta, doc.order), doc.warnings)


def cmd_oracle(args) -> int:
    doc = _doc(args, "sb-normal", "h-normal")
    if doc.kind == "sb-normal":
        from .oracle import skbk_classify
        coeffs = doc.to_sb_coeffs()
        formula = skbk_classify(coeffs)
    else:
        from .oracle import h2_check
        coeffs = doc.to_h_coeffs()
        formula = h2_check(coeffs)
    return _dual(args, doc.kind, (formula, {}), coeffs.to_map_jet(doc.order),
                 doc.warnings)


def cmd_fuzz(args) -> int:
    cfg = FuzzConfig(seed=args.seed, trials=args.trials,
                     bound=args.bound, degree=args.degree)
    results = run_invariance(cfg, normal_forms())
    total_ok = sum(r["ok"] for r in results.values())
    total = sum(r["trials"] for r in results.values())
    if args.json:
        print(json.dumps({"results": results, "ok": total_ok, "trials": total},
                         indent=2))
    else:
        for name, r in results.items():
            print("%s %s: %d/%d invariant" % (name, r["base"], r["ok"], r["trials"]))
            for k, got in r["failures"]:
                print("  trial %d -> %s" % (k, got))
        print("total: %d/%d invariant" % (total_ok, total))
    return 0 if total_ok == total else 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="germclass",
        description="Classify corank-1 surface map-germ singularities up to codimension two.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, dual=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="input document")
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        if not dual:
            p.add_argument("--verify", action="store_true",
                           help="recompute every invariant from the stored normalized germ")
        p.set_defaults(fn=fn)
        return p

    add("classify", cmd_classify, "classify a [map] document")
    add("ruled", cmd_ruled, "ruled surface: formula conditions vs generic classifier",
        dual=True)
    add("center", cmd_center, "center map: formula conditions vs generic classifier",
        dual=True)
    add("folded", cmd_folded, "folded surface: formula conditions vs generic classifier",
        dual=True)
    add("oracle", cmd_oracle, "normal-form coefficient oracle vs generic classifier",
        dual=True)

    fz = sub.add_parser("fuzz", help="A-equivalence invariance fuzzing on the model germs")
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--trials", type=int, default=100)
    fz.add_argument("--degree", type=int, default=3)
    fz.add_argument("--bound", type=int, default=9)
    fz.add_argument("--json", action="store_true")
    fz.set_defaults(fn=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    """Run one command; its stdout is written only if it ends without an error."""
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.fn(args)
    except (GermError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
