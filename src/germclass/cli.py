"""Command-line frontend emitting machine-readable classification certificates.

Commands take a document file (see `docparse`) and compute their output:
the certificate's verdict, the branch trace, every evaluated invariant,
the frame parameters and the normalizing linear map, as text lines, or
under `--json` as one JSON object with stable key names that also lists
the normalized germ.  Every scalar is exact and prints as `p/q`, so output
is bit-stable for golden tests.  Parser warnings (such as a degree
overflow truncated to the document's order) are `warning:` lines, or
listed under `warnings` in JSON.  `main` prints a command's output once,
after the command returns; a command that fails prints nothing to stdout.

Exit codes: 0 definite classification, 2 MoreDegenerate, 1 input error,
3 formula/classifier disagreement (ruled, center, folded, oracle) or a
fuzz/verify failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .applications import (MongeCoeffs, RuledData, center_classify_formulas, center_map,
                           folded_classify_formulas, folded_map,
                           ruled_classify_formulas, ruled_map)
from .classify import classify, normal_forms
from .docparse import parse_doc
from .errors import GermError
from .fuzz import FuzzConfig, run_invariance
from .oracle import HNormalCoeffs, SBNormalCoeffs, h2_check, skbk_classify
from .scalars import fmt_scalar


def _cert_lines(summary, warnings):
    """The text lines of a certificate summary (`Certificate.summary`)."""
    lines = ["verdict: %s" % summary["verdict"]]
    if summary["reason"]:
        lines.append("reason: %s" % summary["reason"])
    lines += ["mode: %s" % summary["mode"], "order: %d" % summary["order"]]
    lines += ["warning: %s" % message for message in warnings]
    lines.append("trace:")
    lines += ["  %s = %s" % (name, value) for name, value in summary["trace"]]
    for section in ("invariants", "frame"):
        if summary[section]:
            lines.append(section + ":")
            lines += ["  %s = %s" % item for item in summary[section].items()]
    if "normalization" in summary:
        rows = ["[%s]" % ", ".join(row) for row in summary["normalization"]]
        lines.append("normalization: [%s]" % ", ".join(rows))
    return lines


def _exit_code(classification) -> int:
    return 0 if classification.definite else 2


def _verify(classification, cert) -> bool:
    """Re-run the classifier on the stored normalized germ and compare."""
    if cert.normalized is None:
        return True
    redone, recert = classify(cert.normalized)
    return redone.verdict == classification.verdict and recert.invariants == cert.invariants


def _doc(args, *kinds):
    """The document at args.path, which must be of one of the given kinds."""
    doc = parse_doc(_read(args.path))
    if doc.kind not in kinds:
        raise GermError("%s expects a %s document, got [%s]" % (
            args.command, " or ".join("[%s]" % kind for kind in kinds), doc.kind))
    return doc


def cmd_classify(args):
    doc = _doc(args, "map")
    classification, cert = classify(doc.to_map_jet())
    if args.json:
        output = dict(cert.to_json_obj(classification), warnings=doc.warnings)
    else:
        output = _cert_lines(cert.summary(classification), doc.warnings)
    if args.verify and not _verify(classification, cert):
        print("verify: FAILED", file=sys.stderr)
        return 3, output
    if args.verify and not args.json:
        output.append("verify: ok")
    return _exit_code(classification), output


def _dual(args, kind, formula_result, generic_input, warnings):
    formula_cls, formula_inv = formula_result
    generic_cls, cert = classify(generic_input)
    agree = formula_cls.verdict == generic_cls.verdict
    code = _exit_code(generic_cls) if agree else 3
    invariants = {k: fmt_scalar(v) for k, v in formula_inv.items()}
    if args.json:
        return code, {
            "kind": kind,
            "formula": {
                "verdict": formula_cls.verdict.value,
                "reason": formula_cls.reason,
                "invariants": invariants,
            },
            "generic": cert.to_json_obj(generic_cls),
            "agree": agree,
            "warnings": warnings,
        }
    return code, (["formula verdict: %s" % formula_cls]
                  + ["  %s = %s" % item for item in invariants.items()]
                  + ["generic verdict: %s" % generic_cls]
                  + _cert_lines(cert.summary(generic_cls), warnings)
                  + ["agreement: %s" % ("yes" if agree else "NO")])


def cmd_ruled(args):
    doc = _doc(args, "ruled")
    data = RuledData(doc.jets["gamma1"], doc.jets["gamma3"], doc.jets["c3"])
    return _dual(args, "ruled", ruled_classify_formulas(data), ruled_map(data),
                 doc.warnings)


def cmd_center(args):
    doc = _doc(args, "center")
    monge = MongeCoeffs(doc.coeffs["a"])
    return _dual(args, "center", center_classify_formulas(monge),
                 center_map(monge, doc.order), doc.warnings)


def cmd_folded(args):
    doc = _doc(args, "folded")
    monge = MongeCoeffs(doc.coeffs["a"])
    return _dual(args, "folded", folded_classify_formulas(monge, doc.theta),
                 folded_map(monge, doc.theta, doc.order), doc.warnings)


def cmd_oracle(args):
    doc = _doc(args, "sb-normal", "h-normal")
    if doc.kind == "sb-normal":
        coeffs = SBNormalCoeffs(doc.coeffs["a"], {j: c for (_, j), c in doc.coeffs["b"].items()})
        formula = skbk_classify(coeffs)
    else:
        coeffs = HNormalCoeffs(doc.coeffs["a"], doc.coeffs["b"])
        formula = h2_check(coeffs)
    return _dual(args, doc.kind, (formula, {}), coeffs.to_map_jet(doc.order),
                 doc.warnings)


def cmd_fuzz(args):
    cfg = FuzzConfig(seed=args.seed, trials=args.trials,
                     bound=args.bound, degree=args.degree)
    results = run_invariance(cfg, normal_forms())
    total_ok = sum(r["ok"] for r in results.values())
    total = sum(r["trials"] for r in results.values())
    code = 0 if total_ok == total else 3
    if args.json:
        return code, {"results": results, "ok": total_ok, "trials": total}
    lines = []
    for name, r in results.items():
        lines.append("%s %s: %d/%d invariant" % (name, r["base"], r["ok"], r["trials"]))
        lines += ["  trial %d -> %s" % (k, got) for k, got in r["failures"]]
    lines.append("total: %d/%d invariant" % (total_ok, total))
    return code, lines


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # some editors write a byte-order mark first; dropping it after
            # decoding (not by utf-8-sig) keeps a bad byte's offset in the file
            return handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as error:
        raise GermError("%s is not UTF-8 text: byte %#x at offset %d"
                        % (path, error.object[error.start], error.start))


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
    """Run one command, then print its output once; an input error prints only an `error:` line."""
    args = build_parser().parse_args(argv)
    try:
        code, output = args.fn(args)
    except (GermError, OSError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps(output, indent=2) if args.json else "\n".join(output))
    return code


if __name__ == "__main__":
    sys.exit(main())
