"""Generate the sign-convention report.

The S1 letter assignment and the sign correspondences of the application
formulas admit two candidate directions each; they are pinned by computing
the candidate quantities on anchor inputs and checking which direction
reproduces the defining normal forms.  This module re-runs those
computations and renders the result as markdown; `python -m
germclass.sign_report` prints it, and the committed SIGN_CONVENTIONS.md is
its frozen output (a test regenerates and compares).
"""

from __future__ import annotations

from fractions import Fraction

from .applications import (MongeCoeffs, RuledData, center_classify_formulas,
                           center_map, folded_classify_formulas, folded_map,
                           ruled_classify_formulas, ruled_map)
from .classify import classify, normal_forms
from .jets import Jet2
from .scalars import fmt_scalar


def _hessian_of(name: str):
    """(xi^2 phi, eta^2 phi)(0) of a normal form, as its certificate records them."""
    invariants = classify(normal_forms()[name])[1].invariants
    return invariants["xi2phi"], invariants["eta2phi"]


def _uni(table, order=6):
    return Jet2(order, {(0, j): Fraction(v) for j, v in table.items()})


def generate() -> str:
    lines = ["# Sign conventions", ""]
    lines.append("Generated by `python -m germclass.sign_report`. "
                 "Every value below is recomputed from the library when the "
                 "report is regenerated.")
    lines.append("")

    lines.append("## S1 letter from the phi Hessian")
    lines.append("")
    rows = []
    for name in ("S1+", "S1-"):
        a, c = _hessian_of(name)
        rows.append((name, a, c, a * c))
    for name, a, c, det in rows:
        lines.append("* `%s` normal form: xi^2 phi(0) = %s, eta^2 phi(0) = %s, "
                     "det hess phi(0) = %s" % (name, fmt_scalar(a), fmt_scalar(c),
                                               fmt_scalar(det)))
    lines.append("")
    lines.append("Wiring: **det hess phi(0) < 0 -> S1+**, > 0 -> S1-. "
                 "(The normal forms define the letters; any convention "
                 "assigning S1- to a negative Hessian determinant contradicts "
                 "the values above.)")
    lines.append("")

    lines.append("## Ruled surfaces")
    lines.append("")
    d = RuledData(_uni({0: 1}), _uni({2: 1}), _uni({0: -3}))  # gamma3'' = 2, c3 = -3
    generic = classify(ruled_map(d))[0]
    formula, inv = ruled_classify_formulas(d)
    lines.append("* S1 direction: for gamma1 = 1, gamma3 = v^2, c3 = -3 the "
                 "quantity gamma3''(0)(2 c3(0) gamma1(0) - gamma3''(0)) = %s and the "
                 "generic classifier returns %s (formula route: %s)."
                 % (fmt_scalar(inv["s1_disc"]), generic, formula))
    lines.append("  Wiring: **gamma3''(0)(2 c3(0) gamma1(0) - gamma3''(0)) < 0 -> S1+** "
                 "(this is det hess phi up to a positive factor; the candidate "
                 "with the opposite c3 sign, gamma3''(2 c3 gamma1 + gamma3''), has a "
                 "different vanishing locus and is contradicted by the generic "
                 "classifier at gamma3'' = -2 c3 gamma1).")
    d = RuledData(_uni({0: 1, 1: 1}), _uni({2: 1, 3: 1}), _uni({0: 1}))
    generic, cert = classify(ruled_map(d))
    formula, inv = ruled_classify_formulas(d)
    lines.append("* B2 direction: for gamma1 = 1 + v, gamma3 = v^2 + v^3, c3 = 1 "
                 "the polynomial b = %s, the criterion value V = %s, and both routes "
                 "return %s." % (fmt_scalar(inv["b_poly"]),
                                 fmt_scalar(cert.invariants["b2_value"]), generic))
    lines.append("  Wiring: **sign(B2) = sign(b)** (V equals b / gamma1(0)^2; "
                 "attaching the letter to -b instead would contradict that "
                 "identity and the classifier).")
    lines.append("")

    lines.append("## Center maps")
    lines.append("")
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 1, (2, 1): 1})
    generic = classify(center_map(m))[0]
    formula, inv = center_classify_formulas(m)
    lines.append("* S1 direction: for a02=1, a20=2, a03=1, a21=1 the discriminant "
                 "a03 a21 - a12^2 = %s and both routes return %s."
                 % (fmt_scalar(inv["s1_disc"]), generic))
    lines.append("  Wiring: **a03 a21 - a12^2 > 0 -> S1-** (det hess phi is a "
                 "positive multiple of the discriminant, and a positive Hessian "
                 "determinant is S1-).")
    lines.append("")

    lines.append("## Folded surfaces")
    lines.append("")
    c, s = Fraction(3, 5), Fraction(4, 5)
    a12, a21, a30 = Fraction(1), Fraction(2), Fraction(3)
    a03 = -(3 * a12 * c * c * s + 3 * a21 * c * s * s + a30 * s ** 3) / c ** 3
    m = MongeCoeffs({(0, 2): 1, (2, 0): 1, (0, 3): a03, (1, 2): a12, (2, 1): a21,
                     (3, 0): a30, (0, 5): 2})
    generic, cert = classify(folded_map(m, (c, s)))
    formula, inv = folded_classify_formulas(m, (c, s))
    lines.append("* B2 direction at (cos, sin) = (3/5, 4/5) with h22 = 0: "
                 "r_b = %s, V = %s, both routes return %s."
                 % (fmt_scalar(inv["r_b"]), fmt_scalar(cert.invariants["b2_value"]),
                    generic))
    lines.append("  Wiring: **sign(B2) = sign(-r_b)** (V = -4 r_b).")
    lines.append("* S1 direction: the fold's phi Hessian entries are "
                 "(2 h11, 2 h22), so **h11 h22 < 0 -> S1+**.")
    lines.append("")
    return "\n".join(lines) + ""


def main() -> int:
    print(generate(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
