"""The recognition decision tree, with an auditable certificate.

A corank-1 germ is sorted by its 2-jet into the SB branch (cross-cap-like,
f_u x f_vv != 0 at 0) or the HP branch (f_u x f_vv = 0, f_u x f_uv != 0),
then refined by determinant criteria evaluated against progressively
better adapted frames:

  SB:  Whitney umbrella by det(f_u, f_vv, f_uv)(0) != 0; otherwise the
       Hessian of phi = det(xi f, eta f, eta^2 f) on an SB-2 pair is
       diagonal, and its entries A = xi^2 phi(0) = det(xi f, xi^2 eta f,
       eta^2 f)(0) and C = eta^2 phi(0) = det(xi f, eta^2 f, eta^3 f)(0)
       split S1 (both nonzero), the S branch (A = 0) and the B branch
       (C = 0).
  S:   S2 iff det(xi f, xi^3 eta f, eta^2 f)(0) != 0 on an S-3 pair.
  B:   B2 iff V = -5 det(xi f, eta^2 f, eta^3 xi f)(0)^2
             + 3 det(xi f, eta^2 f, eta xi^2 f)(0) det(xi f, eta^2 f, eta^5 f)(0)
       is nonzero on a B-3 pair; the sign of V is the sign of the B2.
  HP:  H-type iff det(xi f, xi eta f, eta^3 f)(0) != 0 on an H-2 pair,
       then H2 iff det(xi f, eta^5 f, eta^3 f)(0) != 0 on an H-4 pair.

Sign convention for S1 (pinned by the generated sign-convention report):
the diagonal Hessian product A*C is -48 on (u, v^2, v(u^2+v^2)) and +48
on (u, v^2, v(-u^2+v^2)), so A*C < 0 wires to S1+ and A*C > 0 to S1-.

Every criterion, the phi Hessian included, is a determinant of vectors at
0: partials of f, or derivative words read from the table of the frame
they belong to (`_classify_sb` derives the Hessian entries as words).
Every branch decision and every determinant is recorded in a Certificate
together with the frame parameters and the normalizing linear map, so a
verdict can be re-derived mechanically from the stored normalized germ.

The vectors at 0 arrive as integer vectors over one positive diagonal
scaling (`frames.partials0`, `Words.scaled`), so every cross test and
determinant is computed on integers; a recorded determinant is the integer
one over the read's scale, built as one `Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import GermError, OrderExhaustedError, PreconditionError
from .frames import (b3_adapt, df0_rank, h2_adapt, h4_adapt, linear_normalize,
                     partials0, s3_adapt, sb2_adapt)
from .jets import Jet2, MapJet, cross3, det3, scaled_coeffs
from .scalars import fmt_scalar, sign
from .vfields import FramePair, apply, apply_to_jet


class Verdict(Enum):
    REGULAR = "Regular"
    CORANK2 = "Corank2"
    WHITNEY_UMBRELLA = "WhitneyUmbrella"
    S1_PLUS = "S1+"
    S1_MINUS = "S1-"
    S2 = "S2"
    B2_PLUS = "B2+"
    B2_MINUS = "B2-"
    H2 = "H2"
    MORE_DEGENERATE = "MoreDegenerate"


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    reason: str | None = None

    @property
    def definite(self) -> bool:
        return self.verdict is not Verdict.MORE_DEGENERATE

    def __str__(self):
        if self.reason:
            return "%s (%s)" % (self.verdict.value, self.reason)
        return self.verdict.value


@dataclass
class Certificate:
    """Everything a verdict was decided on, as exact values.

    `trace` lists the checks in decision order, each with its value (an
    int, a bool or a `Fraction`); `invariants` and `frame` map names to
    `Fraction`s; `normalization` is the matrix of `frames.linear_normalize`'s
    L and `normalized` the germ f o L.  Nothing is formatted while
    `classify` runs: `summary` and `to_json_obj` format the values, so a
    value past Python's digit limit fails only when it is printed.
    """

    order: int
    trace: list = field(default_factory=list)
    invariants: dict = field(default_factory=dict)
    frame: dict = field(default_factory=dict)
    normalization: tuple | None = None
    normalized: MapJet | None = None

    def note(self, name: str, value) -> None:
        self.trace.append((name, value))

    def record(self, name: str, value: Fraction) -> None:
        self.invariants[name] = value
        self.note(name, value)

    def summary(self, classification: Classification) -> dict:
        """The formatted values the CLI shows in text and in JSON."""
        obj = {
            "verdict": classification.verdict.value,
            "reason": classification.reason,
            "mode": "exact",
            "order": self.order,
            "trace": [[name, fmt_scalar(value)] for name, value in self.trace],
            "invariants": {k: fmt_scalar(v) for k, v in self.invariants.items()},
            "frame": {k: fmt_scalar(v) for k, v in self.frame.items()},
        }
        if self.normalization is not None:
            obj["normalization"] = [[fmt_scalar(x) for x in row] for row in self.normalization]
        return obj

    def to_json_obj(self, classification: Classification) -> dict:
        """The summary and the normalized germ, formatted only here."""
        obj = self.summary(classification)
        if self.normalized is not None:
            obj["normalized_germ"] = {
                "f%d" % (k + 1): {"%d,%d" % ij: fmt_scalar(c) for ij, c in comp.items()}
                for k, comp in enumerate(self.normalized)
            }
        return obj


def phi(f: MapJet, pair: FramePair) -> Jet2:
    """phi(xi, eta) = det(xi f, eta f, eta^2 f), expanded as a jet."""
    if f.order < 3:
        raise OrderExhaustedError("phi needs a jet of order >= 3")
    xif = apply(pair.xi, f, "xi f")
    etaf = apply(pair.eta, f, "eta f")
    eta2f = apply(pair.eta, etaf, "eta^2 f")
    return det3((xif, etaf, eta2f))


def second_derivatives_phi(f: MapJet, pair: FramePair):
    """(xi^2 phi, xi eta phi, eta xi phi, eta^2 phi) at 0, from the jet phi.

    Applied as vector fields to the jet phi -- the fields have non-constant
    coefficients, so these are not second partials of phi's coefficients.
    They read phi only to order 2, hence f only to degree 4.  This is the
    definition; `classify` reads the same entries from the SB-2 words (see
    `_classify_sb`), and the tests compare the two.
    """
    p = phi(f.truncate(4), pair)
    xi_p = apply_to_jet(pair.xi, p, "xi phi")
    eta_p = apply_to_jet(pair.eta, p, "eta phi")
    return (apply_to_jet(pair.xi, xi_p, "xi^2 phi").at0(),
            apply_to_jet(pair.xi, eta_p, "xi eta phi").at0(),
            apply_to_jet(pair.eta, xi_p, "eta xi phi").at0(),
            apply_to_jet(pair.eta, eta_p, "eta^2 phi").at0())


def _det(words, *names):
    """det(w1 f, w2 f, w3 f)(0) on the integer vectors of one read, and its scale."""
    vectors, scale = words.scaled(*names)
    return det3(vectors), scale


def classify(f: MapJet):
    """Classify a map-germ; returns (Classification, Certificate)."""
    # f(0) and (f_u, f_v)(0) in one integer read
    (f0, fu0, fv0), _ = scaled_coeffs((f, (0, 0)), (f, (1, 0)), (f, (0, 1)))
    if any(f0):
        raise PreconditionError("classify expects a germ sending the origin to the origin")
    cert = Certificate(order=f.order)

    rank = df0_rank(fu0, fv0)
    cert.note("rank_df0", rank)
    if rank == 2:
        return Classification(Verdict.REGULAR), cert
    if rank == 0:
        return Classification(Verdict.CORANK2), cert

    g, cert.normalization = linear_normalize(f)
    cert.normalized = g

    partials, scale = partials0(g)
    gu0, gvv0, guv0 = partials
    sb_type = any(cross3(gu0, gvv0))
    cert.note("sb_type", sb_type)

    if sb_type:
        return _classify_sb(g, cert, partials, scale)

    hp_type = any(cross3(gu0, guv0))
    cert.note("hp_type", hp_type)
    if hp_type:
        return _classify_hp(g, cert)

    return (Classification(Verdict.MORE_DEGENERATE, "2-jet equivalent to (u,0,0)"),
            cert)


def _classify_sb(g, cert, partials, scale):
    """The SB branch: Whitney umbrella, then the phi Hessian on an SB-2 pair.

    The Hessian of phi = det(xi f, eta f, eta^2 f) at 0 is read from the
    SB-2 pair's words, in one read.  On any pair with eta f(0) = 0 the
    Leibniz rule over phi's columns gives, at 0 (words as in `Words`, so
    "xxe" is xi^2 eta f):
      xi^2 phi   = det(x, xxe, ee) + 2 det(xx, xe, ee) + 2 det(x, xe, xee)
      xi eta phi = det(ex, xe, ee) + det(x, xe, eee)
      eta xi phi = xi eta phi + det(x, exe - xee, ee)
      eta^2 phi  = det(x, ee, eee)
    The SB-2 pair has xe f(0) = ex f(0) = 0, and exe f - xee f =
    -[xi, eta] eta f with [xi, eta] = alpha^2 v du, which vanishes at 0.  So
    the mixed entries are 0, and A = xi^2 phi(0) = det(x, xxe, ee),
    C = eta^2 phi(0) = det(x, ee, eee).
    """
    whitney_det = det3(partials)
    cert.record("whitney_det", Fraction(whitney_det, scale))
    if whitney_det != 0:
        return Classification(Verdict.WHITNEY_UMBRELLA), cert

    build = sb2_adapt(g)
    cert.frame.update(build.params)
    (xif0, xetaf0, etaxif0, xxetaf0, eta2f0, eta3f0), scale = build.words.scaled(
        "x", "xe", "ex", "xxe", "ee", "eee")
    if any(xetaf0) or any(etaxif0):
        raise GermError("mixed phi Hessian entries must vanish on an SB-2 pair")
    A = det3((xif0, xxetaf0, eta2f0))
    C = det3((xif0, eta2f0, eta3f0))
    cert.record("xi2phi", Fraction(A, scale))
    cert.record("hess_mixed_xi_eta", Fraction(0))
    cert.record("hess_mixed_eta_xi", Fraction(0))
    cert.record("eta2phi", Fraction(C, scale))

    sA, sC = sign(A), sign(C)
    if sA and sC:
        # A*C = det hess phi(0); -48 on the S1+ normal form fixes the wiring.
        verdict = Verdict.S1_PLUS if sA * sC < 0 else Verdict.S1_MINUS
        return Classification(verdict), cert

    if not sA and sC:
        s3 = s3_adapt(g)
        cert.frame.update(s3.params)
        s2_det, scale = _det(s3.words, "x", "xxxe", "ee")
        cert.record("s2_det", Fraction(s2_det, scale))
        if s2_det != 0:
            return Classification(Verdict.S2), cert
        return (Classification(Verdict.MORE_DEGENERATE,
                               "S-type with vanishing S2 determinant (S3 or beyond)"),
                cert)

    if sA and not sC:
        b3 = b3_adapt(build)
        cert.frame.update(b3.params)
        (xif0, eta2f0, *criterion), scale = b3.words.scaled("x", "ee", "eeex", "exx", "eeeee")
        # det(xi f, eta^2 f, w f)(0) for the three criterion words w
        d1, d2, d3 = (det3((xif0, eta2f0, w)) for w in criterion)
        cert.record("b2_det_eta3xi", Fraction(d1, scale))
        cert.record("b2_det_etaxi2", Fraction(d2, scale))
        cert.record("b2_det_eta5", Fraction(d3, scale))
        V = -5 * d1 * d1 + 3 * d2 * d3
        cert.record("b2_value", Fraction(V, scale * scale))
        if V > 0:
            return Classification(Verdict.B2_PLUS), cert
        if V < 0:
            return Classification(Verdict.B2_MINUS), cert
        return (Classification(Verdict.MORE_DEGENERATE,
                               "B-type with vanishing B2 discriminant (B3 or beyond)"),
                cert)

    return (Classification(Verdict.MORE_DEGENERATE,
                           "SB-type with fully degenerate phi Hessian"),
            cert)


def _classify_hp(g, cert):
    h2 = h2_adapt(g)
    cert.frame.update(h2.params)
    h_type_det, scale = _det(h2.words, "x", "xe", "eee")
    cert.record("h_type_det", Fraction(h_type_det, scale))
    if h_type_det == 0:
        return Classification(Verdict.MORE_DEGENERATE, "P-type or worse"), cert

    h4 = h4_adapt(h2)
    cert.frame.update(h4.params)
    h2_det, scale = _det(h4.words, "x", "eeeee", "eee")
    cert.record("h2_det", Fraction(h2_det, scale))
    if h2_det != 0:
        return Classification(Verdict.H2), cert
    return (Classification(Verdict.MORE_DEGENERATE,
                           "H-type with vanishing H2 determinant (H3 or beyond)"),
            cert)


def normal_forms(order: int = 6) -> dict:
    """The model germs of every class up to codimension two."""
    u = Jet2.variable("u", order)
    v = Jet2.variable("v", order)
    return {
        "S0": MapJet(u, v * v, u * v),
        "S1+": MapJet(u, v * v, v * (u * u + v * v)),
        "S1-": MapJet(u, v * v, v * (-(u * u) + v * v)),
        "S2": MapJet(u, v * v, v * (u * u * u + v * v)),
        "B2+": MapJet(u, v * v, v * (u * u + v ** 4)),
        "B2-": MapJet(u, v * v, v * (u * u - v ** 4)),
        "H2": MapJet(u, u * v + v ** 5, v ** 3),
    }


NORMAL_FORM_VERDICTS = {
    "S0": Verdict.WHITNEY_UMBRELLA,
    "S1+": Verdict.S1_PLUS,
    "S1-": Verdict.S1_MINUS,
    "S2": Verdict.S2,
    "B2+": Verdict.B2_PLUS,
    "B2-": Verdict.B2_MINUS,
    "H2": Verdict.H2,
}
