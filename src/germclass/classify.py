"""The recognition decision tree, with an auditable certificate.

A corank-1 germ is sorted by its 2-jet into the SB branch (cross-cap-like,
f_u x f_vv != 0 at 0) or the HP branch (f_u x f_vv = 0, f_u x f_uv != 0),
then refined by determinant criteria evaluated against progressively
better adapted frames:

  SB:  Whitney umbrella by det(f_u, f_vv, f_uv)(0) != 0; otherwise the
       Hessian of phi = det(xi f, eta f, eta^2 f) on an SB-2 pair is
       diagonal, and its entries A = xi^2 phi(0), C = eta^2 phi(0) split
       S1 (both nonzero), the S branch (A = 0) and the B branch (C = 0).
  S:   S2 iff det(xi f, xi^3 eta f, eta^2 f)(0) != 0 on an S-3 pair.
  B:   B2 iff V = -5 det(xi f, eta^2 f, eta^3 xi f)(0)^2
             + 3 det(xi f, eta^2 f, eta xi^2 f)(0) det(xi f, eta^2 f, eta^5 f)(0)
       is nonzero on a B-3 pair; the sign of V is the sign of the B2.
  HP:  H-type iff det(xi f, xi eta f, eta^3 f)(0) != 0 on an H-2 pair,
       then H2 iff det(xi f, eta^5 f, eta^3 f)(0) != 0 on an H-4 pair.

Sign convention for S1 (pinned by the generated sign-convention report):
the diagonal Hessian product A*C is -48 on (u, v^2, v(u^2+v^2)) and +48
on (u, v^2, v(-u^2+v^2)), so A*C < 0 wires to S1+ and A*C > 0 to S1-.

Every branch decision and every determinant is recorded in a Certificate
together with the frame parameters and the normalizing linear map, so a
verdict can be re-derived mechanically from the stored normalized germ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import GermError, OrderExhaustedError, PreconditionError
from .frames import (b3_adapt, h2_adapt, h4_adapt, linear_normalize,
                     rank_df0, s3_adapt, sb2_adapt)
from .jets import Jet2, MapJet, cross3, det3, det3_jet
from .scalars import Scalar, fmt_scalar
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
    mode: str
    order: int
    trace: list = field(default_factory=list)
    invariants: dict = field(default_factory=dict)
    frame: dict = field(default_factory=dict)
    normalization: tuple | None = None
    normalized: MapJet | None = None

    def note(self, name: str, value) -> None:
        self.trace.append((name, value if isinstance(value, str) else fmt_scalar(value)))

    def record(self, name: str, value: Scalar) -> None:
        self.invariants[name] = value
        self.note(name, value)

    def to_json_obj(self, classification: Classification) -> dict:
        obj = {
            "verdict": classification.verdict.value,
            "reason": classification.reason,
            "mode": self.mode,
            "order": self.order,
            "trace": [[name, value] for name, value in self.trace],
            "invariants": {k: fmt_scalar(v) for k, v in self.invariants.items()},
            "frame": {k: fmt_scalar(v) for k, v in self.frame.items()},
        }
        if self.normalization is not None:
            obj["normalization"] = [[fmt_scalar(x) for x in row] for row in self.normalization]
        if self.normalized is not None:
            obj["normalized_germ"] = {
                "f%d" % (k + 1): {"%d,%d" % ij: fmt_scalar(c) for ij, c in comp.coeffs.items()}
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
    return det3_jet(xif, etaf, eta2f)


def second_derivatives_phi(f: MapJet, pair: FramePair):
    """(xi^2 phi, xi eta phi, eta xi phi, eta^2 phi) at 0.

    Applied as vector fields to the jet phi -- the fields have non-constant
    coefficients, so these are not second partials of phi's coefficients.
    """
    p = phi(f, pair)
    xi_p = apply_to_jet(pair.xi, p, "xi phi")
    eta_p = apply_to_jet(pair.eta, p, "eta phi")
    return (apply_to_jet(pair.xi, xi_p, "xi^2 phi").at0(),
            apply_to_jet(pair.xi, eta_p, "xi eta phi").at0(),
            apply_to_jet(pair.eta, xi_p, "eta xi phi").at0(),
            apply_to_jet(pair.eta, eta_p, "eta^2 phi").at0())


def classify(f: MapJet):
    """Classify a map-germ; returns (Classification, Certificate)."""
    ctx = f.zero_ctx()
    if f.order < 5:
        raise OrderExhaustedError("classification needs a jet of order >= 5")
    if not all(ctx.is_zero(c) for c in f.at0()):
        raise PreconditionError("classify expects a germ sending the origin to the origin")
    cert = Certificate(mode="exact" if ctx.exact else "float", order=f.order)
    if not ctx.exact:
        # float decisions are |x| < eps * max(1, scale); record the margin base
        cert.note("zero_threshold", ctx.eps * max(1.0, ctx.scale))

    rank = rank_df0(f, ctx)
    cert.note("rank_df0", str(rank))
    if rank == 2:
        return Classification(Verdict.REGULAR), cert
    if rank == 0:
        return Classification(Verdict.CORANK2), cert

    g, L = linear_normalize(f)
    cert.normalization = L.linear_matrix()
    cert.normalized = g

    gu = g.partial_u()
    gv = g.partial_v()
    gu0 = gu.at0()
    gvv0 = gv.partial_v().at0()
    guv0 = gu.partial_v().at0()
    sb_cross = cross3(gu0, gvv0)
    sb_type = not ctx.is_zero_vec(sb_cross)
    cert.note("sb_type", str(sb_type))

    if sb_type:
        return _classify_sb(g, ctx, cert, gu0, gvv0, guv0)

    hp_cross = cross3(gu0, guv0)
    hp_type = not ctx.is_zero_vec(hp_cross)
    cert.note("hp_type", str(hp_type))
    if hp_type:
        return _classify_hp(g, ctx, cert)

    return (Classification(Verdict.MORE_DEGENERATE, "2-jet equivalent to (u,0,0)"),
            cert)


def _classify_sb(g, ctx, cert, gu0, gvv0, guv0):
    whitney_det = det3((gu0, gvv0, guv0))
    cert.record("whitney_det", whitney_det)
    if not ctx.is_zero(whitney_det):
        return Classification(Verdict.WHITNEY_UMBRELLA), cert

    build = sb2_adapt(g)
    cert.frame.update(build.params)
    pair = build.pair
    A, m1, m2, C = second_derivatives_phi(g, pair)
    cert.record("xi2phi", A)
    cert.record("hess_mixed_xi_eta", m1)
    cert.record("hess_mixed_eta_xi", m2)
    cert.record("eta2phi", C)
    if ctx.exact and (m1 != 0 or m2 != 0):
        raise GermError("mixed phi Hessian entries must vanish on an SB-2 pair")

    sA = ctx.sign(A)
    sC = ctx.sign(C)
    if sA and sC:
        # A*C = det hess phi(0); -48 on the S1+ normal form fixes the wiring.
        verdict = Verdict.S1_PLUS if sA * sC < 0 else Verdict.S1_MINUS
        return Classification(verdict), cert

    if not sA and sC:
        s3 = s3_adapt(g)
        cert.frame.update(s3.params)
        words = s3.words
        s2_det = det3((words.at0("x"), words.at0("xxxe"), words.at0("ee")))
        cert.record("s2_det", s2_det)
        if not ctx.is_zero(s2_det):
            return Classification(Verdict.S2), cert
        return (Classification(Verdict.MORE_DEGENERATE,
                               "S-type with vanishing S2 determinant (S3 or beyond)"),
                cert)

    if sA and not sC:
        b3 = b3_adapt(g)
        cert.frame.update(b3.params)
        words = b3.words
        # det(xi f, eta^2 f, w f)(0) for the three criterion words w
        d1, d2, d3 = (det3((words.at0("x"), words.at0("ee"), words.at0(w)))
                      for w in ("eeex", "exx", "eeeee"))
        cert.record("b2_det_eta3xi", d1)
        cert.record("b2_det_etaxi2", d2)
        cert.record("b2_det_eta5", d3)
        V = -5 * d1 * d1 + 3 * d2 * d3
        cert.record("b2_value", V)
        sV = ctx.sign(V)
        if sV > 0:
            return Classification(Verdict.B2_PLUS), cert
        if sV < 0:
            return Classification(Verdict.B2_MINUS), cert
        return (Classification(Verdict.MORE_DEGENERATE,
                               "B-type with vanishing B2 discriminant (B3 or beyond)"),
                cert)

    return (Classification(Verdict.MORE_DEGENERATE,
                           "SB-type with fully degenerate phi Hessian"),
            cert)


def _classify_hp(g, ctx, cert):
    h2 = h2_adapt(g)
    cert.frame.update(h2.params)
    words = h2.words
    h_type_det = det3((words.at0("x"), words.at0("xe"), words.at0("eee")))
    cert.record("h_type_det", h_type_det)
    if ctx.is_zero(h_type_det):
        return Classification(Verdict.MORE_DEGENERATE, "P-type or worse"), cert

    h4 = h4_adapt(g)
    cert.frame.update(h4.params)
    words = h4.words
    h2_det = det3((words.at0("x"), words.at0("eeeee"), words.at0("eee")))
    cert.record("h2_det", h2_det)
    if not ctx.is_zero(h2_det):
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
