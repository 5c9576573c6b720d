"""Closed-form singularity conditions for three geometric families.

Each family comes with two independent routes to a verdict:

  * a formula classifier that evaluates explicit polynomial conditions in
    the family's defining data, and
  * synthesis of the actual map-jet followed by the generic classifier.

The two routes are cross-checked against each other in the test suite;
the CLI runs both and fails loudly on disagreement.

Families:

  Ruled surfaces.  A non-cylindrical ruled surface along its striction
  curve, written in the orthonormal frame (a1, a2, a3) with a1' = a2,
  a2' = -a1 + c3 a3, a3' = -c3 a2 and curve derivative
  gamma' = gamma1 a1 + gamma3 a3.  Singular at 0 iff gamma3(0) = 0, and
  the whole classification is decided by low-order derivatives of
  gamma1, gamma3, c3 at 0.

  Euclidean center maps.  For a Monge-form surface (u, v, k + a(u,v))
  with k = -1/a02 the map c = f - (f.nu) nu to the focal center.  Cross
  caps, B2 and H2 singularities never occur on center maps; the S-branch
  conditions are polynomial in the a_ij.

  Folded surfaces.  A Monge-form surface composed with the fold
  (x,y,z) -> (x,y^2,z) conjugated by a rotation of angle theta around
  the z-axis, reduced to (u, v^2, f3).  The Hessian entries h11, h22 of
  the fold's phi function and the branch discriminants r_s, r_b are
  polynomials in (cos theta, sin theta); theta enters only through that
  pair, an exact rational point on the unit circle.  An angle given as a
  float is read as such a point within a few ulps (see `_theta_pair`),
  and both routes work on that one point.

Sign conventions (resolved against the generic classifier, see the
generated SIGN_CONVENTIONS.md): S1_PLUS corresponds to a negative phi
Hessian determinant throughout; for ruled surfaces that determinant is a
positive multiple of gamma3''(0)(2 c3(0) gamma1(0) - gamma3''(0)), and for
center maps of a03 a21 - a12^2.  A B2 verdict carries the sign of the
criterion value V, which for ruled surfaces equals b/gamma1(0)^2 for the
polynomial b below (the sign therefore follows b), and for folded surfaces
equals -4 r_b (the sign follows -r_b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .classify import Classification, Verdict
from .errors import PreconditionError
from .jets import (Jet2, MapJet, PolyMap2, compose2, det3,
                   from_divided_coeffs, invsqrt_series, to_divided_coeff)
from .scalars import EXACT

Vec3 = tuple


def _univariate(jet: Jet2, name: str) -> Jet2:
    if any(i for (i, _), _ in jet.items()):
        raise PreconditionError("%s must be a jet in v only" % name)
    return jet


def integrate_v(jet: Jet2, cap: int) -> Jet2:
    out = {(0, j + 1): c / (j + 1) for (_, j), c in jet.items()}
    return Jet2(min(cap, jet.order + 1), out)


@dataclass(frozen=True)
class RuledData:
    """Striction-frame data of a non-cylindrical ruled surface, singular at 0."""

    gamma1: Jet2
    gamma3: Jet2
    c3: Jet2

    def __post_init__(self):
        for name in ("gamma1", "gamma3", "c3"):
            _univariate(getattr(self, name), name)
        if not EXACT.is_zero(self.gamma3.at0()):
            raise PreconditionError("gamma3(0) must vanish (origin not singular otherwise)")

    @property
    def order(self) -> int:
        return min(self.gamma1.order, self.gamma3.order, self.c3.order)


def ruled_frame(c3: Jet2, order: int | None = None):
    """Power-series solution of the rotating frame ODE with a_i(0) = e_i.

    a1' = a2, a2' = -a1 + c3 a3, a3' = -c3 a2, solved by coefficient
    recursion; the skew-symmetry of the system leaves the frame orthonormal
    identically in v, which the tests assert termwise.
    """
    _univariate(c3, "c3")
    n = c3.order + 1 if order is None else order
    zero, one = Fraction(0), Fraction(1)
    c = [c3.coeff(0, m) if m <= c3.order else zero for m in range(n)]
    a1 = [(one, zero, zero)]
    a2 = [(zero, one, zero)]
    a3 = [(zero, zero, one)]
    for k in range(n):
        conv_a3 = [sum(c[m] * a3[k - m][i] for m in range(k + 1)) for i in range(3)]
        conv_a2 = [sum(c[m] * a2[k - m][i] for m in range(k + 1)) for i in range(3)]
        a1.append(tuple(a2[k][i] / (k + 1) for i in range(3)))
        a2.append(tuple((-a1[k][i] + conv_a3[i]) / (k + 1) for i in range(3)))
        a3.append(tuple(-conv_a2[i] / (k + 1) for i in range(3)))
    def pack(rows):
        return tuple(Jet2(n, {(0, k): rows[k][i] for k in range(n + 1)})
                     for i in range(3))
    return pack(a1), pack(a2), pack(a3)


def ruled_map(d: RuledData) -> MapJet:
    """The ruled surface gamma(v) + (u - G1(v)) a1(v) as a map-jet.

    Components are taken in the frozen basis {a1(0), a2(0), a3(0)}, which
    is the coordinate basis of the frame computation, so no change of
    basis is needed and the entries stay small.
    """
    n = d.order
    a1, _, a3 = ruled_frame(d.c3, n)
    gamma_prime = tuple(d.gamma1 * a1[i] + d.gamma3 * a3[i] for i in range(3))
    gamma = tuple(integrate_v(gp, n) for gp in gamma_prime)
    g1 = integrate_v(d.gamma1, n)
    u = Jet2.variable("u", n)
    comps = tuple(gamma[i] + (u - g1) * a1[i] for i in range(3))
    return MapJet.germ(*comps)


def ruled_b_polynomial(g1, g1p, g1pp, g3pp, g3ppp, g3pppp, c3p, c3pp):
    return (-20 * c3p ** 2 * g1 ** 4
            + (-12 * c3pp * g3pp + 20 * c3p * g3ppp) * g1 ** 3
            + (-28 * c3p * g1p * g3pp - 5 * g3ppp ** 2 - 24 * g3pp ** 2
               + 3 * g3pp * g3pppp) * g1 ** 2
            + 2 * g3pp * (5 * g1p * g3ppp - 3 * g1pp * g3pp) * g1
            - 5 * g1p ** 2 * g3pp ** 2 - 3 * g3pp ** 4)


def ruled_h_polynomial(g1p, g1pp, g1ppp, g3pp, g3ppp, g3pppp, c3v, c3p):
    return (24 * c3p * g3pp ** 3
            + (c3v * g3ppp + 3 * (5 * c3v ** 2 + 12) * g1p + 4 * g1ppp) * g3pp ** 2
            + (-4 * g1p * g3pppp - 5 * g1pp * g3ppp + 21 * c3v * g1p * g1pp
               + 24 * c3p * g1p ** 2) * g3pp
            + 5 * g1p * (g3ppp ** 2 - 4 * c3v * g1p * g3ppp + 3 * c3v ** 2 * g1p ** 2))


def ruled_classify_formulas(d: RuledData):
    """Evaluate the ruled-surface conditions in order; first match wins."""
    g1 = to_divided_coeff(d.gamma1, 0, 0)
    g1p = to_divided_coeff(d.gamma1, 0, 1)
    g1pp = to_divided_coeff(d.gamma1, 0, 2)
    g1ppp = to_divided_coeff(d.gamma1, 0, 3)
    g3p = to_divided_coeff(d.gamma3, 0, 1)
    g3pp = to_divided_coeff(d.gamma3, 0, 2)
    g3ppp = to_divided_coeff(d.gamma3, 0, 3)
    g3pppp = to_divided_coeff(d.gamma3, 0, 4)
    c3v = to_divided_coeff(d.c3, 0, 0)
    c3p = to_divided_coeff(d.c3, 0, 1)
    c3pp = to_divided_coeff(d.c3, 0, 2)
    # Second Hessian entry of phi, divided by gamma1(0): vanishes exactly on
    # the B branch (equivalent to the B condition c3 = gamma3''/(2 gamma1)).
    hess2 = -2 * c3v * g1 + g3pp
    inv = {"gamma3_d1": g3p, "gamma3_d2": g3pp, "gamma3_d3": g3ppp,
           "gamma1_0": g1, "c3_0": c3v, "hess_entry2": hess2}

    if not EXACT.is_zero(g3p):
        return Classification(Verdict.WHITNEY_UMBRELLA), inv
    if not EXACT.is_zero(g1) and not EXACT.is_zero(g3pp) and not EXACT.is_zero(hess2):
        # det hess phi is a positive multiple of gamma3''(2 c3 gamma1 - gamma3'')
        # (= -gamma3'' * hess2; established against the generic classifier),
        # and a negative Hessian determinant is S1+.
        q = g3pp * (2 * c3v * g1 - g3pp)
        inv["s1_disc"] = q
        verdict = Verdict.S1_PLUS if EXACT.sign(q) < 0 else Verdict.S1_MINUS
        return Classification(verdict), inv
    if EXACT.is_zero(g3pp) and not EXACT.is_zero(c3v * g1 * g3ppp):
        inv["s2_value"] = c3v * g1 * g3ppp
        return Classification(Verdict.S2), inv
    if (not EXACT.is_zero(g1) and EXACT.is_zero(hess2) and not EXACT.is_zero(g3pp)):
        b = ruled_b_polynomial(g1, g1p, g1pp, g3pp, g3ppp, g3pppp, c3p, c3pp)
        inv["b_poly"] = b
        sb = EXACT.sign(b)
        if sb > 0:
            return Classification(Verdict.B2_PLUS), inv
        if sb < 0:
            return Classification(Verdict.B2_MINUS), inv
        return Classification(Verdict.MORE_DEGENERATE, "B-type with b = 0"), inv
    if EXACT.is_zero(g1) and not EXACT.is_zero(g3pp):
        h = ruled_h_polynomial(g1p, g1pp, g1ppp, g3pp, g3ppp, g3pppp, c3v, c3p)
        inv["h_poly"] = h
        if not EXACT.is_zero(h):
            return Classification(Verdict.H2), inv
        return Classification(Verdict.MORE_DEGENERATE, "H-type with h = 0"), inv
    return Classification(Verdict.MORE_DEGENERATE, "no ruled-surface condition matched"), inv


@dataclass(frozen=True)
class MongeCoeffs:
    """Divided Monge coefficients a_ij, 2 <= i+j <= 6, with a11 = 0."""

    a: dict

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.a.items():
            if not 2 <= i + j <= 6:
                raise PreconditionError("Monge index (%d,%d) outside degree 2..6" % (i, j))
            c = Fraction(c)
            if c:
                clean[(i, j)] = c
        if clean.get((1, 1)):
            raise PreconditionError("Monge form requires a11 = 0 (principal directions)")
        object.__setattr__(self, "a", clean)

    def a_(self, i, j) -> Fraction:
        return self.a.get((i, j), Fraction(0))

    def jet(self, order: int) -> Jet2:
        return from_divided_coeffs(self.a, order)


def _require_center(m: MongeCoeffs):
    if m.a_(0, 2) == 0:
        raise PreconditionError("center map needs a02 != 0")
    if m.a_(2, 0) == m.a_(0, 2):
        raise PreconditionError("center map needs a20 != a02 (non-umbilic)")


def center_map(m: MongeCoeffs, order: int = 6) -> MapJet:
    """c = f - (f.nu) nu for f = (u, v, k + a), k = -1/a02, as a germ at 0.

    The Monge polynomial is exact data, so it is expanded one order above
    the requested output order and everything is truncated at the end; the
    normalization radicand 1 + a_u^2 + a_v^2 has constant term exactly 1,
    keeping the whole computation rational.
    """
    _require_center(m)
    n = order + 1
    a = m.jet(n)
    k = -1 / m.a_(0, 2)
    u = Jet2.variable("u", n)
    v = Jet2.variable("v", n)
    au = a.partial_u()
    av = a.partial_v()
    w = invsqrt_series(Jet2.const(1, n - 1) + au * au + av * av)
    nu = (-(au * w), -(av * w), w)
    f = (u, v, a + k)
    rho = f[0] * nu[0] + f[1] * nu[1] + f[2] * nu[2]
    c = tuple(f[i] - rho * nu[i] for i in range(3))
    if not EXACT.is_zero_vec(tuple(ci.at0() for ci in c)):
        raise PreconditionError("center map does not fix the origin (internal error)")
    cm = MapJet.germ(*(ci.truncate(order) for ci in c))
    cu0 = cm.partial_u().at0()
    cuv0 = cm.partial_u().partial_v().at0()
    cvv0 = cm.partial_v().partial_v().at0()
    if not EXACT.is_zero(det3((cu0, cvv0, cuv0))):
        raise PreconditionError("center map lost det(c_u, c_vv, c_uv)(0) = 0 (internal error)")
    return cm


def center_s2_polynomial(m: MongeCoeffs) -> Fraction:
    a02, a20 = m.a_(0, 2), m.a_(2, 0)
    a03, a04 = m.a_(0, 3), m.a_(0, 4)
    a12, a13 = m.a_(1, 2), m.a_(1, 3)
    a22, a31 = m.a_(2, 2), m.a_(3, 1)
    return (3 * a02 ** 3 * a12 ** 3 - a04 * a12 ** 3
            + 3 * a12 ** 2 * a13 * a03
            + (3 * a02 * a12 * a20 ** 2 - 3 * a12 * a22) * a03 ** 2
            + a31 * a03 ** 3)


def center_classify_formulas(m: MongeCoeffs):
    """S1/S2/MoreDegenerate for a center map; cross caps, B2, H2 never occur."""
    _require_center(m)
    a03 = m.a_(0, 3)
    a12 = m.a_(1, 2)
    a21 = m.a_(2, 1)
    inv = {"a03": a03}
    if a03 != 0:
        disc = -a12 ** 2 + a03 * a21
        inv["s1_disc"] = disc
        if disc != 0:
            # det hess phi = 3 a03^2 (a02-a20)^2 disc / a02^4: sign follows disc,
            # and a negative Hessian determinant is S1+.
            verdict = Verdict.S1_MINUS if disc > 0 else Verdict.S1_PLUS
            return Classification(verdict), inv
        s = center_s2_polynomial(m)
        inv["s2_poly"] = s
        if s != 0:
            return Classification(Verdict.S2), inv
        return Classification(Verdict.MORE_DEGENERATE, "S-type center map with s = 0"), inv
    return (Classification(Verdict.MORE_DEGENERATE,
                           "a03 = 0: H branch, where center maps are never H2"),
            inv)


def _convergent_within(x: Fraction, tol: Fraction) -> Fraction:
    """The first continued-fraction convergent of x within tol of x."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    rest = x
    while True:
        a = math.floor(rest)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if abs(x - Fraction(p1, q1)) <= tol:
            return Fraction(p1, q1)
        rest = 1 / (rest - a)


def _theta_pair(theta):
    """(cos, sin) of the fold angle as an exact rational point on the unit circle.

    An exact (cos, sin) pair is checked and returned.  A float angle is
    reduced to |r| <= pi/2 by k half turns, and t = tan(r/2) is read as its
    first continued-fraction convergent q within a few ulps, enough to
    cover the rounding of theta itself and of tan; the point is
    ((1 - q^2)/(1 + q^2), 2q/(1 + q^2)), negated for odd k.  So the float
    nearest to the angle of a rational point with small denominators, such
    as atan2(4, 3) for (3/5, 4/5), gives that point back exactly.  A float
    that is not finite, is 2^33 or more in magnitude, or is nonzero and
    below 2^-64 in magnitude, is rejected.
    """
    if isinstance(theta, tuple):
        c, s = Fraction(theta[0]), Fraction(theta[1])
        if c * c + s * s != 1:
            raise PreconditionError("(cos, sin) pair is not on the unit circle")
        return c, s
    theta = float(theta)
    # past 2^33 the spacing of floats exceeds 2^-20 rad: no angle is left
    if not abs(theta) < 2 ** 33:
        raise PreconditionError("fold angle must be finite and below 2^33 in"
                                " magnitude, got %r" % theta)
    # below 2^-64 the convergent's denominators outgrow a printable certificate
    if theta and abs(theta) < 2 ** -64:
        raise PreconditionError("a nonzero fold angle must be at least 2^-64 in magnitude,"
                                " got %r; give an exact point as theta_cos, theta_sin" % theta)
    k = round(theta / math.pi)
    t = math.tan((theta - k * math.pi) / 2)
    q = _convergent_within(Fraction(t), Fraction(4 * (math.ulp(theta) + math.ulp(t))))
    c, s = (1 - q * q) / (1 + q * q), 2 * q / (1 + q * q)
    return (-c, -s) if k % 2 else (c, s)


def folded_map(m: MongeCoeffs, theta=(1, 0), order: int = 6) -> MapJet:
    """The fold of the Monge surface across the plane at angle theta.

    Reduced form (u, v^2, f3) with f3(u,v) = a(u c + v s, v c - u s); the
    trailing target rotation of the fold is dropped as a target
    diffeomorphism.  (c, s) is the exact point `_theta_pair` reads theta as.
    """
    c, s = _theta_pair(theta)
    n = order + 1
    a = m.jet(n)
    rot = PolyMap2(Jet2(n, {(1, 0): c, (0, 1): s}),
                   Jet2(n, {(1, 0): -s, (0, 1): c}))
    f3 = compose2(a, rot).truncate(order)
    u = Jet2.variable("u", order)
    v = Jet2.variable("v", order)
    return MapJet.germ(u, v * v, f3)


def folded_invariants(m: MongeCoeffs, theta=(1, 0)):
    """(h11, h22, r_s, r_b) at theta.

    h11, h22 are the diagonal phi-Hessian entries of the folded germ (up
    to the constant factor 2); r_s is the S2 discriminant when h11 = 0,
    r_b the B2 discriminant when h22 = 0.  Derived for umbilic input or
    theta = 0, where the fold's 2-jet has no uv cross term.
    """
    c, s = _theta_pair(theta)
    a = m.a_
    h11 = (-a(2, 1) * c ** 3 + (2 * a(1, 2) - a(3, 0)) * c ** 2 * s
           - (a(0, 3) - 2 * a(2, 1)) * c * s ** 2 - a(1, 2) * s ** 3)
    h22 = (a(0, 3) * c ** 3 + 3 * a(1, 2) * c ** 2 * s
           + 3 * a(2, 1) * c * s ** 2 + a(3, 0) * s ** 3)
    r_s = (-a(3, 1) * c ** 4 + (3 * a(2, 2) - a(4, 0)) * c ** 3 * s
           + 3 * (-a(1, 3) + a(3, 1)) * c ** 2 * s ** 2
           + (a(0, 4) - 3 * a(2, 2)) * c * s ** 3 + a(1, 3) * s ** 4)
    r_b = ((5 * a(1, 3) ** 2 - 3 * a(0, 5) * a(2, 1)) * c ** 8
           + (6 * a(0, 5) * a(1, 2) - 10 * a(0, 4) * a(1, 3) - 15 * a(1, 4) * a(2, 1)
              + 30 * a(1, 3) * a(2, 2) - 3 * a(0, 5) * a(3, 0)) * c ** 7 * s
           + (5 * a(0, 4) ** 2 - 3 * a(0, 3) * a(0, 5) - 30 * a(1, 3) ** 2
              + 30 * a(1, 2) * a(1, 4) + 6 * a(0, 5) * a(2, 1) - 30 * a(0, 4) * a(2, 2)
              + 45 * a(2, 2) ** 2 - 30 * a(2, 1) * a(2, 3) - 15 * a(1, 4) * a(3, 0)
              + 30 * a(1, 3) * a(3, 1)) * c ** 6 * s ** 2
           + (-3 * a(0, 5) * a(1, 2)
              + 5 * (-3 * a(0, 3) * a(1, 4) + 6 * a(1, 4) * a(2, 1)
                     - 24 * a(1, 3) * a(2, 2) + 12 * a(1, 2) * a(2, 3)
                     - 6 * a(2, 3) * a(3, 0) + 6 * a(0, 4) * (a(1, 3) - a(3, 1))
                     + 18 * a(2, 2) * a(3, 1) - 6 * a(2, 1) * a(3, 2)
                     + 2 * a(1, 3) * a(4, 0))) * c ** 5 * s ** 3
           + 5 * (9 * a(1, 3) ** 2 + 6 * a(0, 4) * a(2, 2) - 18 * a(2, 2) ** 2
                  - 6 * a(0, 3) * a(2, 3) + 12 * a(2, 1) * a(2, 3)
                  - 20 * a(1, 3) * a(3, 1) + 9 * a(3, 1) ** 2
                  - 3 * a(1, 2) * (a(1, 4) - 4 * a(3, 2)) - 6 * a(3, 0) * a(3, 2)
                  - 2 * a(0, 4) * a(4, 0) + 6 * a(2, 2) * a(4, 0)
                  - 3 * a(2, 1) * a(4, 1)) * c ** 4 * s ** 4
           + (90 * a(1, 3) * a(2, 2) - 30 * a(1, 2) * a(2, 3) + 10 * a(0, 4) * a(3, 1)
              - 120 * a(2, 2) * a(3, 1) - 30 * a(0, 3) * a(3, 2) + 60 * a(2, 1) * a(3, 2)
              - 30 * a(1, 3) * a(4, 0) + 30 * a(3, 1) * a(4, 0) + 30 * a(1, 2) * a(4, 1)
              - 15 * a(3, 0) * a(4, 1) - 3 * a(2, 1) * a(5, 0)) * c ** 3 * s ** 5
           + (45 * a(2, 2) ** 2 + 30 * a(1, 3) * a(3, 1) - 30 * a(3, 1) ** 2
              - 30 * a(1, 2) * a(3, 2) - 30 * a(2, 2) * a(4, 0) + 5 * a(4, 0) ** 2
              - 15 * a(0, 3) * a(4, 1) + 30 * a(2, 1) * a(4, 1) + 6 * a(1, 2) * a(5, 0)
              - 3 * a(3, 0) * a(5, 0)) * c ** 2 * s ** 6
           + (30 * a(2, 2) * a(3, 1) - 10 * a(3, 1) * a(4, 0) - 15 * a(1, 2) * a(4, 1)
              - 3 * a(0, 3) * a(5, 0) + 6 * a(2, 1) * a(5, 0)) * c * s ** 7
           + (5 * a(3, 1) ** 2 - 3 * a(1, 2) * a(5, 0)) * s ** 8)
    return h11, h22, r_s, r_b


def folded_classify_formulas(m: MongeCoeffs, theta=(1, 0)):
    """Verdict from (h11, h22, r_s, r_b); umbilic input or theta = 0 required.

    The invariants start with the exact point (theta_cos, theta_sin) the
    angle was read as, so the certificate shows the input of every verdict.
    """
    c, s = _theta_pair(theta)
    if not EXACT.is_zero(s) and m.a_(2, 0) != m.a_(0, 2):
        raise PreconditionError("folded formulas need an umbilic point or theta = 0")
    h11, h22, r_s, r_b = folded_invariants(m, (c, s))
    inv = {"theta_cos": c, "theta_sin": s, "h11": h11, "h22": h22, "r_s": r_s, "r_b": r_b}
    s11 = EXACT.sign(h11)
    s22 = EXACT.sign(h22)
    if s11 and s22:
        # phi Hessian entries are (2 h11, 2 h22); negative product is S1+.
        verdict = Verdict.S1_PLUS if s11 * s22 < 0 else Verdict.S1_MINUS
        return Classification(verdict), inv
    if not s11 and s22:
        if not EXACT.is_zero(r_s):
            return Classification(Verdict.S2), inv
        return Classification(Verdict.MORE_DEGENERATE, "fold S branch with r_s = 0"), inv
    if s11 and not s22:
        sb = EXACT.sign(-r_b)
        if sb > 0:
            return Classification(Verdict.B2_PLUS), inv
        if sb < 0:
            return Classification(Verdict.B2_MINUS), inv
        return Classification(Verdict.MORE_DEGENERATE, "fold B branch with r_b = 0"), inv
    return (Classification(Verdict.MORE_DEGENERATE, "fold phi Hessian fully degenerate"),
            inv)
