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
  gamma1, gamma3, c3 at 0.  The map-jet gamma + (u - G1) a1, with
  G1 = int_0^v gamma1, is built as u a1 + int_0^v (gamma3 a3 - G1 a2):
  one integral per component.

  Euclidean center maps.  For a Monge-form surface (u, v, k + a(u,v))
  with k = -1/a02 the map c = f - (f.nu) nu to the focal center, built
  as c = f - (f.N) N/(N.N) with the unnormalized normal N = (-a_u, -a_v, 1):
  one geometric series for 1/(N.N), and no square root.  Cross caps, B2
  and H2 singularities never occur on center maps; the S-branch
  conditions are polynomial in the a_ij.

  Folded surfaces.  A Monge-form surface composed with the fold
  (x,y,z) -> (x,y^2,z) conjugated by a rotation of angle theta around
  the z-axis, reduced to (u, v^2, f3) with f3 = a'(u, v) =
  a(u c + v s, v c - u s), where (c, s) = (cos theta, sin theta) is an
  exact rational point on the unit circle.  When the uv coefficient
  a'11 = c s (a20 - a02) of a' vanishes (umbilic input, or theta a
  multiple of pi/2), this is the theta = 0 fold of a', and the Hessian
  entries h11, h22 of the fold's phi function and the branch
  discriminants r_s, r_b are the theta = 0 S/B conditions on the divided
  coefficients of a': (-a'21, a'03, -a'31, 5 a'13^2 - 3 a'05 a'21).  The
  formula route rotates the a_ij of degree 3..5 on integers; the map
  route composes the Monge jet with the rotation.  An angle given as a
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
from .frames import partials0
from .jets import (Jet2, MapJet, PolyMap, compose2, det3, from_divided_coeffs,
                   over_lcm, reciprocal_series, to_divided_coeff)
from .scalars import exact_table, sign

Vec3 = tuple


def _univariate(jet: Jet2, name: str) -> Jet2:
    if any(i for (i, _), _ in jet.items()):
        raise PreconditionError("%s must be a jet in v only" % name)
    return jet


def integrate_v(jet: Jet2, cap: int) -> Jet2:
    """int_0^v of a jet in v only, at order min(cap, jet.order + 1)."""
    terms = []
    for (i, j), c in jet.items():
        if i:
            raise PreconditionError("integrate_v needs a jet in v alone, got a u^%d term" % i)
        terms.append(((0, j + 1), c.numerator, c.denominator * (j + 1)))
    return Jet2.from_numerators(min(cap, jet.order + 1), *over_lcm(terms))


@dataclass(frozen=True)
class RuledData:
    """Striction-frame data of a non-cylindrical ruled surface, singular at 0."""

    gamma1: Jet2
    gamma3: Jet2
    c3: Jet2

    def __post_init__(self):
        for name in ("gamma1", "gamma3", "c3"):
            _univariate(getattr(self, name), name)
        if self.gamma3.at0() != 0:
            raise PreconditionError("gamma3(0) must vanish (origin not singular otherwise)")

    @property
    def order(self) -> int:
        return min(self.gamma1.order, self.gamma3.order, self.c3.order)


def ruled_frame(c3: Jet2, order: int | None = None):
    """Power-series solution of the rotating frame ODE with a_i(0) = e_i.

    a1' = a2, a2' = -a1 + c3 a3, a3' = -c3 a2, solved by coefficient
    recursion; the skew-symmetry of the system leaves the frame orthonormal
    identically in v, which the tests assert termwise.

    The recursion runs on integers.  With c3 = sum_m (C_m / D) v^m over
    its common denominator D, the vectors S_i[k] = k! D^k a_i[k] satisfy

        S1[k+1] = D S2[k],
        S2[k+1] = -D S1[k] + sum_m C_m D^m k!/(k-m)! S3[k-m],
        S3[k+1] = -sum_m C_m D^m k!/(k-m)! S2[k-m],

    from S_i[0] = e_i, and a_i[k] = S_i[k] / (k! D^k).  Each k! D^k divides
    n! D^n, so a component is built from integer rows over n! D^n.
    """
    _univariate(c3, "c3")
    n = c3.order + 1 if order is None else order
    c = [c3.coeff(0, m) for m in range(min(n, c3.order + 1))]
    d = math.lcm(*(x.denominator for x in c))
    big_c = [x.numerator * (d // x.denominator) for x in c]
    s1, s2, s3 = [(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]
    scales = [1]
    for k in range(n):
        # weights[m] = C_m D^m k!/(k-m)!
        weights = []
        w = 1
        for m in range(min(k + 1, len(big_c))):
            weights.append(big_c[m] * w)
            w *= d * (k - m)
        conv_s3 = [sum(x * s3[k - m][i] for m, x in enumerate(weights)) for i in range(3)]
        conv_s2 = [sum(x * s2[k - m][i] for m, x in enumerate(weights)) for i in range(3)]
        s1.append(tuple(d * x for x in s2[k]))
        s2.append(tuple(-d * s1[k][i] + conv_s3[i] for i in range(3)))
        s3.append(tuple(-x for x in conv_s2))
        scales.append(scales[-1] * (k + 1) * d)

    def pack(rows):
        return tuple(Jet2.from_numerators(n, {(0, k): rows[k][i] * (scales[n] // scales[k])
                                              for k in range(n + 1)}, scales[n])
                     for i in range(3))
    return pack(s1), pack(s2), pack(s3)


def ruled_map(d: RuledData) -> MapJet:
    """The ruled surface gamma(v) + (u - G1(v)) a1(v) as a map-jet, G1 = int_0^v gamma1.

    Built as u a1 + int_0^v (gamma3 a3 - G1 a2): since a1' = a2 and
    gamma' = gamma1 a1 + gamma3 a3, both (gamma - G1 a1)' = gamma3 a3 - G1 a2
    and the two sides vanish at v = 0.  Components are taken in the frozen
    basis {a1(0), a2(0), a3(0)}, which is the coordinate basis of the frame
    computation, so no change of basis is needed and the entries stay small.
    """
    n = d.order
    a1, a2, a3 = ruled_frame(d.c3, n)
    g1 = integrate_v(d.gamma1, n)
    u = Jet2.variable("u", n)
    return MapJet.germ(*(u * a1[i] + integrate_v(d.gamma3 * a3[i] - g1 * a2[i], n)
                         for i in range(3)))


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
    g3p = to_divided_coeff(d.gamma3, 0, 1)
    g3pp = to_divided_coeff(d.gamma3, 0, 2)
    c3v = to_divided_coeff(d.c3, 0, 0)
    # Second Hessian entry of phi, divided by gamma1(0): vanishes exactly on
    # the B branch (equivalent to the B condition c3 = gamma3''/(2 gamma1)).
    hess2 = -2 * c3v * g1 + g3pp
    inv = {"gamma3_d1": g3p, "gamma3_d2": g3pp}
    # gamma3''' (degree 3) is recorded only where the order covers it, so an
    # order-2 document classifies on the WU and S1 branches, which read degree 2
    if d.gamma3.order >= 3:
        inv["gamma3_d3"] = to_divided_coeff(d.gamma3, 0, 3)
    inv.update(gamma1_0=g1, c3_0=c3v, hess_entry2=hess2)

    if g3p != 0:
        return Classification(Verdict.WHITNEY_UMBRELLA), inv
    if g1 != 0 and g3pp != 0 and hess2 != 0:
        # det hess phi is a positive multiple of gamma3''(2 c3 gamma1 - gamma3'')
        # (= -gamma3'' * hess2; established against the generic classifier),
        # and a negative Hessian determinant is S1+.
        q = g3pp * (2 * c3v * g1 - g3pp)
        inv["s1_disc"] = q
        verdict = Verdict.S1_PLUS if q < 0 else Verdict.S1_MINUS
        return Classification(verdict), inv
    g3ppp = to_divided_coeff(d.gamma3, 0, 3)    # S2, B and H read degree 3
    if g3pp == 0 and c3v * g1 * g3ppp != 0:
        inv["s2_value"] = c3v * g1 * g3ppp
        return Classification(Verdict.S2), inv
    if g3pp != 0:
        # hess2 == 0 (B) or g1 == 0 (H) here; only these two branches read
        # gamma1', gamma1'', gamma1''', gamma3'''' (degree 4), c3' and c3''
        g1p, g1pp, g1ppp = (to_divided_coeff(d.gamma1, 0, k) for k in (1, 2, 3))
        g3pppp = to_divided_coeff(d.gamma3, 0, 4)
        c3p, c3pp = (to_divided_coeff(d.c3, 0, k) for k in (1, 2))
        if g1 != 0:
            b = ruled_b_polynomial(g1, g1p, g1pp, g3pp, g3ppp, g3pppp, c3p, c3pp)
            inv["b_poly"] = b
            if b > 0:
                return Classification(Verdict.B2_PLUS), inv
            if b < 0:
                return Classification(Verdict.B2_MINUS), inv
            return Classification(Verdict.MORE_DEGENERATE, "B-type with b = 0"), inv
        h = ruled_h_polynomial(g1p, g1pp, g1ppp, g3pp, g3ppp, g3pppp, c3v, c3p)
        inv["h_poly"] = h
        if h != 0:
            return Classification(Verdict.H2), inv
        return Classification(Verdict.MORE_DEGENERATE, "H-type with h = 0"), inv
    return Classification(Verdict.MORE_DEGENERATE, "no ruled-surface condition matched"), inv


@dataclass(frozen=True)
class MongeCoeffs:
    """Divided Monge coefficients a_ij, 2 <= i+j <= 6, with a11 = 0."""

    a: dict

    def __post_init__(self):
        clean = exact_table(self.a, 2, 6, "Monge")
        if clean.get((1, 1)):
            raise PreconditionError("Monge form requires a11 = 0 (principal directions)")
        object.__setattr__(self, "a", clean)

    def a_(self, i, j) -> Fraction:
        return self.a.get((i, j), Fraction(0))

    def jet(self, order: int) -> Jet2:
        """The jet of a at `order`; a term past the order is dropped."""
        return from_divided_coeffs({key: c for key, c in self.a.items() if sum(key) <= order},
                                   order)


def _require_center(m: MongeCoeffs):
    if m.a_(0, 2) == 0:
        raise PreconditionError("center map needs a02 != 0")
    if m.a_(2, 0) == m.a_(0, 2):
        raise PreconditionError("center map needs a20 != a02 (non-umbilic)")


def center_map(m: MongeCoeffs, order: int = 6) -> MapJet:
    """c = f - (f.nu) nu for f = (u, v, k + a), k = -1/a02, as a germ at 0.

    With the unnormalized normal N = (-a_u, -a_v, 1) and nu = N/|N| this is
    c = f - (f.N) N/(N.N).  N.N = 1 + a_u^2 + a_v^2 has constant term
    exactly 1, since a has no linear terms, so 1/(N.N) is one geometric
    series and no square root is taken.  The Monge polynomial is exact
    data, expanded one order above the output order, which its partials
    lose.
    """
    _require_center(m)
    a = m.jet(order + 1)
    au, av = a.partial_u(), a.partial_v()
    u, v = Jet2.variable("u", order), Jet2.variable("v", order)
    f3 = a - 1 / m.a_(0, 2)
    # c = f - rho N with rho = (f.N)/(N.N)
    rho = (f3 - u * au - v * av) * reciprocal_series(1 + au * au + av * av)
    cm = MapJet.germ(u + rho * au, v + rho * av, f3 - rho)
    if det3(partials0(cm)[0]) != 0:
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
    rot = PolyMap(({(1, 0): c, (0, 1): s}, {(1, 0): -s, (0, 1): c}), order)
    f3 = compose2(m.jet(order), rot)
    u = Jet2.variable("u", order)
    v = Jet2.variable("v", order)
    return MapJet.germ(u, v * v, f3)


def _rotated(m: MongeCoeffs, c: Fraction, s: Fraction, keys):
    """The divided coefficients a'_pq, (p, q) in keys, of a'(u, v) = a(u c + v s, v c - u s).

    On integers: with c = C/D, s = S/D and the degree-n coefficients
    a_ij = N_ij / E, the binomial theorem gives

        a'_pq = sum_ij N_ij binom(n, i) w_ij / (binom(n, p) D^n E),

    where w_ij is the coefficient of u^p v^q in (u C + v S)^i (v C - u S)^j,
    so each a'_pq is one Fraction.  No jet arithmetic is used: the route
    stays apart from `folded_map`.
    """
    d = math.lcm(c.denominator, s.denominator)
    big_c, big_s = c.numerator * (d // c.denominator), s.numerator * (d // s.denominator)
    for p, q in keys:
        n = p + q
        row = [(i, m.a[i, n - i]) for i in range(n + 1) if (i, n - i) in m.a]
        e = math.lcm(*(x.denominator for _, x in row))
        total = 0
        for i, x in row:
            j = n - i
            # k factors u C of the first power meet p - k factors -u S of the second
            w = sum(math.comb(i, k) * math.comb(j, p - k) * (-1) ** (p - k)
                    * big_c ** (j - p + 2 * k) * big_s ** (i + p - 2 * k)
                    for k in range(max(0, p - j), min(i, p) + 1))
            total += x.numerator * (e // x.denominator) * math.comb(n, i) * w
        yield Fraction(total, math.comb(n, p) * d ** n * e)


def folded_invariants(m: MongeCoeffs, theta=(1, 0)):
    """(h11, h22, r_s, r_b) at theta: the theta = 0 conditions on the rotated a'.

    With a'(u, v) = a(u c + v s, v c - u s) the fold's third component,
    h11 = -a'21 and h22 = a'03 are the diagonal phi-Hessian entries of the
    folded germ (up to the constant factor 2); r_s = -a'31 is the S2
    discriminant when h11 = 0, r_b = 5 a'13^2 - 3 a'05 a'21 the B2
    discriminant when h22 = 0.  They decide the class when the rotated uv
    coefficient a'11 = c s (a20 - a02) vanishes.
    """
    keys = ((2, 1), (0, 3), (3, 1), (1, 3), (0, 5))
    a21, a03, a31, a13, a05 = _rotated(m, *_theta_pair(theta), keys)
    return -a21, a03, -a31, 5 * a13 ** 2 - 3 * a05 * a21


def folded_classify_formulas(m: MongeCoeffs, theta=(1, 0)):
    """Verdict from (h11, h22, r_s, r_b); needs a'11 = c s (a20 - a02) = 0.

    a'11 is the uv coefficient of the rotated Monge polynomial, so the
    route takes umbilic input at any angle and any input at a multiple of
    pi/2.  The invariants start with the exact point (theta_cos,
    theta_sin) the angle was read as, so the certificate shows the input
    of every verdict.
    """
    c, s = _theta_pair(theta)
    if c * s * (m.a_(2, 0) - m.a_(0, 2)) != 0:
        raise PreconditionError("folded formulas need a'11 = c s (a20 - a02) = 0:"
                                " an umbilic point or theta a multiple of pi/2")
    h11, h22, r_s, r_b = folded_invariants(m, (c, s))
    inv = {"theta_cos": c, "theta_sin": s, "h11": h11, "h22": h22, "r_s": r_s, "r_b": r_b}
    s11, s22 = sign(h11), sign(h22)
    if s11 and s22:
        # phi Hessian entries are (2 h11, 2 h22); negative product is S1+.
        verdict = Verdict.S1_PLUS if s11 * s22 < 0 else Verdict.S1_MINUS
        return Classification(verdict), inv
    if not s11 and s22:
        if r_s != 0:
            return Classification(Verdict.S2), inv
        return Classification(Verdict.MORE_DEGENERATE, "fold S branch with r_s = 0"), inv
    if s11 and not s22:
        if r_b < 0:
            return Classification(Verdict.B2_PLUS), inv
        if r_b > 0:
            return Classification(Verdict.B2_MINUS), inv
        return Classification(Verdict.MORE_DEGENERATE, "fold B branch with r_b = 0"), inv
    return (Classification(Verdict.MORE_DEGENERATE, "fold phi Hessian fully degenerate"),
            inv)
