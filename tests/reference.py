"""Reference-only code kept for the tests: it has no caller in the package."""

from fractions import Fraction
from math import factorial

from germclass.applications import _require_center, _theta_pair, integrate_v, ruled_frame
from germclass.docparse import MapSpecDoc
from germclass.jets import Jet2, MapJet, poly_str
from germclass.vfields import FramePair, VectorFieldJet, apply_to_jet, d_du


def format_doc(doc: MapSpecDoc) -> str:
    """Canonical text for a document; parse(format(doc)) round-trips."""
    lines = ["[%s]" % doc.kind, "order = %d" % doc.order]
    for key in sorted(doc.jets):
        lines.append("%s = %s" % (key, poly_str(doc.jets[key])))
    for g in sorted(doc.coeffs):
        for (i, j), c in sorted(doc.coeffs[g].items()):
            lines.append("%s%d%d = %s" % (g, i, j, c))
    if doc.kind == "folded" and doc.theta is not None:
        if isinstance(doc.theta, tuple):
            lines.append("theta_cos = %s" % doc.theta[0])
            lines.append("theta_sin = %s" % doc.theta[1])
        else:
            lines.append("theta = %.17g" % doc.theta)
    return "\n".join(lines) + "\n"


def d_dv(order: int) -> VectorFieldJet:
    return VectorFieldJet(Jet2.zero(order), Jet2.const(1, order))


def coordinate_pair(order: int) -> FramePair:
    return FramePair(d_du(order), d_dv(order))


def bracket(z1: VectorFieldJet, z2: VectorFieldJet) -> VectorFieldJet:
    """Lie bracket [z1, z2]."""
    a = apply_to_jet(z1, z2.a) - apply_to_jet(z2, z1.a)
    b = apply_to_jet(z1, z2.b) - apply_to_jet(z2, z1.b)
    return VectorFieldJet(a, b)


def fraction_divided_coeffs(table, order: int) -> Jet2:
    """`jets.from_divided_coeffs` as it was built before, one Fraction per coefficient."""
    return Jet2(order, {(i, j): Fraction(1, factorial(i) * factorial(j)) * c
                        for (i, j), c in table.items()})


def fraction_integrate_v(jet: Jet2, cap: int) -> Jet2:
    """`applications.integrate_v` as it was built before, one Fraction per coefficient."""
    return Jet2(min(cap, jet.order + 1), {(0, j + 1): c / (j + 1) for (_, j), c in jet.items()})


def expanded_det3(x: MapJet, y: MapJet, z: MapJet) -> Jet2:
    """Determinant of three jet 3-vectors, expanded in jet arithmetic along x."""
    x1, x2, x3 = x
    y1, y2, y3 = y
    z1, z2, z3 = z
    return (x1 * (y2 * z3 - y3 * z2)
            - x2 * (y1 * z3 - y3 * z1)
            + x3 * (y1 * z2 - y2 * z1))


def one_term_power(base: Jet2, n: int) -> Jet2:
    """(c u^i v^j)^n = c^n u^(ni) v^(nj), or the zero jet past the order."""
    ((i, j), c), = base.items()
    if n * (i + j) > base.order:
        return Jet2.zero(base.order)
    return Jet2(base.order, {(n * i, n * j): c ** n})


def invsqrt_series(a: Jet2) -> Jet2:
    """Inverse square root of a jet with constant term 1, by the binomial series."""
    assert a.at0() == 1
    e = a - 1
    result = Jet2.const(1, a.order)
    term = result
    binom = Fraction(1)
    for k in range(1, a.order + 1):
        binom *= Fraction(-(2 * k - 1), 2 * k)
        term = term * e
        result = result + term * binom
    return result


def normalized_center_map(m, order=6) -> MapJet:
    """c = f - (f.nu) nu with the unit normal nu = N/|N|, |N|^-1 by `invsqrt_series`.

    The construction `applications.center_map` had before it divided by
    N.N; kept unchanged as the reference it is compared with.
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
    return MapJet.germ(*((f[i] - rho * nu[i]).truncate(order) for i in range(3)))


def integrated_ruled_map(d) -> MapJet:
    """gamma + (u - G1) a1 with gamma = int_0^v (gamma1 a1 + gamma3 a3), G1 = int_0^v gamma1.

    The construction `applications.ruled_map` had before it integrated
    gamma3 a3 - G1 a2; kept unchanged as the reference it is compared with.
    """
    n = d.order
    a1, _, a3 = ruled_frame(d.c3, n)
    gamma_prime = tuple(d.gamma1 * a1[i] + d.gamma3 * a3[i] for i in range(3))
    gamma = tuple(integrate_v(gp, n) for gp in gamma_prime)
    g1 = integrate_v(d.gamma1, n)
    u = Jet2.variable("u", n)
    return MapJet.germ(*(gamma[i] + (u - g1) * a1[i] for i in range(3)))


def expanded_folded_invariants(m, theta=(1, 0)):
    """(h11, h22, r_s, r_b) at theta, expanded as forms in (cos theta, sin theta).

    The body `applications.folded_invariants` had before it read the values
    off the rotated Monge coefficients; kept unchanged as the exact
    reference the rotation is compared with.
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
