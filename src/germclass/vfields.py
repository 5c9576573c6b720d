"""Vector fields with jet coefficients and iterated directional derivatives.

A field zeta = a(u,v) d/du + b(u,v) d/dv acts on a map-jet F as
zeta F = a * F_u + b * F_v, dropping one truncation order per application.
One `jets.directional` call computes all three components: the field is
set up once, each component takes one pass over its integer numerators
and is reduced once, and no partial jet, product or sum is built on the
way.
Words of fields are applied right to left: apply_word([z3, z2, z1], F)
means z3(z2(z1 F)), matching the usual reading of z3 z2 z1 F.  All the
recognition criteria are asymmetric in their words, so this convention is
fixed here once and pinned by tests.

This is the forward evaluator.  The classifier reads its words at 0 as
linear functionals of f (`frames.Words`), and applies fields only in
`frames.forward_at0`, the second evaluator that verifies the S-3 and H-4
corrections; `fuzz` and the tests use `apply` and `apply_word` too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderExhaustedError, PreconditionError
from .jets import Jet2, MapJet, directional, poly_str, scaled_coeffs


@dataclass(frozen=True)
class VectorFieldJet:
    a: Jet2
    b: Jet2

    def __repr__(self):
        return "(%s)du + (%s)dv" % (poly_str(self.a), poly_str(self.b))


def d_du(order: int) -> VectorFieldJet:
    return VectorFieldJet(Jet2.const(1, order), Jet2.zero(order))


def apply_to_jet(zeta: VectorFieldJet, g: Jet2, label=None) -> Jet2:
    """Directional derivative of a scalar jet."""
    if g.order < 1:
        raise OrderExhaustedError(
            "derivative %sexhausts the truncation order" % (("%s " % label) if label else ""))
    return directional(zeta.a, zeta.b, (g,))[0]


def apply(zeta: VectorFieldJet, f: MapJet, label=None, order=None) -> MapJet:
    """zeta f = a f_u + b f_v; order drops by one, or to `order`.

    One `jets.directional` call on the three components: one loop over
    each component's numerators, one reduction each, and the results share
    their order, so the MapJet truncates nothing.  With `order` the result
    is that of `apply(zeta, f.truncate(order + 1))`, with no truncated copy
    of f made.
    """
    if f.order < 1:
        raise OrderExhaustedError(
            "derivative %sexhausts the truncation order" % (("%s " % label) if label else ""))
    return MapJet.shared(directional(zeta.a, zeta.b, f, order))


def apply_word(word, f: MapJet, label=None) -> MapJet:
    """Iterated derivative by a word of fields, innermost (last) applied first."""
    out = f
    for zeta in reversed(list(word)):
        out = apply(zeta, out, label)
    return out


@dataclass(frozen=True)
class FramePair:
    """A pair (xi, eta) of vector fields, independent at the origin.

    eta is the member expected to span ker df0; frame constructors validate
    that, the type only checks pointwise independence (which also rules out
    a field vanishing at 0), on the integer values at 0 of `jets.scaled_coeffs`.
    """

    xi: VectorFieldJet
    eta: VectorFieldJet

    def __post_init__(self):
        ((a1, b1), (a2, b2)), _ = scaled_coeffs(((self.xi.a, self.xi.b), (0, 0)),
                                                ((self.eta.a, self.eta.b), (0, 0)))
        if a1 * b2 - b1 * a2 == 0:
            raise PreconditionError("frame pair is linearly dependent at the origin")
