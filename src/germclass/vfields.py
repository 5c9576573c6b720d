"""Vector fields with jet coefficients and iterated directional derivatives.

A field zeta = a(u,v) d/du + b(u,v) d/dv acts on a map-jet F as
zeta F = a * F_u + b * F_v, dropping one truncation order per application.
Words of fields are applied right to left: apply_word([z3, z2, z1], F)
means z3(z2(z1 F)), matching the usual reading of z3 z2 z1 F.  All the
recognition criteria are asymmetric in their words, so this convention is
fixed here once and pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderExhaustedError, PreconditionError
from .jets import Jet2, MapJet


@dataclass(frozen=True)
class VectorFieldJet:
    a: Jet2
    b: Jet2

    def at0(self):
        return (self.a.at0(), self.b.at0())

    def __repr__(self):
        from .jets import poly_str
        return "(%s)du + (%s)dv" % (poly_str(self.a), poly_str(self.b))


def d_du(order: int, eps=None) -> VectorFieldJet:
    return VectorFieldJet(Jet2.const(1, order, eps), Jet2.zero(order, eps))


def d_dv(order: int, eps=None) -> VectorFieldJet:
    return VectorFieldJet(Jet2.zero(order, eps), Jet2.const(1, order, eps))


def apply_to_jet(zeta: VectorFieldJet, g: Jet2, label=None) -> Jet2:
    """Directional derivative of a scalar jet."""
    if g.order < 1:
        raise OrderExhaustedError(
            "derivative %sexhausts the truncation order" % (("%s " % label) if label else ""))
    return zeta.a * g.partial_u() + zeta.b * g.partial_v()


def apply(zeta: VectorFieldJet, f: MapJet, label=None) -> MapJet:
    """zeta f = a f_u + b f_v, componentwise; order drops by one."""
    if f.order < 1:
        raise OrderExhaustedError(
            "derivative %sexhausts the truncation order" % (("%s " % label) if label else ""))
    fu = f.partial_u()
    fv = f.partial_v()
    return MapJet(*(zeta.a * cu + zeta.b * cv for cu, cv in zip(fu, fv)))


def apply_word(word, f: MapJet, label=None) -> MapJet:
    """Iterated derivative by a word of fields, innermost (last) applied first."""
    out = f
    for zeta in reversed(list(word)):
        out = apply(zeta, out, label)
    return out


def bracket(z1: VectorFieldJet, z2: VectorFieldJet) -> VectorFieldJet:
    """Lie bracket [z1, z2]."""
    a = apply_to_jet(z1, z2.a) - apply_to_jet(z2, z1.a)
    b = apply_to_jet(z1, z2.b) - apply_to_jet(z2, z1.b)
    return VectorFieldJet(a, b)


@dataclass(frozen=True)
class FramePair:
    """A pair (xi, eta) of vector fields, independent at the origin.

    eta is the member expected to span ker df0; frame constructors validate
    that, the type only checks pointwise independence (which also rules out
    a field vanishing at 0).
    """

    xi: VectorFieldJet
    eta: VectorFieldJet

    def __post_init__(self):
        a1, b1 = self.xi.at0()
        a2, b2 = self.eta.at0()
        ctx = self.xi.a.zero_ctx().merge(self.eta.a.zero_ctx())
        if ctx.is_zero(a1 * b2 - b1 * a2):
            raise PreconditionError("frame pair is linearly dependent at the origin")


def coordinate_pair(order: int, eps=None) -> FramePair:
    return FramePair(d_du(order, eps), d_dv(order, eps))


def is_adapted(pair: FramePair, f: MapJet) -> bool:
    """True when eta(0) spans ker df0 (and the pair is independent, by type)."""
    ctx = f.zero_ctx()
    deta = apply(pair.eta, f).at0()
    return all(ctx.is_zero(c) for c in deta)
