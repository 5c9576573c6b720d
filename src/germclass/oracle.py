"""Jet-coefficient classification of germs already in normal form.

These are closed-form conditions on divided coefficients for two prepared
shapes of germ, independent of the frame-based classifier, and exist to
cross-check it:

  SB shape:  f = (u, v^2/2 + b(v), a(u,v)) with a of pure degree 3..5 in
             the divided convention and no pure-u terms, b of degree 3..5.
             Here (du, dv) is already an SB-2 pair and everything reads
             off the coefficients: the Hessian entries of phi are
             (-a21, a03), S2 needs a21 = 0, a31 != 0, a03 != 0, and B2
             needs a03 = 0, a21 != 0 with sign(3 a05 a21 - 5 a13^2)
             giving the sign of the B2.

  H shape:   f = (u, uv + a(u,v), b(u,v)) with a, b of degree 3..5.
             (du, dv) is an H-2 pair, H-type is exactly b03 != 0, and H2
             holds iff additionally the quintic-coefficient combination
             `c` below survives.

Domain caveat for the SB shape, established against the frame-based
classifier and by explicit reduction: the S1/S2 branch conditions only
involve a21, a03, a31, which are stable under the reparametrization
v -> v(1 + 2 b(v)/v^2)^(1/2) that removes b, so they hold for any b.
The B2 discriminant involves a13 and a05, which that reparametrization
shifts.  On the B branch (a03 = 0) its inverse v = w - (b03/6) w^2 + O(w^3)
turns a13 into a13 - a12 b03 and a05 into a05 - (10/3) a04 b03 (b04 and
b05 reach degree 5 only through a03), and the B2 condition is read off
those shifted coefficients.

The takers accept divided coefficients directly; no attempt is made to
normalize an arbitrary germ into these shapes (the generic classifier
makes that unnecessary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple

from .classify import Classification, Verdict
from .errors import PreconditionError
from .jets import Jet2, MapJet, from_divided_coeffs
from .scalars import as_exact, exact_table

Coeffs = Dict[Tuple[int, int], Fraction]


@dataclass(frozen=True)
class SBNormalCoeffs:
    """Divided coefficients a_ij (3 <= i+j <= 5, a_i0 = 0) and b_0i (i=3..5)."""

    a: Coeffs
    b: Dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        a = exact_table(self.a, 3, 5, "a")
        for (i, j) in a:
            if j == 0:
                raise PreconditionError("a_%d0 must vanish in the SB normal shape" % i)
        object.__setattr__(self, "a", a)
        b = {}
        for i, c in self.b.items():
            if not 3 <= i <= 5:
                raise PreconditionError("b_0%d outside degree 3..5" % i)
            c = as_exact(c)
            if c:
                b[i] = c
        object.__setattr__(self, "b", b)

    def a_(self, i, j) -> Fraction:
        return self.a.get((i, j), Fraction(0))

    def to_map_jet(self, order: int = 6) -> MapJet:
        """The germ (u, v^2/2 + b(v), a(u,v))."""
        u = Jet2.variable("u", order)
        f2 = from_divided_coeffs({(0, 2): 1, **{(0, i): c for i, c in self.b.items()}},
                                 order)
        f3 = from_divided_coeffs(self.a, order)
        return MapJet(u, f2, f3)


def skbk_classify(c: SBNormalCoeffs) -> Classification:
    """Classify the SB-shape germ from its coefficients alone."""
    a21 = c.a_(2, 1)
    a03 = c.a_(0, 3)
    if a21 != 0 and a03 != 0:
        # Hessian entries of phi are (-a21, a03): product < 0 wires S1+.
        verdict = Verdict.S1_PLUS if (-a21) * a03 < 0 else Verdict.S1_MINUS
        return Classification(verdict)
    if a21 == 0 and a03 != 0:
        if c.a_(3, 1) != 0:
            return Classification(Verdict.S2)
        return Classification(Verdict.MORE_DEGENERATE, "a21=0, a03!=0 but a31=0")
    if a03 == 0 and a21 != 0:
        b03 = c.b.get(3, 0)
        a13 = c.a_(1, 3) - c.a_(1, 2) * b03
        a05 = c.a_(0, 5) - Fraction(10, 3) * c.a_(0, 4) * b03
        disc = 3 * a05 * a21 - 5 * a13 ** 2
        if disc > 0:
            return Classification(Verdict.B2_PLUS)
        if disc < 0:
            return Classification(Verdict.B2_MINUS)
        return Classification(Verdict.MORE_DEGENERATE,
                              "a03=0, a21!=0 but 3 a05 a21 - 5 a13^2 = 0")
    return Classification(Verdict.MORE_DEGENERATE, "a21 = a03 = 0")


@dataclass(frozen=True)
class HNormalCoeffs:
    """Divided coefficients a_ij, b_ij for 3 <= i+j <= 5."""

    a: Coeffs
    b: Coeffs

    def __post_init__(self):
        object.__setattr__(self, "a", exact_table(self.a, 3, 5, "a"))
        object.__setattr__(self, "b", exact_table(self.b, 3, 5, "b"))

    def a_(self, i, j) -> Fraction:
        return self.a.get((i, j), Fraction(0))

    def b_(self, i, j) -> Fraction:
        return self.b.get((i, j), Fraction(0))

    def to_map_jet(self, order: int = 6) -> MapJet:
        """The germ (u, uv + a(u,v), b(u,v))."""
        u = Jet2.variable("u", order)
        f2 = from_divided_coeffs({(1, 1): 1, **self.a}, order)
        f3 = from_divided_coeffs(self.b, order)
        return MapJet(u, f2, f3)


def h2_discriminant(c: HNormalCoeffs) -> Fraction:
    a03, a04, a05 = c.a_(0, 3), c.a_(0, 4), c.a_(0, 5)
    a12 = c.a_(1, 2)
    b03, b04, b05 = c.b_(0, 3), c.b_(0, 4), c.b_(0, 5)
    b12 = c.b_(1, 2)
    return ((4 * a05 - 10 * a04 * a12) * b03 ** 2
            + (-5 * a04 * b04 - 4 * a03 * b05
               + 10 * a03 * a12 * b04 + 10 * a03 * a04 * b12) * b03
            + a03 * (5 * b04 ** 2 - 10 * a03 * b04 * b12))


def h2_check(c: HNormalCoeffs) -> Classification:
    """H2 iff b03 != 0 and the quintic combination is nonzero."""
    if c.b_(0, 3) == 0:
        return Classification(Verdict.MORE_DEGENERATE, "not H-type: b03 = 0")
    if h2_discriminant(c) != 0:
        return Classification(Verdict.H2)
    return Classification(Verdict.MORE_DEGENERATE, "H-type with vanishing quintic invariant")
