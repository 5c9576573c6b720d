"""Truncated bivariate jet arithmetic.

A `Jet2` is a polynomial in u, v kept only up to a total degree `order`:
a dict of plain monomial coefficients keyed by (i, j) for u^i v^j.  The
order is part of the value.  Arithmetic results only claim the smaller
operand order, and each formal derivative consumes one order, because a
jet of order N carries no information about degree-(N+1) terms.  Reading
the constant term of a jet whose order has dropped below zero raises
rather than silently returning 0 -- that silent zero is the main
correctness hazard in criteria built from high-order derivatives.

Coefficients are stored in the plain monomial convention (coefficient of
u^i v^j, not divided by i! j!).  Tables given in the divided convention
enter through `from_divided_coeffs`.

`MapJet` is a triple of jets sharing one order (a map germ into 3-space,
or a derivative of one); `PolyMap2` / `PolyMap3` are polynomial coordinate
changes with invertible linear part, used only through composition.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import OrderExhaustedError, PreconditionError
from .scalars import Scalar, ZeroCtx, as_exact, fmt_scalar

_ZERO = Fraction(0)


def _merge_mode(*jets):
    """Combine (eps, scale) across operands; exact unless some operand floats."""
    eps = None
    scale = 0.0
    for j in jets:
        if j.eps is not None:
            eps = j.eps if eps is None else max(eps, j.eps)
        if j.scale > scale:
            scale = j.scale
    return eps, scale


class Jet2:
    __slots__ = ("order", "coeffs", "eps", "scale")

    def __init__(self, order: int, coeffs=None, eps=None, scale=0.0):
        self.order = order
        self.eps = eps
        clean = {}
        top = 0.0
        if coeffs:
            for (i, j), value in coeffs.items():
                if i + j > order:
                    continue
                if eps is None:
                    value = as_exact(value)
                    if value == 0:
                        continue
                else:
                    value = float(value)
                    if value == 0.0:
                        continue
                    a = abs(value)
                    if a > top:
                        top = a
                clean[(i, j)] = value
        self.coeffs = clean
        self.scale = max(float(scale), top) if eps is not None else 0.0

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int, eps=None, scale=0.0) -> "Jet2":
        return cls(order, None, eps, scale)

    @classmethod
    def const(cls, value, order: int, eps=None, scale=0.0) -> "Jet2":
        return cls(order, {(0, 0): value}, eps, scale)

    @classmethod
    def variable(cls, name: str, order: int, eps=None) -> "Jet2":
        if name == "u":
            return cls(order, {(1, 0): 1}, eps)
        if name == "v":
            return cls(order, {(0, 1): 1}, eps)
        raise ValueError("unknown variable %r" % name)

    # -- basic queries -----------------------------------------------------

    def coeff(self, i: int, j: int) -> Scalar:
        if i + j > self.order:
            raise OrderExhaustedError(
                "coefficient (%d,%d) beyond truncation order %d" % (i, j, self.order))
        return self.coeffs.get((i, j), 0.0 if self.eps is not None else _ZERO)

    def at0(self) -> Scalar:
        """Constant term.  Errors if the order has been consumed below 0."""
        if self.order < 0:
            raise OrderExhaustedError("constant term of an order-exhausted jet")
        return self.coeffs.get((0, 0), 0.0 if self.eps is not None else _ZERO)

    def zero_ctx(self) -> ZeroCtx:
        return ZeroCtx(self.eps, self.scale)

    def is_zero(self) -> bool:
        if self.eps is None:
            return not self.coeffs
        ctx = self.zero_ctx()
        return all(ctx.is_zero(c) for c in self.coeffs.values())

    def degree(self) -> int:
        """Largest total degree with a stored coefficient (-1 for the zero jet)."""
        return max((i + j for (i, j) in self.coeffs), default=-1)

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        if isinstance(other, (int, Fraction, float)):
            eps = self.eps
            if eps is None and isinstance(other, float):
                raise TypeError("float scalar mixed into an exact jet")
            return Jet2.const(other, self.order, eps, self.scale)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        eps, scale = _merge_mode(self, other)
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            got = out.get(key)
            out[key] = value if got is None else got + value
        return Jet2(order, out, eps, scale)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.order, {k: -v for k, v in self.coeffs.items()}, self.eps, self.scale)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            if other == 0:
                return Jet2.zero(self.order, self.eps, self.scale)
            if self.eps is None and isinstance(other, float):
                raise TypeError("float scalar mixed into an exact jet")
            return Jet2(self.order, {k: v * other for k, v in self.coeffs.items()},
                        self.eps, self.scale)
        if not isinstance(other, Jet2):
            return NotImplemented
        order = min(self.order, other.order)
        eps, scale = _merge_mode(self, other)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            room = order - i1 - j1
            if room < 0:
                continue
            for (i2, j2), c2 in other.coeffs.items():
                if i2 + j2 > room:
                    continue
                key = (i1 + i2, j1 + j2)
                got = out.get(key)
                prod = c1 * c2
                out[key] = prod if got is None else got + prod
        return Jet2(order, out, eps, scale)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers must be non-negative integers")
        result = Jet2.const(1, self.order, self.eps, self.scale)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Jet2):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, frozenset(self.coeffs.items())))

    # -- calculus ----------------------------------------------------------

    def partial_u(self) -> "Jet2":
        out = {(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i > 0}
        return Jet2(self.order - 1, out, self.eps, self.scale)

    def partial_v(self) -> "Jet2":
        out = {(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j > 0}
        return Jet2(self.order - 1, out, self.eps, self.scale)

    def truncate(self, order: int) -> "Jet2":
        if order >= self.order:
            return self
        return Jet2(order, self.coeffs, self.eps, self.scale)

    def compose(self, p: "PolyMap2") -> "Jet2":
        return compose2(self, p)

    def __repr__(self):
        return "Jet2(order=%d, %s)" % (self.order, poly_str(self))


def poly_str(jet: Jet2) -> str:
    """Canonical polynomial string, parseable by the document grammar."""
    if not jet.coeffs:
        return "0"
    parts = []
    for (i, j) in sorted(jet.coeffs, key=lambda ij: (ij[0] + ij[1], ij[0])):
        c = jet.coeffs[(i, j)]
        mono = []
        if i:
            mono.append("u" if i == 1 else "u^%d" % i)
        if j:
            mono.append("v" if j == 1 else "v^%d" % j)
        body = "*".join(mono)
        if not body:
            term = fmt_scalar(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = fmt_scalar(abs(c)) + "*" + body
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    text = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        text += " %s %s" % (sign, term)
    return text


class MapJet:
    """A triple of jets sharing one truncation order.

    Used both for map-germs into 3-space and for their iterated directional
    derivatives, so the components are not required to vanish at the origin;
    `MapJet.germ` is the validating constructor for actual germ input.
    """

    __slots__ = ("components",)

    def __init__(self, f1: Jet2, f2: Jet2, f3: Jet2):
        order = min(f1.order, f2.order, f3.order)
        self.components = (f1.truncate(order), f2.truncate(order), f3.truncate(order))

    @classmethod
    def germ(cls, f1: Jet2, f2: Jet2, f3: Jet2) -> "MapJet":
        f = cls(f1, f2, f3)
        ctx = f.zero_ctx()
        if not all(ctx.is_zero(c) for c in f.at0()):
            raise PreconditionError("map-germ must send the origin to the origin")
        return f

    @property
    def order(self) -> int:
        return self.components[0].order

    @property
    def eps(self):
        return _merge_mode(*self.components)[0]

    @property
    def scale(self):
        return _merge_mode(*self.components)[1]

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, k):
        return self.components[k]

    def __eq__(self, other):
        if not isinstance(other, MapJet):
            return NotImplemented
        return self.components == other.components

    def partial_u(self) -> "MapJet":
        return MapJet(*(c.partial_u() for c in self.components))

    def partial_v(self) -> "MapJet":
        return MapJet(*(c.partial_v() for c in self.components))

    def at0(self):
        return tuple(c.at0() for c in self.components)

    def zero_ctx(self) -> ZeroCtx:
        eps, scale = _merge_mode(*self.components)
        return ZeroCtx(eps, scale)

    def truncate(self, order: int) -> "MapJet":
        return MapJet(*(c.truncate(order) for c in self.components))

    def __repr__(self):
        return "MapJet(%s)" % ", ".join(poly_str(c) for c in self.components)


class PolyMap2:
    """Polynomial source coordinate change (R^2,0)->(R^2,0), invertible linear part."""

    __slots__ = ("p1", "p2")

    def __init__(self, p1: Jet2, p2: Jet2):
        ctx = ZeroCtx(*_merge_mode(p1, p2))
        for p in (p1, p2):
            if not ctx.is_zero(p.at0()):
                raise PreconditionError("coordinate change must fix the origin")
        self.p1 = p1
        self.p2 = p2
        if ctx.is_zero(self.linear_det()):
            raise PreconditionError("coordinate change has singular linear part")

    @property
    def order(self) -> int:
        return min(self.p1.order, self.p2.order)

    def linear_matrix(self):
        return ((self.p1.coeff(1, 0), self.p1.coeff(0, 1)),
                (self.p2.coeff(1, 0), self.p2.coeff(0, 1)))

    def linear_det(self) -> Scalar:
        (a, b), (c, d) = self.linear_matrix()
        return a * d - b * c

    @classmethod
    def identity(cls, order: int, eps=None) -> "PolyMap2":
        return cls(Jet2.variable("u", order, eps), Jet2.variable("v", order, eps))

    @classmethod
    def swap(cls, order: int, eps=None) -> "PolyMap2":
        return cls(Jet2.variable("v", order, eps), Jet2.variable("u", order, eps))

    @classmethod
    def linear(cls, matrix, order: int, eps=None) -> "PolyMap2":
        (a, b), (c, d) = matrix
        return cls(Jet2(order, {(1, 0): a, (0, 1): b}, eps),
                   Jet2(order, {(1, 0): c, (0, 1): d}, eps))

    def __repr__(self):
        return "PolyMap2(%s, %s)" % (poly_str(self.p1), poly_str(self.p2))


class PolyMap3:
    """Polynomial target coordinate change (R^3,0)->(R^3,0).

    Components are coefficient tables {(i,j,k): c} of x^i y^j z^k with zero
    constant term; only evaluation along a map-jet is exposed, never
    inversion.
    """

    __slots__ = ("comps", "order", "eps")

    def __init__(self, comps, order: int, eps=None):
        self.order = order
        self.eps = eps
        cleaned = []
        for table in comps:
            clean = {}
            for key, value in table.items():
                if sum(key) > order:
                    continue
                value = as_exact(value) if eps is None else float(value)
                if value != 0:
                    clean[key] = value
            if clean.get((0, 0, 0)):
                raise PreconditionError("coordinate change must fix the origin")
            cleaned.append(clean)
        self.comps = tuple(cleaned)
        if len(self.comps) != 3:
            raise PreconditionError("PolyMap3 needs exactly 3 components")
        if ZeroCtx(eps, self._scale()).is_zero(det3(self.linear_matrix())):
            raise PreconditionError("coordinate change has singular linear part")

    def _scale(self):
        if self.eps is None:
            return 0.0
        return max((abs(v) for t in self.comps for v in t.values()), default=0.0)

    def linear_matrix(self):
        basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        zero = 0.0 if self.eps is not None else _ZERO
        return tuple(tuple(t.get(e, zero) for e in basis) for t in self.comps)

    @classmethod
    def identity(cls, order: int, eps=None) -> "PolyMap3":
        return cls(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}), order, eps)

    def apply_linear0(self, vec):
        """Multiply the linear part (the Jacobian at 0) against a 3-vector."""
        m = self.linear_matrix()
        return tuple(sum(m[r][c] * vec[c] for c in range(3)) for r in range(3))


def _power_table(base: Jet2, n: int, one: Jet2):
    powers = [one]
    for _ in range(n):
        powers.append(powers[-1] * base)
    return powers


def compose_many(jets, p: PolyMap2):
    """Substitute (u,v) -> (p1,p2) into several jets, sharing power tables."""
    order = min(min(a.order for a in jets), p.order)
    eps, scl = _merge_mode(*jets, p.p1, p.p2)
    one = Jet2.const(1, order, eps, scl)
    p1 = p.p1.truncate(order)
    p2 = p.p2.truncate(order)
    max_i = max((i for a in jets for (i, _) in a.coeffs), default=0)
    max_j = max((j for a in jets for (_, j) in a.coeffs), default=0)
    p2_pows = _power_table(p2, min(max_j, order), one)
    p1_pows = _power_table(p1, min(max_i, order), one)
    results = []
    for a in jets:
        total = Jet2.zero(order, eps, scl)
        rows = {}
        for (i, j), c in a.coeffs.items():
            if i + j > order:
                continue
            rows.setdefault(i, []).append((j, c))
        for i, entries in rows.items():
            inner = Jet2.zero(order, eps, scl)
            for j, c in entries:
                inner = inner + p2_pows[j] * c
            total = total + p1_pows[i] * inner
        results.append(total)
    return results


def compose2(a: Jet2, p: PolyMap2) -> Jet2:
    return compose_many([a], p)[0]


def compose_map(f: MapJet, p: PolyMap2) -> MapJet:
    return MapJet(*compose_many(list(f), p))


def post_compose(phi: PolyMap3, f: MapJet) -> MapJet:
    """Evaluate each component polynomial of phi at (f1, f2, f3)."""
    order = min(f.order, phi.order)
    eps, scl = _merge_mode(*f)
    if phi.eps is not None:
        eps = phi.eps if eps is None else max(eps, phi.eps)
        scl = max(scl, phi._scale())
    one = Jet2.const(1, order, eps, scl)
    f1, f2, f3 = (c.truncate(order) for c in f)
    deg = max((sum(k) for t in phi.comps for k in t), default=0)
    pows1 = _power_table(f1, min(deg, order), one)
    pows2 = _power_table(f2, min(deg, order), one)
    pows3 = _power_table(f3, min(deg, order), one)
    out = []
    for table in phi.comps:
        total = Jet2.zero(order, eps, scl)
        for (i, j, k), c in table.items():
            if i + j + k > order:
                continue
            mono = pows1[i]
            if j:
                mono = mono * pows2[j]
            if k:
                mono = mono * pows3[k]
            total = total + mono * c
        out.append(total)
    return MapJet(*out)


def inv_series(a: Jet2) -> Jet2:
    """Multiplicative inverse of a jet with constant term 1 (exact mode).

    Float mode accepts any positive constant term.
    """
    c0 = a.at0()
    if a.eps is None:
        if c0 != 1:
            raise PreconditionError("inv_series needs constant term 1 in exact mode")
        unit, lead = a, 1
    else:
        if c0 <= 0:
            raise PreconditionError("inv_series needs a positive constant term")
        unit, lead = a * (1.0 / c0), 1.0 / c0
    e = unit - 1
    result = Jet2.const(1, a.order, a.eps, a.scale)
    term = result
    for _ in range(a.order):
        term = -(term * e)
        result = result + term
    return result * lead


def invsqrt_series(a: Jet2) -> Jet2:
    """Inverse square root via the binomial series in (a - constant term)."""
    c0 = a.at0()
    if a.eps is None:
        if c0 != 1:
            raise PreconditionError("invsqrt_series needs constant term 1 in exact mode")
        unit, lead = a, 1
    else:
        if c0 <= 0:
            raise PreconditionError("invsqrt_series needs a positive constant term")
        unit, lead = a * (1.0 / c0), 1.0 / (c0 ** 0.5)
    e = unit - 1
    result = Jet2.const(1, a.order, a.eps, a.scale)
    term = result
    binom = Fraction(1)
    for k in range(1, a.order + 1):
        binom *= Fraction(-(2 * k - 1), 2 * k)
        term = term * e
        result = result + term * binom
    return result * lead


def from_divided_coeffs(table, order: int, eps=None) -> Jet2:
    """Build a jet from coefficients in the divided convention c_ij/(i! j!)."""
    out = {}
    for (i, j), c in table.items():
        if i < 0 or j < 0 or i + j > order:
            raise PreconditionError("divided coefficient index (%d,%d) out of range" % (i, j))
        out[(i, j)] = Fraction(1, factorial(i) * factorial(j)) * c
    return Jet2(order, out, eps)


def to_divided_coeff(jet: Jet2, i: int, j: int) -> Scalar:
    return jet.coeff(i, j) * (factorial(i) * factorial(j))


# -- small linear algebra on constant terms ---------------------------------

def det3(m) -> Scalar:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det3_at0(x: MapJet, y: MapJet, z: MapJet) -> Scalar:
    return det3((x.at0(), y.at0(), z.at0()))


def cross3(x, y):
    return (x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def cross_at0(x: MapJet, y: MapJet):
    return cross3(x.at0(), y.at0())


def det3_jet(x: MapJet, y: MapJet, z: MapJet) -> Jet2:
    """Determinant of three jet 3-vectors, expanded in jet arithmetic."""
    x1, x2, x3 = x
    y1, y2, y3 = y
    z1, z2, z3 = z
    return (x1 * (y2 * z3 - y3 * z2)
            - x2 * (y1 * z3 - y3 * z1)
            + x3 * (y1 * z2 - y2 * z1))
