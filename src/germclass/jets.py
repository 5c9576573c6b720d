"""Truncated bivariate jet arithmetic.

A `Jet2` is a polynomial in u, v kept only up to a total degree `order`,
read only through `coeff`, `at0` and `items()`.  The order is part of the
value.  Arithmetic results only claim the smaller operand order, and each
formal derivative consumes one order, because a jet of order N carries no
information about degree-(N+1) terms.  Reading the constant term of a
jet whose order has dropped below zero raises rather than silently
returning 0 -- that silent zero is the main correctness hazard in
criteria built from high-order derivatives.

Coefficients are stored in the plain monomial convention (coefficient of
u^i v^j, not divided by i! j!).  Tables given in the divided convention
enter through `from_divided_coeffs`.

Representation.  A jet holds integer numerators over one shared
denominator, as FLINT's fmpq_poly does: a private dict `_num` of ints
keyed by (i, j) for u^i v^j, and a private int `_den`, so the coefficient
of u^i v^j is _num[(i, j)] / _den.  The form is canonical: `_den > 0`, no
numerator is zero, gcd(_den, *numerators) == 1, and the zero jet has
`_den == 1`.  Equal jets therefore have equal (order, _den, _num), which
is what `==` and `hash` compare.  Arithmetic works on the integers and
reduces each result once, in `_jet`; every scalar read out (`coeff`,
`at0`, `items()`) is a `Fraction`.  Nothing outside this module reads
`_num` or `_den`.

Integer reads at the origin.  `scaled_coeffs` reads coefficients of
several jet vectors (MapJets, or the two coefficients of a vector field)
as integer vectors: component k of every vector in one read is scaled by
one positive D_k, and the read returns the product of the D_k too.  That
positive diagonal scaling leaves each zero test, each cross-product zero
test and each linear solution unchanged, and a determinant of the exact
vectors is the integer determinant over the product.  So the frame guards,
solves and criteria at 0 run on integers (in Bareiss's fraction-free
manner), and build one `Fraction` only for a value they record.

The insertion order of the coefficients is part of the output contract:
`items()` yields it, a certificate lists its normalized germ in it and the
CLI prints that JSON unsorted.  So every operation inserts keys in a fixed
order -- the left operand's keys, then the right operand's new keys; the
convolution order for a product -- and drops zeros at fixed points: after
each sum and after each finished product.

`directional(a, b, c)` is a * c_u + b * c_v in one pass over the
numerators, reduced once: the kernel of every vector-field application.
Its key order is fixed too (c's terms in order, each against a's terms,
then b's), but it is not the order a * c.partial_u() + b * c.partial_v()
would give.  That is safe because its results, the derivative words, are
only read at 0 and never printed.

`MapJet` is a triple of jets sharing one order (a map germ into 3-space,
or a derivative of one); `PolyMap2` / `PolyMap3` are polynomial coordinate
changes with invertible linear part, used only through composition.  Source
changes (`compose2`, `compose_map`) and target changes (`post_compose`)
share one substitution loop, `_substitute`.  It makes one pass per output:
each value's power table holds the raw numerator powers, every term carries
one integer factor that puts it over the output's one denominator, a term
group's sum of last-variable powers is accumulated in place, and the
outermost product is accumulated straight into the output.  It keeps the
key order and the zero drops of adding and multiplying jets one step at a
time, so its outputs are those of that stepwise form, bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm, prod

from .errors import OrderExhaustedError, PreconditionError
from .scalars import EXACT, Scalar, as_exact, fmt_scalar

_ZERO = Fraction(0)


def _integers(table):
    """A table {key: rational} as (numerators, lcm of the denominators), zeros dropped."""
    values = {key: as_exact(value) for key, value in table.items()}
    den = lcm(*(value.denominator for value in values.values()))
    return {key: value.numerator * (den // value.denominator)
            for key, value in values.items() if value}, den


def _nonzero(num):
    return {key: n for key, n in num.items() if n} if 0 in num.values() else num


def _add(a, b):
    """Sum of two numerator dicts over one denominator: a's keys, then b's new ones."""
    out = dict(a)
    for key, n in b.items():
        got = out.get(key)
        out[key] = n if got is None else got + n
    return _nonzero(out)


def _scale(a, s):
    return a if s == 1 else {key: n * s for key, n in a.items()}


def _convolve(a, b, order):
    """Product of two numerator dicts keyed (i, j), truncated at total degree `order`."""
    out = {}
    b = b.items()
    for (i1, j1), c1 in a.items():
        room = order - i1 - j1
        if room < 0:
            continue
        for (i2, j2), c2 in b:
            if i2 + j2 > room:
                continue
            key = (i1 + i2, j1 + j2)
            got = out.get(key)
            out[key] = c1 * c2 if got is None else got + c1 * c2
    return _nonzero(out)


def _jet(order: int, num, den: int) -> "Jet2":
    """The trusted constructor of arithmetic results: keys within `order`, den > 0.

    Drops zero numerators and reduces once by the gcd; it skips the
    coercion and order filter of `Jet2.__init__`.
    """
    num = _nonzero(num)
    g = gcd(den, *num.values())
    if g != 1:
        num = {key: n // g for key, n in num.items()}
        den //= g
    jet = object.__new__(Jet2)
    jet.order = order
    jet._num = num
    jet._den = den
    return jet


class Jet2:
    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        self._num, self._den = _integers(
            {(i, j): value for (i, j), value in coeffs.items() if i + j <= order}
            if coeffs else {})

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Jet2":
        return cls(order)

    @classmethod
    def const(cls, value, order: int) -> "Jet2":
        return cls(order, {(0, 0): value})

    @classmethod
    def variable(cls, name: str, order: int) -> "Jet2":
        if name == "u":
            return cls(order, {(1, 0): 1})
        if name == "v":
            return cls(order, {(0, 1): 1})
        raise ValueError("unknown variable %r" % name)

    # -- basic queries -----------------------------------------------------

    def coeff(self, i: int, j: int) -> Scalar:
        if i + j > self.order:
            raise OrderExhaustedError(
                "coefficient (%d,%d) beyond truncation order %d" % (i, j, self.order))
        n = self._num.get((i, j))
        return _ZERO if n is None else Fraction(n, self._den)

    def at0(self) -> Scalar:
        """Constant term.  Errors if the order has been consumed below 0."""
        if self.order < 0:
            raise OrderExhaustedError("constant term of an order-exhausted jet")
        n = self._num.get((0, 0))
        return _ZERO if n is None else Fraction(n, self._den)

    def items(self):
        """The stored ((i, j), coefficient) pairs, in insertion order; none is zero."""
        den = self._den
        return [(key, Fraction(n, den)) for key, n in self._num.items()]

    def degree(self) -> int:
        """Largest total degree with a stored coefficient (-1 for the zero jet)."""
        return max((i + j for (i, j) in self._num), default=-1)

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        if isinstance(other, (int, Fraction, float)):
            return Jet2.const(other, self.order)
        return None

    def _over_lcm(self, other):
        """Both numerator dicts at the smaller order, over their common denominator."""
        order = min(self.order, other.order)
        a, b = self.truncate(order), other.truncate(order)
        den = lcm(a._den, b._den)
        return order, _scale(a._num, den // a._den), _scale(b._num, den // b._den), den

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        order, a, b, den = self._over_lcm(other)
        return _jet(order, _add(a, b), den)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.order, {key: -n for key, n in self._num.items()}, self._den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        order, a, b, den = self._over_lcm(other)
        return _jet(order, _add(a, {key: -n for key, n in b.items()}), den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            order = min(self.order, other.order)
            return _jet(order, _convolve(self._num, other._num, order), self._den * other._den)
        if not isinstance(other, (int, Fraction, float)):
            return NotImplemented
        other = as_exact(other)
        if other == 0:
            return Jet2.zero(self.order)
        return _jet(self.order, _scale(self._num, other.numerator),
                    self._den * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers must be non-negative integers")
        result = Jet2.const(1, self.order)
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
        return (self.order == other.order and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.order, self._den, frozenset(self._num.items())))

    # -- calculus ----------------------------------------------------------

    def partial_u(self) -> "Jet2":
        return _jet(self.order - 1,
                    {(i - 1, j): i * n for (i, j), n in self._num.items() if i > 0}, self._den)

    def partial_v(self) -> "Jet2":
        return _jet(self.order - 1,
                    {(i, j - 1): j * n for (i, j), n in self._num.items() if j > 0}, self._den)

    def truncate(self, order: int) -> "Jet2":
        if order >= self.order:
            return self
        return _jet(order, {(i, j): n for (i, j), n in self._num.items() if i + j <= order},
                    self._den)

    def __repr__(self):
        return "Jet2(order=%d, %s)" % (self.order, poly_str(self))


def directional(a: Jet2, b: Jet2, c: Jet2) -> Jet2:
    """a * dc/du + b * dc/dv, at order min(a.order, b.order, c.order - 1).

    One pass over the numerators: a term n u^i v^j of c meets each term of
    a with weight i n b._den and each term of b with weight j n a._den,
    products past the output order are skipped, and the one sum, over
    a._den b._den c._den, is reduced once.
    """
    order = min(a.order, b.order, c.order - 1)
    a_terms, b_terms = a._num.items(), b._num.items()
    out = {}
    for (i, j), n in c._num.items():
        room = order + 1 - i - j
        if i:
            m = i * n * b._den
            for (k, l), x in a_terms:
                if k + l <= room:
                    key = (i - 1 + k, j + l)
                    got = out.get(key)
                    out[key] = m * x if got is None else got + m * x
        if j:
            m = j * n * a._den
            for (k, l), x in b_terms:
                if k + l <= room:
                    key = (i + k, j - 1 + l)
                    got = out.get(key)
                    out[key] = m * x if got is None else got + m * x
    return _jet(order, out, a._den * b._den * c._den)


def scaled_coeffs(*reads):
    """Coefficients of jet vectors as integer vectors over one diagonal scaling.

    A read is (vector, (i, j)): a sequence of n jets -- a MapJet, or a
    field's (a, b) -- read at their u^i v^j coefficients.  Returns
    (vectors, scale): component k of every vector is the exact coefficient
    times D_k, the lcm of the component-k denominators of the read, and
    scale = D_1 ... D_n.  Every zero test, cross-product zero test and
    `frames.solve` solution on the vectors is the exact one, and an n x n
    determinant of the exact vectors is det(vectors) / scale.
    """
    nums, dens = [], []
    for vector, key in reads:
        i, j = key
        ns, ds = [], []
        for c in vector:
            if i + j > c.order:
                raise OrderExhaustedError(
                    "coefficient (%d,%d) beyond truncation order %d" % (i, j, c.order))
            ns.append(c._num.get(key, 0))
            ds.append(c._den)
        nums.append(ns)
        dens.append(ds)
    common = dens[0]
    # when every read has the same denominators (one vector, say), D_k is its own
    if dens.count(common) < len(dens):
        common = list(map(lcm, *dens))
        for ns, ds in zip(nums, dens):
            for k, d in enumerate(ds):
                if d != common[k]:
                    ns[k] *= common[k] // d
    return tuple(map(tuple, nums)), prod(common)


def poly_str(jet: Jet2) -> str:
    """Canonical polynomial string, parseable by the document grammar."""
    terms = sorted(jet.items(), key=lambda term: (sum(term[0]), term[0][0]))
    if not terms:
        return "0"
    parts = []
    for (i, j), c in terms:
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
        if not EXACT.is_zero_vec(f.at0()):
            raise PreconditionError("map-germ must send the origin to the origin")
        return f

    @property
    def order(self) -> int:
        return self.components[0].order

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

    def truncate(self, order: int) -> "MapJet":
        return MapJet(*(c.truncate(order) for c in self.components))

    def __repr__(self):
        return "MapJet(%s)" % ", ".join(poly_str(c) for c in self.components)


class PolyMap2:
    """Polynomial source coordinate change (R^2,0)->(R^2,0), invertible linear part."""

    __slots__ = ("p1", "p2")

    def __init__(self, p1: Jet2, p2: Jet2):
        for p in (p1, p2):
            if not EXACT.is_zero(p.at0()):
                raise PreconditionError("coordinate change must fix the origin")
        self.p1 = p1
        self.p2 = p2
        if EXACT.is_zero(self.linear_det()):
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
    def identity(cls, order: int) -> "PolyMap2":
        return cls(Jet2.variable("u", order), Jet2.variable("v", order))

    @classmethod
    def swap(cls, order: int) -> "PolyMap2":
        return cls(Jet2.variable("v", order), Jet2.variable("u", order))

    @classmethod
    def linear(cls, matrix, order: int) -> "PolyMap2":
        (a, b), (c, d) = matrix
        return cls(Jet2(order, {(1, 0): a, (0, 1): b}),
                   Jet2(order, {(1, 0): c, (0, 1): d}))

    def __repr__(self):
        return "PolyMap2(%s, %s)" % (poly_str(self.p1), poly_str(self.p2))


class PolyMap3:
    """Polynomial target coordinate change (R^3,0)->(R^3,0).

    Components are coefficient tables {(i,j,k): c} of x^i y^j z^k with zero
    constant term; only evaluation along a map-jet is exposed, never
    inversion.
    """

    __slots__ = ("comps", "order")

    def __init__(self, comps, order: int):
        self.order = order
        cleaned = []
        for table in comps:
            clean = {}
            for key, value in table.items():
                if sum(key) > order:
                    continue
                value = as_exact(value)
                if value != 0:
                    clean[key] = value
            if clean.get((0, 0, 0)):
                raise PreconditionError("coordinate change must fix the origin")
            cleaned.append(clean)
        self.comps = tuple(cleaned)
        if len(self.comps) != 3:
            raise PreconditionError("PolyMap3 needs exactly 3 components")
        if EXACT.is_zero(det3(self.linear_matrix())):
            raise PreconditionError("coordinate change has singular linear part")

    def linear_matrix(self):
        basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return tuple(tuple(t.get(e, _ZERO) for e in basis) for t in self.comps)

    @classmethod
    def identity(cls, order: int) -> "PolyMap3":
        return cls(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}), order)


def _substitute(tables, values, order: int):
    """Evaluate polynomials at jets: each table {(e_1, .., e_n): c} at values[0..n-1], n >= 2.

    A table is given as (numerators, D): its coefficients are the integer
    numerators over one denominator D.  Value k is N_k / d_k (its numerator
    dict over its denominator); its power table holds the raw N_k^e up to
    its largest exponent top_k.  Every term is put over the one denominator
    D * prod_k d_k^top_k by the integer factor c * prod_k d_k^(top_k - e_k),
    so each output is reduced once.

    One pass per output.  Terms are grouped by their head, all exponents
    but the last.  A head sums its terms' last-variable powers in place,
    each scaled by its factor, and deletes a key the moment it sums to 0;
    then it multiplies in the middle powers pows[k][e_k] (k = n-2 .. 1,
    skipped when e_k = 0), and accumulates the outermost product by
    pows[0][e_0] straight into the output, whose zeros are dropped once per
    head.  The keys, their insertion order and the zero drops are those of
    summing scaled powers, multiplying and adding, one head at a time.
    """
    terms = [([(key, c) for key, c in num.items() if sum(key) <= order], den)
             for num, den in tables]
    pows = []
    lifts = []
    for k, value in enumerate(values):
        value = value.truncate(order)
        top = max((key[k] for group, _ in terms for key, _ in group), default=0)
        powers = [{(0, 0): 1}]
        for _ in range(top):
            powers.append(_convolve(powers[-1], value._num, order))
        pows.append(powers)
        lifts.append([value._den ** (top - e) for e in range(top + 1)])
    common = prod(lift[0] for lift in lifts)
    last = len(values) - 1
    last_pows, last_lifts = pows[last], lifts[last]
    out = []
    for group, den in terms:
        rows = {}
        for key, c in group:
            rows.setdefault(key[:-1], []).append((key[-1], c))
        total = {}
        for head, entries in rows.items():
            lift = prod(lifts[k][e] for k, e in enumerate(head))
            inner = {}
            for e, c in entries:
                m = c * lift * last_lifts[e]
                for key, n in last_pows[e].items():
                    got = inner.get(key)
                    if got is None:
                        inner[key] = m * n
                    else:
                        got += m * n
                        if got:
                            inner[key] = got
                        else:
                            del inner[key]
            for k in range(last - 1, 0, -1):
                if head[k]:
                    inner = _convolve(pows[k][head[k]], inner, order)
            inner = inner.items()
            for (i1, j1), c1 in pows[0][head[0]].items():
                room = order - i1 - j1
                if room < 0:
                    continue
                for (i2, j2), c2 in inner:
                    if i2 + j2 <= room:
                        key = (i1 + i2, j1 + j2)
                        got = total.get(key)
                        total[key] = c1 * c2 if got is None else got + c1 * c2
            total = _nonzero(total)
        out.append(_jet(order, total, den * common))
    return out


def compose2(a: Jet2, p: PolyMap2) -> Jet2:
    """Substitute (u, v) -> (p1, p2) into a."""
    return _substitute([(a._num, a._den)], (p.p1, p.p2), min(a.order, p.order))[0]


def compose_map(f: MapJet, p: PolyMap2) -> MapJet:
    """Substitute (u, v) -> (p1, p2) into each component of f."""
    return MapJet(*_substitute([(c._num, c._den) for c in f], (p.p1, p.p2),
                               min(f.order, p.order)))


def post_compose(phi: PolyMap3, f: MapJet) -> MapJet:
    """Evaluate each component polynomial of phi at (f1, f2, f3)."""
    return MapJet(*_substitute([_integers(t) for t in phi.comps], tuple(f),
                               min(f.order, phi.order)))


def invsqrt_series(a: Jet2) -> Jet2:
    """Inverse square root of a jet with constant term 1, by the binomial series."""
    if a.at0() != 1:
        raise PreconditionError("invsqrt_series needs constant term 1")
    e = a - 1
    result = Jet2.const(1, a.order)
    term = result
    binom = Fraction(1)
    for k in range(1, a.order + 1):
        binom *= Fraction(-(2 * k - 1), 2 * k)
        term = term * e
        result = result + term * binom
    return result


def from_divided_coeffs(table, order: int) -> Jet2:
    """Build a jet from coefficients in the divided convention c_ij/(i! j!)."""
    out = {}
    for (i, j), c in table.items():
        if i < 0 or j < 0 or i + j > order:
            raise PreconditionError("divided coefficient index (%d,%d) out of range" % (i, j))
        out[(i, j)] = Fraction(1, factorial(i) * factorial(j)) * c
    return Jet2(order, out)


def to_divided_coeff(jet: Jet2, i: int, j: int) -> Scalar:
    return jet.coeff(i, j) * (factorial(i) * factorial(j))


# -- small linear algebra on constant terms ---------------------------------

def det3(m) -> Scalar:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cross3(x, y):
    return (x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def det3_jet(x: MapJet, y: MapJet, z: MapJet) -> Jet2:
    """Determinant of three jet 3-vectors, expanded in jet arithmetic."""
    x1, x2, x3 = x
    y1, y2, y3 = y
    z1, z2, z3 = z
    return (x1 * (y2 * z3 - y3 * z2)
            - x2 * (y1 * z3 - y3 * z1)
            + x3 * (y1 * z2 - y2 * z1))
