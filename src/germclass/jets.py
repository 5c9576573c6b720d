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

Construction.  `Jet2(order, table)` coerces a table of rationals, keyed
by pairs of non-negative ints, and reduces it.
`Jet2.from_numerators(order, num, den)` takes integer numerators over
one positive denominator, as code that already holds them does (a
parser, a recursion on integer rows), and reduces them once with no
`Fraction`.  `Jet2.zero`, `Jet2.const` and `Jet2.variable` build their
canonical form directly.  `coeffs_below(bound)` is the size test of
every coefficient in lowest terms.

Integer reads at the origin.  `scaled_coeffs` reads coefficients of
several jet vectors (MapJets, or the two coefficients of a vector field)
as integer vectors: component k of every vector in one read is scaled by
one positive D_k, and the read returns the product of the D_k too.  That
positive diagonal scaling leaves each zero test, each cross-product zero
test and each linear solution unchanged, and a determinant of the exact
vectors is the integer determinant over the product.  So the frame guards,
solves and criteria at 0 run on integers (in Bareiss's fraction-free
manner), and build one `Fraction` only for a value they record.

`items()` is the one place that fixes an order: it yields the terms by
total degree, then by u-exponent, the order `poly_str` prints and a
certificate lists its normalized germ in.  The insertion order of `_num`
means nothing, and zero numerators are dropped once, in `_jet`.

`directional(a, b, cs, order)` is a * c_u + b * c_v for every jet c of
the tuple `cs` at one output order: the field's terms, its denominators
and the order are set up once, then each c takes one pass over its
numerators, stopped at the output order and reduced once.  At order 0 it
is a dot product of the field at 0 with c's degree-1 terms.  It is the
kernel of every vector-field application.

`MapJet` is a triple of jets sharing one order (a map germ into 3-space,
or a derivative of one; `MapJet.shared` takes three jets that already
share it, and the kernels build their results with it); `PolyMap2` /
`PolyMap3` are polynomial coordinate changes with invertible linear part,
used only through composition.  Source
changes (`compose2`, `compose_map`) and target changes (`post_compose`)
share one substitution loop, `_substitute`.  The linear source changes of
`frames.linear_normalize` other than the identity take no map at all:
`swap(f)` swaps f's keys and `shear(f, t)`, for (u, v) -> (u + t v, -v), is
the binomial theorem on integers.  `_substitute` makes one pass per
output: each value's power table holds the raw numerator powers, every
term carries one integer factor that puts it over the output's one
denominator, a term group's sum of last-variable powers is accumulated in
place, and the outermost product is accumulated straight into the output.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

from .errors import OrderExhaustedError, PreconditionError
from .scalars import as_exact, fmt_scalar, is_exponent_pair

_ZERO = Fraction(0)


def _integers(table):
    """A table {key: rational} as (numerators, lcm of the denominators), zeros dropped."""
    values = {key: as_exact(value) for key, value in table.items()}
    den = lcm(*(value.denominator for value in values.values()))
    return {key: value.numerator * (den // value.denominator)
            for key, value in values.items() if value}, den


def _add(a, b):
    """Sum of two numerator dicts over one denominator; zeros are kept."""
    out = dict(a)
    for key, n in b.items():
        out[key] = out.get(key, 0) + n
    return out


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
    return out


def _jet(order: int, num, den: int) -> "Jet2":
    """The trusted constructor of arithmetic results: keys within `order`, den > 0.

    Drops zero numerators and reduces once by the gcd; it skips the
    coercion and order filter of `Jet2.__init__`.
    """
    if 0 in num.values():
        num = {key: n for key, n in num.items() if n}
    g = gcd(den, *num.values())
    if g != 1:
        num = {key: n // g for key, n in num.items()}
        den //= g
    return _canonical(order, num, den)


def _canonical(order: int, num, den: int) -> "Jet2":
    """A jet from numerators already in canonical form: no zero, reduced, den > 0."""
    jet = object.__new__(Jet2)
    jet.order = order
    jet._num = num
    jet._den = den
    return jet


class Jet2:
    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        table = {}
        for key, value in coeffs.items() if coeffs else ():
            if not is_exponent_pair(key):
                raise PreconditionError("jet key %r is not a pair of non-negative ints" % (key,))
            if key[0] + key[1] <= order:
                table[key] = value
        self._num, self._den = _integers(table)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Jet2":
        return _canonical(order, {}, 1)

    @classmethod
    def from_numerators(cls, order: int, num, den: int) -> "Jet2":
        """The jet with coefficient num[(i, j)] / den at u^i v^j, for int numerators
        and an int den > 0; keys past `order` are dropped and `num` is not kept."""
        if den <= 0:
            raise ValueError("from_numerators needs a positive denominator, got %d" % den)
        return _jet(order, {(i, j): n for (i, j), n in num.items() if i + j <= order}, den)

    @classmethod
    def const(cls, value, order: int) -> "Jet2":
        value = as_exact(value)
        if order < 0 or not value:
            return _canonical(order, {}, 1)
        return _canonical(order, {(0, 0): value.numerator}, value.denominator)

    @classmethod
    def variable(cls, name: str, order: int) -> "Jet2":
        if name == "u":
            key = (1, 0)
        elif name == "v":
            key = (0, 1)
        else:
            raise ValueError("unknown variable %r" % name)
        return _canonical(order, {key: 1} if order >= 1 else {}, 1)

    # -- basic queries -----------------------------------------------------

    def coeff(self, i: int, j: int) -> Fraction:
        if i + j > self.order:
            raise OrderExhaustedError(
                "coefficient (%d,%d) beyond truncation order %d" % (i, j, self.order))
        n = self._num.get((i, j))
        return _ZERO if n is None else Fraction(n, self._den)

    def at0(self) -> Fraction:
        """Constant term.  Errors if the order has been consumed below 0."""
        if self.order < 0:
            raise OrderExhaustedError("constant term of an order-exhausted jet")
        n = self._num.get((0, 0))
        return _ZERO if n is None else Fraction(n, self._den)

    def items(self):
        """The ((i, j), coefficient) pairs with a nonzero coefficient, by total
        degree and then by u-exponent."""
        den = self._den
        return [(key, Fraction(self._num[key], den))
                for key in sorted(self._num, key=lambda key: (key[0] + key[1], key[0]))]

    def degree(self) -> int:
        """Largest total degree with a stored coefficient (-1 for the zero jet)."""
        return max((i + j for (i, j) in self._num), default=-1)

    def coeffs_below(self, bound: int) -> bool:
        """Whether every coefficient, in lowest terms, has |numerator| and denominator < bound."""
        den = self._den
        for n in self._num.values():
            g = gcd(n, den)
            if abs(n) // g >= bound or den // g >= bound:
                return False
        return True

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
        other = self._lift(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        return _jet(order, _convolve(self._num, other._num, order), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """The binomial theorem: sum over k <= min(n, order) of C(n, k) c^(n - k) r^k,
        for c the constant term and r the rest, so a huge n costs only
        its binomial coefficients."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers must be non-negative integers")
        order = self.order
        if order < 0:
            return self
        # the constant term is p/q in lowest terms, with den = g q: over the one
        # denominator q^(n - top) den^top, term k is C(n, k) p^(n - k) g^(top - k) rest^k
        rest = dict(self._num)
        head = rest.pop((0, 0), 0)
        g = gcd(head, self._den)
        p, q = head // g, self._den // g
        top = min(n, order)
        total = {}
        power = {(0, 0): 1}
        for k in range(top + 1):
            w = comb(n, k) * p ** (n - k) * g ** (top - k)
            for key, m in power.items():
                total[key] = total.get(key, 0) + w * m
            if k < top:
                power = _convolve(power, rest, order)
        return _jet(order, total, q ** (n - top) * self._den ** top)

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


def directional(a: Jet2, b: Jet2, cs, order: int | None = None) -> tuple:
    """a * dc/du + b * dc/dv for each jet c of `cs`, all at the one order
    min(a.order, b.order, c.order - 1 over cs, order).

    The field is set up once: a's terms carry the factor b._den and b's
    the factor a._den, each with its degree, and terms past the output
    order are dropped.  Then one pass over each c's numerators: a term
    n u^i v^j meets the terms of a with weight i n and those of b with
    weight j n, products past the output order are skipped, and the one
    sum, over a._den b._den c._den, is reduced once.  A term of c past
    order + 1 is skipped whole, so each result equals that on
    c.truncate(order + 1).  At order 0 the result is the dot product
    a(0) c_u(0) + b(0) c_v(0), read from c's two degree-1 terms.
    """
    top = min(a.order, b.order, min(c.order for c in cs) - 1)
    order = top if order is None else min(top, order)
    den = a._den * b._den
    if order == 0:
        a0, b0 = a._num.get((0, 0), 0) * b._den, b._num.get((0, 0), 0) * a._den
        out = []
        for c in cs:
            n = a0 * c._num.get((1, 0), 0) + b0 * c._num.get((0, 1), 0)
            g = gcd(n, den * c._den)  # den * c._den when n == 0: the zero jet over 1
            out.append(_canonical(0, {(0, 0): n // g} if n else {}, den * c._den // g))
        return tuple(out)
    a_terms = [(k + l, k, l, x * b._den) for (k, l), x in a._num.items() if k + l <= order]
    b_terms = [(k + l, k, l, x * a._den) for (k, l), x in b._num.items() if k + l <= order]
    out = []
    for c in cs:
        total = {}
        for (i, j), n in c._num.items():
            room = order + 1 - i - j
            if room < 0:
                continue
            if i:
                m = i * n
                for d, k, l, x in a_terms:
                    if d <= room:
                        key = (i - 1 + k, j + l)
                        got = total.get(key)
                        total[key] = m * x if got is None else got + m * x
            if j:
                m = j * n
                for d, k, l, x in b_terms:
                    if d <= room:
                        key = (i + k, j - 1 + l)
                        got = total.get(key)
                        total[key] = m * x if got is None else got + m * x
        out.append(_jet(order, total, den * c._den))
    return tuple(out)


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
    terms = jet.items()
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
    def shared(cls, components) -> "MapJet":
        """A MapJet from three jets that already share one order; nothing is truncated."""
        f = object.__new__(cls)
        f.components = tuple(components)
        return f

    @classmethod
    def germ(cls, f1: Jet2, f2: Jet2, f3: Jet2) -> "MapJet":
        f = cls(f1, f2, f3)
        if any(f.at0()):
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
        return MapJet.shared(c.partial_u() for c in self.components)

    def partial_v(self) -> "MapJet":
        return MapJet.shared(c.partial_v() for c in self.components)

    def at0(self):
        return tuple(c.at0() for c in self.components)

    def truncate(self, order: int) -> "MapJet":
        if order >= self.order:
            return self
        return MapJet.shared(c.truncate(order) for c in self.components)

    def __repr__(self):
        return "MapJet(%s)" % ", ".join(poly_str(c) for c in self.components)


class PolyMap2:
    """Polynomial source coordinate change (R^2,0)->(R^2,0), invertible linear part."""

    __slots__ = ("p1", "p2")

    def __init__(self, p1: Jet2, p2: Jet2):
        for p in (p1, p2):
            if p.at0() != 0:
                raise PreconditionError("coordinate change must fix the origin")
        self.p1 = p1
        self.p2 = p2
        if self.linear_det() == 0:
            raise PreconditionError("coordinate change has singular linear part")

    @property
    def order(self) -> int:
        return min(self.p1.order, self.p2.order)

    def linear_matrix(self):
        return ((self.p1.coeff(1, 0), self.p1.coeff(0, 1)),
                (self.p2.coeff(1, 0), self.p2.coeff(0, 1)))

    def linear_det(self) -> Fraction:
        (a, b), (c, d) = self.linear_matrix()
        return a * d - b * c

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
        if det3(self.linear_matrix()) == 0:
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
    each scaled by its factor; then it multiplies in the middle powers
    pows[k][e_k] (k = n-2 .. 1, skipped when e_k = 0), and accumulates the
    outermost product by pows[0][e_0] straight into the output.
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
                    inner[key] = m * n if got is None else got + m * n
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
        out.append(_jet(order, total, den * common))
    return out


def compose2(a: Jet2, p: PolyMap2) -> Jet2:
    """Substitute (u, v) -> (p1, p2) into a."""
    return _substitute([(a._num, a._den)], (p.p1, p.p2), min(a.order, p.order))[0]


def compose_map(f: MapJet, p: PolyMap2) -> MapJet:
    """Substitute (u, v) -> (p1, p2) into each component of f."""
    return MapJet.shared(_substitute([(c._num, c._den) for c in f], (p.p1, p.p2),
                                     min(f.order, p.order)))


def swap(f: MapJet) -> MapJet:
    """`compose_map(f, L)` for the swap L: (u, v) -> (v, u), a swap of f's keys."""
    return MapJet.shared(_canonical(c.order, {(j, i): n for (i, j), n in c._num.items()}, c._den)
                         for c in f)


def shear(f: MapJet, t: Fraction) -> MapJet:
    """`compose_map(f, L)` for the shear L: (u, v) -> (u + t v, -v).

    With t = T/D in lowest terms this is the binomial theorem on integers:
    a term n u^i v^j adds n (-1)^j C(i, a) T^a D^(top - a) at (i - a, a + j)
    for a = 0..i, with top the largest u-exponent over the three
    components, so one weight table serves them all; each sum, over its
    den D^top, is reduced once.
    """
    T, D = t.numerator, t.denominator
    top = max((i for c in f for i, _ in c._num), default=0)
    weights = [[comb(i, a) * T ** a * D ** (top - a) for a in range(i + 1 if T else 1)]
               for i in range(top + 1)]
    lift = D ** top
    out = []
    for c in f:
        total = {}
        for (i, j), n in c._num.items():
            if j & 1:
                n = -n
            for a, w in enumerate(weights[i]):
                key = (i - a, a + j)
                total[key] = total.get(key, 0) + w * n
        out.append(_jet(c.order, total, c._den * lift))
    return MapJet.shared(out)


def post_compose(phi: PolyMap3, f: MapJet) -> MapJet:
    """Evaluate each component polynomial of phi at (f1, f2, f3)."""
    return MapJet.shared(_substitute([_integers(t) for t in phi.comps], tuple(f),
                                     min(f.order, phi.order)))


def reciprocal_series(a: Jet2) -> Jet2:
    """Reciprocal of a jet with constant term 1, by the geometric series in 1 - a."""
    if a.at0() != 1:
        raise PreconditionError("reciprocal_series needs constant term 1")
    e = 1 - a
    result = term = Jet2.const(1, a.order)
    for _ in range(a.order):
        term = term * e
        result = result + term
    return result


def from_divided_coeffs(table, order: int) -> Jet2:
    """Build a jet from coefficients in the divided convention c_ij/(i! j!)."""
    terms = []
    for (i, j), c in table.items():
        if i < 0 or j < 0 or i + j > order:
            raise PreconditionError("divided coefficient index (%d,%d) out of range" % (i, j))
        c = as_exact(c)
        terms.append(((i, j), c.numerator, c.denominator * factorial(i) * factorial(j)))
    den = lcm(*(d for _, _, d in terms))
    return Jet2.from_numerators(order, {key: n * (den // d) for key, n, d in terms}, den)


def to_divided_coeff(jet: Jet2, i: int, j: int) -> Fraction:
    return jet.coeff(i, j) * (factorial(i) * factorial(j))


# -- small linear algebra on constant terms ---------------------------------

def det3(m) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cross3(x, y):
    return (x[1] * y[2] - x[2] * y[1],
            x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])
