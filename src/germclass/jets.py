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

Construction.  `over_lcm(terms)` is the one route from rational terms
to the integer form: it takes terms (key, p, q), each p/q at key, and
returns the numerators over the lcm of the q's, equal keys summed.
`from_divided_coeffs`, `docparse`'s monomial sums, `integrate_v` and the
fuzz draws build their terms for it, and `_integers(table, n, order,
label)` builds them from a table of rationals: it checks every key first
(an exponent n-tuple, `is_exponent_pair`, past the order too), then cuts
the table at the order, and serves `Jet2(order, table)` (n = 2) and
`PolyMap(comps, order)`.  Integer numerators over one denominator are
held by `_held(num, den, order)`, the one check that den > 0, a cut at
the order and a reduction, which `Jet2.from_numerators` and
`PolyMap.from_numerators` share.  Past `Jet2.__init__`, `_canonical` is
the one place a `Jet2` is made, from numerators already in canonical
form; `_jet`, which every arithmetic result goes through, reduces first.  `Jet2.zero`,
`Jet2.const` and `Jet2.variable` build their canonical form directly.
A sum or difference scales both numerator dicts to the lcm of the two
denominators in one pass at the smaller order and reduces once.
`coeffs_below(bound)` is the size test of every coefficient in lowest
terms.

Integer reads at the origin.  `scaled_values` takes exact vectors, each
given as (numerators, denominators) per component, and returns them as
integer vectors: component k of every vector is scaled by one positive
D_k, the lcm of its denominators, and the product of the D_k comes back
too.  It builds new tuples and leaves the given numerators as they are,
so a caller may keep them.  That positive diagonal scaling leaves each
zero test, each cross-product zero test and each linear solution
unchanged, and a determinant of the exact vectors is the integer
determinant over the product.  So the frame guards, solves and criteria
at 0 run on integers (in Bareiss's fraction-free manner), and build one
`Fraction` only for a value they record.  `scaled_coeffs` reads jet
vectors (MapJets, or the two coefficients of a vector field) at one
coefficient key (i, j) each and scales them so.

Derivative words at the origin.  A `Functional` is a linear functional
on jets, c -> sum_k n_k c_k / d over monomials k, held as integer
numerators over one denominator in a jet's canonical form; `Functional()`
is the evaluation at 0.  For a field z = a d/du + b d/dv,
`l.after(a, b)` is l o z, the transpose of the field on l's support, so a
word's value at 0, w f(0), is l_w(f) with l_"" the evaluation at 0 and
l_(w z) = l_w o z: a functional that depends on the fields alone, which
`frames.Words` builds once per prefix (reverse-mode evaluation;
A. Griewank and A. Walther, Evaluating Derivatives, 2nd ed., SIAM 2008).
`l.read(f)` is its value at each component of f, one dot product each,
as (numerators, denominators), the form `scaled_values` takes.

`items()` is the one place that fixes an order: it yields the terms by
total degree, then by u-exponent, the order `poly_str` prints and a
certificate lists its normalized germ in.  The insertion order of `_num`
means nothing, and zero numerators are dropped once, in `_jet`.

`directional(a, b, cs, order)` is a * c_u + b * c_v for every jet c of
the tuple `cs` at one output order: the field's terms, its denominators
and the order are set up once, then each c takes one pass over its
numerators, stopped at the output order and reduced once.  At order 0 it
is a dot product of the field at 0 with c's degree-1 terms.  It is the
kernel of every vector-field application, the forward checks of
`frames.forward_at0` included.

A `MapJet` is a plain tuple of three jets sharing one order (a map germ
into 3-space, or a derivative of one): it compares, hashes, indexes and
iterates as its tuple does, and `+` concatenates as on any tuple; the jets
inside carry the ring operations.  `MapJet(f1, f2, f3)` truncates to the
shared order, `MapJet.shared` takes three jets that already share it (the
kernels build their results with it), and `__getnewargs__` gives `pickle`
and `copy` the three jets back.  A `PolyMap` is a
polynomial coordinate change (R^n,0)->(R^n,0) with invertible linear part,
n = 2 (a source change) or 3 (a target change), used only through
composition.  Component k is a table {(e_1, .., e_n): c} held as integer
numerators over one denominator, in the canonical form of a jet:
`PolyMap(comps, order)` coerces tables of rationals keyed by exponent
n-tuples, the key rule of `Jet2` with n in place of 2, and
`PolyMap.from_numerators(tables, order)` takes (numerators, denominator)
pairs with no `Fraction`.  Both hold their tables through `_held`, and
test the linear part by an integer
determinant of the numerator rows (a positive row scaling keeps the
rank).  `comps` and `linear_matrix` are `Fraction` views built on read.
Source changes (`compose2`, `compose_map`, which take n = 2) and target
changes (`post_compose`, which takes n = 3) share one substitution loop,
`_substitute`, which reads its tables and its values as (numerators,
denominator) pairs; a map of the other arity is refused.  The linear
source changes of `frames.linear_normalize` other than the identity take
no map at all: `swap(f)` swaps f's keys and `shear(f, t)`, for
(u, v) -> (u + t v, -v), is the binomial theorem on integers.
`_substitute` makes one pass per output, by Horner's rule in the first
variable: from the largest first exponent e_0 down to 0, the running sum
is multiplied by the first value's raw numerators and the e_0 group's
inner sum is added in place, so no power of the first value is formed.
The inner sums take the other values' powers from tables of raw
numerator powers.  Each step and inner sum is cut at degree
order - e_0 * low, low the first value's lowest degree, since the rest of
the evaluation multiplies it by a polynomial of degree >= e_0 * low.
Every term carries one integer factor that puts it over the output's one
denominator, so each output is reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod

from .errors import OrderExhaustedError, PreconditionError
from .scalars import as_exact, fmt_scalar, is_exponent_pair

_ZERO = Fraction(0)
_BASES = {2: ((1, 0), (0, 1)), 3: ((1, 0, 0), (0, 1, 0), (0, 0, 1))}


def over_lcm(terms):
    """A list of terms (key, p, q), each the rational p/q at key for ints p and
    q > 0, as (numerators, den): den is the lcm of the q's, each p is scaled to
    it and the numerators at one key are summed; zeros are kept."""
    den = lcm(*(q for _, _, q in terms))
    num = {}
    for key, p, q in terms:
        num[key] = num.get(key, 0) + p * (den // q)
    return num, den


def _integers(table, n: int, order: int, label: str):
    """A table {key: rational} as (numerators, lcm of the denominators), cut at
    total degree `order` and zeros dropped.  Every key is checked first: one that
    is not an exponent n-tuple (`is_exponent_pair`) raises, past the order too."""
    for key in table:
        if not is_exponent_pair(key, n):
            raise PreconditionError("%s key %r is not %s of non-negative ints"
                                    % (label, key, "a pair" if n == 2 else "a %d-tuple" % n))
    values = [(key, as_exact(value)) for key, value in table.items() if sum(key) <= order]
    return over_lcm([(key, value.numerator, value.denominator) for key, value in values if value])


def _convolve(a, b, order, out=None):
    """Product of two numerator dicts keyed (i, j), truncated at total degree `order`;
    added into `out` in place when it is given."""
    out = {} if out is None else out
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


def _reduced(num, den: int):
    """Numerators over a den > 0 in canonical form: zero numerators dropped and
    the gcd divided out once."""
    if 0 in num.values():
        num = {key: n for key, n in num.items() if n}
    g = gcd(den, *num.values())
    if g != 1:
        num = {key: n // g for key, n in num.items()}
        den //= g
    return num, den


def _held(num, den: int, order: int):
    """Int numerators over an int den > 0, cut at total degree `order` and reduced."""
    if den <= 0:
        raise ValueError("from_numerators needs a positive denominator, got %d" % den)
    return _reduced({key: n for key, n in num.items() if sum(key) <= order}, den)


def _jet(order: int, num, den: int) -> "Jet2":
    """The trusted constructor of arithmetic results: keys within `order`, den > 0,
    reduced once, in `_reduced`."""
    return _canonical(order, *_reduced(num, den))


def _canonical(order: int, num, den: int) -> "Jet2":
    """A jet from numerators already in canonical form: no zero, reduced, den > 0;
    the one place a `Jet2` is made without `Jet2.__init__`."""
    jet = object.__new__(Jet2)
    jet.order = order
    jet._num = num
    jet._den = den
    return jet


class Jet2:
    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        self._num, self._den = _integers(coeffs or {}, 2, order, "jet")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Jet2":
        return _canonical(order, {}, 1)

    @classmethod
    def from_numerators(cls, order: int, num, den: int) -> "Jet2":
        """The jet with coefficient num[(i, j)] / den at u^i v^j, for int numerators
        and an int den > 0; keys past `order` are dropped and `num` is not kept."""
        return _canonical(order, *_held(num, den, order))

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

    def _sum(self, other, sign: int):
        """self + sign * other at the smaller order: both numerator dicts are
        scaled to their common denominator in one pass, terms past the order
        skipped, and the sum is reduced once."""
        other = self._lift(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        den = lcm(self._den, other._den)
        s = den // self._den
        out = {key: n * s for key, n in self._num.items() if key[0] + key[1] <= order}
        s = sign * (den // other._den)
        for key, n in other._num.items():
            if key[0] + key[1] <= order:
                out[key] = out.get(key, 0) + n * s
        return _jet(order, out, den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.order, {key: -n for key, n in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._sum(other, -1)

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


class Functional:
    """A linear functional on jets, c -> sum_k _num[k] c_k / _den over the
    monomials k = (i, j) of its support, c_k the coefficient of u^i v^j.

    The numerators over the one positive denominator are in the canonical
    form of a jet's.  `Functional()` is the evaluation at 0, `after`
    composes with a vector field, and `read` takes its values.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num=None, den: int = 1):
        self._num = {(0, 0): 1} if num is None else num
        self._den = den

    def after(self, a: Jet2, b: Jet2) -> "Functional":
        """self o (a d/du + b d/dv), the transpose of the field.

        A term x u^k v^l of a sends the monomial u^i v^j of the support to
        u^(i-k+1) v^(j-l) with weight (i-k+1) x, where k <= i and l <= j; a
        term of b sends it to u^(i-k) v^(j-l+1) with weight (j-l+1) x.  The
        terms of a carry the factor b._den and those of b the factor a._den,
        so the sum is over self._den a._den b._den, reduced once.
        """
        a_terms = [(k, l, x * b._den) for (k, l), x in a._num.items()]
        b_terms = [(k, l, x * a._den) for (k, l), x in b._num.items()]
        total = {}
        for (i, j), n in self._num.items():
            for k, l, x in a_terms:
                if k <= i and l <= j:
                    m = i - k + 1
                    key = (m, j - l)
                    total[key] = total.get(key, 0) + m * n * x
            for k, l, x in b_terms:
                if k <= i and l <= j:
                    m = j - l + 1
                    key = (i - k, m)
                    total[key] = total.get(key, 0) + m * n * x
        return Functional(*_reduced(total, self._den * a._den * b._den))

    def read(self, vector):
        """The values at the jets of `vector`, as (numerators, denominators):
        one dot product of the numerators per jet, over _den times its own.

        The caller checks that each jet's order covers the support."""
        terms, den = self._num.items(), self._den
        ns, ds = [], []
        for c in vector:
            get = c._num.get
            n = 0
            for k, x in terms:
                n += x * get(k, 0)
            ns.append(n)
            ds.append(den * c._den)
        return tuple(ns), tuple(ds)


def scaled_coeffs(*reads):
    """Coefficients of jet vectors, as integer vectors over one diagonal scaling.

    A read is (vector, (i, j)): a sequence of n jets -- a MapJet, or a
    field's (a, b) -- read at their u^i v^j coefficients.  Returns
    `scaled_values` of the reads' (numerators, denominators).
    """
    values = []
    for vector, key in reads:
        i, j = key
        ns, ds = [], []
        for c in vector:
            if i + j > c.order:
                raise OrderExhaustedError(
                    "coefficient (%d,%d) beyond truncation order %d" % (i, j, c.order))
            ns.append(c._num.get(key, 0))
            ds.append(c._den)
        values.append((tuple(ns), tuple(ds)))
    return scaled_values(values)


def scaled_values(values):
    """Exact vectors, each given as (numerators, denominators), as integer
    vectors over one diagonal scaling.

    Returns (vectors, scale): component k of every vector is the exact value
    times D_k, the lcm of the component-k denominators, and scale =
    D_1 ... D_n.  Every zero test, cross-product zero test and `frames.solve`
    solution on the vectors is the exact one, and an n x n determinant of
    the exact vectors is det(vectors) / scale.  The vectors are new tuples;
    the given numerators are left as they are.
    """
    dens = [ds for _, ds in values]
    common = dens[0]
    # when every vector has the same denominators (one vector, say), D_k is its own
    if dens.count(common) == len(dens):
        return tuple([ns for ns, _ in values]), prod(common)
    common = tuple(map(lcm, *dens))
    return tuple([tuple([n * (m // d) for n, d, m in zip(ns, ds, common)])
                  for ns, ds in values]), prod(common)


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


class MapJet(tuple):
    """A triple of jets sharing one truncation order, held as a plain tuple.

    Used both for map-germs into 3-space and for their iterated directional
    derivatives, so the components are not required to vanish at the origin;
    `MapJet.germ` is the validating constructor for actual germ input.
    """

    __slots__ = ()

    def __new__(cls, f1: Jet2, f2: Jet2, f3: Jet2):
        order = min(f1.order, f2.order, f3.order)
        return tuple.__new__(cls, (f1.truncate(order), f2.truncate(order), f3.truncate(order)))

    def __getnewargs__(self):
        return tuple(self)

    @classmethod
    def shared(cls, components) -> "MapJet":
        """A MapJet from three jets that already share one order; nothing is truncated."""
        return tuple.__new__(cls, components)

    @classmethod
    def germ(cls, f1: Jet2, f2: Jet2, f3: Jet2) -> "MapJet":
        f = cls(f1, f2, f3)
        if any(f.at0()):
            raise PreconditionError("map-germ must send the origin to the origin")
        return f

    @property
    def order(self) -> int:
        return self[0].order

    def at0(self):
        return tuple(c.at0() for c in self)

    def truncate(self, order: int) -> "MapJet":
        if order >= self.order:
            return self
        return MapJet.shared(c.truncate(order) for c in self)

    def __repr__(self):
        return "MapJet(%s)" % ", ".join(poly_str(c) for c in self)


class PolyMap:
    """Polynomial coordinate change (R^n,0)->(R^n,0), n = 2 or 3, with invertible
    linear part.

    Component k is a coefficient table {(e_1, .., e_n): c} of the monomial
    with those exponents, zero at the origin, held as integer numerators
    over one denominator in the canonical form of `Jet2`; only composition
    is exposed, never inversion.
    """

    __slots__ = ("order", "_tables")

    def __init__(self, comps, order: int):
        n = len(comps)
        self._build((_integers(table, n, order, "coordinate change") for table in comps), n, order)

    @classmethod
    def from_numerators(cls, tables, order: int) -> "PolyMap":
        """The change whose component k has coefficient num[key] / den at each key,
        for tables[k] = (num, den) with int numerators keyed by exponent n-tuples
        and an int den > 0; keys past `order` are dropped and `num` is not kept."""
        phi = object.__new__(cls)
        phi._build(tables, len(tables), order)
        return phi

    def _build(self, tables, n: int, order: int):
        """Hold the (numerators, den) tables in canonical form, each checked as it
        is reached: den > 0, then cut at `order` and reduced, then the origin."""
        self.order = order
        origin = (0,) * n
        held = []
        for num, den in tables:
            num, den = _held(num, den, order)
            if num.get(origin):
                raise PreconditionError("coordinate change must fix the origin")
            held.append((num, den))
        if n not in _BASES:
            raise PreconditionError("PolyMap needs 2 or 3 components, got %d" % n)
        # each row scaled by its positive denominator: the rank is unchanged
        rows = [[num.get(e, 0) for e in _BASES[n]] for num, _ in held]
        if (det3(rows) if n == 3 else rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) == 0:
            raise PreconditionError("coordinate change has singular linear part")
        self._tables = tuple(held)

    @property
    def comps(self):
        """The components as tables {exponents: Fraction} of their nonzero coefficients."""
        return tuple({key: Fraction(n, den) for key, n in num.items()}
                     for num, den in self._tables)

    def linear_matrix(self):
        """Row k: component k's coefficients of the n variables."""
        basis = _BASES[len(self._tables)]
        return tuple(tuple(Fraction(num.get(e, 0), den) for e in basis)
                     for num, den in self._tables)


def _of_arity(phi: PolyMap, n: int, name: str):
    """phi's tables, if phi is a change of n variables."""
    if len(phi._tables) != n:
        raise PreconditionError("%s needs a change of %d variables, got one of %d"
                                % (name, n, len(phi._tables)))
    return phi._tables


def _substitute(tables, values, order: int):
    """Evaluate polynomials at jet values: each table {(e_0, .., e_{n-1}): c}
    at values[0..n-1], n = 2 or 3.

    A table is given as (numerators, D): its coefficients are the integer
    numerators over one denominator D.  Value k is given the same way, as
    (N_k, d_k) with keys (i, j), and top_k is its largest exponent over
    the tables.  Every term is put over the one denominator
    D * prod_k d_k^top_k by the integer factor c * prod_k d_k^(top_k - e_k),
    so each output is reduced once.

    One pass per output, by Horner's rule in the first variable: terms
    are grouped by e_0, and from the largest e_0 down to 0 the running sum
    is multiplied by the raw N_0 and the group's inner sum is added in
    place.  An inner sum adds its terms' powers of the last value, from a
    table of the raw N_{n-1}^e, each scaled by its factor; for n = 3 the
    terms are grouped by e_1 too, and a group with e_1 > 0 multiplies its
    sum by N_1^(e_1), from a second power table, into the running sum.
    The step for e_0 and its inner sum are cut at degree
    order - e_0 * low, low being the lowest degree in N_0: the rest of the
    evaluation multiplies them by N_0^(e_0), so nothing cut reaches the
    order.  A zero N_0 never reaches it: only e_0 = 0 is kept.
    """
    terms = [([(key, c) for key, c in num.items() if sum(key) <= order], den)
             for num, den in tables]
    first = values[0][0]
    low = min((i + j for i, j in first), default=order + 1)
    pows = []  # of values 1..n-1: Horner's rule multiplies by N_0 itself
    lifts = []
    for k, (num, den) in enumerate(values):
        top = max((key[k] for group, _ in terms for key, _ in group), default=0)
        lifts.append([den ** (top - e) for e in range(top + 1)])
        if k:
            powers = [{(0, 0): 1}]
            for _ in range(top):
                powers.append(_convolve(powers[-1], num, order))
            pows.append(powers)
    common = prod(lift[0] for lift in lifts)
    last_pows, last_lifts, first_lifts = pows[-1], lifts[-1], lifts[0]
    mid_pows, mid_lifts = (pows[0], lifts[1]) if len(values) == 3 else (None, [1])
    out = []
    for group, den in terms:
        steps = {}
        for key, c in group:
            e1 = key[1] if mid_pows else 0
            steps.setdefault(key[0], {}).setdefault(e1, []).append((key[-1], c))
        total = {}
        for e0 in range(max(steps, default=0), -1, -1):
            cut = order - e0 * low
            if total:
                total = _convolve(first, total, cut)
            for e1, entries in steps.get(e0, {}).items():
                lift = first_lifts[e0] * mid_lifts[e1]
                inner = {} if e1 else total
                for e, c in entries:
                    m = c * lift * last_lifts[e]
                    for key, n in last_pows[e].items():
                        if key[0] + key[1] <= cut:
                            got = inner.get(key)
                            inner[key] = m * n if got is None else got + m * n
                if e1:
                    _convolve(mid_pows[e1], inner, cut, total)
        out.append(_jet(order, total, den * common))
    return out


def compose2(a: Jet2, p: PolyMap) -> Jet2:
    """Substitute (u, v) -> (p_1, p_2) into a, for a change p of 2 variables."""
    return _substitute([(a._num, a._den)], _of_arity(p, 2, "compose2"), min(a.order, p.order))[0]


def compose_map(f: MapJet, p: PolyMap) -> MapJet:
    """Substitute (u, v) -> (p_1, p_2) into each component of f, for a change p of
    2 variables."""
    return MapJet.shared(_substitute([(c._num, c._den) for c in f], _of_arity(p, 2, "compose_map"),
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
    weights = [[comb(i, a) * T ** a * D ** (top - a) for a in range(i + 1)]
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


def post_compose(phi: PolyMap, f: MapJet) -> MapJet:
    """Evaluate each component polynomial of phi, a change of 3 variables, at (f1, f2, f3)."""
    return MapJet.shared(_substitute(_of_arity(phi, 3, "post_compose"),
                                     [(c._num, c._den) for c in f], min(f.order, phi.order)))


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
    for key, c in table.items():
        if not is_exponent_pair(key, 2):
            raise PreconditionError("divided coefficient key %r is not a pair of non-negative"
                                    " ints" % (key,))
        i, j = key
        if i + j > order:
            raise PreconditionError("divided coefficient index (%d,%d) out of range" % key)
        c = as_exact(c)
        terms.append((key, c.numerator, c.denominator * factorial(i) * factorial(j)))
    return Jet2.from_numerators(order, *over_lcm(terms))


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
