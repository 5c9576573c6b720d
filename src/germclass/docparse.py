"""Parsing of polynomial expressions and classification documents.

Polynomial grammar (whitespace insignificant, no implicit multiplication):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' natural)?
    base     := rational | 'u' | 'v' | '(' expr ')'
    rational := integer ('/' positive-integer)?

A '/' may only appear inside a rational literal; "u/2" is a syntax error.
Parentheses nest at most 100 deep, and a product with a coefficient past
Python's 4300-digit limit is an error at its '*'.  A power is an error at
its exponent when one of its coefficients passes the limit.  Its
constant term c^E is bounded first, from the bit length of c alone, so
that no power too large to hold is computed; the power itself, summed by
the binomial theorem in a time that grows with the digits of E and not
with E, then gets the product's check.

Most sources are plain sums of monomials, and those take a fast path:
`_scan_sum` reads, in one regex pass, an optional sign and then terms
joined by '+'/'-', each a coefficient `c`, a monomial
`var['^'e]('*' var['^'e])*`, or `c '*'` monomial, where c is a rational
literal or a parenthesized signed one, `(-3/4)`.  Each term is one
(key, numerator, denominator) term of `jets.over_lcm`, and one
`Jet2.from_numerators` call builds the jet.  It declines (returns None)
any other shape, a zero coefficient or denominator, a term of total
degree past the order, and a literal of more than 100 digits or an
exponent of more than 4 digits; the recursive descent then reads the source as
if the fast path did not exist.  So the fast path never truncates, and
every error, its position, the degree-overflow flag and the digit
guards come from the descent alone.

Documents are line-oriented `key = value` files under a `[kind]` header,
kind one of map, ruled, center, folded, sb-normal, h-normal.  Blank lines
and '#' comments are ignored, a line that opens with '[' is a whole header
or an error, and each key may be given once.  Each value is parsed once,
by its key:

- a polynomial key (f1, f2, f3 for map; gamma1, gamma3, c3 for ruled)
  follows the grammar above at the document's order;
- a coefficient key (aij; b0j for sb-normal, bij for h-normal),
  theta_cos and theta_sin hold one signed rational,
  `['+'|'-'] rational`, so `0.5` and `1e3` are errors;
- theta is a finite decimal float literal in ASCII digits
  (`[+-]` digits with an optional fraction and exponent, no `_`).

A value's error names its key, with the position in that key's value.
What a map route drops gives a warning under its key, such as `f3:
degree overflow truncated to order 4`: a polynomial's terms past the
order, and, in key order, each nonzero Monge coefficient of a center or
folded document past the degree its map route builds (the order for
folded, one more for center, whose partials lose one).

Angles for folded documents are either an exact rational point on the
unit circle (theta_cos/theta_sin) or a float (theta), kept as given here
and read as an exact point on the unit circle by
`applications._theta_pair`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError
from .jets import Jet2, MapJet, over_lcm

# a token, or any other character that is not whitespace
_TOKEN = re.compile(r"([0-9]+|[uv^*+/()-])|(\S)")


def _tokenize(src: str):
    """(token, position) pairs in one scan, ending with (None, len(src))."""
    tokens = []
    for m in _TOKEN.finditer(src):
        tok, bad = m.groups()
        if bad:
            raise ParseError("unexpected character %r" % bad, m.start())
        tokens.append((tok, m.start()))
    tokens.append((None, len(src)))
    return tokens


# Python's default limit on the digits of an int read from or printed as text
_MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** _MAX_DIGITS
# 2^_DIGIT_BITS <= _DIGIT_BOUND < 2^(_DIGIT_BITS + 1)
_DIGIT_BITS = _DIGIT_BOUND.bit_length() - 1

# Each level of parentheses costs four parser frames (expr, term, factor,
# base), so this bound keeps a nested expression far from the recursion limit
_MAX_NESTING = 100


def _int(tok: str, pos: int) -> int:
    """A digit token as an int; literals past Python's digit limit are a ParseError."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError("integer literal of %d digits is too long" % len(tok), pos)


class _PolyParser:
    def __init__(self, src: str, order: int):
        self.src = src
        self.order = order
        self.tokens = _tokenize(src)
        self.k = 0
        self.depth = 0
        self.truncated = False

    def peek(self):
        return self.tokens[self.k][0]

    def pos(self):
        return self.tokens[self.k][1]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def parse(self) -> Jet2:
        jet = self.expr()
        self.end()
        return jet

    def value(self) -> Fraction:
        """The whole source as one signed rational: ['+'|'-'] rational."""
        negate = self.peek() == "-"
        if self.peek() in ("+", "-"):
            self.advance()
        value = self.rational(*self.advance())
        self.end()
        return -value if negate else value

    def end(self) -> None:
        # term() has already rejected a '/' after a polynomial's factor
        if self.peek() is not None:
            raise ParseError("unexpected token %r" % self.peek(), self.pos())

    def expr(self) -> Jet2:
        negate = False
        if self.peek() in ("+", "-"):
            negate = self.advance()[0] == "-"
        total = self.term()
        if negate:
            total = -total
        while self.peek() in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            total = total - rhs if op == "-" else total + rhs
        return total

    def term(self) -> Jet2:
        total = self.factor()
        while True:
            if self.peek() == "*":
                _, pos = self.advance()
                monomial = self.peek() in ("u", "v")
                rhs = self.factor()
                # deg(ab) = deg a + deg b; the zero jet's degree is -1, so it never flags
                if total.degree() + rhs.degree() > self.order:
                    self.truncated = True
                total = total * rhs
                # factors within the digit limit can multiply past it; a factor u^e
                # or v^e moves coefficients without changing them
                if not monomial and not total.coeffs_below(_DIGIT_BOUND):
                    raise ParseError("product has a coefficient of more than %d digits"
                                     % _MAX_DIGITS, pos)
            elif self.peek() == "/":
                raise ParseError("division token outside a rational literal", self.pos())
            else:
                return total

    def factor(self) -> Jet2:
        base = self.base()
        if self.peek() == "^":
            self.advance()
            tok, pos = self.advance()
            if tok is None or not tok.isdigit():
                raise ParseError("exponent must be a natural number", pos)
            exponent = _int(tok, pos)
            if exponent * base.degree() > self.order:
                self.truncated = True
            c = base.at0()
            if exponent > self.order and c == 0:
                return Jet2.zero(self.order)
            # the constant term of the power is c^exponent; a numerator or
            # denominator of b bits makes it at least 2^(exponent (b - 1)),
            # and past the digit limit it could be neither held nor printed
            bits = max(abs(c.numerator), c.denominator).bit_length() - 1
            if exponent * bits > _DIGIT_BITS:
                raise ParseError("power to %d has a constant term of more than %d digits"
                                 % (exponent, _MAX_DIGITS), pos)
            base = base ** exponent
            if not base.coeffs_below(_DIGIT_BOUND):
                raise ParseError("power to %d has a coefficient of more than %d digits"
                                 % (exponent, _MAX_DIGITS), pos)
        return base

    def base(self) -> Jet2:
        tok, pos = self.advance()
        if tok in ("u", "v"):
            return Jet2.variable(tok, self.order)
        if tok == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError("parentheses nested more than %d deep" % _MAX_NESTING, pos)
            inner = self.expr()
            closing, cpos = self.advance()
            if closing != ")":
                raise ParseError("expected ')'", cpos)
            self.depth -= 1
            return inner
        return Jet2.const(self.rational(tok, pos), self.order)

    def rational(self, tok, pos) -> Fraction:
        """The rule rational, whose first token tok (at pos) has been read."""
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if not tok.isdigit():
            raise ParseError("unexpected token %r" % tok, pos)
        value = Fraction(_int(tok, pos))
        if self.peek() == "/":
            self.advance()
            den_tok, den_pos = self.advance()
            if den_tok is None or not den_tok.isdigit():
                raise ParseError("denominator must be a positive integer", den_pos)
            den = _int(den_tok, den_pos)
            if den == 0:
                raise ParseError("zero denominator", den_pos)
            value /= den
        return value


# The fast path's literals and exponents stay far below the digit limit, so
# that no digit guard of the descent could apply to what it accepts
_FAST_DIGITS = 100
_FAST_EXPONENT_DIGITS = 4
_LIT = r"([0-9]{1,%d})(?:\s*/\s*([0-9]{1,%d}))?" % (_FAST_DIGITS, _FAST_DIGITS)
_VAR = r"[uv](?:\s*\^\s*[0-9]{1,%d})?" % _FAST_EXPONENT_DIGITS
_MONO = r"(%s(?:\s*\*\s*%s)*)" % (_VAR, _VAR)
# one signed term: a coefficient c or (c), optionally times a monomial, or a
# bare monomial; groups: sign, c, its denominator, (c)'s sign, c, its
# denominator, the monomial after a coefficient, a bare monomial
_TERM = re.compile(r"\s*([+-]?)\s*(?:(?:%s|\(\s*([+-]?)\s*%s\s*\))(?:\s*\*\s*%s)?|%s)\s*"
                   % (_LIT, _LIT, _MONO, _MONO))
_FACTOR = re.compile(r"([uv])(?:\s*\^\s*([0-9]+))?")


def _scan_sum(src: str, order: int):
    """The jet of a sum of terms c*u^i*v^j, in one pass, or None if src is not one.

    None also for a zero coefficient or denominator and for a term of total
    degree past `order`: those, and every other shape, are left to the
    descent, so each error, warning and digit guard comes from it alone.
    """
    terms = []
    pos, end = 0, len(src)
    while True:
        m = _TERM.match(src, pos)
        if m is None:
            return None
        sign, num, den, inner_sign, inner_num, inner_den, mono, bare = m.groups()
        if terms and not sign:
            return None
        if inner_num is not None:
            num, den = inner_num, inner_den
            if inner_sign == "-":
                sign = "+" if sign == "-" else "-"
        n = 1 if num is None else int(num)
        d = 1 if den is None else int(den)
        if not n or not d:
            return None
        i = j = 0
        mono = mono or bare
        if mono:
            for var, exp in _FACTOR.findall(mono):
                if var == "u":
                    i += int(exp) if exp else 1
                else:
                    j += int(exp) if exp else 1
            if i + j > order:
                return None
        terms.append(((i, j), -n if sign == "-" else n, d))
        pos = m.end()
        if pos == end:
            break
    return Jet2.from_numerators(order, *over_lcm(terms))


def parse_poly(src: str, order: int = 6) -> Jet2:
    """Parse a polynomial expression into a jet of the given order."""
    return parse_poly_ex(src, order)[0]


def parse_poly_ex(src: str, order: int = 6):
    """Like parse_poly, also reporting whether a product or power ran past the order.

    A sum of terms c*u^i*v^j within the order is read by `_scan_sum`; any
    other source by the recursive descent `_PolyParser`.
    """
    jet = _scan_sum(src, order)
    if jet is not None:
        return jet, False
    parser = _PolyParser(src, order)
    jet = parser.parse()
    return jet, parser.truncated


# kind: (polynomial keys, each required; coefficient letters)
_KINDS = {
    "map": (("f1", "f2", "f3"), ""),
    "ruled": (("gamma1", "gamma3", "c3"), ""),
    "center": ((), "a"),
    "folded": ((), "a"),
    "sb-normal": ((), "ab"),
    "h-normal": ((), "ab"),
}
_COEFF_KEY = re.compile(r"([ab])([0-9])([0-9])")
_DIGITS = re.compile(r"[0-9]+")
# a decimal float literal in ASCII digits, with no '_'; inf and nan pass here
# so that the finiteness check names them
_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                    r"|(?i:inf|infinity|nan))")


@dataclass
class MapSpecDoc:
    kind: str
    order: int = 6
    jets: dict = field(default_factory=dict)     # polynomial key -> Jet2
    coeffs: dict = field(default_factory=dict)   # letter -> {(i, j): Fraction}
    theta: tuple | float | None = None
    warnings: list = field(default_factory=list)

    def to_map_jet(self) -> MapJet:
        return MapJet.germ(self.jets["f1"], self.jets["f2"], self.jets["f3"])


def _keyed(key: str, read, *args):
    """read(*args), prefixing a ParseError with its key; its position stays in the key's value."""
    try:
        return read(*args)
    except ParseError as err:
        err.args = ("key %s: %s" % (key, err),)
        raise


def _rational(src: str) -> Fraction:
    """A coefficient, theta_cos or theta_sin value: ['+'|'-'] rational."""
    return _PolyParser(src, 0).value()


def parse_doc(text: str) -> MapSpecDoc:
    """Parse and validate a classification document."""
    doc = None
    sources, pair = {}, {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("line %d: malformed [kind] header %r: a header line "
                                 "holds only [kind]" % (lineno, line))
            kind = line[1:-1].strip()
            if kind not in _KINDS:
                raise ParseError("line %d: unknown kind %r" % (lineno, kind))
            if doc is not None:
                raise ParseError("line %d: duplicate [kind] header" % lineno)
            poly_keys, letters = _KINDS[kind]
            doc = MapSpecDoc(kind, coeffs={g: {} for g in letters})
            continue
        if doc is None:
            raise ParseError("line %d: content before the [kind] header" % lineno)
        if "=" not in line:
            raise ParseError("line %d: expected key = value" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ParseError("line %d: duplicate key %r" % (lineno, key))
        seen.add(key)
        coeff = _COEFF_KEY.fullmatch(key) if letters else None
        if key == "order":
            if not _DIGITS.fullmatch(value) or len(value) > _MAX_DIGITS:
                raise ParseError("key order: not an integer: %r" % value)
            order = int(value)
            if not 2 <= order <= 10:
                raise ParseError("key order: must be within 2..10, got %d" % order)
            doc.order = order
        elif key in poly_keys:
            sources[key] = value
        elif coeff:
            g, i, j = coeff.groups()
            if g not in letters:
                raise ParseError("kind %r: b-coefficients are not accepted" % doc.kind)
            if g == "b" and doc.kind == "sb-normal" and i != "0":
                raise ParseError("sb-normal: b-coefficients must be b0j (got b%s%s)" % (i, j))
            doc.coeffs[g][int(i), int(j)] = _keyed(key, _rational, value)
        elif key == "theta" and doc.kind == "folded":
            if not _FLOAT.fullmatch(value):
                raise ParseError("key theta: not a number: %r" % value)
            doc.theta = float(value)
            if not math.isfinite(doc.theta):
                raise ParseError("key theta: must be finite, got %r" % value)
        elif key in ("theta_cos", "theta_sin") and doc.kind == "folded":
            pair[key] = _keyed(key, _rational, value)
        else:
            raise ParseError("line %d: unknown key %r for kind %r"
                             % (lineno, key, doc.kind))
    if doc is None:
        raise ParseError("missing [kind] header")
    for key in poly_keys:
        if key not in sources:
            raise ParseError("kind %r: missing component %r" % (doc.kind, key))
        doc.jets[key], truncated = _keyed(key, parse_poly_ex, sources[key], doc.order)
        if truncated:
            doc.warnings.append("%s: degree overflow truncated to order %d" % (key, doc.order))
    if letters and not any(doc.coeffs.values()):
        raise ParseError("kind %r: no coefficients given" % doc.kind)
    if doc.kind in ("center", "folded"):
        # the map route builds the Monge jet at the order, or one above it for
        # center, whose partials lose one: a coefficient past that is dropped
        top = doc.order + (doc.kind == "center")
        doc.warnings += ["a%d%d: degree overflow truncated to order %d" % (i, j, doc.order)
                         for (i, j), c in sorted(doc.coeffs["a"].items()) if c and i + j > top]
    if doc.kind == "folded":
        if len(pair) == 1:
            raise ParseError("folded: theta_cos and theta_sin must be given together")
        if pair:
            if doc.theta is not None:
                raise ParseError("folded: give either theta or a (cos, sin) pair")
            doc.theta = (pair["theta_cos"], pair["theta_sin"])
            if doc.theta[0] ** 2 + doc.theta[1] ** 2 != 1:
                raise ParseError("folded: theta_cos^2 + theta_sin^2 must equal 1 exactly")
        elif doc.theta is None:
            doc.theta = (Fraction(1), Fraction(0))
    return doc

