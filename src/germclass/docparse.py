"""Parsing of polynomial expressions and classification documents.

Polynomial grammar (whitespace insignificant, no implicit multiplication):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' natural)?
    base     := rational | 'u' | 'v' | '(' expr ')'
    rational := integer ('/' positive-integer)?

A '/' may only appear inside a rational literal; "u/2" is a syntax error.
Parentheses nest at most 100 deep, and a power or product with a
coefficient past Python's 4300-digit limit is an error at its '^' or '*'.

Documents are line-oriented `key = value` files under a `[kind]` header,
kind one of map, ruled, center, folded, sb-normal, h-normal.  Blank lines
and '#' comments are ignored, and each key may be given once.  Angles for
folded documents are either an exact rational point on the unit circle
(theta_cos/theta_sin) or a float (theta), kept as given here and read as
an exact point on the unit circle by `applications._theta_pair`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .applications import MongeCoeffs, RuledData
from .errors import ParseError
from .jets import Jet2, MapJet, poly_str
from .oracle import HNormalCoeffs, SBNormalCoeffs

_TOKEN = re.compile(r"\s*(\d+|[uv]|\^|\*|\+|-|/|\(|\))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0],
                             len(src) - len(stripped))
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    tokens.append((None, len(src)))
    return tokens


# Python's default limit on the digits of an int read from or printed as text
_MAX_DIGITS = 4300
_DIGIT_BOUND = 10 ** _MAX_DIGITS

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
        if self.peek() is not None:
            if self.peek() == "/":
                raise ParseError("division token outside a rational literal", self.pos())
            raise ParseError("unexpected token %r" % self.peek(), self.pos())
        return jet

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
                if not monomial and any(max(abs(c.numerator), c.denominator) >= _DIGIT_BOUND
                                        for _, c in total.items()):
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
            # the constant term of the power is c^exponent; past the digit
            # limit it could be neither computed in memory nor printed
            size = max(abs(c.numerator), c.denominator)
            if size > 1 and exponent * math.log10(size) > _MAX_DIGITS:
                raise ParseError("power to %d has a constant term of more than %d digits"
                                 % (exponent, _MAX_DIGITS), pos)
            base = base ** exponent
        return base

    def base(self) -> Jet2:
        tok, pos = self.advance()
        if tok is None:
            raise ParseError("unexpected end of input", pos)
        if tok.isdigit():
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
            return Jet2.const(value, self.order)
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
        raise ParseError("unexpected token %r" % tok, pos)


def parse_poly(src: str, order: int = 6) -> Jet2:
    """Parse a polynomial expression into a jet of the given order."""
    return _PolyParser(src, order).parse()


def parse_poly_ex(src: str, order: int = 6):
    """Like parse_poly, also reporting whether a product or power ran past the order."""
    parser = _PolyParser(src, order)
    jet = parser.parse()
    return jet, parser.truncated


KINDS = ("map", "ruled", "center", "folded", "sb-normal", "h-normal")

_KEYS = {
    "map": {"f1", "f2", "f3"},
    "ruled": {"gamma1", "gamma3", "c3"},
    "center": set(),
    "folded": {"theta", "theta_cos", "theta_sin"},
    "sb-normal": set(),
    "h-normal": set(),
}
_COEFF_KEY = re.compile(r"^([ab])(\d)(\d)$")


@dataclass
class MapSpecDoc:
    kind: str
    order: int = 6
    exprs: dict = field(default_factory=dict)        # key -> raw source string
    coeffs: dict = field(default_factory=dict)       # ('a', i, j) -> Fraction
    theta: tuple | float | None = None
    warnings: list = field(default_factory=list)
    jets: dict = field(default_factory=dict, repr=False, compare=False)  # key -> parsed Jet2

    # -- builders --------------------------------------------------------

    def jet(self, key: str) -> Jet2:
        """The jet of one component, parsed once (its warning is recorded then)."""
        jet = self.jets.get(key)
        if jet is None:
            jet, truncated = parse_poly_ex(self.exprs[key], self.order)
            if truncated:
                self.warnings.append("%s: degree overflow truncated to order %d"
                                     % (key, self.order))
            self.jets[key] = jet
        return jet

    def to_map_jet(self) -> MapJet:
        return MapJet.germ(self.jet("f1"), self.jet("f2"), self.jet("f3"))

    def to_ruled_data(self) -> RuledData:
        return RuledData(self.jet("gamma1"), self.jet("gamma3"), self.jet("c3"))

    def to_monge(self) -> MongeCoeffs:
        return MongeCoeffs({(i, j): c for (g, i, j), c in self.coeffs.items() if g == "a"})

    def to_sb_coeffs(self) -> SBNormalCoeffs:
        a = {(i, j): c for (g, i, j), c in self.coeffs.items() if g == "a"}
        b = {j: c for (g, i, j), c in self.coeffs.items() if g == "b" and i == 0}
        return SBNormalCoeffs(a, b)

    def to_h_coeffs(self) -> HNormalCoeffs:
        a = {(i, j): c for (g, i, j), c in self.coeffs.items() if g == "a"}
        b = {(i, j): c for (g, i, j), c in self.coeffs.items() if g == "b"}
        return HNormalCoeffs(a, b)


def _parse_rational(text: str, key: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("key %s: invalid rational %r" % (key, text))


def parse_doc(text: str) -> MapSpecDoc:
    """Parse and validate a classification document."""
    doc = None
    theta_cos = theta_sin = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            kind = line[1:-1].strip()
            if kind not in KINDS:
                raise ParseError("line %d: unknown kind %r" % (lineno, kind))
            if doc is not None:
                raise ParseError("line %d: duplicate [kind] header" % lineno)
            doc = MapSpecDoc(kind)
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
        if key == "order":
            try:
                order = int(value)
            except ValueError:
                raise ParseError("key order: not an integer: %r" % value)
            if not 2 <= order <= 10:
                raise ParseError("key order: must be within 2..10, got %d" % order)
            doc.order = order
        elif key in _KEYS[doc.kind]:
            if key == "theta":
                try:
                    doc.theta = float(value)
                except ValueError:
                    raise ParseError("key theta: not a number: %r" % value)
                if not math.isfinite(doc.theta):
                    raise ParseError("key theta: must be finite, got %r" % value)
            elif key == "theta_cos":
                theta_cos = _parse_rational(value, key)
            elif key == "theta_sin":
                theta_sin = _parse_rational(value, key)
            else:
                doc.exprs[key] = value
        elif _COEFF_KEY.match(key) and doc.kind in ("center", "folded", "sb-normal",
                                                    "h-normal"):
            g, i, j = _COEFF_KEY.match(key).groups()
            doc.coeffs[(g, int(i), int(j))] = _parse_rational(value, key)
        else:
            raise ParseError("line %d: unknown key %r for kind %r"
                             % (lineno, key, doc.kind))
    if doc is None:
        raise ParseError("missing [kind] header")
    _validate_doc(doc, theta_cos, theta_sin)
    return doc


def _validate_doc(doc: MapSpecDoc, theta_cos, theta_sin) -> None:
    needed = {"map": ("f1", "f2", "f3"), "ruled": ("gamma1", "gamma3", "c3")}
    for key in needed.get(doc.kind, ()):
        if key not in doc.exprs:
            raise ParseError("kind %r: missing component %r" % (doc.kind, key))
        doc.jet(key)  # parsed once, here: syntax errors carry the key's source position
    if doc.kind in ("center", "folded", "sb-normal", "h-normal") and not doc.coeffs:
        raise ParseError("kind %r: no coefficients given" % doc.kind)
    if doc.kind == "folded":
        if (theta_cos is None) != (theta_sin is None):
            raise ParseError("folded: theta_cos and theta_sin must be given together")
        if theta_cos is not None:
            if doc.theta is not None:
                raise ParseError("folded: give either theta or a (cos, sin) pair")
            if theta_cos * theta_cos + theta_sin * theta_sin != 1:
                raise ParseError("folded: theta_cos^2 + theta_sin^2 must equal 1 exactly")
            doc.theta = (theta_cos, theta_sin)
        elif doc.theta is None:
            doc.theta = (Fraction(1), Fraction(0))
    if doc.kind in ("h-normal", "sb-normal", "center", "folded"):
        for (g, i, j) in doc.coeffs:
            if g == "b" and doc.kind in ("center", "folded"):
                raise ParseError("kind %r: b-coefficients are not accepted" % doc.kind)
            if g == "b" and doc.kind == "sb-normal" and i != 0:
                raise ParseError("sb-normal: b-coefficients must be b0j (got b%d%d)"
                                 % (i, j))


def format_doc(doc: MapSpecDoc) -> str:
    """Canonical text for a document; parse(format(doc)) round-trips."""
    lines = ["[%s]" % doc.kind, "order = %d" % doc.order]
    for key in sorted(doc.exprs):
        lines.append("%s = %s" % (key, poly_str(parse_poly(doc.exprs[key], doc.order))))
    for (g, i, j) in sorted(doc.coeffs):
        lines.append("%s%d%d = %s" % (g, i, j, doc.coeffs[(g, i, j)]))
    if doc.kind == "folded" and doc.theta is not None:
        if isinstance(doc.theta, tuple):
            lines.append("theta_cos = %s" % doc.theta[0])
            lines.append("theta_sin = %s" % doc.theta[1])
        else:
            lines.append("theta = %.17g" % doc.theta)
    return "\n".join(lines) + "\n"
