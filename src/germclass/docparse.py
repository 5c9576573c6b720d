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
and '#' comments are ignored, a line that opens with '[' is a whole header
or an error, and each key may be given once.  Each value is parsed once,
by its key:

- a polynomial key (f1, f2, f3 for map; gamma1, gamma3, c3 for ruled)
  follows the grammar above at the document's order;
- a coefficient key (aij; b0j for sb-normal, bij for h-normal),
  theta_cos and theta_sin hold one signed rational,
  `['+'|'-'] rational`, so `0.5` and `1e3` are errors;
- theta is a finite float.

A value's error names its key, with the position in that key's value.
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


def parse_poly(src: str, order: int = 6) -> Jet2:
    """Parse a polynomial expression into a jet of the given order."""
    return _PolyParser(src, order).parse()


def parse_poly_ex(src: str, order: int = 6):
    """Like parse_poly, also reporting whether a product or power ran past the order."""
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
_COEFF_KEY = re.compile(r"([ab])(\d)(\d)")


@dataclass
class MapSpecDoc:
    kind: str
    order: int = 6
    jets: dict = field(default_factory=dict)     # polynomial key -> Jet2
    coeffs: dict = field(default_factory=dict)   # letter -> {(i, j): Fraction}
    theta: tuple | float | None = None
    warnings: list = field(default_factory=list)

    # -- builders --------------------------------------------------------

    def to_map_jet(self) -> MapJet:
        return MapJet.germ(self.jets["f1"], self.jets["f2"], self.jets["f3"])

    def to_ruled_data(self) -> RuledData:
        return RuledData(self.jets["gamma1"], self.jets["gamma3"], self.jets["c3"])

    def to_monge(self) -> MongeCoeffs:
        return MongeCoeffs(self.coeffs["a"])

    def to_sb_coeffs(self) -> SBNormalCoeffs:
        return SBNormalCoeffs(self.coeffs["a"], {j: c for (_, j), c in self.coeffs["b"].items()})

    def to_h_coeffs(self) -> HNormalCoeffs:
        return HNormalCoeffs(self.coeffs["a"], self.coeffs["b"])


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
            try:
                order = int(value)
            except ValueError:
                raise ParseError("key order: not an integer: %r" % value)
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
            try:
                doc.theta = float(value)
            except ValueError:
                raise ParseError("key theta: not a number: %r" % value)
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
