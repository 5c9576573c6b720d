import ast
import math
import re
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germclass import docparse
from germclass.docparse import parse_doc, parse_poly, parse_poly_ex
from germclass.errors import ParseError
from germclass.jets import Jet2, poly_str
from reference import format_doc
from util import jet, random_jet, rational, reference_poly


def test_parse_s2_expression():
    assert parse_poly("v*(u^3+v^2)") == jet({(3, 1): 1, (0, 3): 1})


def test_parse_rational_coefficient():
    assert parse_poly("1/2*v^2") == jet({(0, 2): Fraction(1, 2)})


def test_double_star_rejected_with_position():
    with pytest.raises(ParseError) as err:
        parse_poly("u**2")
    assert err.value.position == 2


def test_division_outside_rational_rejected():
    with pytest.raises(ParseError) as err:
        parse_poly("u/2")
    assert "rational literal" in str(err.value)
    with pytest.raises(ParseError):
        parse_poly("(1+u)/2")


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_poly("1/0")


def test_unary_minus_and_precedence():
    assert parse_poly("-u") == jet({(1, 0): -1})
    assert parse_poly("1-2*u") == jet({(0, 0): 1, (1, 0): -2})
    assert parse_poly("(1+u)^2") == jet({(0, 0): 1, (1, 0): 2, (2, 0): 1})


def test_unknown_character_rejected():
    with pytest.raises(ParseError):
        parse_poly("u + w")


def test_overflow_flag():
    assert parse_poly_ex("u^7", 6)[1] is True
    assert parse_poly_ex("u^4*v^4", 6)[1] is True
    assert parse_poly_ex("u^3*v^3", 6)[1] is False
    assert parse_poly_ex("u^7", 6)[0] == Jet2.zero(6)
    # products whose degree is past twice the order still flag
    assert parse_poly_ex("u^4*u^4*u^4*u^4", 6)[1] is True
    assert parse_poly_ex("u^5*v^5*u^5", 6)[1] is True
    assert parse_poly_ex("(u^2)^4", 6)[1] is True
    # a large exponent on a constant truncates nothing
    assert parse_poly_ex("2^10", 6) == (Jet2.const(1024, 6), False)


@pytest.mark.parametrize("c, e", [(1, 20), (2, 100), (Fraction(1, 2), 3000)])
def test_power_of_constant_plus_v_is_binomial(c, e):
    """(c+v)^e within the digit limit still parses to sum_k C(e, k) c^(e-k) v^k."""
    want = jet({(0, k): math.comb(e, k) * Fraction(c) ** (e - k) for k in range(7)})
    assert parse_poly("(%s+v)^%d" % (c, e)) == want


@pytest.mark.parametrize("src, position", [
    ("u*(1/2+v)^99999999999", 10), ("(2+v)^14285", 6), ("(-1/3*u+5/4+v)^6900", 15),
    ("((1/2+v)^1000)^1000", 15),
    # the constant term has 4300 digits, the v coefficient 14284 (-2)^14283 has 4304
    ("(-2+v)^14284", 7),
    # the constant term 10^4300 has 4301 digits: a bound on its bits alone cannot tell
    ("(10+v)^4300", 7),
    # a constant term of 0 or 1 cannot grow, but the other coefficients do
    pytest.param("(%s*u)^5" % ("9" * 4000), 4005, id="(4000-nines*u)^5-4005"),
    pytest.param("(1+u*v)^%d - 1" % 10 ** 2000, 8, id="(1+u*v)^(10^2000)-1-8"),
    pytest.param("(1+u)^%d" % 10 ** 4299, 6, id="(1+u)^(10^4299)-6"),
    pytest.param("(1+u+v)^%d" % 10 ** 4299, 8, id="(1+u+v)^(10^4299)-8")])
def test_power_past_the_digit_limit_rejected(src, position):
    """A power with a coefficient past 4300 digits is a ParseError at its exponent."""
    with pytest.raises(ParseError, match="more than 4300 digits") as err:
        parse_poly(src)
    assert err.value.position == position
    # a constant term of 0 or +-1 has no digits to grow
    for base in ("(1+v)", "(-1+u)", "(u+v)"):
        parse_poly("%s^99999999999" % base, 2)


@pytest.mark.parametrize("src, position", [("u*v*(1/2+v)^14000*(1/2+v)^14000", 17),
                                           ("(2+v)^8000*3^8000", 10),
                                           ("(1/2+v)^3000*u*(1/3+v)^3000*v*(1/5+v)^3000", 29)])
def test_product_past_the_digit_limit_rejected(src, position):
    """A product with a coefficient past 4300 digits is a ParseError at its '*',
    whichever coefficient passes the limit: the first and last products have a
    constant term of 0."""
    with pytest.raises(ParseError, match="more than 4300 digits") as err:
        parse_poly(src)
    assert err.value.position == position
    # within the limit a product still parses
    assert parse_poly("(1/2+v)^7000*(1/2+v)^7000") == parse_poly("(1/2+v)^14000")


def test_product_digit_guard_reads_each_coefficient_in_lowest_terms():
    """The shared denominator 3^4000 7^4000 has 5289 digits, but no coefficient
    in lowest terms has more than 3381, so the product parses."""
    assert 3 ** 4000 * 7 ** 4000 >= 10 ** 4300
    src = "((1/3)^4000*u^4 + v)*(1 + (1/7)^4000*v^3)"
    got = parse_poly(src, 6)
    assert list(got.items()) == [((0, 1), Fraction(1)), ((0, 4), Fraction(1, 7 ** 4000)),
                                 ((4, 0), Fraction(1, 3 ** 4000))]
    assert list(got.items()) == list(reference_poly(src, 6).items())


_GAP = st.sampled_from(["", " "])
# 11 is past every order: a one-term power of a non-constant truncates to 0
_EXPONENT = st.integers(0, 4) | st.just(11)
_LITERAL = st.builds(lambda num, den: str(num) if den == 1 else "%d/%d" % (num, den),
                     st.integers(0, 12), st.integers(1, 6))


@st.composite
def poly_sources(draw, depth=2):
    """A valid source: a signed sum of products of literals, u, v, powers and
    parenthesized sums, with optional spaces around the operators."""
    def factor():
        choice = draw(st.integers(0, 3 if depth else 2))
        base = (draw(_LITERAL) if choice == 0 else "uv"[choice - 1] if choice < 3
                else "(%s)" % draw(poly_sources(depth - 1)))
        if draw(st.booleans()):
            base += draw(_GAP) + "^" + draw(_GAP) + str(draw(_EXPONENT))
        return base

    def term():
        return (draw(_GAP) + "*" + draw(_GAP)).join(
            factor() for _ in range(draw(st.integers(1, 3))))

    text = draw(st.sampled_from(["", "+", "-"])) + term()
    for _ in range(draw(st.integers(0, 3))):
        text += draw(_GAP) + draw(st.sampled_from("+-")) + draw(_GAP) + term()
    return text


# digit counts on both sides of the fast path's cap and of Python's limit
_CAP_DIGITS = [1, 2, 99, 100, 101]
_DIGIT_COUNTS = st.sampled_from(_CAP_DIGITS + [4299, 4300, 4301])
# exponents on both sides of every order 0..10 and of the fast path's cap of 4 digits
_FAST_EXPONENT = st.sampled_from(["0", "1", "2", "3", "5", "11", "0003", "9999", "10000"])


@st.composite
def fast_boundary_sources(draw, malformed=False):
    """A sum of terms on both sides of the fast path's boundary: monomial terms
    c*u^i*v^j, bare or with a plain or parenthesized coefficient, next to
    shapes it declines (a zero coefficient, a power or parentheses around a
    value, a coefficient after a variable, literals past 100 digits and
    exponents past 4).  Every value stays within the digit limit unless
    `malformed`; then literals of 4299-4301 digits, powers past the limit
    and malformed pieces join them (a missing '*', u/2, 1/0, a bad
    exponent, an unclosed parenthesis)."""
    gap = draw(_GAP)
    digits = _DIGIT_COUNTS if malformed else st.sampled_from(_CAP_DIGITS)
    power = _FAST_EXPONENT if malformed else st.sampled_from(["0", "1", "3"])

    def literal():
        num = draw(st.integers(0, 12).map(str) | digits.map(lambda n: "1" + "0" * (n - 1)))
        if draw(st.booleans()):
            num += gap + "/" + gap + draw(st.integers(0 if malformed else 1, 7).map(str))
        return num

    def coefficient():
        c = literal()
        if draw(st.booleans()):
            c = "(" + gap + draw(st.sampled_from(["", "+", "-"])) + gap + c + gap + ")"
        return c

    def monomial():
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            factor = draw(st.sampled_from("uv"))
            if draw(st.booleans()):
                factor += gap + "^" + gap + draw(_FAST_EXPONENT)
            factors.append(factor)
        return (gap + "*" + gap).join(factors)

    # the shapes the fast path reads, weighted so that whole sums of them are common
    shapes = 6 * [coefficient, monomial, lambda: coefficient() + gap + "*" + gap + monomial()]
    shapes += [lambda: "0*" + monomial(), lambda: monomial() + "*" + literal(),
              lambda: "(" + coefficient() + ")", lambda: "((" + monomial() + "))",
              lambda: "(" + literal() + "+" + monomial() + ")^2",
              lambda: coefficient() + "^" + draw(power)]
    if malformed:
        shapes += [lambda: "2u", lambda: "u/2", lambda: "1/0*u", lambda: "u^", lambda: "u^-1",
                   lambda: "(u", lambda: "u)", lambda: "**", lambda: "u w",
                   lambda: "9" * draw(_DIGIT_COUNTS) + "*u", lambda: "u^" + "9" * 4301]
    terms = [draw(st.sampled_from(shapes))() for _ in range(draw(st.integers(1, 4)))]
    text = draw(st.sampled_from(["", "+", "-"])) + gap + terms[0]
    for term in terms[1:]:
        text += gap + draw(st.sampled_from("+-")) + gap + term
    return text


def _outcome(parse):
    """(order, items, truncated) of a parse, or the message and position of its ParseError."""
    try:
        jet, truncated = parse()
    except ParseError as err:
        return str(err), err.position
    return jet.order, jet.items(), truncated


def _descent(src, order):
    parser = docparse._PolyParser(src, order)
    jet = parser.parse()
    return jet, parser.truncated


@settings(max_examples=300, deadline=None)
@given(fast_boundary_sources(malformed=True) | fast_boundary_sources() | poly_sources(),
       st.integers(0, 10))
def test_fast_path_agrees_with_the_descent(src, order):
    """parse_poly_ex gives the descent's jet and overflow flag, or its exact error,
    on either side of every boundary of the fast path."""
    assert _outcome(lambda: parse_poly_ex(src, order)) == _outcome(lambda: _descent(src, order))


@pytest.mark.parametrize("src, order", [
    ("u", 6), ("v^2", 6), ("u*v", 2), ("u*u", 2), ("u^0", 0), ("(3)", 0), ("(-3/4)*v^2", 6),
    ("- 2 * u ^ 2 * v + 1 / 3", 6), ("9" * 100 + "*u", 6), ("u^0003", 3),
])
def test_fast_path_accepts_monomial_sums(src, order):
    assert docparse._scan_sum(src, order) == _descent(src, order)[0]


@pytest.mark.parametrize("src, order", [
    ("u*u", 1), ("u^7", 6), ("u", 0), ("0*u", 6), ("0", 6), ("1/0", 6), ("2u", 6),
    ("u*2", 6), ("(1+u)", 6), ("((u))", 6), ("(2)^3", 6), ("2^3", 6), ("u/2", 6), ("--u", 6),
    ("", 6), (" ", 6), ("9" * 101 + "*u", 6), ("u^10000", 6), ("u v", 6),
])
def test_fast_path_declines_everything_else(src, order):
    assert docparse._scan_sum(src, order) is None


class _RefusingParser:
    def __init__(self, src, order):
        raise AssertionError("the descent read %r" % src)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 10))
def test_printed_jets_and_ruled_sums_take_only_the_fast_path(seed, order):
    """poly_str of any nonzero jet, and a `(c)*v^j` sum as ruled documents write
    them, parse without the descent, to the same jet."""
    rng = Random(seed)
    printed = random_jet(rng, order, max_degree=order, density=0.5)
    ruled = {j: rational(rng, bound=50, den=9, nonzero=True) for j in range(order + 1)
             if rng.random() < 0.7} or {0: Fraction(1)}
    ruled_src = " + ".join("(%s)*v^%d" % (c, j) for j, c in sorted(ruled.items()))
    want_ruled = Jet2(order, {(0, j): c for j, c in ruled.items()})
    cases = [(ruled_src, want_ruled)] + ([(poly_str(printed), printed)] if printed.items() else [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(docparse, "_PolyParser", _RefusingParser)
        for src, want in cases:
            assert parse_poly_ex(src, order) == (want, False)


@settings(max_examples=120, deadline=None)
@given(poly_sources() | fast_boundary_sources(), st.integers(0, 10))
def test_parse_matches_naive_reference(src, order):
    """Parsing into canonical form gives the naive build's coefficients."""
    assert parse_poly(src, order) == reference_poly(src, order)


def test_nesting_past_the_bound_rejected():
    """Parentheses deeper than the bound are a ParseError at the first one past it."""
    assert parse_poly("(" * 100 + "u+v" + ")" * 100) == parse_poly("u+v")
    with pytest.raises(ParseError, match="nested more than 100 deep") as err:
        parse_poly("u*" + "(" * 300 + "u" + ")" * 300)
    assert err.value.position == 102


@pytest.mark.parametrize("src, message, position", [
    ("u**v", "unexpected token '*'", 2),
    ("u*" + "(" * 101 + "u" + ")" * 101, "parentheses nested more than 100 deep", 102),
    ("(2+v)^14285", "power to 14285 has a constant term of more than 4300 digits", 6),
    ("u*" + "7" * 5000, "integer literal of 5000 digits is too long", 2),
], ids=["syntax", "nesting", "power-digits", "literal-digits"])
def test_document_syntax_error_names_its_key(src, message, position):
    """A polynomial error in a document says which key it is in, and where in it."""
    with pytest.raises(ParseError) as err:
        parse_doc("[map]\nf1 = u\nf2 = v^2\nf3 = %s\n" % src)
    assert str(err.value) == "key f3: %s at position %d" % (message, position)
    assert err.value.position == position


def test_whitespace_insignificant():
    assert parse_poly(" v * ( u ^ 3 + v ^ 2 ) ") == parse_poly("v*(u^3+v^2)")


MAP_DOC = """
# the codimension-two S2 model
[map]
order = 6
f1 = u
f2 = v^2
f3 = v*(u^3+v^2)
"""


def test_parse_map_doc():
    doc = parse_doc(MAP_DOC)
    assert doc.kind == "map"
    assert doc.order == 6
    f = doc.to_map_jet()
    assert f[2] == jet({(3, 1): 1, (0, 3): 1})


def test_map_doc_parses_each_component_once(monkeypatch):
    """Each component is read once: a monomial sum by the scanner alone, any
    other source by the scanner declining it and then the descent."""
    calls = []
    parse, scan = docparse._PolyParser.parse, docparse._scan_sum

    def counted(self):
        calls.append(("descent", self.src))
        return parse(self)

    def scanned(src, order):
        calls.append(("scan", src))
        return scan(src, order)

    monkeypatch.setattr(docparse._PolyParser, "parse", counted)
    monkeypatch.setattr(docparse, "_scan_sum", scanned)
    doc = parse_doc(MAP_DOC)
    doc.to_map_jet()
    doc.to_map_jet()
    format_doc(doc)
    assert calls == [("scan", "u"), ("scan", "v^2"), ("scan", "v*(u^3+v^2)"),
                     ("descent", "v*(u^3+v^2)")]


def test_readme_map_document_builds_no_jet_through_the_constructor(monkeypatch):
    """Literals, variables, powers and parser arithmetic build canonical jets by
    the trusted constructors: the README's S2 document never calls Jet2.__init__."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = re.search(r"^cat > s2.germ <<'EOF'\n(.*?)^EOF$", readme, re.S | re.M).group(1)
    want = jet({(3, 1): 1, (0, 3): 1})
    calls = []
    init = Jet2.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Jet2, "__init__", counted)
    f = parse_doc(text).to_map_jet()
    assert calls == []
    assert f[2] == want


def test_doc_round_trip():
    doc = parse_doc(MAP_DOC)
    text = format_doc(doc)
    assert format_doc(parse_doc(text)) == text
    center = parse_doc("[center]\na02 = 1\na20 = 2\na03 = 1\na21 = 1\n")
    assert format_doc(parse_doc(format_doc(center))) == format_doc(center)
    folded = parse_doc("[folded]\na02 = 1\na20 = 1\ntheta_cos = 3/5\ntheta_sin = 4/5\n")
    assert format_doc(parse_doc(format_doc(folded))) == format_doc(folded)


@pytest.mark.parametrize("theta", [0.5, 0.1, math.atan2(4, 3), -2.5, 7.0])
def test_doc_round_trip_float_angle(theta):
    folded = parse_doc("[folded]\na02 = 1\na20 = 1\ntheta = %r\n" % theta)
    again = parse_doc(format_doc(folded))
    assert again.theta == folded.theta == theta
    assert format_doc(again) == format_doc(folded)


def test_center_doc_coefficients():
    doc = parse_doc("[center]\na02 = 1\na20 = 2\na03 = 1\na21 = 1\n")
    assert doc.coeffs == {"a": {(0, 2): 1, (2, 0): 2, (0, 3): 1, (2, 1): 1}}


def test_coefficient_reads_as_a_rational_literal():
    """A coefficient value is one signed rational of the polynomial grammar."""
    doc = parse_doc("[center]\na02 = 1 / 2\na20 = - 3/4\n")
    assert doc.coeffs == {"a": {(0, 2): Fraction(1, 2), (2, 0): Fraction(-3, 4)}}


def test_folded_doc_exact_angle():
    doc = parse_doc("[folded]\na02 = 1\na20 = 1\ntheta_cos = 3/5\ntheta_sin = 4/5\n")
    assert doc.theta == (Fraction(3, 5), Fraction(4, 5))


def test_folded_doc_unit_circle_enforced():
    with pytest.raises(ParseError) as err:
        parse_doc("[folded]\na02 = 1\ntheta_cos = 1/2\ntheta_sin = 1/2\n")
    assert "unit circle" in str(err.value) or "equal 1" in str(err.value)


def test_folded_doc_float_angle_kept_and_mode_key_unknown():
    doc = parse_doc("[folded]\na02 = 1\na20 = 1\ntheta = 0.5\n")
    assert doc.theta == 0.5
    for value in ("+.5", "5.", "-2E-3", "1e+20", "0007.25"):
        assert parse_doc("[folded]\na02 = 1\ntheta = %s\n" % value).theta == float(value)
    for value in ("float", "exact"):
        with pytest.raises(ParseError) as err:
            parse_doc("[folded]\na02 = 1\na20 = 1\nmode = %s\ntheta = 0.5\n" % value)
        assert "unknown key 'mode'" in str(err.value)


def test_unknown_key_names_key():
    with pytest.raises(ParseError) as err:
        parse_doc("[map]\nf1 = u\nf2 = v^2\nf3 = u*v\nbogus = 1\n")
    assert "bogus" in str(err.value)


def test_missing_component_reported():
    with pytest.raises(ParseError) as err:
        parse_doc("[map]\nf1 = u\nf2 = v^2\n")
    assert "f3" in str(err.value)


@pytest.mark.parametrize("text, lineno", [("[map] # note\n", 1), ("[map\n", 1),
                                           ("# models\n[ map ] f1 = u\n", 2),
                                           ("[map]\n[center] # again\n", 2)],
                         ids=["comment", "unclosed", "trailing-key", "second-header"])
def test_partial_header_line_is_a_malformed_header(text, lineno):
    """A line that opens with '[' but is not a whole [kind] header says so."""
    with pytest.raises(ParseError, match=r"^line %d: malformed \[kind\] header" % lineno):
        parse_doc(text + "f1 = u\nf2 = v^2\nf3 = u*v\n")


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        parse_doc("[espresso]\nf1 = u\n")


def test_order_range_enforced():
    with pytest.raises(ParseError):
        parse_doc("[map]\norder = 11\nf1 = u\nf2 = v^2\nf3 = u*v\n")
    with pytest.raises(ParseError):
        parse_doc("[map]\norder = 1\nf1 = u\nf2 = v^2\nf3 = u*v\n")


def test_sb_normal_doc():
    doc = parse_doc("[sb-normal]\na21 = 2\na05 = 120\nb03 = 1\n")
    assert doc.coeffs == {"a": {(2, 1): 2, (0, 5): 120}, "b": {(0, 3): 1}}


def test_h_normal_doc():
    doc = parse_doc("[h-normal]\nb03 = 6\na05 = 120\n")
    assert doc.coeffs == {"a": {(0, 5): 120}, "b": {(0, 3): 6}}


def test_docparse_uses_no_application_or_recognition_code():
    """A document is parsed into jets and coefficient tables only: docparse imports
    nothing from applications, oracle, classify or frames, at its top or inside a
    function, and none of its names is bound to their code."""
    tree = ast.parse(Path(docparse.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert imported == {"errors", "jets"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(alias.name.startswith("germclass") for alias in node.names)]
    banned = {"germclass." + name for name in ("applications", "oracle", "classify", "frames")}
    assert not [name for name, value in vars(docparse).items()
                if getattr(value, "__module__", None) in banned]


def test_overflow_warning_recorded():
    doc = parse_doc("[map]\norder = 4\nf1 = u\nf2 = v^2\nf3 = u^2*v+v^5\n")
    doc.to_map_jet()
    assert doc.warnings == ["f3: degree overflow truncated to order 4"]


@pytest.mark.parametrize("text, message", [
    ("[map]\nf1 = u\nf2 = v^2\n", "kind 'map': missing component 'f3'"),
    ("[ruled]\ngamma1 = 1\nc3 = 1\n", "kind 'ruled': missing component 'gamma3'"),
    ("[center]\norder = 5\n", "kind 'center': no coefficients given"),
    ("[folded]\ntheta = 0.5\n", "kind 'folded': no coefficients given"),
    ("[sb-normal]\n", "kind 'sb-normal': no coefficients given"),
    ("[h-normal]\n# none\n", "kind 'h-normal': no coefficients given"),
    ("[center]\na02 = 1\nb03 = 1\n", "kind 'center': b-coefficients are not accepted"),
    ("[folded]\nb03 = 1\na02 = 1\n", "kind 'folded': b-coefficients are not accepted"),
    ("[sb-normal]\na21 = 2\nb12 = 1\n", "sb-normal: b-coefficients must be b0j (got b12)"),
    ("[center]\na02 = 1\ntheta = 0.5\n", "line 3: unknown key 'theta' for kind 'center'"),
    ("[folded]\na02 = 1\ntheta_cos = 3/5\n",
     "folded: theta_cos and theta_sin must be given together"),
    ("[folded]\na02 = 1\ntheta = 0.5\ntheta_cos = 1\ntheta_sin = 0\n",
     "folded: give either theta or a (cos, sin) pair"),
    ("[folded]\na02 = 1\ntheta_cos = 1/2\ntheta_sin = 1/2\n",
     "folded: theta_cos^2 + theta_sin^2 must equal 1 exactly"),
    ("[map]\norder = five\nf1 = u\nf2 = v^2\nf3 = u*v\n", "key order: not an integer: 'five'"),
    ("[map]\norder = 11\nf1 = u\nf2 = v^2\nf3 = u*v\n", "key order: must be within 2..10, got 11"),
    ("[map]\norder = \uff16\nf1 = u\nf2 = v^2\nf3 = u*v\n",
     "key order: not an integer: '\uff16'"),
    ("[map]\norder = 1_0\nf1 = u\nf2 = v^2\nf3 = u*v\n", "key order: not an integer: '1_0'"),
    ("[map]\nf1 = u\nf2 = v^2\nf3 = \u0663*u*v\n",
     "key f3: unexpected character '\u0663' at position 0"),
    ("[center]\na02 = 1\na\u0662\u0661 = 1\n",
     "line 3: unknown key 'a\u0662\u0661' for kind 'center'"),
    ("[center]\na02 = 1\na21 = 1/0\n", "key a21: zero denominator at position 2"),
    ("[center]\na02 = 1\na03 = 1e10000000\n", "key a03: unexpected character 'e' at position 1"),
    ("[folded]\na02 = 1\ntheta = \u0663\n", "key theta: not a number: '\u0663'"),
    ("[folded]\na02 = 1\ntheta = \uff10.5\n", "key theta: not a number: '\uff10.5'"),
    ("[folded]\na02 = 1\ntheta = 1_0\n", "key theta: not a number: '1_0'"),
    ("[folded]\na02 = 1\ntheta = 0x1p3\n", "key theta: not a number: '0x1p3'"),
    ("[folded]\na02 = 1\ntheta = -Infinity\n", "key theta: must be finite, got '-Infinity'"),
    ("[folded]\na02 = 1\ntheta = nan\n", "key theta: must be finite, got 'nan'"),
], ids=["map-missing", "ruled-missing", "center-empty", "folded-empty", "sb-empty", "h-empty",
        "center-b", "folded-b", "sb-b12", "theta-in-center", "unpaired-cos",
        "theta-and-pair", "off-circle", "order-not-integer", "order-range",
        "order-fullwidth-digit", "order-underscore", "arabic-indic-digit",
        "arabic-indic-key", "zero-denominator", "exponent-coefficient",
        "theta-arabic-indic-digit", "theta-fullwidth-digit", "theta-underscore", "theta-hex",
        "theta-infinite", "theta-nan"])
def test_document_rule_messages(text, message):
    """Each document rule fails with its own exact message."""
    with pytest.raises(ParseError) as err:
        parse_doc(text)
    assert str(err.value) == message


def test_order_past_the_digit_limit_is_not_an_integer():
    value = "0" * 4300 + "6"
    with pytest.raises(ParseError) as err:
        parse_doc("[map]\norder = %s\nf1 = u\nf2 = v^2\nf3 = u*v\n" % value)
    assert str(err.value) == "key order: not an integer: %r" % value
