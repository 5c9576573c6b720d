import math
from fractions import Fraction

import pytest

from germclass import docparse
from germclass.docparse import format_doc, parse_doc, parse_poly, parse_poly_ex
from germclass.errors import ParseError
from germclass.jets import Jet2
from util import jet


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


@pytest.mark.parametrize("c, e", [(1, 20), (2, 100), (Fraction(1, 2), 3000), (-2, 14284)])
def test_power_of_constant_plus_v_is_binomial(c, e):
    """(c+v)^e within the digit limit still parses to sum_k C(e, k) c^(e-k) v^k."""
    want = jet({(0, k): math.comb(e, k) * Fraction(c) ** (e - k) for k in range(7)})
    assert parse_poly("(%s+v)^%d" % (c, e)) == want


@pytest.mark.parametrize("src, position", [("u*(1/2+v)^99999999999", 10), ("(2+v)^14285", 6),
                                           ("(-1/3*u+5/4+v)^6900", 15),
                                           ("((1/2+v)^1000)^1000", 15)])
def test_power_past_the_digit_limit_rejected(src, position):
    """A power whose constant term passes 4300 digits is a ParseError at its exponent."""
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
    calls = []
    parse = docparse._PolyParser.parse

    def counted(self):
        calls.append(self.src)
        return parse(self)

    monkeypatch.setattr(docparse._PolyParser, "parse", counted)
    doc = parse_doc(MAP_DOC)
    doc.to_map_jet()
    doc.to_map_jet()
    format_doc(doc)
    assert sorted(calls) == sorted(["u", "v^2", "v*(u^3+v^2)"])


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
    m = doc.to_monge()
    assert m.a_(0, 2) == 1 and m.a_(2, 1) == 1


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
    c = doc.to_sb_coeffs()
    assert c.a_(2, 1) == 2
    assert c.b[3] == 1


def test_h_normal_doc():
    doc = parse_doc("[h-normal]\nb03 = 6\na05 = 120\n")
    c = doc.to_h_coeffs()
    assert c.b_(0, 3) == 6 and c.a_(0, 5) == 120


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
    ("[center]\na02 = 1\na21 = 1/0\n", "key a21: zero denominator at position 2"),
    ("[center]\na02 = 1\na03 = 1e10000000\n", "key a03: unexpected character 'e' at position 1"),
], ids=["map-missing", "ruled-missing", "center-empty", "folded-empty", "sb-empty", "h-empty",
        "center-b", "folded-b", "sb-b12", "theta-in-center", "unpaired-cos",
        "theta-and-pair", "off-circle", "order-not-integer", "order-range", "zero-denominator",
        "exponent-coefficient"])
def test_document_rule_messages(text, message):
    """Each document rule fails with its own exact message."""
    with pytest.raises(ParseError) as err:
        parse_doc(text)
    assert str(err.value) == message
