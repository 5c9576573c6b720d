import itertools
import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from germclass import frames, jets, vfields
from germclass.applications import (MongeCoeffs, RuledData, _theta_pair,
                                    center_classify_formulas,
                                    center_map, folded_classify_formulas,
                                    folded_invariants, folded_map, integrate_v,
                                    ruled_classify_formulas, ruled_frame, ruled_map)
from germclass.classify import Verdict, classify
from germclass.errors import PreconditionError
from germclass.jets import (Jet2, PolyMap, compose2, det3, from_divided_coeffs,
                            to_divided_coeff)
from germclass.oracle import (HNormalCoeffs, SBNormalCoeffs, h2_check,
                              skbk_classify)
from reference import (expanded_folded_invariants, fraction_integrate_v, integrated_ruled_map,
                       normalized_center_map)
from util import (random_h_coeffs, random_sb_coeffs, rational, reference_ruled_frame,
                  uni)


# -- ruled frame -------------------------------------------------------------

def test_frame_initial_conditions():
    a1, a2, a3 = ruled_frame(uni({0: 1, 1: -2}))
    assert tuple(c.at0() for c in a1) == (1, 0, 0)
    assert tuple(c.at0() for c in a2) == (0, 1, 0)
    assert tuple(c.at0() for c in a3) == (0, 0, 1)


def test_frame_circular_solution_when_flat():
    a1, a2, a3 = ruled_frame(uni({}))
    # a1 = (cos v, sin v, 0) termwise
    assert a1[0].coeff(0, 2) == Fraction(-1, 2)
    assert a1[0].coeff(0, 4) == Fraction(1, 24)
    assert a1[1].coeff(0, 1) == 1
    assert a1[1].coeff(0, 3) == Fraction(-1, 6)
    zero = Jet2.zero(a1[2].order)
    assert a1[2] == zero
    assert a3[0] == a3[1] == zero
    assert a3[2] == Jet2.const(1, a3[2].order)


def test_frame_orthonormality_termwise():
    rng = Random(61)
    for _ in range(10):
        c3 = Jet2(6, {(0, j): rational(rng) for j in range(5)})
        frame = ruled_frame(c3)
        for i in range(3):
            for j in range(i, 3):
                dot = sum(frame[i][k] * frame[j][k] for k in range(3))
                expected = Jet2.const(1 if i == j else 0, dot.order)
                assert dot == expected, (i, j)


def test_frame_satisfies_ode():
    rng = Random(67)
    c3 = Jet2(6, {(0, j): rational(rng) for j in range(5)})
    a1, a2, a3 = ruled_frame(c3)
    n = a1[0].order - 1
    for k in range(3):
        assert a1[k].partial_v() == a2[k].truncate(n)
        assert a2[k].partial_v() == (-a1[k] + c3 * a3[k]).truncate(n)
        assert a3[k].partial_v() == (-(c3 * a2[k])).truncate(n)


@pytest.mark.parametrize("seed", range(6))
def test_frame_matches_fraction_recursion(seed):
    """The integer recursion gives the Fraction recursion's jets."""
    rng = Random(seed)
    for c3_order in range(11):
        den = rng.choice([1, 2, 6, 35, 1000])
        c3 = uni({j: rational(rng, bound=9, den=den) for j in range(c3_order + 1)
                  if rng.random() < 0.7}, c3_order)
        for order in (None, 0, 1, c3_order, c3_order + 1):
            got = [c for a in ruled_frame(c3, order) for c in a]
            want = [c for a in reference_ruled_frame(c3, order) for c in a]
            assert got == want
            assert [(c.order, c.items()) for c in got] == [(c.order, c.items()) for c in want]


@pytest.mark.parametrize("seed", range(4))
def test_integrate_v_matches_the_fraction_construction(seed):
    rng = Random(seed)
    for order in range(11):
        g = uni({j: rational(rng, bound=9, den=rng.choice([1, 3, 10])) for j in range(order + 1)
                 if rng.random() < 0.7}, order)
        for cap in (0, 1, order, order + 1, order + 2):
            got, want = integrate_v(g, cap), fraction_integrate_v(g, cap)
            assert (got.order, got.items()) == (want.order, want.items())


def test_integrate_v_rejects_a_term_in_u():
    u, v = Jet2.variable("u", 6), Jet2.variable("v", 6)
    for g in (u + v, u, v * v * u + 1):
        with pytest.raises(PreconditionError, match="jet in v alone"):
            integrate_v(g, 6)
    assert integrate_v(v + 1, 6) == uni({1: 1, 2: Fraction(1, 2)})


# -- ruled map ---------------------------------------------------------------

def test_ruled_map_derivative_anchors():
    d = RuledData(uni({0: 1}), uni({1: 1}), uni({}))
    f = ruled_map(d)
    assert f.partial_u().at0() == (1, 0, 0)
    assert f.partial_u().partial_v().at0() == (0, 1, 0)
    assert f.partial_v().partial_v().at0() == (0, -1, 1)
    assert f.partial_v().at0() == (0, 0, 0)


def test_ruled_map_cone_like():
    d = RuledData(uni({}), uni({}), uni({}))
    f = ruled_map(d)
    assert f.partial_v().at0() == (0, 0, 0)
    assert f.at0() == (0, 0, 0)


def test_ruled_data_requires_singular_origin():
    with pytest.raises(PreconditionError):
        RuledData(uni({0: 1}), uni({0: 1, 1: 1}), uni({}))


def test_ruled_formula_examples():
    d = RuledData(uni({0: 1}), uni({1: 1}), uni({}))
    assert ruled_classify_formulas(d)[0].verdict is Verdict.WHITNEY_UMBRELLA
    d = RuledData(uni({0: 1}), uni({3: 1}), uni({0: 1}))
    cls, inv = ruled_classify_formulas(d)
    assert cls.verdict is Verdict.S2
    assert inv["s2_value"] == 6
    d = RuledData(uni({1: 1}), uni({2: 1}), uni({}))
    cls, inv = ruled_classify_formulas(d)
    assert cls.verdict is Verdict.H2
    assert inv["h_poly"] == 144


def _branch_ruled(rng, branch):
    """Random ruled data constrained to one classification branch."""
    g1 = {j: rational(rng) for j in range(5)}
    g3 = {j: rational(rng) for j in range(1, 6)}
    c3 = {j: rational(rng) for j in range(5)}
    if branch == "WU":
        g3[1] = rational(rng, nonzero=True)
        return RuledData(uni(g1), uni(g3), uni(c3))
    g3.pop(1, None)
    if branch == "S1":
        g1[0] = rational(rng, nonzero=True)
        g3[2] = rational(rng, nonzero=True)
    elif branch == "S2":
        g3.pop(2, None)
        g1[0] = rational(rng, nonzero=True)
        c3[0] = rational(rng, nonzero=True)
        g3[3] = rational(rng, nonzero=True)
    elif branch == "B":
        g1[0] = rational(rng, nonzero=True)
        g3[2] = rational(rng, nonzero=True)
        c3[0] = g3[2] * 2 / (2 * g1[0])
    elif branch == "H":
        g1.pop(0, None)
        g3[2] = rational(rng, nonzero=True)
    return RuledData(uni(g1), uni(g3), uni(c3))


def _branch_samples(draw, formulas, generic, verdicts, count=25):
    """(sample, formula verdict, classifier verdict) of each draw until `count`
    of them have a formula verdict in `verdicts`, the sampled branch's; the
    draws that leave the branch are listed too."""
    out, hits = [], 0
    for _ in range(8 * count):
        data = draw()
        out.append((data, formulas(data)[0].verdict, classify(generic(data))[0].verdict))
        hits += out[-1][1] in verdicts
        if hits == count:
            return out
    raise AssertionError("too few samples in the branch %s" % sorted(v.value for v in verdicts))


RULED_BRANCHES = {"WU": {Verdict.WHITNEY_UMBRELLA}, "S1": {Verdict.S1_PLUS, Verdict.S1_MINUS},
                  "S2": {Verdict.S2}, "B": {Verdict.B2_PLUS, Verdict.B2_MINUS}, "H": {Verdict.H2}}


@pytest.mark.parametrize("branch", ["WU", "S1", "S2", "B", "H"])
def test_ruled_formula_agrees_with_classifier(branch):
    rng = Random("ruled|" + branch)
    for d, formula, generic in _branch_samples(lambda: _branch_ruled(rng, branch),
                                               ruled_classify_formulas, ruled_map,
                                               RULED_BRANCHES[branch]):
        assert formula == generic, (branch, d)


# each row: (sampled branch, formula value, the generic invariant it equals)
RULED_IDENTITIES = {
    "S1": ("S1", "s1_disc", lambda g, inv: g["xi2phi"] * g["eta2phi"]),
    "B2": ("B", "b_poly", lambda g, inv: g["b2_value"] * inv["gamma1_0"] ** 2),
    "S2": ("S2", "gamma3_d3", lambda g, inv: g["s2_det"] * inv["gamma1_0"] ** 2),
    "H2": ("H", "h_poly", lambda g, inv: -4 * inv["gamma3_d2"] * g["h2_det"]),
}


def _identity_samples(draw, formulas, generic, key, count=25):
    """(formula, generic) invariant pairs of samples whose formula route reached
    `key`, until `count` of them have a nonzero value there."""
    out, nonzero = [], 0
    for _ in range(8 * count):
        data = draw()
        _, inv = formulas(data)
        if key in inv:
            out.append((data, inv, generic(data).invariants))
            nonzero += inv[key] != 0
            if nonzero == count:
                return out
    raise AssertionError("too few samples reached %s" % key)


@pytest.mark.parametrize("row", sorted(RULED_IDENTITIES))
def test_ruled_formula_is_the_generic_invariant_exactly(row):
    """The formula route's value equals the classifier's invariant times a factor
    that the branch makes nonzero (a square where the sign is read), on every
    sample: a formula with the right zero set and sign but the wrong value fails."""
    branch, key, generic = RULED_IDENTITIES[row]
    rng = Random("ruled-identity|" + row)
    for d, inv, g in _identity_samples(lambda: _branch_ruled(rng, branch), ruled_classify_formulas,
                                       lambda d: classify(ruled_map(d))[1], key):
        assert generic(g, inv) == inv[key], (row, d)


# -- center maps ---------------------------------------------------------------

def test_center_one_jet():
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 3, (1, 2): 5, (2, 1): 7})
    c = center_map(m)
    # j1 c = ((1 + a20 k) u, 0, 0) with k = -1/a02
    assert c.partial_u().at0() == (-1, 0, 0)
    assert c.partial_v().at0() == (0, 0, 0)


def test_center_cvv_and_cuv():
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 3, (1, 2): 5, (2, 1): 7})
    c = center_map(m)
    assert c.partial_v().partial_v().at0() == (-5, -3, 0)
    assert c.partial_u().partial_v().at0() == (-7, -5, 0)


def test_center_never_cross_cap():
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 3, (1, 2): 5, (2, 1): 7})
    c = center_map(m)
    cu0 = c.partial_u().at0()
    cvv0 = c.partial_v().partial_v().at0()
    cuv0 = c.partial_u().partial_v().at0()
    assert det3((cu0, cvv0, cuv0)) == 0


def test_center_requires_nonumbilic():
    with pytest.raises(PreconditionError):
        center_map(MongeCoeffs({(0, 2): 1, (2, 0): 1, (0, 3): 1}))
    with pytest.raises(PreconditionError):
        center_map(MongeCoeffs({(2, 0): 1, (0, 3): 1}))


def test_center_formula_examples():
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 1, (2, 1): 1, (1, 2): 0})
    cls, inv = center_classify_formulas(m)
    assert inv["s1_disc"] == 1
    assert cls.verdict is Verdict.S1_MINUS
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 1, (3, 1): 1})
    cls, inv = center_classify_formulas(m)
    assert cls.verdict is Verdict.S2
    assert inv["s2_poly"] == 1


def _random_center(rng, branch):
    a = {(i, j): rational(rng) for i in range(7) for j in range(7)
         if 2 <= i + j <= 6 and (i, j) != (1, 1) and rng.random() < 0.4}
    a[(0, 2)] = rational(rng, nonzero=True)
    while True:
        a[(2, 0)] = rational(rng)
        if a[(2, 0)] != a[(0, 2)]:
            break
    if branch == "S1":
        a[(0, 3)] = rational(rng, nonzero=True)
    elif branch == "S2":
        a[(0, 3)] = rational(rng, nonzero=True)
        a[(1, 2)] = rational(rng)
        a[(2, 1)] = a[(1, 2)] ** 2 / a[(0, 3)]
    elif branch == "H":
        a.pop((0, 3), None)
    return MongeCoeffs(a)


# a center map is never H2: its H branch is MoreDegenerate
CENTER_BRANCHES = {"S1": {Verdict.S1_PLUS, Verdict.S1_MINUS}, "S2": {Verdict.S2},
                   "H": {Verdict.MORE_DEGENERATE}}


@pytest.mark.parametrize("branch", ["S1", "S2", "H"])
def test_center_formula_agrees_with_classifier(branch):
    rng = Random("center|" + branch)
    for m, formula, generic in _branch_samples(lambda: _random_center(rng, branch),
                                               center_classify_formulas, center_map,
                                               CENTER_BRANCHES[branch]):
        assert formula == generic, m
        assert generic not in (Verdict.WHITNEY_UMBRELLA, Verdict.B2_PLUS,
                               Verdict.B2_MINUS, Verdict.H2)


def _center_s1_factor(m):
    a03, a20, a02 = m.a_(0, 3), m.a_(2, 0), m.a_(0, 2)
    return 3 * a03 ** 2 * (a20 - a02) ** 2 / a02 ** 4


def _center_s2_factor(m):
    a03, a20, a02 = m.a_(0, 3), m.a_(2, 0), m.a_(0, 2)
    return -2 * (a20 - a02) / (a02 ** 2 * a03 ** 2)


# each row: (formula value, the generic invariant it is a multiple of, the factor)
CENTER_IDENTITIES = {
    "S1": ("s1_disc", lambda g: g["xi2phi"] * g["eta2phi"], _center_s1_factor),
    "S2": ("s2_poly", lambda g: g["s2_det"], _center_s2_factor),
}


@pytest.mark.parametrize("row", sorted(CENTER_IDENTITIES))
def test_center_formula_is_the_generic_invariant_exactly(row):
    """As for ruled maps: the classifier's invariant is the formula's value times
    a factor of a02, a20 and a03 that a center map makes nonzero."""
    key, generic, factor = CENTER_IDENTITIES[row]
    rng = Random("center-identity|" + row)
    for m, inv, g in _identity_samples(lambda: _random_center(rng, row), center_classify_formulas,
                                       lambda m: classify(center_map(m))[1], key):
        assert factor(m) != 0
        assert generic(g) == factor(m) * inv[key], (row, m)


# -- the map routes against their references -----------------------------------

def _same_jets(f, g):
    assert [c.order for c in f] == [c.order for c in g]
    assert [c.items() for c in f] == [c.items() for c in g]


@pytest.mark.parametrize("order", range(5, 11))
def test_ruled_map_matches_integrated_reference(order):
    rng = Random("ruled-map|%d" % order)
    for branch in ("WU", "S1", "S2", "B", "H"):
        d = _branch_ruled(rng, branch)
        d = RuledData(*(Jet2(order, dict(getattr(d, name).items()))
                        for name in ("gamma1", "gamma3", "c3")))
        _same_jets(ruled_map(d), integrated_ruled_map(d))


@pytest.mark.parametrize("order", range(5, 11))
def test_center_map_matches_normalized_reference(order):
    rng = Random("center-map|%d" % order)
    for branch in ("S1", "S2", "H", "any"):
        m = _random_center(rng, branch)
        _same_jets(center_map(m, order), normalized_center_map(m, order))


# -- folded surfaces -----------------------------------------------------------

def test_folded_identity_angle():
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (2, 1): 3})
    f = folded_map(m, (1, 0))
    assert f[0] == Jet2.variable("u", 6)
    assert f[1] == Jet2.variable("v", 6) ** 2
    assert f[2] == m.jet(6)


def test_folded_second_order_structure():
    m = MongeCoeffs({(0, 2): 3, (2, 0): 5})
    c, s = Fraction(3, 5), Fraction(4, 5)
    f = folded_map(m, (c, s))
    f3 = f[2]
    a20, a02 = Fraction(5), Fraction(3)
    assert f3.coeff(2, 0) == (a20 * c * c + a02 * s * s) / 2
    assert f3.coeff(1, 1) == (a20 - a02) * c * s
    assert f3.coeff(0, 2) == (a02 * c * c + a20 * s * s) / 2


def test_folded_umbilic_has_no_cross_term():
    m = MongeCoeffs({(0, 2): 3, (2, 0): 3, (0, 3): 1})
    f = folded_map(m, (Fraction(3, 5), Fraction(4, 5)))
    assert f[2].coeff(1, 1) == 0


def test_folded_invariants_at_zero_angle():
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (2, 1): 3, (0, 3): 5, (3, 1): 7,
                     (1, 3): 2, (0, 5): 4})
    h11, h22, r_s, r_b = folded_invariants(m, (1, 0))
    assert h11 == -3
    assert h22 == 5
    assert r_s == -7
    assert r_b == 5 * 2 ** 2 - 3 * 4 * 3


def test_folded_s2_condition_at_zero_angle():
    # a21 = 0, a03 != 0: S2 iff a31 != 0
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 1, (3, 1): 2})
    cls, _ = folded_classify_formulas(m, (1, 0))
    assert cls.verdict is Verdict.S2
    assert classify(folded_map(m, (1, 0)))[0].verdict is Verdict.S2
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 1})
    assert folded_classify_formulas(m, (1, 0))[0].verdict is Verdict.MORE_DEGENERATE


def test_folded_b2_condition_at_zero_angle():
    # a03 = 0, a21 != 0: B2 iff 3 a05 a21 - 5 a13^2 != 0
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (2, 1): 1, (0, 5): 2})
    cls, _ = folded_classify_formulas(m, (1, 0))
    assert cls.verdict is Verdict.B2_PLUS
    assert classify(folded_map(m, (1, 0)))[0].verdict is Verdict.B2_PLUS


def test_folded_formulas_need_umbilic_or_zero_angle():
    m = MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 1})
    with pytest.raises(PreconditionError) as info:
        folded_classify_formulas(m, (Fraction(3, 5), Fraction(4, 5)))
    assert str(info.value) == ("folded formulas need a'11 = c s (a20 - a02) = 0:"
                               " an umbilic point or theta a multiple of pi/2")


@pytest.mark.parametrize("point", [(0, 1), (0, -1)])
def test_folded_formulas_take_non_umbilic_input_at_right_angle(point):
    # c = 0 makes a'11 = c s (a20 - a02) vanish whatever a20 - a02 is
    rng = Random("fold-right-angle|%d" % point[1])
    hits = set()
    for _ in range(30):
        a = {(i, j): rational(rng) for i in range(6) for j in range(6)
             if 3 <= i + j <= 5 and rng.random() < 0.5}
        a[(0, 2)], a[(2, 0)] = Fraction(1), Fraction(3)
        # put the germ on the S or B branch: h11 = -a'21 = -a12 s, h22 = a'03 = a30 s
        a[rng.choice([(1, 2), (3, 0)])] = Fraction(0)
        m = MongeCoeffs(a)
        formula, _ = folded_classify_formulas(m, point)
        assert formula.verdict == classify(folded_map(m, point))[0].verdict, a
        hits.add(formula.verdict)
    assert {Verdict.S2, Verdict.B2_PLUS, Verdict.B2_MINUS} <= hits


def _read_off_sb_coeffs(f3):
    """Divided coefficients of f3 with pure-u monomials dropped (they are
    removable by a target change z -> z - p(x), which cannot alter the class)."""
    table = {}
    for (i, j), _ in f3.items():
        if 3 <= i + j <= 5 and j > 0:
            table[(i, j)] = to_divided_coeff(f3, i, j)
    return SBNormalCoeffs(table)


def test_folded_matches_sb_oracle_at_zero_angle():
    rng = Random(71)
    for _ in range(40):
        a = {(i, j): rational(rng) for i in range(6) for j in range(6)
             if 2 <= i + j <= 5 and (i, j) != (1, 1) and rng.random() < 0.5}
        a[(0, 2)] = rational(rng, nonzero=True)
        a[(2, 0)] = rational(rng, nonzero=True)
        m = MongeCoeffs(a)
        f = folded_map(m, (1, 0))
        verdict = classify(f)[0].verdict
        oracle = skbk_classify(_read_off_sb_coeffs(f[2])).verdict
        assert verdict == oracle


def test_folded_rational_angle_s_branch():
    # umbilic input with h11 = 0 at an exact rational angle: S2 iff r_s != 0
    rng = Random(73)
    c, s = Fraction(4, 5), Fraction(-3, 5)
    hits = {True: 0, False: 0}
    for _ in range(25):
        a = {(i, j): rational(rng) for i in range(6) for j in range(6)
             if 2 <= i + j <= 5 and (i, j) not in ((1, 1), (2, 1)) and rng.random() < 0.6}
        a[(0, 2)] = rational(rng, nonzero=True)
        a[(2, 0)] = a[(0, 2)]
        m0 = MongeCoeffs(a)
        # solve h11(c, s) = 0 for a21
        h11, _, _, _ = folded_invariants(m0, (c, s))
        slope_m = MongeCoeffs({**a, (2, 1): 1})
        slope = folded_invariants(slope_m, (c, s))[0] - h11
        assert slope != 0
        a[(2, 1)] = -h11 / slope
        m = MongeCoeffs(a)
        h11, h22, r_s, _ = folded_invariants(m, (c, s))
        assert h11 == 0
        if h22 == 0:
            continue
        verdict = classify(folded_map(m, (c, s)))[0].verdict
        cls, _ = folded_classify_formulas(m, (c, s))
        assert verdict == cls.verdict
        if r_s != 0:
            assert verdict is Verdict.S2
            hits[True] += 1
        else:
            assert verdict is Verdict.MORE_DEGENERATE
            hits[False] += 1
    assert hits[True] > 0


def test_folded_float_angle_matches_its_exact_point():
    c, s = Fraction(4, 5), Fraction(-3, 5)
    a = {(0, 2): Fraction(1), (2, 0): Fraction(1), (0, 3): Fraction(2),
         (1, 2): Fraction(1, 2), (3, 0): Fraction(-1), (3, 1): Fraction(3)}
    m0 = MongeCoeffs(a)
    h11 = folded_invariants(m0, (c, s))[0]
    slope = folded_invariants(MongeCoeffs({**a, (2, 1): 1}), (c, s))[0] - h11
    a[(2, 1)] = -h11 / slope
    m = MongeCoeffs(a)
    exact_verdict = classify(folded_map(m, (c, s)))[0].verdict
    theta = math.atan2(float(s), float(c))
    float_verdict = classify(folded_map(m, theta))[0].verdict
    assert float_verdict == exact_verdict
    cls, _ = folded_classify_formulas(m, theta)
    assert cls.verdict == exact_verdict


def _pulled_back(rotated, point, order=6):
    """Monge data whose rotated coefficients at point are `rotated`: a = a' o R^-1."""
    c, s = point
    inverse = PolyMap(({(1, 0): c, (0, 1): -s}, {(1, 0): s, (0, 1): c}), order)
    a = compose2(from_divided_coeffs(rotated, order), inverse)
    return MongeCoeffs({(i, j): to_divided_coeff(a, i, j) for (i, j), _ in a.items()})


@pytest.mark.parametrize("point, a20", [((Fraction(3, 5), Fraction(4, 5)), 1),
                                        ((Fraction(0), Fraction(1)), 2)])
def test_folded_box_of_rotated_zero_sets(point, a20):
    # every sign pattern of (a'21, a'03, a'31, a'13, a'05), r_s = 0 and r_b = 0 included
    hits = Counter()
    for a21, a03, a31, a13, a05 in itertools.product((-1, 0, 1), repeat=5):
        m = _pulled_back({(2, 0): a20, (0, 2): 1, (2, 1): a21, (0, 3): a03, (3, 1): a31,
                          (1, 3): a13, (0, 5): a05}, point)
        assert folded_invariants(m, point) == (-a21, a03, -a31, 5 * a13 ** 2 - 3 * a05 * a21)
        formula, _ = folded_classify_formulas(m, point)
        assert formula.verdict == classify(folded_map(m, point))[0].verdict, m
        hits[formula.verdict] += 1
    assert hits == {Verdict.S1_PLUS: 54, Verdict.S1_MINUS: 54, Verdict.S2: 36,
                    Verdict.B2_PLUS: 6, Verdict.B2_MINUS: 42, Verdict.MORE_DEGENERATE: 51}


def _folded_corpus(size):
    """Seeded (Monge data, angle) pairs: degree 2..6, non-umbilic input included."""
    rng = Random(919)
    points = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    points += [(Fraction(c, h), Fraction(s, h)) for c, s, h in PYTHAGOREAN]
    corpus = []
    for k in range(size):
        a = {(i, j): rational(rng, bound=9, den=7) for i in range(7) for j in range(7)
             if 2 <= i + j <= 6 and (i, j) != (1, 1) and rng.random() < 0.6}
        point = _theta_pair(rng.uniform(-7, 7)) if k % 3 == 0 else rng.choice(points)
        corpus.append((MongeCoeffs(a), point))
    return corpus


def test_folded_invariants_equal_the_expansion():
    for m, point in _folded_corpus(600):
        values = folded_invariants(m, point)
        assert values == expanded_folded_invariants(m, point), (m, point)
        assert all(type(v) is Fraction for v in values)


def _random_fold(rng, point, solve=None):
    """Random Monge data that the folded formulas take at `point` (umbilic unless
    the point is on an axis); with solve = (k, key), coefficient `key` is solved
    for so that invariant k of `folded_invariants` vanishes (it is linear in it)."""
    c, s = point
    a = {(i, j): rational(rng) for i in range(7) for j in range(7)
         if 2 <= i + j <= 6 and (i, j) != (1, 1) and rng.random() < 0.6}
    a[(0, 2)] = rational(rng, nonzero=True)
    if c * s:
        a[(2, 0)] = a[(0, 2)]
    if solve:
        k, key = solve
        a[key] = 0
        base = folded_invariants(MongeCoeffs(a), point)[k]
        a[key] = 1
        a[key] = -base / (folded_invariants(MongeCoeffs(a), point)[k] - base)
    return MongeCoeffs(a)


# each row: (formula value, factor, the (invariant, coefficient) solved to reach the row)
FOLDED_IDENTITIES = {
    "xi2phi": ("h11", 2, None),
    "eta2phi": ("h22", 2, None),
    "s2_det": ("r_s", 2, (0, (2, 1))),
    "b2_value": ("r_b", -4, (1, (0, 3))),
}


@pytest.mark.parametrize("row", sorted(FOLDED_IDENTITIES))
def test_folded_formula_is_the_generic_invariant_exactly(row):
    """The classifier's invariant is the fold's Hessian entry or discriminant times
    a constant, at an axis point and two rational points off the axes: 25
    samples with a nonzero formula value per point, each reaching the row."""
    key, factor, solve = FOLDED_IDENTITIES[row]
    for point in ((1, 0), (Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(-12, 13))):
        rng = Random("folded-identity|%s|%s" % (row, point))
        nonzero = 0
        for _ in range(8 * 25):
            m = _random_fold(rng, point, solve)
            g = classify(folded_map(m, point))[1].invariants
            if row in g:
                value = folded_classify_formulas(m, point)[1][key]
                assert g[row] == factor * value, (row, point, m)
                nonzero += value != 0
                if nonzero == 25:
                    break
        assert nonzero == 25, (row, point)


def _refuse(*_, **__):
    raise AssertionError("a formula route reached the generic machinery")


def test_formula_routes_use_no_generic_machinery(monkeypatch):
    rng = Random(923)
    ruled = [_branch_ruled(rng, branch) for branch in ("WU", "S1", "S2", "B", "H") * 4]
    centers = [_random_center(rng, branch) for branch in ("S1", "S2", "H") * 6]
    folds = [(m, point) for m, point in _folded_corpus(60)
             if point[0] * point[1] == 0 or m.a_(2, 0) == m.a_(0, 2)]
    folds += [(MongeCoeffs({**m.a, (2, 0): m.a_(0, 2)}), math.atan2(4, 3))
              for m, _ in _folded_corpus(10)]
    sb = [random_sb_coeffs(rng, branch) for branch in ("S1", "S2", "B2", "SB") * 4]
    h = [random_h_coeffs(rng, branch) for branch in ("HP2", "H", "H2") * 4]
    for module, name in ((jets, "_substitute"), (jets, "_convolve"), (jets, "directional"),
                         (jets, "swap"), (jets, "shear"), (vfields, "apply"),
                         (frames, "solve")):
        monkeypatch.setattr(module, name, _refuse)
    for d in ruled:
        ruled_classify_formulas(d)
    for m in centers:
        center_classify_formulas(m)
    for m, theta in folds:
        folded_invariants(m, theta)
        folded_classify_formulas(m, theta)
    for c in sb:
        skbk_classify(c)
    for c in h:
        h2_check(c)


@pytest.mark.parametrize("make", [
    lambda x: MongeCoeffs({(0, 3): x}),
    lambda x: SBNormalCoeffs({(2, 1): x}),
    lambda x: SBNormalCoeffs({}, {3: x}),
    lambda x: HNormalCoeffs({(0, 5): x}, {}),
    lambda x: HNormalCoeffs({}, {(0, 3): x}),
], ids=["monge", "sb-a", "sb-b", "h-a", "h-b"])
def test_coefficient_tables_reject_floats(make):
    with pytest.raises(TypeError, match="float coefficient 0.1: coefficients must be exact"):
        make(0.1)


@pytest.mark.parametrize("make", [
    # center_classify_formulas read this S1- while center_map refused (-1,3)
    lambda: MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 1, (2, 1): 1, (-1, 3): 5}),
    lambda: MongeCoeffs({(0, 2): 1, (1.5, 0.5): 1}),
    lambda: MongeCoeffs({(0, 2): 1, (1, 1, 1): 1}),
    lambda: MongeCoeffs({(0, 2): 1, (True, 2): 1}),
    lambda: MongeCoeffs({(0, 2): 1, (Fraction(1), 2): 1}),
    lambda: MongeCoeffs({(0, 2): 1, "12": 1}),
    lambda: SBNormalCoeffs({(2, 1): 2, (-1, 4): 1}),
    # skbk_classify read this S1+ while to_map_jet raised TypeError
    lambda: SBNormalCoeffs({(2, 1): 2, (0, 3): 1}, {3.5: 1}),
    lambda: SBNormalCoeffs({(2, 1): 2, (0, 3): 1}, {Fraction(4): 1}),
    lambda: HNormalCoeffs({(4, -1): 1}, {(0, 3): 1}),
    lambda: HNormalCoeffs({(0, 5): 1}, {(0, 3.0): 1}),
], ids=["monge-negative", "monge-float", "monge-triple", "monge-bool", "monge-fraction",
        "monge-string", "sb-a-negative", "sb-b-float", "sb-b-fraction", "h-a-negative",
        "h-b-float"])
def test_coefficient_tables_reject_keys_their_map_routes_cannot_read(make):
    with pytest.raises(PreconditionError, match="index .* is not"):
        make()


# -- float fold angles --------------------------------------------------------

# (-84, 13, 85) lies near pi: once the half turn is removed tan(r/2) is
# small, and the rounding of theta, not of tan, bounds the float's error
PYTHAGOREAN = [(3, 4, 5), (4, -3, 5), (-5, 12, 13), (8, 15, 17), (-7, -24, 25),
               (20, 21, 29), (-84, 13, 85), (0, 1, 1), (0, -1, 1), (-1, 0, 1)]


@pytest.mark.parametrize("c, s, h", PYTHAGOREAN)
def test_float_angle_of_pythagorean_point_reads_exactly(c, s, h):
    assert _theta_pair(math.atan2(s, c)) == (Fraction(c, h), Fraction(s, h))


def test_float_angle_special_values_read_exactly():
    assert _theta_pair(0.0) == (1, 0)
    assert _theta_pair(math.pi) == (-1, 0)
    assert _theta_pair(-math.pi / 2) == (0, -1)


@pytest.mark.parametrize("theta", [0.3, 2.0, -2.5, 7.0])
def test_float_angle_reads_as_nearby_point_on_unit_circle(theta):
    c, s = _theta_pair(theta)
    assert type(c) is Fraction and type(s) is Fraction
    assert c * c + s * s == 1
    assert abs(c - Fraction(math.cos(theta))) <= 8 * Fraction(math.ulp(theta))
    assert abs(s - Fraction(math.sin(theta))) <= 8 * Fraction(math.ulp(theta))


def test_float_angle_is_read_below_two_to_the_33_only():
    theta = math.nextafter(2.0 ** 33, 0)
    for t in (theta, -theta):
        c, s = _theta_pair(t)
        assert c * c + s * s == 1
        assert abs(c - Fraction(math.cos(t))) <= Fraction(1, 2 ** 16)
        assert abs(s - Fraction(math.sin(t))) <= Fraction(1, 2 ** 16)
    for t in (2.0 ** 33, -2.0 ** 33, 1e16):
        with pytest.raises(PreconditionError):
            _theta_pair(t)


def test_float_angle_is_read_from_two_to_the_minus_64_only():
    smallest = 2.0 ** -64
    for t in (smallest, -smallest):
        c, s = _theta_pair(t)
        assert c * c + s * s == 1
        assert abs(s - Fraction(math.sin(t))) <= 8 * Fraction(math.ulp(t))
    largest = math.nextafter(smallest, 0)
    for t in (largest, -largest, 2e-300, 5e-324):
        with pytest.raises(PreconditionError, match=r"2\^-64.*theta_cos, theta_sin"):
            _theta_pair(t)
    assert _theta_pair(0.0) == _theta_pair(-0.0) == (1, 0)


def test_float_angle_is_recorded_by_formula_route():
    m = MongeCoeffs({(0, 2): 1, (2, 0): 1, (0, 3): 1, (2, 1): 2})
    _, inv = folded_classify_formulas(m, math.atan2(12, -5))
    assert (inv["theta_cos"], inv["theta_sin"]) == (Fraction(-5, 13), Fraction(12, 13))


def _b2_fold_anchor():
    """The B2- fold anchor of the sign-convention report, h22 = 0 at (3/5, 4/5)."""
    c, s = Fraction(3, 5), Fraction(4, 5)
    a12, a21, a30 = Fraction(1), Fraction(2), Fraction(3)
    a03 = -(3 * a12 * c * c * s + 3 * a21 * c * s * s + a30 * s ** 3) / c ** 3
    return {(0, 2): Fraction(1), (2, 0): Fraction(1), (0, 3): a03, (1, 2): a12,
            (2, 1): a21, (3, 0): a30, (0, 5): Fraction(2)}


@pytest.mark.parametrize("k", range(-6, 7))
def test_b2_fold_anchor_survives_target_scaling_at_float_angle(k):
    # scaling every Monge coefficient by lam is the target change z -> lam z
    lam = Fraction(10) ** k
    m = MongeCoeffs({key: lam * value for key, value in _b2_fold_anchor().items()})
    theta = math.atan2(4, 3)
    assert classify(folded_map(m, theta))[0].verdict is Verdict.B2_MINUS
    assert folded_classify_formulas(m, theta)[0].verdict is Verdict.B2_MINUS
