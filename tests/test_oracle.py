import itertools
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from germclass.classify import Verdict, classify
from germclass.errors import PreconditionError
from germclass.jets import compose_map
from germclass.oracle import (HNormalCoeffs, SBNormalCoeffs, h2_check,
                              h2_discriminant, skbk_classify)
from util import linear_map, random_h_coeffs, random_sb_coeffs, rational


def test_b2_plus_example():
    c = SBNormalCoeffs({(2, 1): 2, (0, 5): 120})
    assert skbk_classify(c).verdict is Verdict.B2_PLUS
    assert 3 * 120 * 2 - 0 == 720


def test_s2_example():
    c = SBNormalCoeffs({(0, 3): 6, (3, 1): 6})
    assert skbk_classify(c).verdict is Verdict.S2


def test_both_leading_zero_is_degenerate():
    c = SBNormalCoeffs({(1, 3): 1})
    assert skbk_classify(c).verdict is Verdict.MORE_DEGENERATE


def test_s1_branch():
    assert skbk_classify(SBNormalCoeffs({(2, 1): 2, (0, 3): 6})).verdict is Verdict.S1_PLUS
    assert skbk_classify(SBNormalCoeffs({(2, 1): -2, (0, 3): 6})).verdict is Verdict.S1_MINUS


def test_sb_shape_rejects_pure_u_coeffs():
    with pytest.raises(PreconditionError):
        SBNormalCoeffs({(3, 0): 1})
    with pytest.raises(PreconditionError):
        SBNormalCoeffs({(2, 1): 1}, {6: 1})


def test_sb_germ_layout():
    c = SBNormalCoeffs({(2, 1): 2}, {3: 6})
    f = c.to_map_jet()
    assert f[1].coeff(0, 2) == Fraction(1, 2)
    assert f[1].coeff(0, 3) == 1
    assert f[2].coeff(2, 1) == 1


def test_h2_example():
    c = HNormalCoeffs({(0, 5): 120}, {(0, 3): 6})
    assert h2_check(c).verdict is Verdict.H2
    assert h2_discriminant(c) == 4 * 120 * 36


def test_h2_requires_b03():
    c = HNormalCoeffs({(0, 5): 120}, {(0, 4): 1})
    cls = h2_check(c)
    assert cls.verdict is Verdict.MORE_DEGENERATE
    assert "b03" in cls.reason


def test_h2_special_case_formula():
    # a12 = a03 = 0: the discriminant collapses to b03 (4 a05 b03 - 5 a04 b04)
    c = HNormalCoeffs({(0, 4): 1}, {(0, 3): 6})
    assert h2_discriminant(c) == 6 * (4 * 0 * 6 - 5 * 1 * 0)
    assert h2_check(c).verdict is Verdict.MORE_DEGENERATE
    c = HNormalCoeffs({(0, 4): 1, (0, 5): 2}, {(0, 3): 6, (0, 4): 1})
    assert h2_discriminant(c) == 6 * (4 * 2 * 6 - 5 * 1 * 1)


def test_h_oracle_agreement_random():
    rng = Random(43)
    for _ in range(60):
        c = random_h_coeffs(rng, "HP2")
        assert h2_check(c).verdict == classify(c.to_map_jet())[0].verdict


def test_h_type_iff_b03():
    rng = Random(47)
    for _ in range(30):
        c = random_h_coeffs(rng, "HP2")
        cls, cert = classify(c.to_map_jet())
        h_type = "h_type_det" in cert.invariants and cert.invariants["h_type_det"] != 0
        assert h_type == (c.b_(0, 3) != 0)


def test_sb_oracle_agreement_on_valid_domain():
    rng = Random(53)
    for _ in range(40):
        c = random_sb_coeffs(rng, "SB")
        assert skbk_classify(c).verdict == classify(c.to_map_jet())[0].verdict


def test_b_branch_oracle_agreement_off_slice():
    rng = Random("b-branch-off-slice")
    b2_seen = 0
    for _ in range(60):
        c = random_sb_coeffs(rng, "B")
        c = SBNormalCoeffs(c.a, {**c.b, 3: rational(rng, nonzero=True)})
        mine = skbk_classify(c).verdict
        assert mine == classify(c.to_map_jet())[0].verdict
        b2_seen += mine in (Verdict.B2_PLUS, Verdict.B2_MINUS)
    assert b2_seen >= 40


def test_b2_coefficient_condition_fails_off_slice():
    # with b != 0 the reparametrization killing b shifts a13/a05: this germ has
    # naive discriminant 0 yet is a genuine B2-, which the shifted a05 = -10/3
    # gives: 3 a05 a21 - 5 a13^2 = -10
    c = SBNormalCoeffs({(0, 4): 1, (2, 1): 1}, {3: 1})
    assert 3 * c.a_(0, 5) * c.a_(2, 1) - 5 * c.a_(1, 3) ** 2 == 0
    assert skbk_classify(c).verdict is Verdict.B2_MINUS
    cls, cert = classify(c.to_map_jet())
    assert cls.verdict is Verdict.B2_MINUS
    assert cert.invariants["b2_value"] == -10


def _shifted_b2_discriminant(c):
    """3 a05 a21 - 5 a13^2 on a13 and a05 shifted by b03, as `skbk_classify` reads it."""
    b03 = c.b.get(3, 0)
    a13 = c.a_(1, 3) - c.a_(1, 2) * b03
    a05 = c.a_(0, 5) - Fraction(10, 3) * c.a_(0, 4) * b03
    return 3 * a05 * c.a_(2, 1) - 5 * a13 ** 2


# each row: (sampler, (generic side, oracle side) from the coefficients and the invariants)
ORACLE_IDENTITIES = {
    "SB xi2phi": (lambda rng: random_sb_coeffs(rng, "SB"),
                  lambda c, g: (g["xi2phi"], -c.a_(2, 1))),
    "SB eta2phi": (lambda rng: random_sb_coeffs(rng, "SB"),
                   lambda c, g: (g["eta2phi"], c.a_(0, 3))),
    "SB s2_det": (lambda rng: random_sb_coeffs(rng, "S"),
                  lambda c, g: (g["s2_det"], -c.a_(3, 1))),
    "SB b2_value": (lambda rng: random_sb_coeffs(rng, "B"),
                    lambda c, g: (g["b2_value"], _shifted_b2_discriminant(c))),
    "H h_type_det": (lambda rng: random_h_coeffs(rng, "HP2"),
                     lambda c, g: (g["h_type_det"], c.b_(0, 3))),
    "H h2_det": (lambda rng: random_h_coeffs(rng, "H"),
                 lambda c, g: (4 * c.b_(0, 3) * g["h2_det"], h2_discriminant(c))),
}


@pytest.mark.parametrize("row", sorted(ORACLE_IDENTITIES))
def test_oracle_conditions_are_the_generic_invariants_exactly(row):
    """On the normal shapes the classifier's invariants are the oracle's values,
    not only of the same sign: 25 samples with a nonzero oracle value per row."""
    draw, sides = ORACLE_IDENTITIES[row]
    rng = Random("oracle-identity|" + row)
    nonzero = 0
    for _ in range(8 * 25):
        c = draw(rng)
        generic, oracle = sides(c, classify(c.to_map_jet())[1].invariants)
        assert generic == oracle, (row, c)
        nonzero += oracle != 0
        if nonzero == 25:
            break
    assert nonzero == 25, row


# -- exhaustive {-1, 0, 1}^8 boxes -------------------------------------------

# (u, v) -> (u + 2v, -u + v): a normal-shape germ g has g_u(0) = e1, g_v(0) = 0,
# so f = g o SHEAR has f_v(0) = 2 f_u(0) and `linear_normalize` takes its shear branch
SHEAR = linear_map(((1, 2), (-1, 1)))


def _assert_box(coeffs, oracle, hits):
    """Classify each germ once through SHEAR; verdicts equal the oracle's, hits as given."""
    seen = Counter()
    for c in coeffs:
        expected = oracle(c).verdict
        cls, cert = classify(compose_map(c.to_map_jet(), SHEAR))
        assert cls.verdict is expected, c
        assert cert.normalization == ((1, 2), (0, -1)), c
        seen[expected] += 1
    assert seen == hits


def test_sb_box_against_oracle():
    """Every zero pattern of (a21, a03, a31, a13, a12, a05, a04, b03), the SB oracle's reads."""
    keys = ((2, 1), (0, 3), (3, 1), (1, 3), (1, 2), (0, 5), (0, 4))
    box = (SBNormalCoeffs(dict(zip(keys, a)), {3: b03})
           for *a, b03 in itertools.product((-1, 0, 1), repeat=8))
    _assert_box(box, skbk_classify,
                {Verdict.S1_PLUS: 1458, Verdict.S1_MINUS: 1458, Verdict.S2: 972,
                 Verdict.B2_MINUS: 1026, Verdict.B2_PLUS: 342, Verdict.MORE_DEGENERATE: 1305})


def test_h_box_against_oracle():
    """Every zero pattern of (a03, a04, a05, a12, b03, b04, b05, b12), the H oracle's reads."""
    keys = ((0, 3), (0, 4), (0, 5), (1, 2))
    box = (HNormalCoeffs(dict(zip(keys, values[:4])), dict(zip(keys, values[4:])))
           for values in itertools.product((-1, 0, 1), repeat=8))
    _assert_box(box, h2_check, {Verdict.H2: 3780, Verdict.MORE_DEGENERATE: 2781})


# -- zeros of the B2 discriminant and the H2 quintic off the coordinate axes ----

def test_sb_zeros_of_the_b2_discriminant_off_the_axes():
    """3 a05' a21 - 5 a13'^2 = 0 with a21, a13' != 0 (a13' = a13 - a12 b03,
    a05' = a05 - (10/3) a04 b03): a05 = 5 a13'^2 / (3 a21) + (10/3) a04 b03,
    classified with a05 - 1 and a05 + 1, one germ on each side of the zero."""
    germs = []
    for a21, a13, a12, a04, b03 in itertools.product((-2, -1, 1, 2), (-2, -1, 1, 2),
                                                     (-1, 0, 1), (-1, 0, 1), (-1, 0, 1)):
        a = {(2, 1): a21, (1, 3): a13, (1, 2): a12, (0, 4): a04}
        a05 = Fraction(5 * (a13 - a12 * b03) ** 2, 3 * a21) + Fraction(10, 3) * a04 * b03
        germs += [SBNormalCoeffs({**a, (0, 5): a05 + d}, {3: b03}) for d in (0, -1, 1)]
    _assert_box(germs, skbk_classify, {Verdict.MORE_DEGENERATE: 432, Verdict.B2_PLUS: 432,
                                       Verdict.B2_MINUS: 432})


def test_h_zeros_of_the_h2_quintic_off_the_axes():
    """`h2_discriminant` is linear in a05 with coefficient 4 b03^2: its zero is solved
    for a05 at b03 in {+-1, +-2} and a sample of the other six reads in {-1, 0, 1},
    and classified with a05 - 1 and a05 + 1."""
    points = list(itertools.product((-2, -1, 1, 2), *[(-1, 0, 1)] * 6))
    germs = []
    for b03, a03, a04, a12, b04, b05, b12 in Random("h2-quintic-off-axes").sample(points, 324):
        a = {(0, 3): a03, (0, 4): a04, (1, 2): a12}
        b = {(0, 3): b03, (0, 4): b04, (0, 5): b05, (1, 2): b12}
        a05 = -h2_discriminant(HNormalCoeffs(a, b)) / (4 * b03 ** 2)
        germs += [HNormalCoeffs({**a, (0, 5): a05 + d}, b) for d in (0, -1, 1)]
    _assert_box(germs, h2_check, {Verdict.MORE_DEGENERATE: 324, Verdict.H2: 648})
