from fractions import Fraction
from random import Random

import pytest

from germclass.errors import OrderExhaustedError, PreconditionError
from germclass.jets import Jet2, MapJet
from germclass.vfields import FramePair, VectorFieldJet, apply, apply_to_jet, apply_word, d_du
from reference import bracket, d_dv
from util import germ, jet, random_jet, rational


def field(a_table, b_table, order=6):
    return VectorFieldJet(jet(a_table, order), jet(b_table, order))


def test_apply_is_partial_for_coordinate_field():
    f = germ("u", "v^2", "v*(u^3+v^2)")
    got = apply(d_dv(6), f)
    assert got[0] == Jet2.zero(5)
    assert got[1] == jet({(0, 1): 2}, 5)
    assert got[2] == jet({(3, 0): 1, (0, 2): 3}, 5)


def test_apply_euler_field_on_linear():
    f = germ("u", "0", "0")
    euler = field({(1, 0): 1}, {})
    assert apply(euler, f)[0] == jet({(1, 0): 1}, 5)


def test_apply_mixed_field():
    f = germ("u", "v^2", "0")
    zeta = field({(0, 1): -1}, {(0, 0): 1})
    got = apply(zeta, f)
    assert got[0] == jet({(0, 1): -1}, 5)
    assert got[1] == jet({(0, 1): 2}, 5)
    assert got[2] == Jet2.zero(5)


def test_apply_word_right_to_left():
    f = germ("u", "v^2", "v^3")
    got = apply_word([d_dv(6), d_dv(6)], f)
    assert got.at0() == (0, 2, 0)


def test_apply_word_five_derivatives():
    f = germ("u", "u*v+v^5", "v^3")
    got = apply_word([d_dv(6)] * 5, f)
    assert got.at0() == (0, 120, 0)


def test_apply_word_empty_is_identity():
    f = germ("u", "v^2", "u*v")
    assert apply_word([], f) == f


def test_apply_word_order_convention():
    # word [xi, eta] must mean xi(eta f), not eta(xi f)
    f = germ("u", "u*v", "0")
    xi, eta = d_du(6), d_dv(6)
    xi_eta = apply_word([xi, eta], f)
    eta_then = apply(eta, f)
    assert xi_eta == apply(xi, eta_then)


def test_order_exhaustion_has_label():
    f = germ("u", "v^2", "u*v", order=2)
    with pytest.raises(OrderExhaustedError) as err:
        apply_word([d_dv(2)] * 3, f, "eta^3 f")
    assert "eta^3 f" in str(err.value)


def test_bracket_coordinate_fields_commute():
    assert bracket(d_du(6), d_dv(6)).a == Jet2.zero(5)
    assert bracket(d_du(6), d_dv(6)).b == Jet2.zero(5)


def test_bracket_hand_example():
    z1 = field({}, {(1, 0): 1})        # u d/dv
    z2 = d_du(6)
    got = bracket(z1, z2)
    assert got.a == Jet2.zero(5)
    assert got.b == jet({(0, 0): -1}, 5)


def test_bracket_antisymmetry_on_self():
    z = field({(0, 1): 2, (0, 0): 1}, {(1, 0): -3})
    got = bracket(z, z)
    assert got.a == got.b == Jet2.zero(got.a.order)


def test_pair_field_must_not_vanish_at_origin():
    vanishing = VectorFieldJet(jet({(1, 0): 1}), jet({(0, 1): 1}))
    with pytest.raises(PreconditionError):
        FramePair(d_du(6), vanishing)
    with pytest.raises(PreconditionError):
        FramePair(vanishing, d_dv(6))


def test_frame_pair_requires_independence():
    with pytest.raises(PreconditionError):
        FramePair(d_du(6), d_du(6))


def random_field(rng, order=6):
    return VectorFieldJet(random_jet(rng, order, max_degree=2),
                          random_jet(rng, order, max_degree=2))


def test_apply_leibniz_on_products():
    rng = Random(31)
    for _ in range(100):
        zeta = random_field(rng)
        g = random_jet(rng)
        h = random_jet(rng)
        lhs = apply_to_jet(zeta, g * h)
        rhs = apply_to_jet(zeta, g) * h + g * apply_to_jet(zeta, h)
        assert lhs == rhs.truncate(lhs.order)


def test_apply_scalar_linearity_in_field():
    rng = Random(37)
    for _ in range(50):
        z1 = random_field(rng)
        z2 = random_field(rng)
        g = random_jet(rng)
        summed = VectorFieldJet(z1.a + z2.a, z1.b + z2.b)
        assert apply_to_jet(summed, g) == apply_to_jet(z1, g) + apply_to_jet(z2, g)


def test_commutator_equals_bracket_action():
    rng = Random(41)
    for _ in range(60):
        z1 = random_field(rng)
        z2 = random_field(rng)
        f = MapJet(random_jet(rng), random_jet(rng), random_jet(rng))
        lhs = apply_word([z2, z1], f)
        rhs = apply_word([z1, z2], f)
        br = apply(bracket(z2, z1), f.truncate(5))
        for k in range(3):
            diff = lhs[k] - rhs[k]
            assert diff == br[k].truncate(diff.order)


# -- the products-and-sums route that `jets.directional` replaced --------------

def old_apply_to_jet(zeta, g):
    return zeta.a * g.partial_u() + zeta.b * g.partial_v()


def old_apply(zeta, f):
    return MapJet(*(old_apply_to_jet(zeta, c) for c in f))


def old_apply_word(word, f):
    for zeta in reversed(list(word)):
        f = old_apply(zeta, f)
    return f


def old_bracket(z1, z2):
    return VectorFieldJet(old_apply_to_jet(z1, z2.a) - old_apply_to_jet(z2, z1.a),
                          old_apply_to_jet(z1, z2.b) - old_apply_to_jet(z2, z1.b))


def scaled_jet(rng, order, max_degree=4):
    return random_jet(rng, order, max_degree) * Fraction(1, rng.randint(1, 12))


def nonconstant_field(rng):
    a, b = (scaled_jet(rng, rng.randint(4, 7), max_degree=3)
            + jet({(rng.randint(0, 1), 1): rational(rng, nonzero=True)}, 7) for _ in range(2))
    return VectorFieldJet(a, b)


def test_apply_matches_products_and_sums():
    rng = Random(43)
    for _ in range(150):
        z1, z2 = nonconstant_field(rng), nonconstant_field(rng)
        order = rng.randint(3, 6)
        f = MapJet(*(scaled_jet(rng, order) for _ in range(3)))
        assert apply(z1, f) == old_apply(z1, f)
        assert apply_to_jet(z2, f[1]) == old_apply_to_jet(z2, f[1])
        word = [(z1, z2)[rng.randint(0, 1)] for _ in range(rng.randint(1, min(order, 4)))]
        assert apply_word(word, f) == old_apply_word(word, f)
        assert bracket(z1, z2) == old_bracket(z1, z2)


def test_order_exhaustion_label_text():
    f = germ("u", "v^2", "u*v", order=0)
    zeta = VectorFieldJet(jet({(0, 0): 1, (1, 1): 2}), jet({(0, 1): 3}))
    for call, label in ((lambda: apply(zeta, f, "xi f"), "xi f "),
                        (lambda: apply_to_jet(zeta, f[2], "xi phi"), "xi phi "),
                        (lambda: apply_word([zeta], f, "eta f"), "eta f "),
                        (lambda: apply(zeta, f), "")):
        with pytest.raises(OrderExhaustedError) as err:
            call()
        assert str(err.value) == "derivative %sexhausts the truncation order" % label
