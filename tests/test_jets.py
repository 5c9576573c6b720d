from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germclass.errors import OrderExhaustedError, PreconditionError
from germclass.jets import (Jet2, MapJet, PolyMap2, PolyMap3, compose2,
                            compose_map, cross3, det3, from_divided_coeffs,
                            invsqrt_series, post_compose, to_divided_coeff)
from util import jet, random_jet


def test_add_mul_distribute():
    u = Jet2.variable("u", 6)
    v = Jet2.variable("v", 6)
    one = Jet2.const(1, 6)
    assert (one + u) * (one + v) == jet({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_mul_annihilator():
    a = jet({(1, 0): 3, (0, 2): -1})
    assert a * Jet2.zero(6) == Jet2.zero(6)


def test_truncation_drops_high_degree():
    s = Jet2.variable("u", 1) + Jet2.variable("v", 1)
    assert s * s == Jet2.zero(1)


def test_partials():
    v3 = jet({(0, 3): 1})
    assert v3.partial_v() == jet({(0, 2): 3}, order=5)
    assert jet({(0, 2): 1}).partial_u() == Jet2.zero(5)
    mixed = jet({(3, 1): 1, (0, 3): 1})
    assert mixed.partial_v().partial_v().at0() == 0


def test_order_exhaustion_raises():
    c = Jet2.const(1, 0)
    exhausted = c.partial_u()
    assert exhausted.order == -1
    with pytest.raises(OrderExhaustedError):
        exhausted.at0()


def test_compose_identity_and_swap():
    a = jet({(2, 1): 5, (0, 2): -1})
    assert compose2(a, PolyMap2.identity(6)) == a
    v2 = jet({(0, 2): 1})
    assert compose2(v2, PolyMap2.swap(6)) == jet({(2, 0): 1})


def test_post_compose_shear():
    u = Jet2.variable("u", 6)
    v = Jet2.variable("v", 6)
    f = MapJet(u, v * v, u * v)
    phi = PolyMap3(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1, (2, 0, 0): 1}), 6)
    g = post_compose(phi, f)
    assert g[0] == u
    assert g[1] == v * v
    assert g[2] == u * v + u * u


def test_polymap_rejects_nonzero_constant():
    with pytest.raises(PreconditionError):
        PolyMap2(Jet2.const(1, 6), Jet2.variable("v", 6))
    with pytest.raises(PreconditionError):
        PolyMap3(({(0, 0, 0): 1, (1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}), 6)


def test_polymap_rejects_singular_linear_part():
    with pytest.raises(PreconditionError):
        PolyMap2(Jet2.variable("u", 6), Jet2.variable("u", 6))


def test_invsqrt_series_binomial():
    a = jet({(0, 0): 1, (1, 0): 1})
    r = invsqrt_series(a)
    assert r.coeff(1, 0) == Fraction(-1, 2)
    assert r.coeff(2, 0) == Fraction(3, 8)
    assert r.coeff(3, 0) == Fraction(-5, 16)
    assert r * r * a == Jet2.const(1, 6)


def test_invsqrt_of_one():
    assert invsqrt_series(Jet2.const(1, 6)) == Jet2.const(1, 6)


def test_from_divided():
    assert from_divided_coeffs({(2, 1): 2}, 6) == jet({(2, 1): 1})
    assert from_divided_coeffs({(0, 5): 120}, 6) == jet({(0, 5): 1})
    assert from_divided_coeffs({}, 6) == Jet2.zero(6)
    assert to_divided_coeff(jet({(2, 1): 1}), 2, 1) == 2


def test_from_divided_index_out_of_range():
    with pytest.raises(PreconditionError):
        from_divided_coeffs({(4, 4): 1}, 6)


def test_det3_at0_diagonal():
    f = MapJet(Jet2.const(1, 6), Jet2.zero(6), Jet2.zero(6))
    g = MapJet(Jet2.zero(6), Jet2.const(2, 6), Jet2.zero(6))
    h = MapJet(Jet2.zero(6), Jet2.zero(6), Jet2.const(6, 6))
    assert det3((f.at0(), g.at0(), h.at0())) == 12


def test_cross_at0_parallel():
    f = MapJet(Jet2.const(1, 6), Jet2.zero(6), Jet2.zero(6))
    assert cross3(f.at0(), f.at0()) == (0, 0, 0)


def test_det3_at0_s2_columns():
    # xi f, xi^3 eta f, eta^2 f of (u, v^2, u^3 v + v^3) at 0
    from util import germ
    from germclass.vfields import apply_word, d_du, d_dv

    f = germ("u", "v^2", "v*(u^3+v^2)")
    xi, eta = d_du(6), d_dv(6)
    xif = apply_word([xi], f)
    word = apply_word([xi, xi, xi, eta], f)
    eta2f = apply_word([eta, eta], f)
    assert det3((xif.at0(), word.at0(), eta2f.at0())) == -12


def test_germ_constructor_requires_origin():
    with pytest.raises(PreconditionError):
        MapJet.germ(Jet2.const(1, 6), Jet2.zero(6), Jet2.zero(6))


def test_float_scalar_rejected_in_exact_mode():
    with pytest.raises(TypeError):
        Jet2(6, {(0, 0): 0.5})
    with pytest.raises(TypeError):
        jet({(1, 0): 1}) * 0.5


coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def jets(draw, order=4):
    n = draw(st.integers(min_value=0, max_value=5))
    table = {}
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=order))
        j = draw(st.integers(min_value=0, max_value=order - i))
        table[(i, j)] = draw(coeff)
    return Jet2(order, table)


@settings(max_examples=150, deadline=None)
@given(jets(), jets(), jets())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(jets(), jets())
def test_truncation_consistency_mul(a, b):
    wide_a = Jet2(8, dict(a.items()))
    wide_b = Jet2(8, dict(b.items()))
    assert (wide_a * wide_b).truncate(4) == a * b


def test_truncation_consistency_all_ops():
    rng = Random(5)
    for _ in range(40):
        a6 = random_jet(rng, order=6)
        b6 = random_jet(rng, order=6)
        a8 = Jet2(8, dict(a6.items()))
        b8 = Jet2(8, dict(b6.items()))
        assert (a8 + b8).truncate(6) == a6 + b6
        assert (a8 * b8).truncate(6) == a6 * b6
        assert a8.partial_u().truncate(5) == a6.partial_u()
        assert a8.partial_v().truncate(5) == a6.partial_v()
        sq = a8 * a8
        positive_part = Jet2(8, {k: v for k, v in sq.items() if sum(k) > 0})
        unit8 = Jet2.const(1, 8) + positive_part
        unit6 = unit8.truncate(6)
        assert invsqrt_series(unit8).truncate(6) == invsqrt_series(unit6)


def test_truncation_consistency_compose():
    from germclass.fuzz import FuzzConfig, random_source_diffeo
    from germclass.jets import PolyMap2

    rng = Random(9)
    cfg8 = FuzzConfig(seed=0, bound=4, degree=3, order=8)
    for _ in range(20):
        a8 = random_jet(rng, order=8, max_degree=5)
        p8 = random_source_diffeo(cfg8, rng)
        a6 = a8.truncate(6)
        p6 = PolyMap2(p8.p1.truncate(6), p8.p2.truncate(6))
        assert compose2(a8, p8).truncate(6) == compose2(a6, p6)


def test_chain_rule_under_composition():
    rng = Random(17)
    from germclass.fuzz import FuzzConfig, random_source_diffeo

    cfg = FuzzConfig(seed=0, bound=4, degree=3, order=6)
    for _ in range(100):
        a = random_jet(rng, order=6)
        p = random_source_diffeo(cfg, rng)
        lhs_u = compose2(a, p).partial_u()
        rhs_u = (compose2(a.partial_u(), p) * p.p1.partial_u()
                 + compose2(a.partial_v(), p) * p.p2.partial_u())
        assert lhs_u == rhs_u.truncate(lhs_u.order)
        lhs_v = compose2(a, p).partial_v()
        rhs_v = (compose2(a.partial_u(), p) * p.p1.partial_v()
                 + compose2(a.partial_v(), p) * p.p2.partial_v())
        assert lhs_v == rhs_v.truncate(lhs_v.order)


def test_compose_map_matches_componentwise():
    rng = Random(23)
    from germclass.fuzz import FuzzConfig, random_source_diffeo

    cfg = FuzzConfig(seed=0, bound=4, degree=2, order=6)
    f = MapJet(random_jet(rng), random_jet(rng), random_jet(rng))
    p = random_source_diffeo(cfg, rng)
    g = compose_map(f, p)
    for k in range(3):
        assert g[k] == compose2(f[k], p)
