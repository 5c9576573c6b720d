import copy
import pickle
import re
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import germclass
from germclass.classify import classify, normal_forms
from germclass.errors import OrderExhaustedError, PreconditionError
from germclass.fuzz import FuzzConfig, random_target_diffeo
from germclass.jets import (Jet2, MapJet, PolyMap, compose2, compose_map, cross3,
                            det3, directional, from_divided_coeffs, poly_str,
                            post_compose, reciprocal_series, scaled_coeffs, shear,
                            swap, to_divided_coeff)
from reference import expanded_det3, fraction_divided_coeffs, invsqrt_series, one_term_power
from util import jet, linear_map, random_jet, reference_poly, target_identity


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
    assert compose2(a, linear_map(((1, 0), (0, 1)))) == a
    v2 = jet({(0, 2): 1})
    assert compose2(v2, linear_map(((0, 1), (1, 0)))) == jet({(2, 0): 1})


def test_post_compose_shear():
    u = Jet2.variable("u", 6)
    v = Jet2.variable("v", 6)
    f = MapJet(u, v * v, u * v)
    phi = PolyMap(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1, (2, 0, 0): 1}), 6)
    g = post_compose(phi, f)
    assert g[0] == u
    assert g[1] == v * v
    assert g[2] == u * v + u * u


def test_polymap_rejects_nonzero_constant():
    with pytest.raises(PreconditionError, match="fix the origin"):
        PolyMap(({(0, 0): 1}, {(0, 1): 1}), 6)
    with pytest.raises(PreconditionError, match="fix the origin"):
        PolyMap(({(0, 0, 0): 1, (1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}), 6)


def test_polymap_rejects_singular_linear_part():
    with pytest.raises(PreconditionError, match="singular linear part"):
        PolyMap(({(1, 0): 1}, {(1, 0): 1}), 6)
    with pytest.raises(PreconditionError, match="singular linear part"):
        PolyMap.from_numerators([({(1, 0): 2, (0, 1): 4}, 3), ({(1, 0): -1, (0, 1): -2}, 5)], 6)
    assert linear_map(((0, 1), (1, 0))).linear_matrix() == ((0, 1), (1, 0))


# the first four, in a target change post-composed with (u, v^2, uv), used to
# build a wrong map with no error: a negative exponent indexed the power table
# from its end (u + 5 u v^4), a 4-tuple merged into x (6 u), True was read as
# 1, and a 2-tuple raised IndexError only at composition
@pytest.mark.parametrize("n, key", [(3, (-1, 2, 0)), (3, (1, 0, 0, 0)), (3, (True, 1, 0)),
                                    (3, (1, 1)), (2, (-1, 2)), (2, (1, 0, 0)), (2, (True, 1)),
                                    (2, (2,)), (2, 2)], ids=str)
def test_polymap_rejects_a_key_that_is_not_an_exponent_tuple(n, key):
    comps = [{(1, 0): 1}, {(0, 1): 1}] if n == 2 else [{(1, 0, 0): 1}, {(0, 1, 0): 1},
                                                        {(0, 0, 1): 1}]
    comps[0][key] = 5
    shape = "a pair" if n == 2 else "a 3-tuple"
    with pytest.raises(PreconditionError, match=re.escape("key %r is not %s" % (key, shape))):
        PolyMap(comps, 6)


def test_composition_refuses_a_change_of_the_wrong_arity():
    f = MapJet(Jet2.variable("u", 6), Jet2(6, {(0, 2): 1}), Jet2(6, {(1, 1): 1}))
    source, target = linear_map(((1, 0), (0, 1))), target_identity()
    with pytest.raises(PreconditionError, match="compose2 needs a change of 2 variables"):
        compose2(f[2], target)
    with pytest.raises(PreconditionError, match="compose_map needs a change of 2 variables"):
        compose_map(f, target)
    with pytest.raises(PreconditionError, match="post_compose needs a change of 3 variables"):
        post_compose(source, f)
    assert post_compose(target, compose_map(f, source)) == f


def test_reciprocal_series_inverts():
    a = jet({(0, 0): 1, (1, 0): 1})
    r = reciprocal_series(a)
    assert [r.coeff(k, 0) for k in range(7)] == [(-1) ** k for k in range(7)]
    assert reciprocal_series(Jet2.const(1, 6)) == Jet2.const(1, 6)
    rng = Random(7)
    for order in (1, 2, 5, 8):
        e = random_jet(rng, order=order, max_degree=order)
        a = 1 + Jet2(order, {k: c for k, c in e.items() if k != (0, 0)})
        assert a * reciprocal_series(a) == Jet2.const(1, order)


def test_invsqrt_series_binomial():
    a = jet({(0, 0): 1, (1, 0): 1})
    r = invsqrt_series(a)
    assert r.coeff(1, 0) == Fraction(-1, 2)
    assert r.coeff(2, 0) == Fraction(3, 8)
    assert r.coeff(3, 0) == Fraction(-5, 16)
    assert r * r * a == Jet2.const(1, 6)


def test_invsqrt_of_one():
    assert invsqrt_series(Jet2.const(1, 6)) == Jet2.const(1, 6)


def test_reciprocal_series_needs_constant_term_one():
    for c in (0, 2, Fraction(1, 2), -1):
        with pytest.raises(PreconditionError, match="reciprocal_series needs constant term 1"):
            reciprocal_series(Jet2.const(c, 6) + Jet2.variable("u", 6))


def test_from_divided():
    assert from_divided_coeffs({(2, 1): 2}, 6) == jet({(2, 1): 1})
    assert from_divided_coeffs({(0, 5): 120}, 6) == jet({(0, 5): 1})
    assert from_divided_coeffs({}, 6) == Jet2.zero(6)
    assert to_divided_coeff(jet({(2, 1): 1}), 2, 1) == 2


def test_from_divided_index_out_of_range():
    with pytest.raises(PreconditionError, match=r"divided coefficient index \(4,4\) out of range"):
        from_divided_coeffs({(4, 4): 1}, 6)


@pytest.mark.parametrize("seed", range(8))
def test_from_numerators_equals_the_fraction_table(seed):
    """Integer numerators over one denominator build the jet of their Fractions,
    keys past the order and zero numerators included, and in canonical form."""
    rng = Random(seed)
    for _ in range(40):
        order = rng.randint(0, 10)
        den = rng.choice([1, 2, 6, 12, 35, 360, 7 ** 20])
        g = rng.choice([1, 2, 3, 6])
        num = {(i, j): g * rng.randint(-9, 9) * rng.choice([1, 1, den])
               for i in range(12) for j in range(12 - i) if rng.random() < 0.15}
        got = Jet2.from_numerators(order, num, den)
        want = Jet2(order, {key: Fraction(n, den) for key, n in num.items()})
        assert (got.order, got.items()) == (want.order, want.items())
        assert got == want and hash(got) == hash(want)


def test_from_numerators_keeps_no_alias_and_needs_a_positive_denominator():
    num = {(1, 0): 2, (0, 1): 4, (7, 0): 1}
    got = Jet2.from_numerators(6, num, 2)
    num[(1, 0)] = 5
    assert got == jet({(1, 0): 1, (0, 1): 2})
    assert Jet2.from_numerators(6, {(1, 0): 0}, 3) == Jet2.zero(6)
    assert Jet2.from_numerators(6, {}, 1) == Jet2.zero(6)
    for den in (0, -2):
        with pytest.raises(ValueError, match="positive denominator"):
            Jet2.from_numerators(6, {(1, 0): 1}, den)


def _polymap_or_error(build):
    try:
        return build()
    except (PreconditionError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_polymap3_from_numerators_equals_the_fraction_table(seed):
    """Int numerators over unreduced denominators, zero numerators and keys past
    the order build the change of their Fractions, of 2 or of 3 variables: the
    same comps, linear matrix and composition, or the same error."""
    rng = Random("polymap3|%d" % seed)
    built = 0
    for _ in range(60):
        n = rng.choice([2, 3])
        keys = [key for key in product(range(5), repeat=n) if sum(key) < 5]
        order = rng.randint(1, 4)
        tables, fractions = [], []
        for _ in range(n):
            den = rng.choice([1, 2, 6, 12, 35, 360]) * rng.choice([1, 2, 3])
            num = {key: rng.choice([0, 1, den]) * rng.randint(-9, 9)
                   for key in keys[1:] if rng.random() < (0.8 if sum(key) == 1 else 0.3)}
            if rng.random() < 0.2:
                num[keys[0]] = 0
            tables.append((num, den))
            fractions.append({key: Fraction(n, den) for key, n in num.items()})
        got = _polymap_or_error(lambda: PolyMap.from_numerators(tables, order))
        want = _polymap_or_error(lambda: PolyMap(fractions, order))
        if isinstance(want, tuple):
            assert got == want == (PreconditionError, "coordinate change has singular linear part")
            continue
        built += 1
        assert got.order == want.order == order
        assert got.comps == want.comps
        assert [list(t) for t in got.comps] == [list(t) for t in want.comps]
        assert all(type(c) is Fraction and c for t in got.comps for c in t.values())
        assert all(sum(key) <= order for t in got.comps for key in t)
        assert got.linear_matrix() == want.linear_matrix()
        f = MapJet(*(random_jet(rng, max_degree=3) * Jet2.variable("u", 6) for _ in range(3)))
        compose = (lambda phi: post_compose(phi, f)) if n == 3 else partial(compose_map, f)
        for a, b in zip(compose(got), compose(want)):
            assert a == b and a.items() == b.items()
    assert built > 20


def test_polymap3_from_numerators_keeps_no_alias():
    num = {(1, 0, 0): 4, (0, 1, 0): 0, (2, 0, 0): 6, (7, 0, 0): 1}
    phi = PolyMap.from_numerators([(num, 2), ({(0, 1, 0): 3}, 3), ({(0, 0, 1): -1}, 1)], 6)
    num[(1, 0, 0)] = 5
    assert phi.comps == ({(1, 0, 0): 2, (2, 0, 0): 3}, {(0, 1, 0): 1}, {(0, 0, 1): -1})
    assert phi.linear_matrix() == ((2, 0, 0), (0, 1, 0), (0, 0, -1))
    for den in (0, -2):
        with pytest.raises(ValueError, match="positive denominator"):
            PolyMap.from_numerators([({(1, 0, 0): 1}, den)] * 3, 6)


ORIGIN = "coordinate change must fix the origin"
COUNT = "PolyMap needs 2 or 3 components"
SINGULAR = "coordinate change has singular linear part"
E4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


# the keys of n tables are n-tuples, so a change of 4 or of 1 variables reaches
# the count; a key that is no n-tuple raises before the floats of its table
@pytest.mark.parametrize("tables, error", [
    # a float is read before its own table's constant term ...
    ([{(0, 0, 0): 1, (1, 0, 0): 0.5}, {(0, 1, 0): 1}, {(0, 0, 1): 1}], (TypeError, "float")),
    # ... but after the constant term of an earlier table
    ([{(0, 0, 0): 1, (1, 0, 0): 1}, {(0, 1, 0): 0.5}, {(0, 0, 1): 1}], (PreconditionError, ORIGIN)),
    # a float past the order is dropped unread
    ([{E4[0]: 1, (7, 0, 0, 0): 0.5}, {E4[1]: 1}, {E4[2]: 1}, {E4[3]: 1}],
     (PreconditionError, COUNT)),
    # every table is read before the count, and the count before the linear part
    ([{(1,): 1}], (PreconditionError, COUNT)),
    ([{E4[0]: 1}, {E4[1]: 1}, {E4[2]: 1}, {(0, 0, 0, 0): 2}], (PreconditionError, ORIGIN)),
    ([{E4[0]: 1}, {E4[1]: 1}, {E4[2]: 1}, {(0, 0, 0, 0): 0.5}], (TypeError, "float")),
    ([{E4[0]: 1}] * 4, (PreconditionError, COUNT)),
    ([{(1, 0, 0): 1}, {(1, 0, 0): 2, (0, 1, 0): 0}, {(0, 0, 1): 1}],
     (PreconditionError, SINGULAR)),
    # a zero constant term, or a nonzero one past the order, is no error
    ([{(0, 0, 0): 0, (1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}], None),
    # a bad key is found before a float of its table, after an earlier table's origin
    ([{(1, 0, 0): 0.5, (1, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}],
     (PreconditionError, r"key \(1, 0\) is not a 3-tuple")),
    ([{(0, 0, 0): 1, (1, 0, 0): 1}, {(0, 1): 1}, {(0, 0, 1): 1}], (PreconditionError, ORIGIN)),
])
def test_polymap3_errors_keep_their_messages_and_order(tables, error):
    if error is None:
        assert PolyMap(tables, 6).linear_matrix() == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return
    kind, message = error
    with pytest.raises(kind, match=message):
        PolyMap(tables, 6)
    if kind is PreconditionError and "key" not in message:
        # the integer constructor, which trusts its keys, raises the same, in the same order
        ints = [({key: Fraction(c).numerator for key, c in t.items()}, 1) for t in tables]
        with pytest.raises(kind, match=message):
            PolyMap.from_numerators(ints, 6)


@pytest.mark.parametrize("seed", range(4))
def test_from_divided_coeffs_matches_the_fraction_construction(seed):
    rng = Random(seed)
    for _ in range(40):
        order = rng.randint(0, 10)
        table = {(i, j): Fraction(rng.randint(-30, 30), rng.choice([1, 2, 7, 120]))
                 for i in range(order + 1) for j in range(order + 1 - i) if rng.random() < 0.3}
        got = from_divided_coeffs(table, order)
        want = fraction_divided_coeffs(table, order)
        assert (got.order, got.items()) == (want.order, want.items())


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
    from germclass.vfields import apply_word, d_du
    from reference import d_dv

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
    with pytest.raises(TypeError):
        Jet2.const(0.5, 6)


CONSTANTS = [0, 1, -1, 7, Fraction(0), Fraction(-3, 4), Fraction(10 ** 30, 7)]


@pytest.mark.parametrize("order", range(-1, 11))
def test_constructors_build_the_canonical_form_of_the_table(order):
    """zero, const and variable equal the general constructor on their table,
    truncation below a variable's degree and zero values included."""
    def same(got, want):
        assert got == want
        assert hash(got) == hash(want)
        assert list(got.items()) == list(want.items())

    same(Jet2.zero(order), Jet2(order, {}))
    for value in CONSTANTS:
        same(Jet2.const(value, order), Jet2(order, {(0, 0): value}))
    same(Jet2.variable("u", order), Jet2(order, {(1, 0): 1}))
    same(Jet2.variable("v", order), Jet2(order, {(0, 1): 1}))
    with pytest.raises(ValueError):
        Jet2.variable("w", order)


@pytest.mark.parametrize("order", range(0, 9))
def test_one_term_power_is_repeated_multiplication(order):
    """(c u^i v^j)^n is c^n u^(ni) v^(nj), or the zero jet past the order: term by
    term the one-term formula of `reference.one_term_power`, and for n < 12 the
    product of n copies."""
    for c in (1, -1, -2, Fraction(-3, 4), Fraction(5, 6), Fraction(10 ** 20, 3)):
        for i, j in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 3)):
            if i + j > order:
                continue
            base = Jet2(order, {(i, j): c})
            product = Jet2(order, {(0, 0): 1})
            for n in range(12):
                power = base ** n
                assert power == product
                assert list(power.items()) == list(product.items())
                if n * (i + j) > order:
                    assert power == Jet2.zero(order)
                product = product * base
            for n in (*range(12), 40, 1000) + ((10 ** 400,) if abs(c) == 1 else ()):
                got, want = base ** n, one_term_power(base, n)
                assert (got.order, got.items()) == (want.order, want.items()), (base, n)


def test_power_is_repeated_multiplication():
    """The binomial power equals the product of n copies, for n = 0..15, on jets
    with a constant term of 0, +-1 or another rational over mixed denominators."""
    rng = Random("power")
    for _ in range(400):
        order = rng.randint(-1, 7)
        table = {(i, j): Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))
                 for i in range(order + 1) for j in range(order + 1 - i) if rng.random() < 0.3}
        table[(0, 0)] = rng.choice((0, 1, -1, Fraction(-3, 2), Fraction(2, 3), 5))
        base = Jet2(order, table)
        product = Jet2(order, {(0, 0): 1})
        for n in range(16):
            assert base ** n == product, (base, n)
            product = product * base


def test_huge_power_of_a_sum_makes_at_most_order_plus_one_products(monkeypatch):
    """(1+u+v)^E at order 10 with E = 10^400: one product per power of u + v, so
    the cost grows with the digits of E, not with E."""
    products = []

    def counted(name, inner):
        def wrapper(*args):
            products.append(name)
            return inner(*args)
        return wrapper

    monkeypatch.setattr(Jet2, "__mul__", counted("mul", Jet2.__mul__))
    monkeypatch.setattr(germclass.jets, "_convolve",
                        counted("convolve", germclass.jets._convolve))
    order, e = 10, 10 ** 400
    base = Jet2(order, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    power = base ** e
    assert len(products) <= order + 1
    for i in range(order + 1):
        for j in range(order + 1 - i):
            assert power.coeff(i, j) == comb(e, i + j) * comb(i + j, i)


def test_coeffs_below_reads_each_coefficient_in_lowest_terms():
    """The size test is the exact one even when the shared denominator passes the bound."""
    f = Jet2(3, {(1, 0): Fraction(1, 9), (0, 1): Fraction(1, 11), (0, 0): 2})
    # numerators 11, 9, 198 over 99
    assert f.coeffs_below(200) and f.coeffs_below(100) and f.coeffs_below(12)
    assert not f.coeffs_below(11) and not f.coeffs_below(2)
    assert Jet2(3, {(0, 0): -12}).coeffs_below(13) and not Jet2(3, {(0, 0): -12}).coeffs_below(12)
    assert Jet2.zero(3).coeffs_below(2)


@pytest.mark.parametrize("order", range(0, 8))
def test_det3_of_map_jet_rows_is_the_expanded_determinant(order):
    """det3 on three MapJet rows, as phi takes it, is the jet determinant term by term."""
    rng = Random("det3-%d" % order)
    for _ in range(40):
        rows = [MapJet(*(random_jet(rng, order + rng.randint(0, 2), max_degree=order + 1)
                         for _ in range(3))) for _ in range(3)]
        got, want = det3(rows), expanded_det3(*rows)
        assert (got.order, got.items()) == (want.order, want.items())


def test_scalar_product_is_the_product_with_the_constant_jet():
    """a * s and s * a equal a * Jet2.const(s, a.order), for 0, +-1, integers and fractions."""
    rng = Random("scalar")
    for _ in range(200):
        order = rng.randint(-1, 7)
        a = random_jet(rng, order, max_degree=max(order, 0))
        for s in (0, 1, -1, 5, Fraction(0), Fraction(-3, 4), Fraction(7, 12), Fraction(1, 1)):
            want = a * Jet2.const(s, a.order)
            for got in (a * s, s * a):
                assert (got.order, got.items()) == (want.order, want.items())
                assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (1.5, 0), (0, Fraction(1)), (True, 0),
                                 ("u", 1), (1, 2, 3), (1,), 3, (1.0, 2), "ab"], ids=str)
def test_jet_rejects_a_key_that_is_not_a_pair_of_non_negative_ints(key):
    """Both constructors from tables keep the one key rule."""
    with pytest.raises(PreconditionError, match="not a pair of non-negative ints"):
        Jet2(6, {(0, 0): 1, key: 1})
    with pytest.raises(PreconditionError, match="not a pair of non-negative ints"):
        from_divided_coeffs({(0, 0): 1, key: 1}, 6)


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
        assert reciprocal_series(unit8).truncate(6) == reciprocal_series(unit6)


def test_truncate_returns_self_when_nothing_is_cut():
    rng = Random(6)
    a, b, c = (random_jet(rng, order=6) for _ in range(3))
    f = MapJet(a, b, c)
    for order in (6, 7, 10):
        assert a.truncate(order) is a
        assert f.truncate(order) is f
    cut = f.truncate(5)
    assert cut is not f and cut.order == 5
    assert cut == MapJet(a.truncate(5), b.truncate(5), c.truncate(5))


def test_truncation_consistency_compose():
    from germclass.fuzz import FuzzConfig, random_source_diffeo

    rng = Random(9)
    cfg8 = FuzzConfig(seed=0, bound=4, degree=3, order=8)
    for _ in range(20):
        a8 = random_jet(rng, order=8, max_degree=5)
        p8 = random_source_diffeo(cfg8, rng)
        a6 = a8.truncate(6)
        p6 = PolyMap(p8.comps, 6)
        assert compose2(a8, p8).truncate(6) == compose2(a6, p6)


def test_chain_rule_under_composition():
    rng = Random(17)
    from germclass.fuzz import FuzzConfig, random_source_diffeo

    cfg = FuzzConfig(seed=0, bound=4, degree=3, order=6)
    for _ in range(100):
        a = random_jet(rng, order=6)
        p = random_source_diffeo(cfg, rng)
        p1, p2 = (Jet2(p.order, table) for table in p.comps)
        lhs_u = compose2(a, p).partial_u()
        rhs_u = (compose2(a.partial_u(), p) * p1.partial_u()
                 + compose2(a.partial_v(), p) * p2.partial_u())
        assert lhs_u == rhs_u.truncate(lhs_u.order)
        lhs_v = compose2(a, p).partial_v()
        rhs_v = (compose2(a.partial_u(), p) * p1.partial_v()
                 + compose2(a.partial_v(), p) * p2.partial_v())
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


# -- the Fraction-dict kernel the integer kernel replaced ----------------------
# A jet is (order, {(i, j): Fraction}); each loop is the old Jet2 method, with
# the old constructor's order filter and zero drop in `ref_jet`.

def ref_jet(order, table):
    return order, {k: c for k, c in table.items() if sum(k) <= order and c != 0}


def ref_add(a, b):
    out = dict(a[1])
    for key, c in b[1].items():
        got = out.get(key)
        out[key] = c if got is None else got + c
    return ref_jet(min(a[0], b[0]), out)


def ref_neg(a):
    return a[0], {k: -c for k, c in a[1].items()}


def ref_scale(a, s):
    return ref_jet(a[0], {k: c * s for k, c in a[1].items()} if s else {})


def ref_mul(a, b):
    order, out = min(a[0], b[0]), {}
    for (i1, j1), c1 in a[1].items():
        for (i2, j2), c2 in b[1].items():
            if i1 + j1 + i2 + j2 <= order:
                key = (i1 + i2, j1 + j2)
                out[key] = c1 * c2 if key not in out else out[key] + c1 * c2
    return ref_jet(order, out)


def ref_partial(a, axis):
    shift = ((1, 0), (0, 1))[axis]
    return ref_jet(a[0] - 1, {(i - shift[0], j - shift[1]): (i, j)[axis] * c
                              for (i, j), c in a[1].items() if (i, j)[axis] > 0})


def ref_truncate(a, order):
    return a if order >= a[0] else ref_jet(order, a[1])


def ref_substitute(tables, values, order):
    terms = [[(k, c) for k, c in t.items() if sum(k) <= order] for t in tables]
    pows = []
    for k, value in enumerate(values):
        top = max((key[k] for group in terms for key, _ in group), default=0)
        pows.append([(order, {(0, 0): Fraction(1)})])
        for _ in range(top):
            pows[-1].append(ref_mul(pows[-1][-1], ref_truncate(value, order)))
    out = []
    for group in terms:
        rows = {}
        for key, c in group:
            rows.setdefault(key[:-1], []).append((key[-1], c))
        total = (order, {})
        for head, entries in rows.items():
            inner = (order, {})
            for e, c in entries:
                inner = ref_add(inner, ref_scale(pows[-1][e], c))
            for k in reversed(range(len(values) - 1)):
                if head[k]:
                    inner = ref_mul(pows[k][head[k]], inner)
            total = ref_add(total, inner)
        out.append(total)
    return out


def ref(x):
    return x.order, dict(x.items())


def assert_matches_reference(x, want):
    """Same order, same coefficients, same reads."""
    order, table = want
    assert x.order == order
    assert dict(x.items()) == table
    assert x.degree() == max((sum(k) for k in table), default=-1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            assert x.coeff(i, j) == table.get((i, j), 0)
    if order >= 0:
        assert x.at0() == table.get((0, 0), 0)


mixed = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def mixed_jets(draw, order=None):
    order = draw(st.integers(min_value=2, max_value=5)) if order is None else order
    keys = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda k: sum(k) <= order)
    return Jet2(order, draw(st.dictionaries(keys, mixed, max_size=8)))


@settings(max_examples=200, deadline=None)
@given(mixed_jets(), mixed_jets(), mixed, st.integers(min_value=-1, max_value=5))
def test_kernel_matches_fraction_reference(a, b, s, k):
    ra, rb = ref(a), ref(b)
    assert_matches_reference(a + b, ref_add(ra, rb))
    assert_matches_reference(a - b, ref_add(ra, ref_neg(rb)))
    assert_matches_reference(a * b, ref_mul(ra, rb))
    assert_matches_reference(a * s, ref_scale(ra, s))
    assert_matches_reference(-a, ref_neg(ra))
    assert_matches_reference(a.partial_u(), ref_partial(ra, 0))
    assert_matches_reference(a.partial_v(), ref_partial(ra, 1))
    assert_matches_reference(a.truncate(k), ref_truncate(ra, k))
    # forced cancellations
    assert_matches_reference(a + (-a), ref_add(ra, ref_neg(ra)))
    assert_matches_reference((a * 3) * Fraction(1, 3), ref_scale(ref_scale(ra, 3), Fraction(1, 3)))
    assert_matches_reference(a - a.truncate(k), ref_add(ra, ref_neg(ref_truncate(ra, k))))
    assert_matches_reference(a * b - b * a, ref_add(ref_mul(ra, rb), ref_neg(ref_mul(rb, ra))))


@settings(max_examples=100, deadline=None)
@given(mixed_jets(), mixed_jets(), mixed_jets(), mixed, st.integers(min_value=0, max_value=5))
def test_equal_polynomials_compare_and_hash_equal(a, b, c, s, k):
    routes = [((a + b) * c, a * c + b * c),
              ((a * 3) * Fraction(1, 3), a),
              (a + b - b, a.truncate(min(a.order, b.order))),
              (a - a, Jet2.zero(a.order)),
              ((a * s) * b, a * (b * s)),
              ((a - a.truncate(k)).truncate(k), Jet2.zero(min(a.order, k)))]
    # one germ by each MapJet constructor: a MapJet is a tuple, hashed by its jets
    parts = [x - x.at0() for x in (a, b, c)]
    order = min(x.order for x in parts)
    germs = [MapJet(*parts), MapJet.shared(x.truncate(order) for x in parts), MapJet.germ(*parts)]
    routes += [(germs[0], g) for g in germs[1:]]
    for x, y in routes:
        assert x == y
        assert hash(x) == hash(y)
    assert len(set(germs)) == 1


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_germs_and_certificates_survive_deepcopy_and_pickle(copy_of):
    for f in normal_forms().values():
        for x in (f, classify(f)[1]):
            y = copy_of(x)
            assert type(y) is type(x) and y == x


def _canonical_keys(keys):
    return sorted(keys, key=lambda key: (key[0] + key[1], key[0]))


def _poly_str_keys(text):
    """The (i, j) of each term of a `poly_str` text, in the order printed."""
    keys = []
    for term in re.split(r" [+-] ", text.lstrip("-")):
        i = re.search(r"u(?:\^(\d+))?", term)
        j = re.search(r"v(?:\^(\d+))?", term)
        keys.append((int(i.group(1) or 1) if i else 0, int(j.group(1) or 1) if j else 0))
    return keys


@settings(max_examples=60, deadline=None)
@given(mixed_jets(), mixed_jets())
def test_items_come_in_the_canonical_order(a, b):
    """`items()` lists terms by total degree, then u-exponent, whatever built the
    jet, and that is the order `poly_str` prints them in."""
    assert list((a + b).items()) == list((b + a).items())
    assert list((a * b).items()) == list((b * a).items())
    for x in (a, b, a + b, a * b, a - b):
        keys = [key for key, _ in x.items()]
        assert keys == _canonical_keys(keys)
        if keys:
            assert _poly_str_keys(poly_str(x)) == keys


@st.composite
def directional_operands(draw):
    """(a, b, cs): three components of one order over different denominators,
    the last with no degree-1 term, and a.order and b.order below, at or
    above that order - 1."""
    order = draw(st.integers(min_value=2, max_value=5))
    c1, c2, c3 = (draw(mixed_jets(order=order)) * Fraction(1, p) for p in (7, 11, 13))
    c3 = Jet2(order, {key: x for key, x in c3.items() if sum(key) != 1})
    a, b = (draw(mixed_jets(order=max(0, order - 1 + draw(st.integers(-1, 1)))))
            for _ in range(2))
    return a, b, (c1, c2, c3)


def products(a, b, c):
    return a * c.partial_u() + b * c.partial_v()


@settings(max_examples=100, deadline=None)
@given(directional_operands())
def test_directional_matches_products(operands):
    a, b, cs = operands
    got = directional(a, b, cs)
    assert len(got) == 3
    for g, c in zip(got, cs):
        assert g == products(a, b, c)
    for x, y in ((Jet2.zero(a.order), b), (a, Jet2.zero(b.order))):
        for g, c in zip(directional(x, y, cs), cs):
            assert g == products(x, y, c)
    const = Jet2.const(Fraction(4, 9), 1)
    assert directional(a, b, (const,)) == (products(a, b, const),)
    c = cs[0]
    cancelled, = directional(c.partial_v(), -c.partial_u(), (c,))
    assert cancelled == Jet2.zero(c.order - 1)
    assert cancelled._den == 1
    # components of different orders: every result is at the smallest one
    short = (cs[0], cs[1].truncate(cs[1].order - 1), cs[2])
    order = min(a.order, b.order, cs[1].order - 2)
    for g, c in zip(directional(a, b, short), short):
        assert g.order == order and g == products(a, b, c).truncate(order)


@settings(max_examples=100, deadline=None)
@given(directional_operands(), st.integers(0, 8))
def test_directional_at_an_order_equals_it_on_the_truncated_input(operands, order):
    """Order 0 is the dot product of the field at 0 with the degree-1 terms."""
    a, b, cs = operands
    got = directional(a, b, cs, order)
    want = directional(a, b, tuple(c.truncate(order + 1) for c in cs))
    assert got == want
    for g, w, c in zip(got, want, cs):
        assert g.order == w.order
        assert list(g.items()) == list(w.items())
        assert g == products(a, b, c).truncate(g.order)


def _mixed_polymap2(rng, order):
    while True:
        p1, p2 = ({(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 12))
                   for i in range(4) for j in range(4 - i) if 0 < i + j and rng.random() < 0.5}
                  for _ in range(2))
        if p1.get((1, 0), 0) * p2.get((0, 1), 0) != p1.get((0, 1), 0) * p2.get((1, 0), 0):
            return PolyMap((p1, p2), order)


def ref_values(p):
    """A source change's components as reference values (order, table)."""
    return tuple((p.order, table) for table in p.comps)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16), st.integers(min_value=3, max_value=6))
def test_substitution_matches_fraction_reference(seed, order):
    rng = Random(seed)
    f = MapJet(*(random_jet(rng, order=order) * Fraction(1, rng.randint(1, 12))
                 for _ in range(3)))
    p = _mixed_polymap2(rng, rng.randint(order - 1, order + 1))
    sub_order = min(f.order, p.order)
    want = ref_substitute([dict(c.items()) for c in f], ref_values(p), sub_order)
    for got, w in zip(compose_map(f, p), want):
        assert_matches_reference(got, w)
    assert_matches_reference(compose2(f[0], p), want[0])
    identity = linear_map(((1, 0), (0, 1)), order)
    for got, w in zip(compose_map(f, identity),
                      ref_substitute([dict(c.items()) for c in f],
                                     ref_values(identity), order)):
        assert_matches_reference(got, w)
    fixed = PolyMap([{(1, 0, 0): 1, (0, 0, 2): Fraction(1, 7)},
                      {(0, 1, 0): Fraction(2, 3), (1, 1, 0): Fraction(-5, 4)},
                      {(0, 0, 1): Fraction(3, 5), (2, 0, 1): 1, (1, 0, 0): Fraction(1, 9)}],
                     order)
    # a degree 1..3 target change at the criterion-2 density puts the middle
    # products (heads with a y exponent) under the reference too
    drawn = random_target_diffeo(FuzzConfig(bound=9, degree=3, order=order), rng,
                                 rng.randint(1, 3))
    for phi in (fixed, drawn):
        want = ref_substitute(phi.comps, tuple(ref(c) for c in f), f.order)
        for got, w in zip(post_compose(phi, f), want):
            assert_matches_reference(got, w)


# -- deterministic cases of the substitution loop --------------------------------

@pytest.mark.parametrize("shape", ["identity", "swap", "shear"])
def test_compose_map_key_order_on_each_normalizing_shape(shape):
    """compose_map with each L of `frames.linear_normalize` gives the reference's
    coefficients, which `items()` lists in the canonical order."""
    rng = Random("normalize|" + shape)
    f = MapJet(*(random_jet(rng, max_degree=6, density=0.6) * Fraction(1, rng.randint(2, 12))
                 for _ in range(3)))
    L = linear_map({"identity": ((1, 0), (0, 1)), "swap": ((0, 1), (1, 0)),
                    "shear": ((1, Fraction(5, 9)), (0, -1))}[shape])
    want = ref_substitute([dict(c.items()) for c in f], ref_values(L), 6)
    for got, w in zip(compose_map(f, L), want):
        assert_matches_reference(got, w)
        assert [key for key, _ in got.items()] == _canonical_keys(w[1])


def test_closed_forms_match_compose_map():
    """f itself, `swap` and `shear` give `compose_map`'s jets for the identity,
    the swap and the shear.

    Coefficients in {-2..2}/{1, 2, 3} on dense jets make the shear's terms
    cancel, so its zero drops are exercised too.
    """
    rng = Random("compose-linear")
    for _ in range(1000):
        order = rng.randint(1, 10)
        f = MapJet(*(Jet2(order, {(i, j): Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                  for i in range(order + 1) for j in range(order + 1 - i)
                                  if rng.random() < 0.5}) for _ in range(3)))
        p_order = rng.randint(max(1, order - 1), order + 1)
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        # compose_map works at min(f.order, p.order); the closed forms at g's order
        g = f.truncate(p_order)
        for got, matrix in ((g, ((1, 0), (0, 1))), (swap(g), ((0, 1), (1, 0))),
                            (shear(g, t), ((1, t), (0, -1)))):
            want = compose_map(f, linear_map(matrix, p_order))
            assert got == want and got.order == want.order, (f, matrix)

@pytest.mark.parametrize("t", [Fraction(3), Fraction(-5, 4)])
def test_shear_shares_one_weight_table_across_components(t):
    """`shear` builds its weights at the largest u-exponent over all three
    components; a zero component, a v-only one and one with u^6 reduce to
    `compose_map`'s jets all the same."""
    f = MapJet(Jet2.zero(7),
               Jet2(7, {(0, 1): Fraction(2, 3), (0, 4): -1}),
               Jet2(7, {(6, 0): Fraction(1, 5), (1, 1): 3, (2, 3): Fraction(-7, 2)}))
    got = shear(f, t)
    want = compose_map(f, linear_map(((1, t), (0, -1)), 7))
    assert got == want
    assert got[0] == Jet2.zero(7) and got[0]._den == 1


def test_key_cancelled_after_one_head_is_recreated():
    # (u, v) -> (u + v, v) on v^2 - uv + u^2, heads u^0, u^1, u^2 in that order:
    # u^1 cancels the v^2 of u^0 and u^2 creates it again
    a = Jet2(6, {(0, 2): 1, (1, 1): -1, (2, 0): 1})
    p = PolyMap(({(1, 0): 1, (0, 1): 1}, {(0, 1): 1}), 6)
    got = compose2(a, p)
    assert dict(got.items()) == {(1, 1): 1, (2, 0): 1, (0, 2): 1}
    assert_matches_reference(got, ref_substitute([dict(a.items())], ref_values(p), 6)[0])
    # three variables: z, then -y cancels v, then x creates it again
    phi = PolyMap([{(0, 0, 1): 1, (0, 1, 0): -1, (1, 0, 0): 1}, {(1, 0, 0): 1}, {(0, 1, 0): 1}],
                   6)
    f = MapJet(Jet2.variable("v", 6), Jet2.variable("v", 6), Jet2(6, {(0, 1): 1, (2, 0): 1}))
    got = post_compose(phi, f)
    assert dict(got[0].items()) == {(2, 0): 1, (0, 1): 1}
    for x, w in zip(got, ref_substitute(phi.comps, tuple(ref(c) for c in f), 6)):
        assert_matches_reference(x, w)


def test_last_variable_powers_cancel_inside_one_head():
    # one head, u^1: v - v^2/2 cancels the v^3 of p2 - p2^2/2, and + p2^3 creates it again
    p = PolyMap(({(1, 0): 1, (0, 1): 1}, {(0, 1): 1, (0, 2): 1, (0, 3): 1}), 6)
    a = Jet2(6, {(1, 1): 1, (1, 2): Fraction(-1, 2), (1, 3): 1})
    got = compose2(a, p)
    assert got.coeff(1, 3) == 1
    assert_matches_reference(got, ref_substitute([dict(a.items())], ref_values(p), 6)[0])


# -- edge cases of Horner's rule in the first variable ---------------------------

def _post_composed_matches_reference(phi, f):
    got = post_compose(phi, f)
    want = ref_substitute(phi.comps, tuple(ref(c) for c in f), f.order)
    for x, w in zip(got, want):
        assert_matches_reference(x, w)
    return got


# x^3 and x^0 terms only in the first component, so Horner's rule steps
# through the empty groups x^2 and x^1; every component has a cubic term
GAPPED = PolyMap([{(0, 0, 1): 1, (3, 0, 0): Fraction(1, 2), (0, 2, 1): -3},
                  {(1, 0, 0): Fraction(2, 5), (2, 1, 0): 1, (1, 1, 1): Fraction(-1, 3)},
                  {(0, 1, 0): -1, (1, 0, 2): 4, (3, 0, 0): Fraction(5, 7)}], 6)


def test_first_exponents_with_gaps():
    a = Jet2(6, {(3, 0): Fraction(2, 3), (3, 2): -1, (0, 1): 5, (0, 4): Fraction(1, 7)})
    p = PolyMap(({(1, 0): Fraction(1, 2), (0, 1): 3, (1, 1): -1, (0, 2): Fraction(2, 9)},
                 {(1, 0): 1, (0, 1): Fraction(-4, 5), (2, 0): 7}), 6)
    assert_matches_reference(compose2(a, p), ref_substitute([dict(a.items())], ref_values(p), 6)[0])
    f = MapJet(Jet2(6, {(1, 0): 2, (0, 2): Fraction(1, 3)}), Jet2(6, {(0, 1): 1, (1, 1): -1}),
               Jet2(6, {(2, 0): Fraction(3, 4), (0, 3): 1}))
    _post_composed_matches_reference(GAPPED, f)


@pytest.mark.parametrize("f", [("u", "v^2", "u*v"), ("v^2", "u*v", "u"), ("u*v", "u", "v^2")])
def test_degree_cut_on_a_first_value_of_low_degree(f):
    """The first value's lowest degree is 1 or 2, so the steps for x^3 are cut
    at order - 3 or order - 6 and drop terms that x^3 would lift past the order."""
    f = MapJet(*(reference_poly(c, 6) for c in f))
    got = _post_composed_matches_reference(GAPPED, f)
    if f[0] == reference_poly("v^2", 6):
        # x^3 = v^6 sits exactly at the order; x^3 z would be degree 8
        assert got[0].coeff(0, 6) == Fraction(1, 2)


@pytest.mark.parametrize("k", range(3))
def test_a_zero_component(k):
    """A zero first value never reaches the order: only its x^0 group counts."""
    f = [Jet2(6, {(1, 0): 1, (0, 2): Fraction(2, 3)}), Jet2(6, {(0, 1): -1, (1, 1): 1}),
         Jet2(6, {(2, 0): 1, (0, 3): Fraction(-1, 5)})]
    f[k] = Jet2.zero(6)
    _post_composed_matches_reference(GAPPED, MapJet(*f))


def test_a_constant_term_leaves_the_degree_uncut():
    """post_compose takes any MapJet: a first value with a constant term has
    lowest degree 0, so no step is cut."""
    f = MapJet(Jet2(6, {(0, 0): Fraction(3, 2), (1, 0): 1, (0, 2): -1}),
               Jet2(6, {(0, 0): -1, (0, 1): 1}), Jet2(6, {(1, 1): Fraction(1, 4), (3, 0): 2}))
    got = _post_composed_matches_reference(GAPPED, f)
    assert got[0].at0() == Fraction(1, 2) * Fraction(3, 2) ** 3


# -- integer reads at the origin -----------------------------------------------

def _mixed_jet(rng, order):
    """A jet of the given order with a few coefficients over denominators up to 12."""
    return Jet2(order, {(i, j): Fraction(rng.randint(-6, 6), rng.randint(1, 12))
                        for i in range(order + 1) for j in range(order + 1 - i)
                        if rng.random() < 0.4})


def coefficient_reads(seed, n=None, dim=None):
    """Reads (vector, (i, j)) of `dim`-vectors of jets with mixed orders and denominators.

    A 3-vector is a MapJet (one order) or a bare tuple of jets (mixed
    orders, as a field's (a, b) may have); the key lies within the order
    of every component, and is (0, 0) half of the time.
    """
    rng = Random(seed)
    n = rng.randint(1, 5) if n is None else n
    dim = rng.choice((2, 3)) if dim is None else dim
    reads = []
    for _ in range(n):
        vector = tuple(_mixed_jet(rng, rng.randint(0, 5)) for _ in range(dim))
        if dim == 3 and rng.random() < 0.5:
            vector = MapJet(*vector)
        order = min(c.order for c in vector)
        i = j = 0
        if rng.random() < 0.5:
            i = rng.randint(0, order)
            j = rng.randint(0, order - i)
        reads.append((vector, (i, j)))
    return reads


def _exact(reads):
    """The Fraction values each read stands for: `MapJet.at0()` at (0, 0), else `coeff`."""
    return [vector.at0() if isinstance(vector, MapJet) and key == (0, 0)
            else tuple(c.coeff(*key) for c in vector) for vector, key in reads]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_scaled_coeffs_match_fraction_reads(seed):
    """Component k of every vector is the exact value times one D_k > 0; scale is their product."""
    reads = coefficient_reads(seed)
    vectors, scale = scaled_coeffs(*reads)
    exact = _exact(reads)
    assert len(vectors) == len(exact)
    assert all(type(x) is int for vector in vectors for x in vector)
    product = 1
    for k in range(len(exact[0])):
        factors = {Fraction(vector[k]) / value[k] for vector, value in zip(vectors, exact)
                   if value[k]}
        assert all(vector[k] == 0 for vector, value in zip(vectors, exact) if not value[k])
        assert len(factors) <= 1
        if factors:
            (factor,) = factors
            assert factor > 0 and factor.denominator == 1
            product *= factor
    assert scale > 0 and scale % product == 0
    if all(any(value[k] for value in exact) for k in range(len(exact[0]))):
        assert scale == product


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from((2, 3)))
def test_scaled_determinant_is_exact_determinant_over_scale(seed, dim):
    reads = coefficient_reads(seed, n=dim, dim=dim)
    vectors, scale = scaled_coeffs(*reads)
    exact = _exact(reads)
    if len(reads) == 3:
        assert Fraction(det3(vectors), scale) == det3(exact)
        for x, y in ((0, 1), (1, 2), (0, 2)):
            assert [c == 0 for c in cross3(vectors[x], vectors[y])] == [
                c == 0 for c in cross3(exact[x], exact[y])]
    else:
        (a1, b1), (a2, b2) = vectors
        (x1, y1), (x2, y2) = exact
        assert Fraction(a1 * b2 - b1 * a2, scale) == x1 * y2 - y1 * x2


def test_scaled_coeffs_share_each_component_denominator():
    f = MapJet(jet({(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 3)}), jet({(0, 0): 1}),
               jet({(1, 0): Fraction(5, 4)}))
    g = MapJet(jet({(0, 0): Fraction(1, 5)}), jet({(0, 0): Fraction(2, 7)}),
               jet({(0, 0): Fraction(-1, 6)}))
    # D = (lcm(6, 5), lcm(1, 7), lcm(4, 6)) = (30, 7, 12)
    assert scaled_coeffs((f, (0, 0)), (g, (0, 0)), (f, (1, 0))) == (
        ((15, 7, 0), (6, 2, -2), (10, 0, 15)), 30 * 7 * 12)
    assert scaled_coeffs((f, (1, 0)), (f, (0, 0))) == (((2, 0, 5), (3, 1, 0)), 6 * 1 * 4)
    with pytest.raises(OrderExhaustedError, match=r"coefficient \(2,1\) beyond truncation order 2"):
        scaled_coeffs((f, (0, 0)), (f.truncate(2), (2, 1)))
    with pytest.raises(OrderExhaustedError):
        scaled_coeffs(((Jet2.const(1, 3), Jet2.const(1, 0).partial_u()), (0, 0)))


def test_only_jets_reads_the_integer_representation():
    """`_num` and `_den` are private to `jets`; other modules use the public reads."""
    package = Path(germclass.__file__).parent
    offenders = [(path.name, n) for path in sorted(package.glob("*.py")) if path.name != "jets.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if "._num" in line or "._den" in line]
    assert len(list(package.glob("*.py"))) > 10
    assert offenders == []
