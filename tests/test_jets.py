from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import germclass
from germclass.errors import OrderExhaustedError, PreconditionError
from germclass.fuzz import FuzzConfig, random_target_diffeo
from germclass.jets import (Jet2, MapJet, PolyMap2, PolyMap3, compose2,
                            compose_map, cross3, det3, directional, from_divided_coeffs,
                            invsqrt_series, post_compose, scaled_coeffs, to_divided_coeff)
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
    """Same order, same coefficients in the same insertion order, same reads."""
    order, table = want
    assert x.order == order
    assert list(x.items()) == list(table.items())
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
    for x, y in routes:
        assert x == y
        assert hash(x) == hash(y)


@st.composite
def directional_operands(draw):
    """(a, b, c) with a.order and b.order below, at or above c.order - 1."""
    c = draw(mixed_jets())
    a, b = (draw(mixed_jets(order=max(0, c.order - 1 + draw(st.integers(-1, 1)))))
            for _ in range(2))
    return a, b, c


@settings(max_examples=100, deadline=None)
@given(directional_operands())
def test_directional_matches_products(operands):
    a, b, c = operands
    assert directional(a, b, c) == a * c.partial_u() + b * c.partial_v()
    for x, y, z in ((Jet2.zero(a.order), b, c), (a, Jet2.zero(b.order), c),
                    (a, b, Jet2.const(Fraction(4, 9), 1))):
        assert directional(x, y, z) == x * z.partial_u() + y * z.partial_v()
    cancelled = directional(c.partial_v(), -c.partial_u(), c)
    assert cancelled == Jet2.zero(c.order - 1)
    assert cancelled._den == 1


def _mixed_polymap2(rng, order):
    while True:
        p1, p2 = (Jet2(order, {(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 12))
                               for i in range(4) for j in range(4 - i)
                               if 0 < i + j and rng.random() < 0.5}) for _ in range(2))
        if p1.coeff(1, 0) * p2.coeff(0, 1) != p1.coeff(0, 1) * p2.coeff(1, 0):
            return PolyMap2(p1, p2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16), st.integers(min_value=3, max_value=6))
def test_substitution_matches_fraction_reference(seed, order):
    rng = Random(seed)
    f = MapJet(*(random_jet(rng, order=order) * Fraction(1, rng.randint(1, 12))
                 for _ in range(3)))
    p = _mixed_polymap2(rng, rng.randint(order - 1, order + 1))
    sub_order = min(f.order, p.order)
    want = ref_substitute([dict(c.items()) for c in f], (ref(p.p1), ref(p.p2)), sub_order)
    for got, w in zip(compose_map(f, p), want):
        assert_matches_reference(got, w)
    assert_matches_reference(compose2(f[0], p), want[0])
    identity = PolyMap2.identity(order)
    for got, w in zip(compose_map(f, identity),
                      ref_substitute([dict(c.items()) for c in f],
                                     (ref(identity.p1), ref(identity.p2)), order)):
        assert_matches_reference(got, w)
    fixed = PolyMap3([{(1, 0, 0): 1, (0, 0, 2): Fraction(1, 7)},
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


# -- key order: deterministic cases of the substitution loop --------------------

@pytest.mark.parametrize("shape", ["identity", "swap", "shear"])
def test_compose_map_key_order_on_each_normalizing_shape(shape):
    """compose_map with each L of `frames.linear_normalize` keeps the reference's key order."""
    rng = Random("normalize|" + shape)
    f = MapJet(*(random_jet(rng, max_degree=6, density=0.6) * Fraction(1, rng.randint(2, 12))
                 for _ in range(3)))
    L = {"identity": PolyMap2.identity(6), "swap": PolyMap2.swap(6),
         "shear": PolyMap2.linear(((1, Fraction(5, 9)), (0, -1)), 6)}[shape]
    want = ref_substitute([dict(c.items()) for c in f], (ref(L.p1), ref(L.p2)), 6)
    for got, w in zip(compose_map(f, L), want):
        assert_matches_reference(got, w)


def test_key_cancelled_after_one_head_moves_to_the_end_when_recreated():
    # (u, v) -> (u + v, v) on v^2 - uv + u^2, heads u^0, u^1, u^2 in that order:
    # u^1 cancels the v^2 of u^0 and u^2 creates it again
    a = Jet2(6, {(0, 2): 1, (1, 1): -1, (2, 0): 1})
    p = PolyMap2(Jet2(6, {(1, 0): 1, (0, 1): 1}), Jet2.variable("v", 6))
    got = compose2(a, p)
    assert list(got.items()) == [((1, 1), 1), ((2, 0), 1), ((0, 2), 1)]
    assert_matches_reference(got, ref_substitute([dict(a.items())], (ref(p.p1), ref(p.p2)), 6)[0])
    # three variables: z, then -y cancels v, then x creates it again
    phi = PolyMap3([{(0, 0, 1): 1, (0, 1, 0): -1, (1, 0, 0): 1}, {(1, 0, 0): 1}, {(0, 1, 0): 1}],
                   6)
    f = MapJet(Jet2.variable("v", 6), Jet2.variable("v", 6), Jet2(6, {(0, 1): 1, (2, 0): 1}))
    got = post_compose(phi, f)
    assert list(got[0].items()) == [((2, 0), 1), ((0, 1), 1)]
    for x, w in zip(got, ref_substitute(phi.comps, tuple(ref(c) for c in f), 6)):
        assert_matches_reference(x, w)


def test_last_variable_powers_cancel_inside_one_head():
    # one head, u^1: v - v^2/2 cancels the v^3 of p2 - p2^2/2, and + p2^3 creates it again
    v = Jet2(6, {(0, 1): 1, (0, 2): 1, (0, 3): 1})
    p = PolyMap2(Jet2(6, {(1, 0): 1, (0, 1): 1}), v)
    a = Jet2(6, {(1, 1): 1, (1, 2): Fraction(-1, 2), (1, 3): 1})
    got = compose2(a, p)
    keys = [key for key, _ in got.items()]
    assert keys.index((1, 3)) > keys.index((1, 5))
    assert_matches_reference(got, ref_substitute([dict(a.items())], (ref(p.p1), ref(p.p2)), 6)[0])


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
