from random import Random

import pytest

from germclass.classify import classify, normal_forms
from germclass.errors import PreconditionError
from germclass.frames import b3_adapt, h2_adapt, linear_normalize, s3_adapt, sb2_adapt
from germclass.fuzz import (FuzzConfig, act, check_target_pushforward,
                            pushforward_identity_holds, random_source_diffeo,
                            random_target_diffeo, run_invariance)
from germclass.jets import PolyMap3, det3
from germclass.vfields import d_du, d_dv
from util import germ, random_branch_germ


CFG = FuzzConfig(seed=5, trials=4, bound=5, degree=3)


def test_fixed_seed_reproducible():
    a = random_source_diffeo(CFG, Random(9))
    b = random_source_diffeo(CFG, Random(9))
    assert a.p1 == b.p1 and a.p2 == b.p2
    ta = random_target_diffeo(CFG, Random(9))
    tb = random_target_diffeo(CFG, Random(9))
    assert ta.comps == tb.comps


def test_sampled_diffeos_invertible():
    rng = Random(13)
    for _ in range(50):
        assert random_source_diffeo(CFG, rng).linear_det() != 0
        assert det3(random_target_diffeo(CFG, rng).linear_matrix()) != 0


def test_source_diffeo_invertible_ten_thousand_draws():
    rng = Random(131)
    cfg = FuzzConfig(seed=0, bound=9, degree=1)
    for _ in range(10_000):
        assert random_source_diffeo(cfg, rng).linear_det() != 0


def test_degree_one_draw_is_linear():
    rng = Random(17)
    p = random_source_diffeo(CFG, rng, degree=1)
    assert p.p1.degree() <= 1 and p.p2.degree() <= 1


@pytest.mark.parametrize("sampler", [random_source_diffeo, random_target_diffeo])
@pytest.mark.parametrize("degree", [0, -1])
def test_sampler_rejects_degree_below_one(sampler, degree):
    with pytest.raises(PreconditionError):
        sampler(FuzzConfig(), Random(1), degree)


@pytest.mark.parametrize("field", ["bound", "degree"])
def test_config_rejects_values_below_one(field):
    with pytest.raises(PreconditionError):
        FuzzConfig(**{field: 0})


def test_act_identity():
    from germclass.jets import PolyMap2

    f = normal_forms()["S2"]
    assert act(f, PolyMap2.identity(6), PolyMap3.identity(6)) == f


def test_act_source_swap_keeps_cross_cap():
    from germclass.jets import PolyMap2

    f = germ("u", "v^2", "u*v")
    g = act(f, PolyMap2.swap(6), PolyMap3.identity(6))
    assert g[0].coeff(0, 1) == 1
    assert classify(g)[0] == classify(f)[0]


def test_act_target_shear_keeps_s2():
    f = normal_forms()["S2"]
    shear = PolyMap3(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1, (2, 0, 0): 3}), 6)
    from germclass.jets import PolyMap2

    assert classify(act(f, PolyMap2.identity(6), shear))[0] == classify(f)[0]


def test_run_invariance_smoke():
    cfg = FuzzConfig(seed=2, trials=3, bound=5, degree=3)
    results = run_invariance(cfg, normal_forms())
    for name, r in results.items():
        assert r["ok"] == r["trials"], (name, r)


def test_invariance_on_application_germs():
    from germclass.applications import MongeCoeffs, RuledData, center_map, ruled_map
    from util import uni

    rng = Random(19)
    germs = {
        "ruled-s2": ruled_map(RuledData(uni({0: 1}), uni({3: 1}), uni({0: 1}))),
        "center-s1": center_map(MongeCoeffs({(0, 2): 1, (2, 0): 2, (0, 3): 1, (2, 1): 1})),
    }
    from util import scramble

    for name, f in germs.items():
        base = classify(f)[0]
        for _ in range(10):
            assert classify(scramble(f, rng))[0] == base, name


# -- pushforward identities ---------------------------------------------------

def _random_phi(rng, degree=3):
    cfg = FuzzConfig(seed=0, bound=5, degree=degree)
    return random_target_diffeo(cfg, rng, degree)


def test_t1_single_field():
    rng = Random(23)
    f = germ("u", "v^2", "u^2*v+v^3")
    for _ in range(20):
        assert check_target_pushforward(f, _random_phi(rng), [d_du(6)])
        assert check_target_pushforward(f, _random_phi(rng), [d_dv(6)])


def test_t2_one_null():
    rng = Random(29)
    f = germ("u", "v^2", "u^2*v+v^3")
    eta = d_dv(6)
    xi = d_du(6)
    for _ in range(20):
        assert check_target_pushforward(f, _random_phi(rng), [xi, eta])
        assert check_target_pushforward(f, _random_phi(rng), [eta, xi])


def test_t3_ends_null():
    from germclass.jets import Jet2
    from germclass.vfields import VectorFieldJet

    rng = Random(31)
    f = germ("u", "v^2", "u^2*v+v^3")
    eta = d_dv(6)
    other_null = VectorFieldJet(Jet2(6, {(1, 0): 1}), Jet2.const(1, 6))
    for _ in range(10):
        # all three null: holds on any germ
        assert check_target_pushforward(f, _random_phi(rng), [eta, other_null, eta])
    from germclass.frames import h2_adapt, linear_normalize

    for _ in range(10):
        # non-null middle: needs (outer)(inner) f = 0 at 0, e.g. an H-2 eta
        g, _ = linear_normalize(random_branch_germ(rng, "HP2"))
        pair = h2_adapt(g).pair
        assert check_target_pushforward(g, _random_phi(rng), [pair.eta, pair.xi, pair.eta])


def test_t3_unrepaired_hypothesis_is_false():
    # ends-null alone does not suffice: on an SB-type germ eta^2 f(0) != 0 and
    # the surviving zeta2(W) * eta^2 f term breaks the identity
    f = germ("u", "v^2", "u^2*v+v^3")
    phi = _random_phi(Random(31))
    word = [d_dv(6), d_du(6), d_dv(6)]
    assert not pushforward_identity_holds(f, phi, word)
    with pytest.raises(PreconditionError):
        check_target_pushforward(f, phi, word)


def test_t4_t5_t6_t7_on_adapted_pairs():
    rng = Random(37)
    for _ in range(8):
        f = random_branch_germ(rng, "SB")
        g, _ = linear_normalize(f)
        pair = sb2_adapt(g).pair
        xi, eta = pair.xi, pair.eta
        for word in ([xi, xi, eta], [xi, eta, xi], [eta, xi, xi]):
            assert check_target_pushforward(g, _random_phi(rng), word)

        s = random_branch_germ(rng, "S")
        gs, _ = linear_normalize(s)
        pair = s3_adapt(gs).pair
        xi, eta = pair.xi, pair.eta
        for word in ([eta, xi, xi, xi], [xi, eta, xi, xi], [xi, xi, xi, eta]):
            assert check_target_pushforward(gs, _random_phi(rng), word)

        b = random_branch_germ(rng, "B")
        gb, _ = linear_normalize(b)
        pair = b3_adapt(sb2_adapt(gb)).pair
        xi, eta = pair.xi, pair.eta
        for word in ([xi, eta, eta, eta], [eta, eta, eta, xi]):
            assert check_target_pushforward(gb, _random_phi(rng), word)

        h = random_branch_germ(rng, "H")
        gh, _ = linear_normalize(h)
        pair = h2_adapt(gh).pair
        assert check_target_pushforward(gh, _random_phi(rng), [pair.eta] * 5)


def test_negative_control_hypotheses_matter():
    # [xi, xi] with neither field null, quadratic target change: the identity fails
    f = germ("u", "v^2", "u*v")
    xi = d_du(6)
    phi = PolyMap3(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1, (2, 0, 0): 1}), 6)
    with pytest.raises(PreconditionError):
        check_target_pushforward(f, phi, [xi, xi])
    assert not pushforward_identity_holds(f, phi, [xi, xi])


def test_word_outside_catalogue_rejected():
    f = germ("u", "v^2", "u^2*v+v^3")
    pair = sb2_adapt(f).pair
    with pytest.raises(PreconditionError):
        check_target_pushforward(f, _random_phi(Random(1)), [pair.xi] * 4)
    # eta eta xi on a merely SB-2 pair matches no hypothesis (T-6 needs B-3)
    g = germ("u", "v^2+v^3", "u^2*v+v^3+v^5")
    p2 = sb2_adapt(g).pair
    with pytest.raises(PreconditionError):
        check_target_pushforward(g, _random_phi(Random(2)), [p2.eta, p2.eta, p2.eta, p2.xi])
