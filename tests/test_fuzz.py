import hashlib
from random import Random

import pytest

from germclass.classify import classify, normal_forms
from germclass.errors import PreconditionError
from germclass.frames import b3_adapt, h2_adapt, linear_normalize, s3_adapt, sb2_adapt
from germclass.fuzz import (FuzzConfig, act, check_target_pushforward,
                            pushforward_identity_holds, random_source_diffeo,
                            random_target_diffeo, run_invariance)
from germclass.jets import PolyMap, det3
from germclass.vfields import d_du
from reference import d_dv
from util import germ, linear_map, random_branch_germ, target_identity


CFG = FuzzConfig(seed=5, trials=4, bound=5, degree=3)


def test_fixed_seed_reproducible():
    a = random_source_diffeo(CFG, Random(9))
    b = random_source_diffeo(CFG, Random(9))
    assert a.comps == b.comps
    ta = random_target_diffeo(CFG, Random(9))
    tb = random_target_diffeo(CFG, Random(9))
    assert ta.comps == tb.comps


def _det2(matrix):
    (a, b), (c, d) = matrix
    return a * d - b * c


def test_sampled_diffeos_invertible():
    rng = Random(13)
    for _ in range(50):
        assert _det2(random_source_diffeo(CFG, rng).linear_matrix()) != 0
        assert det3(random_target_diffeo(CFG, rng).linear_matrix()) != 0


def test_source_diffeo_invertible_ten_thousand_draws():
    rng = Random(131)
    cfg = FuzzConfig(seed=0, bound=9, degree=1)
    for _ in range(10_000):
        assert _det2(random_source_diffeo(cfg, rng).linear_matrix()) != 0


def test_degree_one_draw_is_linear():
    rng = Random(17)
    p = random_source_diffeo(CFG, rng, degree=1)
    assert all(sum(key) <= 1 for table in p.comps for key in table)


@pytest.mark.parametrize("sampler", [random_source_diffeo, random_target_diffeo])
@pytest.mark.parametrize("degree", [0, -1])
def test_sampler_rejects_degree_below_one(sampler, degree):
    with pytest.raises(PreconditionError):
        sampler(FuzzConfig(), Random(1), degree)


@pytest.mark.parametrize("sampler", [random_source_diffeo, random_target_diffeo])
def test_sampler_rejects_degree_past_the_jet_order(sampler):
    with pytest.raises(PreconditionError, match="diffeo degree must not exceed the jet order"):
        sampler(FuzzConfig(degree=2, order=2), Random(1), degree=5)
    assert sampler(FuzzConfig(degree=2, order=2), Random(1), degree=2).order == 2


# (bound, order, explicit degree): bound 1 draws numerators in {-1, 0, 1} over
# 1 and is rejected most often; degree None draws at the config's degree
SAMPLER_SETTINGS = [(9, 6, None), (9, 6, 6), (1, 6, 3), (1, 2, 2), (5, 2, 1), (2, 3, 3),
                    (3, 4, 2)]
# recorded with the Fraction-per-coefficient samplers, before the draws were
# kept on integers: the integer draws must consume the same random stream
SAMPLER_DIGEST = "40d7e445cb8b5dcb2645fdd6e66b8a59c95f3744"


def test_samplers_draw_the_recorded_stream():
    """25 source and target draws per setting: their tables, then the next
    rng.random(), so a draw that took more or fewer numbers shows too."""
    record = []
    for bound, order, degree in SAMPLER_SETTINGS:
        cfg = FuzzConfig(bound=bound, order=order, degree=min(3, order))
        rng = Random("%d|%d|%s" % (bound, order, degree))
        for _ in range(25):
            s = random_source_diffeo(cfg, rng, degree)
            t = random_target_diffeo(cfg, rng, degree)
            record.append((s.order, list(s.comps[0].items()), s.order, list(s.comps[1].items()),
                           t.order, [list(c.items()) for c in t.comps], rng.random()))
    assert hashlib.sha1(repr(record).encode()).hexdigest() == SAMPLER_DIGEST


@pytest.mark.parametrize("field", ["bound", "degree"])
def test_config_rejects_values_below_one(field):
    with pytest.raises(PreconditionError):
        FuzzConfig(**{field: 0})


def test_act_identity():
    f = normal_forms()["S2"]
    assert act(f, linear_map(((1, 0), (0, 1))), target_identity()) == f


def test_act_source_swap_keeps_cross_cap():
    f = germ("u", "v^2", "u*v")
    g = act(f, linear_map(((0, 1), (1, 0))), target_identity())
    assert g[0].coeff(0, 1) == 1
    assert classify(g)[0] == classify(f)[0]


def test_act_target_shear_keeps_s2():
    f = normal_forms()["S2"]
    shear = PolyMap(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1, (2, 0, 0): 3}), 6)
    assert classify(act(f, linear_map(((1, 0), (0, 1))), shear))[0] == classify(f)[0]


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
        pair = h2_adapt(g).words.pair
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
        pair = sb2_adapt(g).words.pair
        xi, eta = pair.xi, pair.eta
        for word in ([xi, xi, eta], [xi, eta, xi], [eta, xi, xi]):
            assert check_target_pushforward(g, _random_phi(rng), word)

        s = random_branch_germ(rng, "S")
        gs, _ = linear_normalize(s)
        pair = s3_adapt(gs).words.pair
        xi, eta = pair.xi, pair.eta
        for word in ([eta, xi, xi, xi], [xi, eta, xi, xi], [xi, xi, xi, eta]):
            assert check_target_pushforward(gs, _random_phi(rng), word)

        b = random_branch_germ(rng, "B")
        gb, _ = linear_normalize(b)
        pair = b3_adapt(sb2_adapt(gb)).words.pair
        xi, eta = pair.xi, pair.eta
        for word in ([xi, eta, eta, eta], [eta, eta, eta, xi]):
            assert check_target_pushforward(gb, _random_phi(rng), word)

        h = random_branch_germ(rng, "H")
        gh, _ = linear_normalize(h)
        pair = h2_adapt(gh).words.pair
        assert check_target_pushforward(gh, _random_phi(rng), [pair.eta] * 5)


def test_negative_control_hypotheses_matter():
    # [xi, xi] with neither field null, quadratic target change: the identity fails
    f = germ("u", "v^2", "u*v")
    xi = d_du(6)
    phi = PolyMap(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1, (2, 0, 0): 1}), 6)
    with pytest.raises(PreconditionError):
        check_target_pushforward(f, phi, [xi, xi])
    assert not pushforward_identity_holds(f, phi, [xi, xi])


def test_word_outside_catalogue_rejected():
    f = germ("u", "v^2", "u^2*v+v^3")
    pair = sb2_adapt(f).words.pair
    with pytest.raises(PreconditionError):
        check_target_pushforward(f, _random_phi(Random(1)), [pair.xi] * 4)
    # eta eta xi on a merely SB-2 pair matches no hypothesis (T-6 needs B-3)
    g = germ("u", "v^2+v^3", "u^2*v+v^3+v^5")
    p2 = sb2_adapt(g).words.pair
    with pytest.raises(PreconditionError):
        check_target_pushforward(g, _random_phi(Random(2)), [p2.eta, p2.eta, p2.eta, p2.xi])
