from fractions import Fraction
from random import Random

import pytest

from germclass.errors import PreconditionError
from germclass import frames
from germclass.frames import (Words, b3_adapt, h2_adapt, h4_adapt, linear_normalize,
                              rank_df0, s3_adapt, sb2_adapt)
from germclass.jets import det3_at0
from germclass.vfields import apply_word, is_adapted
from util import germ, random_branch_germ


def origin_zero(f, word_pattern, pair):
    fields = {"x": pair.xi, "e": pair.eta}
    word = [fields[ch] for ch in word_pattern]
    return all(c == 0 for c in apply_word(word, f).at0())


def assert_level_conditions(f, pair, level):
    """The defining vanishing conditions of each adaptedness level, exactly."""
    if level in ("sb2", "s3", "b3"):
        assert origin_zero(f, "xe", pair)
        assert origin_zero(f, "ex", pair)
    if level == "s3":
        assert origin_zero(f, "xxe", pair)
        assert origin_zero(f, "xex", pair)
        assert origin_zero(f, "exx", pair)
    if level == "b3":
        assert origin_zero(f, "eee", pair)
    if level in ("h2", "h4"):
        assert origin_zero(f, "ee", pair)
    if level == "h4":
        assert origin_zero(f, "eeee", pair)
    assert is_adapted(pair, f)


# -- linear_normalize --------------------------------------------------------

def test_normalize_swaps_kernel():
    f = germ("v", "u^2", "u^3")
    g, L = linear_normalize(f)
    assert L.linear_matrix() == ((0, 1), (1, 0))
    assert g[0].coeff(1, 0) == 1 and g[1].coeff(0, 2) == 1


def test_normalize_identity_when_already_normalized():
    f = germ("u", "v^2", "u*v")
    g, L = linear_normalize(f)
    assert L.linear_matrix() == ((1, 0), (0, 1))
    assert g == f


def test_normalize_parallel_columns():
    f = germ("u+v", "(u-v)^2", "0")
    g, L = linear_normalize(f)
    assert all(c == 0 for c in g.partial_v().at0())
    assert any(c != 0 for c in g.partial_u().at0())


def test_normalize_rejects_rank0_and_rank2():
    with pytest.raises(PreconditionError):
        linear_normalize(germ("u^2", "v^2", "u*v"))
    with pytest.raises(PreconditionError):
        linear_normalize(germ("u", "v", "0"))
    assert rank_df0(germ("u^2", "v^2", "u*v")) == 0
    assert rank_df0(germ("u", "v", "0")) == 2


# -- sb2_adapt ---------------------------------------------------------------

def test_sb2_trivial_when_already_adapted():
    f = germ("u", "v^2", "u^2*v+v^3")
    build = sb2_adapt(f)
    assert build.params == {"alpha": 0, "beta": 0}
    assert_level_conditions(f, build.pair, "sb2")


def test_sb2_solves_mixed_defect():
    f = germ("u", "v^2+2*u*v", "v^3")
    build = sb2_adapt(f)
    assert build.params["alpha"] == 0
    assert build.params["beta"] == 1
    # xi = du - dv, eta = dv
    assert build.pair.xi.a.at0() == 1 and build.pair.xi.b.at0() == -1
    assert_level_conditions(f, build.pair, "sb2")


def test_sb2_rejects_whitney_umbrella():
    f = germ("u", "v^2", "u*v")
    fu0 = f.partial_u().at0()
    fvv0 = f.partial_v().partial_v().at0()
    fuv0 = f.partial_u().partial_v().at0()
    assert det3_at0(f.partial_u(), f.partial_v().partial_v(),
                    f.partial_u().partial_v()) == 2
    assert (fu0, fvv0, fuv0) == ((1, 0, 0), (0, 2, 0), (0, 0, 1))
    with pytest.raises(PreconditionError):
        sb2_adapt(f)


def test_sb2_rejects_hp_type():
    with pytest.raises(PreconditionError):
        sb2_adapt(germ("u", "u*v+v^5", "v^3"))


# -- s3_adapt ----------------------------------------------------------------

def test_s3_trivial_on_normal_form():
    f = germ("u", "v^2", "v*(u^3+v^2)")
    build = s3_adapt(f)
    for key in ("alpha", "beta", "alpha1", "beta1", "corr_xi_uv", "corr_xi_u", "corr_eta_uu"):
        assert build.params[key] == 0
    assert_level_conditions(f, build.pair, "s3")


def test_s3_rejects_b_type():
    with pytest.raises(PreconditionError):
        s3_adapt(germ("u", "v^2", "v*(u^2+v^4)"))


def test_s3_rejects_fully_degenerate():
    with pytest.raises(PreconditionError):
        s3_adapt(germ("u", "v^2", "u^4*v"))


# -- b3_adapt ----------------------------------------------------------------

def test_b3_trivial_on_normal_form():
    f = germ("u", "v^2", "u^2*v+v^5")
    build = b3_adapt(f)
    assert build.params == {"alpha": 0, "beta": 0, "alpha1": 0, "beta1": 0}
    assert_level_conditions(f, build.pair, "b3")


def test_b3_solves_third_order_defect():
    f = germ("u", "v^2+v^3", "u^2*v+v^5")
    build = b3_adapt(f)
    assert build.params["alpha1"] == 0
    assert build.params["beta1"] == 3
    assert_level_conditions(f, build.pair, "b3")


def test_b3_rejects_s_type():
    with pytest.raises(PreconditionError):
        b3_adapt(germ("u", "v^2", "v*(u^3+v^2)"))
    # an S1 germ is not B-type either (eta^2 phi(0) != 0)
    with pytest.raises(PreconditionError):
        b3_adapt(germ("u", "v^2", "u^2*v+v^3+v^5"))


# -- h2_adapt ----------------------------------------------------------------

def test_h2_trivial_on_normal_form():
    f = germ("u", "u*v+v^5", "v^3")
    build = h2_adapt(f)
    assert build.params == {"alpha": 0}
    assert_level_conditions(f, build.pair, "h2")


def test_h2_solves_parallel_defect():
    f = germ("u+3/2*v^2", "u*v", "v^3")
    build = h2_adapt(f)
    assert build.params["alpha"] == 3
    assert_level_conditions(f, build.pair, "h2")


def test_h2_rejects_sb_type():
    with pytest.raises(PreconditionError):
        h2_adapt(germ("u", "v^2", "u^2*v+v^3"))


# -- h4_adapt ----------------------------------------------------------------

def test_h4_trivial_on_normal_form():
    f = germ("u", "u*v+v^5", "v^3")
    build = h4_adapt(f)
    for key in ("alpha", "alpha1", "beta1", "delta1", "corr_eta_vv", "corr_eta_vvv", "corr_d_v"):
        assert build.params[key] == 0
    assert_level_conditions(f, build.pair, "h4")


def test_h4_solves_fourth_order_defect():
    f = germ("u", "u*v+v^4", "v^3")
    build = h4_adapt(f)
    assert build.params["beta1"] == 24
    assert build.params["alpha1"] == 0
    assert build.params["delta1"] == 0
    assert_level_conditions(f, build.pair, "h4")


def test_h4_pins_all_parameters_with_nonzero_alpha():
    # alpha != 0 and all three basis components of eta^4 f(0) nonzero
    f = germ("u+2*v^2+v^4", "u*v+u*v^2+v^4", "v^3+v^4")
    build = h4_adapt(f)
    assert build.params == {"alpha": 4, "alpha1": 24, "beta1": 24, "delta1": 4,
                            "corr_eta_vv": Fraction(-1, 3), "corr_eta_vvv": -6,
                            "corr_d_v": Fraction(-2, 3)}
    assert_level_conditions(f, build.pair, "h4")


def test_h4_rejects_non_h_type():
    with pytest.raises(PreconditionError):
        h4_adapt(germ("u", "u*v", "v^4"))


# -- randomized vanishing conditions per branch ------------------------------

CONSTRUCTORS = {
    "SB": (sb2_adapt, "sb2"),
    "S": (s3_adapt, "s3"),
    "B": (b3_adapt, "b3"),
    "HP2": (h2_adapt, "h2"),
    "H": (h4_adapt, "h4"),
}


@pytest.mark.parametrize("branch", sorted(CONSTRUCTORS))
def test_constructor_vanishing_conditions_random(branch):
    constructor, level = CONSTRUCTORS[branch]
    rng = Random(("frames", branch).__hash__() & 0xFFFF)
    for _ in range(25):
        f = random_branch_germ(rng, branch)
        g, _ = linear_normalize(f)
        build = constructor(g)
        assert_level_conditions(g, build.pair, level)


# -- Words -------------------------------------------------------------------

def test_words_reads_operator_product():
    f = germ("u+v^2", "u*v+v^3", "v^3+u^2*v")
    pair = sb2_adapt(germ("u", "v^2", "u^2*v+v^3")).pair
    words = Words(f, pair)
    xi, eta = pair.xi, pair.eta
    assert words.jet("xxe") == apply_word([xi, xi, eta], f)
    assert words.jet("") is f


def test_words_applies_once_per_distinct_word(monkeypatch):
    calls = []
    apply = frames.apply

    def counted(zeta, g, *args):
        calls.append(zeta)
        return apply(zeta, g, *args)

    monkeypatch.setattr(frames, "apply", counted)
    f = germ("u", "v^2", "v*(u^3+v^2)")
    words = Words(f, sb2_adapt(f).pair)
    calls.clear()
    words.at0("xxe")
    assert len(calls) == 3                  # e, xe, xxe
    for word in ("xe", "e", "xxe"):
        words.at0(word)
    assert len(calls) == 3
    words.at0("exxe")
    words.at0("ee")
    assert len(calls) == 5
