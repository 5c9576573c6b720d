from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germclass.classify import normal_forms
from germclass.errors import OrderExhaustedError, PreconditionError
from germclass import frames, jets
from germclass.frames import (Words, b3_adapt, df0_rank, h2_adapt, h4_adapt, linear_normalize,
                              s3_adapt, sb2_adapt)
from germclass.jets import Jet2, MapJet, cross3, det3, scaled_coeffs
from germclass.vfields import FramePair, VectorFieldJet, apply_word, d_du
from reference import bracket
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
    assert origin_zero(f, "e", pair)        # eta(0) spans ker df0


# -- linear_normalize --------------------------------------------------------

def test_normalize_swaps_kernel():
    f = germ("v", "u^2", "u^3")
    g, L = linear_normalize(f)
    assert L == ((0, 1), (1, 0))
    assert g[0].coeff(1, 0) == 1 and g[1].coeff(0, 2) == 1


def test_normalize_identity_when_already_normalized():
    f = germ("u", "v^2", "u*v")
    g, L = linear_normalize(f)
    assert L == ((1, 0), (0, 1))
    assert g is f


def test_normalize_parallel_columns():
    f = germ("u+v", "(u-v)^2", "0")
    g, L = linear_normalize(f)
    assert all(c.coeff(0, 1) == 0 for c in g)
    assert any(c.coeff(1, 0) != 0 for c in g)


def test_normalize_rejects_rank0_and_rank2():
    with pytest.raises(PreconditionError):
        linear_normalize(germ("u^2", "v^2", "u*v"))
    with pytest.raises(PreconditionError):
        linear_normalize(germ("u", "v", "0"))
    for f, rank in ((germ("u^2", "v^2", "u*v"), 0), (germ("u", "v", "0"), 2)):
        assert df0_rank(*scaled_coeffs((f, (1, 0)), (f, (0, 1)))[0]) == rank


def _fraction_rank(f):
    """rank df(0) from the Fraction cross product, as it was decided before the integer reads."""
    fu0 = tuple(c.coeff(1, 0) for c in f)
    fv0 = tuple(c.coeff(0, 1) for c in f)
    if any(cross3(fu0, fv0)):
        return 2
    return 1 if any(fu0) or any(fv0) else 0


def _linear_part(rng, kind):
    """(f_u(0), f_v(0)) of rank 0, 2, or 1 (f_v = t f_u, t not an integer; or f_u = 0)."""
    zero = [F(0)] * 3
    fu = [F(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(3)]
    if kind == "rank0":
        return zero, zero
    if kind == "rank2":
        return fu, [F(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(3)]
    if kind == "fu=0":
        return zero, fu
    t = F(rng.choice((-1, 1)) * rng.randint(1, 20), rng.choice((2, 3, 5, 7)))
    return fu, [t * c for c in fu]


def test_rank_df0_matches_fraction_cross_product():
    """Integer rows scaled by each component's own denominator keep the rank."""
    rng = Random("frames|rank")
    seen = []
    for n in range(240):
        fu, fv = _linear_part(rng, ("rank0", "rank2", "fv=t*fu", "fu=0")[n % 4])
        comps = []
        for k, den in enumerate(rng.sample((2, 3, 5, 7, 11, 13), 3)):
            table = {(i, j): F(rng.randint(-9, 9), den * rng.randint(1, 4))
                     for i in range(5) for j in range(5 - i) if i + j >= 2 and rng.random() < 0.4}
            table[(1, 0)], table[(0, 1)] = fu[k], fv[k]
            comps.append(Jet2(6, table))
        f = MapJet.germ(*comps)
        seen.append(_fraction_rank(f))
        assert df0_rank(*scaled_coeffs((f, (1, 0)), (f, (0, 1)))[0]) == seen[-1]
    assert seen.count(0) >= 60 and seen.count(1) >= 100 and seen.count(2) >= 50


# -- solve -------------------------------------------------------------------

F = Fraction
NINE_BY_THREE = [(1, 0, 2, 3, -1, 0, 4, 1, 2), (0, 1, 1, -2, 5, 3, 0, 0, 1),
                 (2, 2, 0, 1, 1, -4, 1, 3, 0)]
SOLVE_CASES = {
    "parallel": ([(0, F(2, 3), -1)], (0, F(4, 9), F(-2, 3)), [F(2, 3)]),
    "span2": ([(1, 0, 1), (0, 1, 1)], (F(1, 2), -3, F(-5, 2)), [F(1, 2), -3]),
    "basis3": ([(1, 1, 0), (0, 1, 1), (1, 0, 1)], (1, 2, 4), [F(-1, 2), F(5, 2), F(3, 2)]),
    "9x3": (NINE_BY_THREE,
            [F(1, 2) * a - 3 * b + F(7, 5) * c for a, b, c in zip(*NINE_BY_THREE)],
            [F(1, 2), -3, F(7, 5)]),
    "zero-column": ([(2, 0, 0), (0, 0, 0)], (6, 0, 0), [3, 0]),
    "inconsistent": ([(1, 2, 3)], (1, 2, 4), None),
}


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_solve(case):
    columns, rhs, expected = SOLVE_CASES[case]
    columns = [[F(c) for c in col] for col in columns]
    rhs = [F(r) for r in rhs]
    if expected is None:
        with pytest.raises(PreconditionError):
            frames.solve(columns, rhs)
        return
    x = frames.solve(columns, rhs)
    assert x == expected
    assert all(type(value) is Fraction for value in x)


def fraction_solve(columns, rhs):
    """Gauss-Jordan elimination with division on Fractions: `frames.solve` before it
    became fraction-free, kept as the reference."""
    m, n = len(rhs), len(columns)
    rows = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(m)]
    x = [F(0)] * n
    row = 0
    pivots = []
    for col in range(n):
        pivot_row = next((k for k in range(row, m) if rows[k][col] != 0), None)
        if pivot_row is None:
            continue
        rows[row], rows[pivot_row] = rows[pivot_row], rows[row]
        pivot = rows[row][col]
        rows[row] = [value / pivot for value in rows[row]]
        for k in range(m):
            if k != row:
                factor = rows[k][col]
                if factor:
                    rows[k] = [a - factor * b for a, b in zip(rows[k], rows[row])]
        pivots.append(col)
        row += 1
    for k in range(row, m):
        if rows[k][n] != 0:
            raise PreconditionError("linear system is inconsistent")
    for idx, col in enumerate(pivots):
        x[col] = rows[idx][n]
    return x


def _random_system(rng, n):
    """3 x n columns and a right-hand side over denominators up to 12.

    Kinds: unrelated entries; rhs in the span; a column dependent on the
    others (or zero) with rhs in the span; a dependent column with an
    unrelated rhs, which is inconsistent unless it happens to lie in the span.
    """
    def entry():
        return F(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.7 else F(0)

    kind = rng.choice(("random", "consistent", "dependent", "inconsistent"))
    columns = [[entry() for _ in range(3)] for _ in range(n)]
    if kind in ("dependent", "inconsistent"):
        weights = [entry() for _ in range(n - 1)]
        columns[rng.randrange(n)] = [sum((w * c[i] for w, c in zip(weights, columns)), F(0))
                                     for i in range(3)]
    if kind in ("consistent", "dependent"):
        x = [entry() for _ in range(n)]
        rhs = [sum((xj * c[i] for xj, c in zip(x, columns)), F(0)) for i in range(3)]
    else:
        rhs = [entry() for _ in range(3)]
    return columns, rhs


def _outcome(columns, rhs, solver):
    try:
        return solver(columns, rhs)
    except PreconditionError:
        return "inconsistent"


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=1, max_value=3))
def test_solve_matches_fraction_reference(seed, n):
    """Integer rows (one `scaled_coeffs` read) and Fraction rows solve as division does."""
    columns, rhs = _random_system(Random(seed), n)
    want = _outcome(columns, rhs, fraction_solve)
    vectors = [MapJet(*(Jet2.const(c, 0) for c in vector)) for vector in columns + [rhs]]
    *int_columns, int_rhs = scaled_coeffs(*((v, (0, 0)) for v in vectors))[0]
    for system in ((int_columns, int_rhs), (columns, rhs)):
        got = _outcome(*system, frames.solve)
        assert got == want
        if want != "inconsistent":
            assert all(type(value) is Fraction for value in got)


def _rank(columns):
    n = len(columns)
    if n == 1:
        return int(any(columns[0]))
    if n == 2:
        return 2 if any(cross3(*columns)) else int(any(columns[0]) or any(columns[1]))
    if det3(columns):
        return 3
    return max(_rank([a, b]) for a, b in ((columns[0], columns[1]), (columns[0], columns[2]),
                                          (columns[1], columns[2])))


def test_solve_reference_cases_cover_every_outcome():
    """The random systems above reach unique, non-unique and inconsistent outcomes."""
    outcomes = set()
    for seed in range(300):
        for n in (1, 2, 3):
            columns, rhs = _random_system(Random(seed), n)
            got = _outcome(columns, rhs, fraction_solve)
            rank = _rank(columns)
            outcomes.add((n, "inconsistent" if got == "inconsistent"
                          else "unique" if rank == n else "free"))
    assert outcomes == {(n, kind) for n in (1, 2, 3)
                        for kind in ("inconsistent", "unique", "free")}


# -- sb2_adapt ---------------------------------------------------------------

def test_sb2_trivial_when_already_adapted():
    f = germ("u", "v^2", "u^2*v+v^3")
    build = sb2_adapt(f)
    assert build.params == {"alpha": 0, "beta": 0}
    assert_level_conditions(f, build.words.pair, "sb2")


def test_sb2_solves_mixed_defect():
    f = germ("u", "v^2+2*u*v", "v^3")
    build = sb2_adapt(f)
    assert build.params["alpha"] == 0
    assert build.params["beta"] == 1
    # xi = du - dv, eta = dv
    assert build.words.pair.xi.a.at0() == 1 and build.words.pair.xi.b.at0() == -1
    assert_level_conditions(f, build.words.pair, "sb2")


def test_sb2_rejects_whitney_umbrella():
    f = germ("u", "v^2", "u*v")
    fu0 = tuple(c.coeff(1, 0) for c in f)
    fvv0 = tuple(2 * c.coeff(0, 2) for c in f)
    fuv0 = tuple(c.coeff(1, 1) for c in f)
    assert det3((fu0, fvv0, fuv0)) == 2
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
    assert_level_conditions(f, build.words.pair, "s3")


def test_s3_rejects_b_type():
    with pytest.raises(PreconditionError):
        s3_adapt(germ("u", "v^2", "v*(u^2+v^4)"))


def test_s3_rejects_fully_degenerate():
    with pytest.raises(PreconditionError):
        s3_adapt(germ("u", "v^2", "u^4*v"))


# -- b3_adapt ----------------------------------------------------------------

def test_b3_trivial_on_normal_form():
    f = germ("u", "v^2", "u^2*v+v^5")
    build = b3_adapt(sb2_adapt(f))
    assert build.params == {"alpha": 0, "beta": 0, "alpha1": 0, "beta1": 0}
    assert_level_conditions(f, build.words.pair, "b3")


def test_b3_solves_third_order_defect():
    f = germ("u", "v^2+v^3", "u^2*v+v^5")
    build = b3_adapt(sb2_adapt(f))
    assert build.params["alpha1"] == 0
    assert build.params["beta1"] == 3
    assert_level_conditions(f, build.words.pair, "b3")


def test_b3_rejects_s_type():
    with pytest.raises(PreconditionError):
        b3_adapt(sb2_adapt(germ("u", "v^2", "v*(u^3+v^2)")))
    # an S1 germ is not B-type either (eta^2 phi(0) != 0)
    with pytest.raises(PreconditionError):
        b3_adapt(sb2_adapt(germ("u", "v^2", "u^2*v+v^3+v^5")))


# -- h2_adapt ----------------------------------------------------------------

def test_h2_trivial_on_normal_form():
    f = germ("u", "u*v+v^5", "v^3")
    build = h2_adapt(f)
    assert build.params == {"alpha": 0}
    assert_level_conditions(f, build.words.pair, "h2")


def test_h2_solves_parallel_defect():
    f = germ("u+3/2*v^2", "u*v", "v^3")
    build = h2_adapt(f)
    assert build.params["alpha"] == 3
    assert_level_conditions(f, build.words.pair, "h2")


def test_h2_rejects_sb_type():
    with pytest.raises(PreconditionError):
        h2_adapt(germ("u", "v^2", "u^2*v+v^3"))


# -- h4_adapt ----------------------------------------------------------------

def test_h4_trivial_on_normal_form():
    f = germ("u", "u*v+v^5", "v^3")
    build = h4_adapt(h2_adapt(f))
    for key in ("alpha", "alpha1", "beta1", "delta1", "corr_eta_vv", "corr_eta_vvv", "corr_d_v"):
        assert build.params[key] == 0
    assert_level_conditions(f, build.words.pair, "h4")


def test_h4_solves_fourth_order_defect():
    f = germ("u", "u*v+v^4", "v^3")
    build = h4_adapt(h2_adapt(f))
    assert build.params["beta1"] == 24
    assert build.params["alpha1"] == 0
    assert build.params["delta1"] == 0
    assert_level_conditions(f, build.words.pair, "h4")


def test_h4_pins_all_parameters_with_nonzero_alpha():
    # alpha != 0 and all three basis components of eta^4 f(0) nonzero
    f = germ("u+2*v^2+v^4", "u*v+u*v^2+v^4", "v^3+v^4")
    build = h4_adapt(h2_adapt(f))
    assert build.params == {"alpha": 4, "alpha1": 24, "beta1": 24, "delta1": 4,
                            "corr_eta_vv": Fraction(-1, 3), "corr_eta_vvv": -6,
                            "corr_d_v": Fraction(-2, 3)}
    assert_level_conditions(f, build.words.pair, "h4")


def test_h4_rejects_non_h_type():
    with pytest.raises(PreconditionError):
        h4_adapt(h2_adapt(germ("u", "u*v", "v^4")))


# -- randomized vanishing conditions per branch ------------------------------

CONSTRUCTORS = {
    "SB": (sb2_adapt, "sb2"),
    "S": (s3_adapt, "s3"),
    "B": (lambda g: b3_adapt(sb2_adapt(g)), "b3"),
    "HP2": (h2_adapt, "h2"),
    "H": (lambda g: h4_adapt(h2_adapt(g)), "h4"),
}


@pytest.mark.parametrize("branch", sorted(CONSTRUCTORS))
def test_constructor_vanishing_conditions_random(branch):
    constructor, level = CONSTRUCTORS[branch]
    rng = Random("frames|" + branch)
    for _ in range(25):
        f = random_branch_germ(rng, branch)
        g, _ = linear_normalize(f)
        build = constructor(g)
        assert_level_conditions(g, build.words.pair, level)


# -- closed-form correction columns against finite differences --------------

S3_DEFECT = ("xxe", "xex", "exx")


def _s3_trial(f, alpha, beta, p, q, r):
    """The SB-2 pair with the three S-3 slots set to p, q, r."""
    n = f.order
    xi = VectorFieldJet(Jet2(n, {(0, 0): 1, (0, 1): -alpha, (1, 1): p}),
                        Jet2(n, {(0, 0): -beta, (1, 0): q}))
    eta = VectorFieldJet(Jet2(n, {(1, 0): -alpha, (2, 0): r}), Jet2.const(1, n))
    return Words(f, FramePair(xi, eta), S3_DEFECT)


def _h4_trial(f, alpha, s, t, w):
    """The H-2 pair with the three H-4 slots set to s, t, w."""
    n = f.order
    eta = VectorFieldJet(Jet2(n, {(0, 1): -alpha, (0, 2): s, (0, 3): t}),
                         Jet2(n, {(0, 0): 1, (0, 1): w}))
    return Words(f, FramePair(d_du(n), eta), ("eeee",))


def _assert_s3_columns(g):
    sb = sb2_adapt(g)
    alpha, beta = sb.params["alpha"], sb.params["beta"]

    def defect(words):
        return [c for word in S3_DEFECT for c in words.at0(word)]

    base = defect(Words(g, sb.words.pair, S3_DEFECT))
    xif0, eta2f0 = sb.words.at0("x"), sb.words.at0("ee")
    # the bracket facts the closed form rests on: [xi, eta] = alpha^2 v du, so
    # xex f(0) = xxe f(0) + alpha^2 beta xi f(0) and exx f(0) = xex f(0)
    n = g.order - 1
    assert bracket(sb.words.pair.xi, sb.words.pair.eta) == VectorFieldJet(
        Jet2(n, {(0, 1): alpha * alpha}), Jet2.zero(n))
    xxe, xex, exx = base[0:3], base[3:6], base[6:9]
    assert [b - a for a, b in zip(xxe, xex)] == [alpha * alpha * beta * c for c in xif0]
    assert exx == xex
    zero = (0, 0, 0)
    closed = [zero + xif0 + xif0, eta2f0 + eta2f0 + eta2f0,
              tuple(2 * c for c in xif0) + zero + zero]
    columns = []
    for unit, column in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), closed):
        shifted = defect(_s3_trial(g, alpha, beta, *unit))
        columns.append([a - b for a, b in zip(shifted, base)])
        assert columns[-1] == list(column), unit
    params = s3_adapt(g).params
    assert frames.solve(columns, [-b for b in base]) == [
        params["corr_xi_uv"], params["corr_xi_u"], params["corr_eta_uu"]]


def _assert_h4_slopes(g):
    h2 = h2_adapt(g)
    alpha = h2.params["alpha"]
    basis = [h2.words.at0(word) for word in ("x", "xe", "eee")]
    n = g.order - 1
    pair = h2.words.pair
    assert bracket(pair.xi, pair.eta) == VectorFieldJet(Jet2.zero(n), Jet2.zero(n))

    def components(s, t, w):
        return frames.solve(basis, _h4_trial(g, alpha, s, t, w).at0("eeee"))

    delta1 = frames.solve(basis, h2.words.at0("eeee"))[2]
    assert components(0, 0, 1)[2] - delta1 == 6
    w = -delta1 / 6
    c0 = components(0, 0, w)[1]
    assert components(1, 0, w)[1] - c0 == 8
    s = -c0 / 8
    c0 = components(s, 0, w)[0]
    assert components(s, 1, w)[0] - c0 == 6
    t = -c0 / 6
    params = h4_adapt(h2).params
    assert (params["corr_eta_vv"], params["corr_eta_vvv"], params["corr_d_v"]) == (s, t, w)


@pytest.mark.parametrize("branch", ["S", "S2", "H", "H2"])
def test_closed_form_corrections_match_finite_differences(branch):
    """S-3 columns and H-4 slopes equal the unit-trial differences they replace."""
    rng = Random("closed-form|" + branch)
    check = _assert_s3_columns if branch.startswith("S") else _assert_h4_slopes
    for _ in range(25):
        g, _ = linear_normalize(random_branch_germ(rng, branch))
        check(g)


# -- Words -------------------------------------------------------------------

def test_words_reads_operator_product():
    f = germ("u+v^2", "u*v+v^3", "v^3+u^2*v")
    pair = sb2_adapt(germ("u", "v^2", "u^2*v+v^3")).words.pair
    words = Words(f, pair, ["x" * (f.order - 1) + "e"])
    xi, eta = pair.xi, pair.eta
    assert words.at0("xxe") == apply_word([xi, xi, eta], f).at0()
    assert words.at0("") == f.at0()


def test_words_builds_each_prefix_functional_once(monkeypatch):
    """Each read is one functional, built once, on its longest prefix: reads
    share prefixes, and no `apply` runs."""
    built = []
    after = jets.Functional.after

    def counted(self, a, b):
        out = after(self, a, b)
        built.append(out)
        return out

    monkeypatch.setattr(jets.Functional, "after", counted)
    monkeypatch.setattr(frames, "apply", None)
    f = germ("u", "v^2", "v*(u^3+v^2)")
    pair = sb2_adapt(f).words.pair
    words = Words(f, pair, ("exxe", "xxee"))
    built.clear()
    words.at0("xxe")
    assert [words._functionals[w] for w in ("x", "xx", "xxe")] == built
    for word in ("xe", "e", "xxe", "exxe", "ee", "exxe"):
        words.at0(word)
    # xe; e; exxe on e, ex and exx; ee
    assert len(built) == 3 + 1 + 1 + 3 + 1
    assert set(words._functionals) == {"", "x", "xx", "xxe", "xe", "e", "ex", "exx", "exxe", "ee"}
    with pytest.raises(OrderExhaustedError, match="derivative eeee f exhausts"):
        Words(f.truncate(3), pair, ("eeee",)).at0("eeee")

    # one read: each prefix once, and the vectors, in the given order, are the
    # exact values over one positive scaling per component
    read = frames.READS["sb2"]
    words = Words(f, pair, read)
    built.clear()
    vectors, scale = words.scaled(*read)
    assert len(built) == len({w[:k] for w in read for k in range(1, len(w) + 1)})
    fields = {"x": pair.xi, "e": pair.eta}
    exact = [apply_word([fields[letter] for letter in w], f).at0() for w in read]
    dens = [next(v[k] / e[k] for v, e in zip(vectors, exact) if e[k]) for k in range(3)]
    assert min(dens) > 0 and dens[0] * dens[1] * dens[2] == scale
    assert list(vectors) == [tuple(d * x for d, x in zip(dens, e)) for e in exact]


@pytest.mark.parametrize("level, branch", [("sb2", "SB"), ("s3", "S"), ("b3", "B"),
                                           ("h2", "HP2"), ("h4", "H")])
def test_kept_values_serve_every_later_read(level, branch):
    """A table keeps each word's value at 0 and scales copies of it: read by
    `at0` first and by `scaled` twice after, it gives the vectors and values
    of a fresh table, so no read scales a kept value in place."""
    constructors = {"sb2": sb2_adapt, "s3": s3_adapt, "b3": lambda g: b3_adapt(sb2_adapt(g)),
                    "h2": h2_adapt, "h4": lambda g: h4_adapt(h2_adapt(g))}
    reads = frames.READS[level]
    rng = Random("kept-values|" + level)
    for _ in range(5):
        g, _ = linear_normalize(random_branch_germ(rng, branch))
        pair = constructors[level](g).words.pair
        table = Words(g, pair, reads)
        exact = [table.at0(word) for word in reads]
        fresh = Words(g, pair, reads).scaled(*reads)
        assert table.scaled(*reads) == fresh
        assert table.scaled(*reads) == fresh
        assert [table.at0(word) for word in reads] == exact


def test_undeclared_word_raises_key_error():
    """A word that is neither a read nor a suffix of one is a code defect, not an input error."""
    f = germ("u", "v^2", "v*(u^3+v^2)")
    words = sb2_adapt(f).words
    assert words.at0("e") == (0, 0, 0)        # a suffix of a read
    for word in ("xx", "eeeee", "xxxe", "xex"):
        with pytest.raises(KeyError):
            words.at0(word)


def test_derived_orders(monkeypatch):
    """Each forward check applies each suffix s of its words once, at
    max(len(w) - len(s)) over the check words w ending in s; and each read's
    functional has support to the degree of the word's length."""
    calls = []
    apply = frames.apply

    def counted(zeta, g, label, order):
        out = apply(zeta, g, label, order)
        calls.append((label, out.order))
        return out

    monkeypatch.setattr(frames, "apply", counted)
    forms = normal_forms(8)
    h2 = h2_adapt(forms["H2"])
    calls.clear()
    s3 = s3_adapt(forms["S2"])
    assert sorted(calls) == sorted([("e f", 2), ("xe f", 1), ("xxe f", 0), ("x f", 2), ("ex f", 1),
                                    ("xex f", 0), ("xx f", 1), ("exx f", 0)])
    calls.clear()
    h4 = h4_adapt(h2)
    assert calls == [("e f", 3), ("ee f", 2), ("eee f", 1), ("eeee f", 0)]
    builds = {"sb2": sb2_adapt(forms["S2"]), "s3": s3, "b3": b3_adapt(sb2_adapt(forms["B2+"])),
              "h2": h2, "h4": h4}
    for level, build in builds.items():
        for word in frames.READS[level]:
            build.words.scaled(word)
            support = build.words._functionals[word]._num
            assert max(map(sum, support)) == len(word), (level, word)
