"""Constructors for the hierarchy of adapted vector-field pairs.

Every recognition criterion is a determinant of derivative words taken
with respect to a pair (xi, eta) that kills specific words at the origin:

  sb2:  xi eta f = eta xi f = 0
  s3:   additionally xi^2 eta f = xi eta xi f = eta xi^2 f = 0
  b3:   additionally eta^3 f = 0
  h2:   eta^2 f = 0
  h4:   additionally eta^4 f = 0

All constructors assume the germ has been put through `linear_normalize`
first, so that f_v(0) = 0 and f_u(0) != 0 and the pair can be built as an
explicit perturbation of (d/du, d/dv).  The coefficient formulas below are
exact: each constructor solves a small linear system for the defect of f
at the origin and writes the correction directly into the field
coefficients.  Every such system goes through `solve`, one exact
Gauss-Jordan elimination; the guards each constructor checks first make
its solution unique.  S-3 solves its three corrections jointly (the
level-3 conditions are affine in them); H-4 solves its three one slot at
a time in one triangular pass, because eta^4 f(0) is not jointly affine
in its slots.  The solved parameters are returned alongside the pair so a
classification certificate can expose them.

The S-3 columns and the H-4 slopes are closed forms in words the parent
table already holds, found by counting letters.  A correction slot is a
monomial in a field coefficient, and it surfaces at 0 only where the
letters to its left differentiate it away through their constant parts,
xi(0) = du - beta dv and eta(0) = dv; whatever letters are left then act
on f.  `s3_adapt` and `h4_adapt` give the count for each slot.

Derivative words are read through `Words`, a per-pair table that
evaluates each word once per order.  Each constructor returns the table of
its pair, so the criteria in `classify` reuse what the frame solve already
computed.  Every criterion reads its words at the origin only, and a word
read at 0 reads f only to degree len(word), so the table computes each
word at the lowest order its reader needs (phi's second derivatives in
`classify` likewise read f only to degree 4).  The vectors f_u, f_v, f_vv,
f_uv at 0 are read straight from f's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .jets import Jet2, MapJet, PolyMap2, compose_map, cross3, det3
from .scalars import EXACT
from .vfields import FramePair, VectorFieldJet, apply, d_du


class Words:
    """The derivative words of f on one pair, each evaluated once per order.

    A word is a string over the letters x (xi) and e (eta), read as the
    operator product: "xxe" is xi(xi(eta f)).  The empty word is f itself.

    A word read at 0 reads f only to degree len(word), so `at0(w)` asks
    for w f at order 0: each suffix s of w is computed at order
    len(w) - len(s), from f truncated to order len(w).  The table keeps
    each word with the order it was computed at.  A read at or below that
    order costs nothing; a read that needs more recomputes the word, one
    `apply` on its suffix at one order higher.
    """

    def __init__(self, f: MapJet, pair: FramePair):
        self.f = f
        self.pair = pair
        self._jets = {}

    def jet(self, word: str, order: int | None = None) -> MapJet:
        """w f to at least `order`; by default the full order f.order - len(word)."""
        if order is None:
            order = self.f.order - len(word)
        if not word:
            return self.f.truncate(order) if order < self.f.order else self.f
        out = self._jets.get(word)
        if out is None or out.order < order:
            field = self.pair.xi if word[0] == "x" else self.pair.eta
            out = apply(field, self.jet(word[1:], order + 1), word + " f")
            self._jets[word] = out
        return out

    def at0(self, word: str):
        return self.jet(word, 0).at0()


@dataclass(frozen=True)
class FrameBuild:
    pair: FramePair
    params: dict
    words: Words


def solve(columns, rhs):
    """Solve sum_j x_j columns[j] = rhs exactly by Gauss-Jordan elimination.

    The system may be overdetermined: a leftover row that does not vanish
    raises PreconditionError.  A column without a pivot gets 0, so a caller
    that needs the unique solution checks the columns' independence first.
    """
    m, n = len(rhs), len(columns)
    rows = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(m)]
    x = [Fraction(0)] * n
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
        if not EXACT.is_zero(rows[k][n]):
            raise PreconditionError("linear system is inconsistent")
    for idx, col in enumerate(pivots):
        x[col] = rows[idx][n]
    return x


def _coeffs(f: MapJet, i: int, j: int):
    """The u^i v^j coefficient of each component of f."""
    return tuple(c.coeff(i, j) for c in f)


def partials0(f: MapJet):
    """(f_u, f_vv, f_uv)(0): the vectors the SB and HP guards read."""
    return (_coeffs(f, 1, 0), tuple(2 * c for c in _coeffs(f, 0, 2)),
            _coeffs(f, 1, 1))


def rank_df0(f: MapJet) -> int:
    fu0 = _coeffs(f, 1, 0)
    fv0 = _coeffs(f, 0, 1)
    if not EXACT.is_zero_vec(cross3(fu0, fv0)):
        return 2
    if EXACT.is_zero_vec(fu0) and EXACT.is_zero_vec(fv0):
        return 0
    return 1


def linear_normalize(f: MapJet):
    """Precompose with a linear map L so that f_v(0) = 0, f_u(0) != 0.

    Returns (f o L, L).  Requires rank df0 = 1; rank 0 and rank 2 germs are
    rejected (they are classified before any frame is built).
    """
    rank = rank_df0(f)
    if rank != 1:
        raise PreconditionError("linear_normalize needs rank df0 = 1, got %d" % rank)
    fu0 = _coeffs(f, 1, 0)
    fv0 = _coeffs(f, 0, 1)
    if EXACT.is_zero_vec(fv0):
        L = PolyMap2.identity(f.order)
    elif EXACT.is_zero_vec(fu0):
        L = PolyMap2.swap(f.order)
    else:
        # f_v(0) = t f_u(0); kernel direction (t, -1).
        (t,) = solve([fu0], fv0)
        L = PolyMap2.linear(((1, t), (0, -1)), f.order)
    return compose_map(f, L), L


def _sb_defect(f: MapJet):
    """alpha, beta with f_uv(0) = alpha f_u(0) + beta f_vv(0), after SB guards."""
    fu0, fvv0, fuv0 = partials0(f)
    if EXACT.is_zero_vec(cross3(fu0, fvv0)):
        raise PreconditionError("germ is not SB-type: f_u(0) x f_vv(0) = 0")
    if not EXACT.is_zero(det3((fu0, fvv0, fuv0))):
        raise PreconditionError("germ is a Whitney umbrella, no SB-2 pair exists")
    return solve([fu0, fvv0], fuv0)


def sb2_adapt(f: MapJet) -> FrameBuild:
    """SB-2 pair: xi = (1 - alpha v) du - beta dv, eta = -alpha u du + dv."""
    alpha, beta = _sb_defect(f)
    n = f.order
    xi = VectorFieldJet(Jet2(n, {(0, 0): 1, (0, 1): -alpha}), Jet2.const(-beta, n))
    eta = VectorFieldJet(Jet2(n, {(1, 0): -alpha}), Jet2.const(1, n))
    pair = FramePair(xi, eta)
    return FrameBuild(pair, {"alpha": alpha, "beta": beta}, Words(f, pair))


def s3_adapt(f: MapJet) -> FrameBuild:
    """S-3 pair, built from scratch over the normalized coordinates.

    Stage one is the SB-2 pair and its defect (alpha, beta).  Stage two
    writes corrections into three fixed coefficient slots -- p, a uv term in
    xi's du-coefficient; q, a u term in its dv-coefficient; r, a u^2 term
    in eta's du-coefficient -- and solves the three exactly against the
    level-3 conditions xxe f = xex f = exx f = 0 at 0, then verifies them.
    The conditions are affine in the corrections: each correction
    coefficient surfaces at the origin through exactly one
    coefficient-derivative extraction, which together with at least one
    derivative left for f exhausts the three letters of every word.

    So each slot's column over (xxe, xex, exx) at 0 is read off the SB-2
    table.  Only xi(0) has a du part, and f_v(0) = 0 makes du f(0) = xi f(0):
      p: u needs an outer xi and v an outer eta, with du f left; only the
         innermost x of xex and exx has both: (0, xi f, xi f).
      q: u needs an outer xi; the dv of the slot and the letter left over
         read eta^2 f, once in each word: (eta^2 f, eta^2 f, eta^2 f).
      r: u^2 needs two outer xi, d_u^2 u^2 = 2, du f left; only the e of
         xxe has them: (2 xi f, 0, 0).
    """
    sb = sb2_adapt(f)
    alpha, beta = sb.params["alpha"], sb.params["beta"]
    sbw = sb.words
    xif0 = sbw.at0("x")
    eta2f0 = sbw.at0("ee")
    # S-type guard: eta^2 phi(0) = det(xi f, eta^2 f, eta^3 f)(0) must survive.
    if EXACT.is_zero(det3((xif0, eta2f0, sbw.at0("eee")))):
        raise PreconditionError("germ is not S-type: eta^2 phi vanishes at 0")
    try:
        alpha1, beta1 = solve([xif0, eta2f0], sbw.at0("xxe"))
    except PreconditionError:
        raise PreconditionError("germ is not S-type: xi^2 eta f(0) outside the span")

    # the columns of p, q, r over (xxe, xex, exx) at 0, in closed form
    zero = (0, 0, 0)
    two_xif0 = tuple(2 * c for c in xif0)
    columns = [zero + xif0 + xif0, eta2f0 + eta2f0 + eta2f0, two_xif0 + zero + zero]
    base = [c for word in ("xxe", "xex", "exx") for c in sbw.at0(word)]
    p, q, r = solve(columns, [-b for b in base])
    n = f.order
    a1 = Jet2(n, {(0, 0): 1, (0, 1): -alpha, (1, 1): p})
    b1 = Jet2(n, {(0, 0): -beta, (1, 0): q})
    c1 = Jet2(n, {(1, 0): -alpha, (2, 0): r})
    words = Words(f, FramePair(VectorFieldJet(a1, b1), VectorFieldJet(c1, Jet2.const(1, n))))
    if not all(EXACT.is_zero_vec(words.at0(word)) for word in ("xxe", "xex", "exx")):
        raise PreconditionError("S-3 correction failed verification")
    return FrameBuild(words.pair, {"alpha": alpha, "beta": beta,
                                   "alpha1": alpha1, "beta1": beta1,
                                   "corr_xi_uv": p, "corr_xi_u": q, "corr_eta_uu": r},
                      words)


def b3_adapt(f: MapJet) -> FrameBuild:
    """B-3 pair: the SB-2 pair corrected so that eta^3 f(0) = 0."""
    sb = sb2_adapt(f)
    alpha, beta = sb.params["alpha"], sb.params["beta"]
    sbw = sb.words
    xif0 = sbw.at0("x")
    eta2f0 = sbw.at0("ee")
    # B-type guard: xi^2 phi(0), equivalently det(xi f, xi^2 eta f, eta^2 f)(0).
    if EXACT.is_zero(det3((xif0, sbw.at0("xxe"), eta2f0))):
        raise PreconditionError("germ is not B-type: xi^2 phi vanishes at 0")
    try:
        alpha1, beta1 = solve([xif0, eta2f0], sbw.at0("eee"))
    except PreconditionError:
        raise PreconditionError("germ is not B-type: eta^3 f(0) outside the span")
    n = f.order
    a1 = Jet2(n, {(0, 0): 1, (0, 1): -alpha})
    b1 = Jet2.const(-beta, n)
    c1 = Jet2(n, {(1, 0): -alpha, (0, 2): -alpha1 / 2})
    d1 = Jet2(n, {(0, 0): 1, (0, 1): -beta1 / 3})
    pair = FramePair(VectorFieldJet(a1, b1), VectorFieldJet(c1, d1))
    return FrameBuild(pair, {"alpha": alpha, "beta": beta,
                             "alpha1": alpha1, "beta1": beta1}, Words(f, pair))


def h2_adapt(f: MapJet) -> FrameBuild:
    """H-2 pair: xi = du, eta = -alpha v du + dv, where f_vv(0) = alpha f_u(0)."""
    fu0, fvv0, fuv0 = partials0(f)
    if not EXACT.is_zero_vec(cross3(fu0, fvv0)):
        raise PreconditionError("germ is not HP-type: f_u(0) x f_vv(0) != 0")
    if EXACT.is_zero_vec(cross3(fu0, fuv0)):
        raise PreconditionError("germ is not HP-type: f_u(0) x f_uv(0) = 0")
    (alpha,) = solve([fu0], fvv0)
    n = f.order
    eta = VectorFieldJet(Jet2(n, {(0, 1): -alpha}), Jet2.const(1, n))
    pair = FramePair(d_du(n), eta)
    return FrameBuild(pair, {"alpha": alpha}, Words(f, pair))


def h4_adapt(f: MapJet) -> FrameBuild:
    """H-4 pair: the H-2 eta corrected (a cubic in v) so eta^4 f(0) = 0 too.

    Needs f of H-type so that {xi f, xi eta f, eta^3 f}(0) is a basis.  The
    corrections live in three fixed slots (v^2 and v^3 terms of eta's
    du-coefficient, a v term of its dv-coefficient) and are solved in one
    triangular pass, in the order the basis expansion of eta^4 f(0)
    dictates: the dv-slot w from the eta^3 f component, then the v^2 slot s
    from the xi eta f component, then the v^3 slot t from the xi f
    component.  Each step is affine in its own unknown, and each slot's
    cross terms only feed components that a later step still controls, so
    the one pass leaves eta^4 f(0) = 0; the result is still verified.  The
    slots are not jointly affine (eta^4 f(0) has an s*w term), so they
    cannot be solved by one `solve` call.

    Each slot's slope in its own component is a constant.  In eta^4 the
    slot's monomial must be differentiated away by the eta(0) = dv of the
    letters to its left:
      w (v, in the dv-coefficient): one of the k outer letters takes v, the
         rest read eta^3 f; k = 1, 2, 3 gives 1+2+3 = 6 in eta^3 f.
      s (v^2, in the du-coefficient): two outer letters take v^2 (factor
         2) and du is left: with three outer letters 3*2 = 6 times
         d_v d_u f, with two, 2 times du eta f; 6+2 = 8 in xi eta f.
      t (v^3): all three outer letters take it, du f left; 3! = 6 in xi f.
    The cross terms (alpha w, w^2, s w) are read from a trial, not derived,
    so s and t each read the components of one trial pair.
    """
    h2 = h2_adapt(f)
    alpha = h2.params["alpha"]
    h2w = h2.words
    basis = [h2w.at0(word) for word in ("x", "xe", "eee")]
    if EXACT.is_zero(det3(basis)):
        raise PreconditionError("germ is not H-type: det(xi f, xi eta f, eta^3 f)(0) = 0")
    alpha1, beta1, delta1 = solve(basis, h2w.at0("eeee"))

    n = f.order
    xi = d_du(n)

    def trial(s, t, w):
        c1 = Jet2(n, {(0, 1): -alpha, (0, 2): s, (0, 3): t})
        d1 = Jet2(n, {(0, 0): 1, (0, 1): w})
        return Words(f, FramePair(xi, VectorFieldJet(c1, d1)))

    def components(words):
        return solve(basis, words.at0("eeee"))

    # each slot over its constant slope in its own component
    w = -delta1 / 6
    s = -components(trial(0, 0, w))[1] / 8
    t = -components(trial(s, 0, w))[0] / 6
    words = trial(s, t, w)
    if not EXACT.is_zero_vec(components(words)):
        raise PreconditionError("H-4 correction failed verification")
    if not EXACT.is_zero_vec(words.at0("ee")):
        raise PreconditionError("H-4 correction broke the H-2 level")
    return FrameBuild(words.pair,
                      {"alpha": alpha, "alpha1": alpha1, "beta1": beta1,
                       "delta1": delta1, "corr_eta_vv": s, "corr_eta_vvv": t,
                       "corr_d_v": w}, words)
