"""Constructors for the hierarchy of adapted vector-field pairs.

Every recognition criterion is a determinant of derivative words taken
with respect to a pair (xi, eta) that kills specific words at the origin.
A word read at 0 reads f only to degree len(word), so the words a level
reads at 0 fix all the work it does.  `READS` declares them, one row per
level; words are written as in `Words` ("xxe" is xi^2 eta f), and the sb2
row also covers the guards that `s3_adapt` and `b3_adapt` read on the
SB-2 pair:

  level  longest read  reads at 0               words killed at 0
  sb2    3             x xe ex xxe ee eee       xe = ex = 0
  s3     4             xxe xex exx x xxxe ee    additionally xxe = xex = exx = 0
  b3     5             x ee eeex exx eeeee      additionally eee = 0
  h2     4             x xe eee eeee            ee = 0
  h4     5             eeee ee x eeeee eee      additionally eeee = 0

All constructors assume the germ has been put through `linear_normalize`
first, so that f_v(0) = 0 and f_u(0) != 0 and the pair can be built as an
explicit perturbation of (d/du, d/dv).  `linear_normalize` computes f o L
by the closed form of L's shape (f itself, `jets.swap` or `jets.shear`) and
returns L as the 2x2 matrix of `Fraction`s that a certificate records;
it builds no map.  The coefficient formulas below are exact: each
constructor solves a small linear system for the defect of f at the
origin and writes the correction directly into the field coefficients.
Every such system goes through `solve`, one exact fraction-free
Gauss-Jordan elimination; the guards each constructor checks first make
its solution unique.  The solved parameters are returned alongside the
pair so a classification certificate can expose them.

The S-3 and H-4 corrections are closed forms in alpha, beta and the basis
expansion (alpha1, beta1, delta1) of one parent word, each found from one
Lie bracket.  On the SB-2 pair [xi, eta] = alpha^2 v du, so xex f(0) and
exx f(0) both equal xxe f(0) + alpha^2 beta xi f(0); on the H-2 pair
[xi, eta] = 0, so eta^4 f(0) of the corrected eta expands into the
parent's words with constant coefficients.  `s3_adapt` and `h4_adapt`
give the derivations.

Derivative words are read through `Words`, a per-pair table built for its
level's reads, which evaluates each word once, at the order its reads
need (B-3 computes xi f at order 3, for eta^3 xi f; H-4 reads xi f at 0
only and computes it at order 0).  Each constructor returns the table of
its pair (`build.words`, which holds the pair), so the criteria in
`classify` reuse what the frame solve already computed.  The deeper
levels B-3 and H-4 extend their parent's build: `b3_adapt(sb)` and
`h4_adapt(h2)` take the SB-2 or H-2 build and read the germ, alpha, beta
and their guard and solve words from it, so a word that `classify` has
already read on the parent pair costs nothing again.  S-3 still builds
its own SB-2 pair (see `s3_adapt`).  The phi Hessian that splits the SB
branch is read the same way: on the SB-2 pair its entries are the
determinants A = det(xi f, xi^2 eta f, eta^2 f)(0) and
C = det(xi f, eta^2 f, eta^3 f)(0), which read f to degree 3.  The
vectors f_u, f_v, f_vv, f_uv at 0 are read straight from f's coefficients.

Everything at 0 is integer arithmetic.  `Words.scaled` and `partials0`
read the vectors one test needs together, through `jets.scaled_coeffs`,
as integer vectors over one positive diagonal scaling; the guards, the
rank test, the solves and the verifications run on those integers, whose
zero tests and solutions are the exact ones.  Only the solved parameters
become `Fraction`s, one per unknown, in `solve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .jets import Jet2, MapJet, cross3, det3, scaled_coeffs, shear, swap
from .scalars import EXACT
from .vfields import FramePair, VectorFieldJet, apply, d_du


READS = {
    "sb2": ("x", "xe", "ex", "xxe", "ee", "eee"),
    "s3": ("xxe", "xex", "exx", "x", "xxxe", "ee"),
    "b3": ("x", "ee", "eeex", "exx", "eeeee"),
    "h2": ("x", "xe", "eee", "eeee"),
    "h4": ("eeee", "ee", "x", "eeeee", "eee"),
}


class Words:
    """The derivative words of f on one pair, each evaluated once.

    A word is a string over the letters x (xi) and e (eta), read as the
    operator product: "xxe" is xi(xi(eta f)).  The empty word is f itself.

    The table is built for the words its level reads at 0 (`READS`, the
    level table of this module).  It computes each suffix s of a read
    once, at the order max(len(r) - len(s)) over the reads r that end in
    s, by one `apply` on its cached suffix that stops at that order; no
    truncated copy of f or of a suffix is made.  So every read is exact at
    0, and no word is computed past what its reads need.  A word
    that is neither a read nor a suffix of one raises `KeyError`; a read
    past the order of f raises `OrderExhaustedError`.  `f` is the germ as
    given, which the deeper levels extend.
    """

    def __init__(self, f: MapJet, pair: FramePair, reads):
        self.f = f
        self.pair = pair
        # over reads ending in s, len(r) - len(s) grows with len(r): the longest wins
        self.orders = {r[k:]: k for r in sorted(reads, key=len) for k in range(len(r) + 1)}
        self._jets = {"": f}

    def jet(self, word: str) -> MapJet:
        """w f at order `orders[w]`."""
        out = self._jets.get(word)
        if out is None:
            field = self.pair.xi if word[0] == "x" else self.pair.eta
            out = self._jets[word] = apply(field, self.jet(word[1:]), word + " f",
                                           self.orders[word])
        return out

    def at0(self, word: str):
        return self.jet(word).at0()

    def scaled(self, *words):
        """The words at 0 as integer vectors over one scaling, and its scale."""
        return scaled_coeffs(*((self.jet(word), (0, 0)) for word in words))


@dataclass(frozen=True)
class FrameBuild:
    params: dict
    words: Words


def solve(columns, rhs):
    """Solve sum_j x_j columns[j] = rhs exactly by fraction-free Gauss-Jordan.

    Entries are ints (or Fractions).  Eliminating with pivot p replaces
    each other row r by p r - r[col] (pivot row): it scales rows by nonzero
    factors, so the pivots, the zero tests and the solution are those of
    division-based elimination, and nothing is divided until each unknown
    is read off its row as one `Fraction`.  The system may be
    overdetermined: a leftover row that does not vanish raises
    PreconditionError.  A column without a pivot gets 0, so a caller that
    needs the unique solution checks the columns' independence first.
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
        pivot = rows[row]
        p = pivot[col]
        for k in range(m):
            if k != row:
                factor = rows[k][col]
                if factor:
                    rows[k] = [p * a - factor * b for a, b in zip(rows[k], pivot)]
        pivots.append(col)
        row += 1
    for k in range(row, m):
        if not EXACT.is_zero(rows[k][n]):
            raise PreconditionError("linear system is inconsistent")
    for idx, col in enumerate(pivots):
        x[col] = Fraction(rows[idx][n], rows[idx][col])
    return x


def partials0(f: MapJet):
    """(f_u, f_vv, f_uv)(0), the vectors the SB and HP guards read, and their scale.

    One `jets.scaled_coeffs` read: integer vectors over one scaling.
    """
    (fu, fv2, fuv), scale = scaled_coeffs((f, (1, 0)), (f, (0, 2)), (f, (1, 1)))
    return (fu, tuple(2 * c for c in fv2), fuv), scale


def _df0(f: MapJet):
    """(f_u, f_v)(0) as integer vectors over one scaling."""
    return scaled_coeffs((f, (1, 0)), (f, (0, 1)))[0]


def df0_rank(fu0, fv0) -> int:
    """Rank of df(0) from (f_u, f_v)(0), exact or over one positive scaling."""
    if not EXACT.is_zero_vec(cross3(fu0, fv0)):
        return 2
    if EXACT.is_zero_vec(fu0) and EXACT.is_zero_vec(fv0):
        return 0
    return 1


def rank_df0(f: MapJet) -> int:
    """Rank of df(0), decided on integer vectors."""
    return df0_rank(*_df0(f))


def linear_normalize(f: MapJet):
    """Precompose with a linear map L so that f_v(0) = 0, f_u(0) != 0.

    Returns (f o L, L), L as the 2x2 matrix of exact scalars of
    (u, v) -> (L[0][0] u + L[0][1] v, L[1][0] u + L[1][1] v).  Requires
    rank df0 = 1; rank 0 and rank 2 germs are rejected (they are classified
    before any frame is built).  L is the identity, the swap or the shear
    (u, v) -> (u + t v, -v), and f o L is that shape's closed form, f
    itself, `jets.swap` or `jets.shear`: the classify path makes no
    substitution and builds no map.
    """
    fu0, fv0 = _df0(f)
    rank = df0_rank(fu0, fv0)
    if rank != 1:
        raise PreconditionError("linear_normalize needs rank df0 = 1, got %d" % rank)
    if EXACT.is_zero_vec(fv0):
        return f, _matrix(1, 0, 0, 1)
    if EXACT.is_zero_vec(fu0):
        return swap(f), _matrix(0, 1, 1, 0)
    # f_v(0) = t f_u(0); kernel direction (t, -1).
    (t,) = solve([fu0], fv0)
    return shear(f, t), _matrix(1, t, 0, -1)


def _matrix(a, b, c, d):
    return (Fraction(a), Fraction(b)), (Fraction(c), Fraction(d))


def _sb_defect(f: MapJet):
    """alpha, beta with f_uv(0) = alpha f_u(0) + beta f_vv(0), after SB guards."""
    (fu0, fvv0, fuv0), _ = partials0(f)
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
    return FrameBuild({"alpha": alpha, "beta": beta}, Words(f, FramePair(xi, eta), READS["sb2"]))


def s3_adapt(f: MapJet) -> FrameBuild:
    """S-3 pair, built from scratch over the normalized coordinates.

    Unlike `b3_adapt`, this takes the germ and builds its own SB-2 pair,
    so an S2 classify builds that pair twice.  The benchmark harness pins
    that count (two `sb2_adapt` calls per S2 classify, in
    `perfbench/tests`); taking the parent build here moves with that pin
    (ROADMAP item 1).

    Stage one is the SB-2 pair and its defect (alpha, beta), and the
    expansion xi^2 eta f(0) = alpha1 xi f(0) + beta1 eta^2 f(0).  Stage two
    writes corrections into three fixed coefficient slots -- p, a uv term in
    xi's du-coefficient; q, a u term in its dv-coefficient; r, a u^2 term
    in eta's du-coefficient -- so that xxe f = xex f = exx f = 0 at 0, then
    verifies the three words.  Over (xxe, xex, exx) at 0 the slots add
    p (0, xi f, xi f), q (eta^2 f, eta^2 f, eta^2 f) and r (2 xi f, 0, 0).

    xex f(0) and exx f(0) follow from xxe f(0) by one bracket.  On the SB-2
    pair [xi, eta] = alpha^2 v du and xi(v) = -beta, so
      xex f - xxe f = -xi([xi, eta] f) = -alpha^2 (xi(v) f_u + v xi f_u),
    which is alpha^2 beta f_u(0) = alpha^2 beta xi f(0) at 0 (f_v(0) = 0
    makes du f(0) = xi f(0)), and exx f - xex f = -[xi, eta] xi f vanishes
    at v = 0.  Matching the xi f and eta^2 f components then gives
      p = -(alpha1 + alpha^2 beta),  q = -beta1,  r = -alpha1 / 2.
    """
    sb = sb2_adapt(f)
    alpha, beta = sb.params["alpha"], sb.params["beta"]
    (xif0, eta2f0, eta3f0, xxef0), _ = sb.words.scaled("x", "ee", "eee", "xxe")
    # S-type guard: C = eta^2 phi(0) = det(xi f, eta^2 f, eta^3 f)(0) must survive.
    if EXACT.is_zero(det3((xif0, eta2f0, eta3f0))):
        raise PreconditionError("germ is not S-type: eta^2 phi vanishes at 0")
    try:
        alpha1, beta1 = solve([xif0, eta2f0], xxef0)
    except PreconditionError:
        raise PreconditionError("germ is not S-type: xi^2 eta f(0) outside the span")

    p, q, r = -(alpha1 + alpha * alpha * beta), -beta1, -alpha1 / 2
    n = f.order
    a1 = Jet2(n, {(0, 0): 1, (0, 1): -alpha, (1, 1): p})
    b1 = Jet2(n, {(0, 0): -beta, (1, 0): q})
    c1 = Jet2(n, {(1, 0): -alpha, (2, 0): r})
    words = Words(f, FramePair(VectorFieldJet(a1, b1), VectorFieldJet(c1, Jet2.const(1, n))),
                  READS["s3"])
    if not all(map(EXACT.is_zero_vec, words.scaled("xxe", "xex", "exx")[0])):
        raise PreconditionError("S-3 correction failed verification")
    return FrameBuild({"alpha": alpha, "beta": beta, "alpha1": alpha1, "beta1": beta1,
                       "corr_xi_uv": p, "corr_xi_u": q, "corr_eta_uu": r}, words)


def b3_adapt(sb: FrameBuild) -> FrameBuild:
    """B-3 pair: the SB-2 pair of `sb` corrected so that eta^3 f(0) = 0.

    Extends the parent build: the germ is `sb.words.f`, alpha and beta are
    `sb.params`, and the guard and solve words are read from `sb.words`,
    where `classify` has already read them at 0 for the phi Hessian.  The
    B-type guard and the span check still run, so a germ that is not
    B-type raises PreconditionError.  On its own: `b3_adapt(sb2_adapt(f))`.
    """
    f = sb.words.f
    alpha, beta = sb.params["alpha"], sb.params["beta"]
    (xif0, eta2f0, xxef0, eta3f0), _ = sb.words.scaled("x", "ee", "xxe", "eee")
    # B-type guard: A = xi^2 phi(0) = det(xi f, xi^2 eta f, eta^2 f)(0) must survive.
    if EXACT.is_zero(det3((xif0, xxef0, eta2f0))):
        raise PreconditionError("germ is not B-type: xi^2 phi vanishes at 0")
    try:
        alpha1, beta1 = solve([xif0, eta2f0], eta3f0)
    except PreconditionError:
        raise PreconditionError("germ is not B-type: eta^3 f(0) outside the span")
    n = f.order
    a1 = Jet2(n, {(0, 0): 1, (0, 1): -alpha})
    b1 = Jet2.const(-beta, n)
    c1 = Jet2(n, {(1, 0): -alpha, (0, 2): -alpha1 / 2})
    d1 = Jet2(n, {(0, 0): 1, (0, 1): -beta1 / 3})
    pair = FramePair(VectorFieldJet(a1, b1), VectorFieldJet(c1, d1))
    return FrameBuild({"alpha": alpha, "beta": beta, "alpha1": alpha1, "beta1": beta1},
                      Words(f, pair, READS["b3"]))


def h2_adapt(f: MapJet) -> FrameBuild:
    """H-2 pair: xi = du, eta = -alpha v du + dv, where f_vv(0) = alpha f_u(0)."""
    (fu0, fvv0, fuv0), _ = partials0(f)
    if not EXACT.is_zero_vec(cross3(fu0, fvv0)):
        raise PreconditionError("germ is not HP-type: f_u(0) x f_vv(0) != 0")
    if EXACT.is_zero_vec(cross3(fu0, fuv0)):
        raise PreconditionError("germ is not HP-type: f_u(0) x f_uv(0) = 0")
    (alpha,) = solve([fu0], fvv0)
    n = f.order
    eta = VectorFieldJet(Jet2(n, {(0, 1): -alpha}), Jet2.const(1, n))
    return FrameBuild({"alpha": alpha}, Words(f, FramePair(d_du(n), eta), READS["h2"]))


def h4_adapt(h2: FrameBuild) -> FrameBuild:
    """H-4 pair: the H-2 eta of `h2` corrected (a cubic in v) so eta^4 f(0) = 0 too.

    Extends the parent build: the germ is `h2.words.f`, alpha is
    `h2.params`, and the guard and solve words are read from `h2.words`,
    where `classify` has already read xi f and xi eta f at 0.  On its own:
    `h4_adapt(h2_adapt(f))`.

    Needs f of H-type so that {xi f, xi eta f, eta^3 f}(0) is a basis; the
    H-2 eta^4 f(0) expands on it as alpha1 xi f + beta1 xi eta f + delta1
    eta^3 f.  The corrections live in three fixed slots of the H-4 eta:
    s v^2 and t v^3 in its du-coefficient, w v in its dv-coefficient.

    On the H-2 pair [xi, eta] = 0, xi(v) = 0 and eta(v) = 1.  With
    sigma = s + alpha w the H-4 eta is (1 + w v) eta + (sigma v^2 + t v^3) xi,
    and its fourth power at 0 expands over the H-2 words as
      eta^4 f + 6w eta^3 f + 8sigma xi eta f + 6(t + w sigma) xi f
              + 7w^2 eta^2 f + w^3 eta f.
    The last two terms vanish on H-2 (eta^2 f(0) = 0, eta f(0) = f_v(0) = 0),
    so eta^4 f(0) = 0 on the basis gives
      w = -delta1 / 6,  sigma = -beta1 / 8,  s = sigma - alpha w,
      t = -alpha1 / 6 - w sigma.
    """
    f = h2.words.f
    alpha = h2.params["alpha"]
    (*basis, eta4f0), _ = h2.words.scaled("x", "xe", "eee", "eeee")
    if EXACT.is_zero(det3(basis)):
        raise PreconditionError("germ is not H-type: det(xi f, xi eta f, eta^3 f)(0) = 0")
    alpha1, beta1, delta1 = solve(basis, eta4f0)

    w = -delta1 / 6
    sigma = -beta1 / 8
    s, t = sigma - alpha * w, -alpha1 / 6 - w * sigma
    n = f.order
    c1 = Jet2(n, {(0, 1): -alpha, (0, 2): s, (0, 3): t})
    d1 = Jet2(n, {(0, 0): 1, (0, 1): w})
    words = Words(f, FramePair(d_du(n), VectorFieldJet(c1, d1)), READS["h4"])
    eta4f0, eta2f0 = words.scaled("eeee", "ee")[0]
    if not EXACT.is_zero_vec(eta4f0):
        raise PreconditionError("H-4 correction failed verification")
    if not EXACT.is_zero_vec(eta2f0):
        raise PreconditionError("H-4 correction broke the H-2 level")
    return FrameBuild({"alpha": alpha, "alpha1": alpha1, "beta1": beta1, "delta1": delta1,
                       "corr_eta_vv": s, "corr_eta_vvv": t, "corr_d_v": w}, words)
