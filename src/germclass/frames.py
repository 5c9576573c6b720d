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
coefficients.  S-3 solves its three corrections jointly (the level-3
conditions are affine in them); H-4 solves its three one slot at a time
in one triangular pass, because eta^4 f(0) is not jointly affine in its
slots (float mode may repeat the pass to refine rounding).  The solved
parameters are returned alongside the pair so a classification
certificate can expose them.

Derivative words are read through `Words`, a per-pair table that
evaluates each word once.  Each constructor returns the table of its pair,
so the criteria in `classify` reuse what the frame solve already computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .jets import Jet2, MapJet, PolyMap2, compose_map, cross3, det3
from .scalars import ZeroCtx
from .vfields import FramePair, VectorFieldJet, apply, d_du


class Words:
    """The derivative words of f on one pair, each evaluated once.

    A word is a string over the letters x (xi) and e (eta), read as the
    operator product: "xxe" is xi(xi(eta f)).  The empty word is f itself.
    Each new word costs one `apply` on top of its (cached) suffix.
    """

    def __init__(self, f: MapJet, pair: FramePair):
        self.pair = pair
        self._jets = {"": f}

    def jet(self, word: str) -> MapJet:
        out = self._jets.get(word)
        if out is None:
            field = self.pair.xi if word[0] == "x" else self.pair.eta
            out = apply(field, self.jet(word[1:]), word + " f")
            self._jets[word] = out
        return out

    def at0(self, word: str):
        return self.jet(word).at0()


@dataclass(frozen=True)
class FrameBuild:
    pair: FramePair
    params: dict
    words: Words


def rank_df0(f: MapJet, ctx: ZeroCtx | None = None) -> int:
    ctx = ctx or f.zero_ctx()
    fu0 = f.partial_u().at0()
    fv0 = f.partial_v().at0()
    if not ctx.is_zero_vec(cross3(fu0, fv0)):
        return 2
    if ctx.is_zero_vec(fu0) and ctx.is_zero_vec(fv0):
        return 0
    return 1


def linear_normalize(f: MapJet):
    """Precompose with a linear map L so that f_v(0) = 0, f_u(0) != 0.

    Returns (f o L, L).  Requires rank df0 = 1; rank 0 and rank 2 germs are
    rejected (they are classified before any frame is built).
    """
    ctx = f.zero_ctx()
    rank = rank_df0(f, ctx)
    if rank != 1:
        raise PreconditionError("linear_normalize needs rank df0 = 1, got %d" % rank)
    fu0 = f.partial_u().at0()
    fv0 = f.partial_v().at0()
    one = 1 if ctx.exact else 1.0
    if ctx.is_zero_vec(fv0):
        L = PolyMap2.identity(f.order, f.eps)
    elif ctx.is_zero_vec(fu0):
        L = PolyMap2.swap(f.order, f.eps)
    else:
        # f_v(0) = t f_u(0); kernel direction (t, -1).
        if ctx.exact:
            k = next(i for i in range(3) if fu0[i] != 0)
        else:
            k = max(range(3), key=lambda i: abs(fu0[i]))
        t = fv0[k] / fu0[k]
        for i in range(3):
            if not ctx.is_zero(fv0[i] - t * fu0[i]):
                raise PreconditionError("df0 columns not parallel despite rank 1")
        L = PolyMap2.linear(((one, t), (0, -one)), f.order, f.eps)
    return compose_map(f, L), L


def solve_span2(target, w1, w2, ctx: ZeroCtx):
    """Solve target = alpha*w1 + beta*w2 in R^3, verifying consistency.

    Picks the 2x2 row subsystem with nonzero determinant (largest pivot in
    float mode) and checks the remaining row.
    """
    rows = [(0, 1), (0, 2), (1, 2)]
    best = None
    best_det = None
    for r, s in rows:
        d = w1[r] * w2[s] - w1[s] * w2[r]
        if ctx.is_zero(d):
            continue
        if ctx.exact:
            best, best_det = (r, s), d
            break
        if best is None or abs(d) > abs(best_det):
            best, best_det = (r, s), d
    if best is None:
        raise PreconditionError("span vectors are linearly dependent")
    r, s = best
    alpha = (target[r] * w2[s] - target[s] * w2[r]) / best_det
    beta = (w1[r] * target[s] - w1[s] * target[r]) / best_det
    for i in range(3):
        if not ctx.is_zero(target[i] - alpha * w1[i] - beta * w2[i]):
            raise PreconditionError("vector does not lie in the required span")
    return alpha, beta


def solve_parallel(target, w, ctx: ZeroCtx):
    """Solve target = alpha*w, verifying the remaining components."""
    if ctx.exact:
        k = next((i for i in range(3) if w[i] != 0), None)
    else:
        k = max(range(3), key=lambda i: abs(w[i]))
        if ctx.is_zero(w[k]):
            k = None
    if k is None:
        raise PreconditionError("cannot solve along the zero vector")
    alpha = target[k] / w[k]
    for i in range(3):
        if not ctx.is_zero(target[i] - alpha * w[i]):
            raise PreconditionError("vector is not parallel to the required direction")
    return alpha


def solve_basis3(target, w1, w2, w3, ctx: ZeroCtx):
    """Solve target = a*w1 + b*w2 + c*w3 by Cramer's rule (basis required)."""
    d = det3((w1, w2, w3))
    if ctx.is_zero(d):
        raise PreconditionError("the three vectors do not form a basis")
    a = det3((target, w2, w3)) / d
    b = det3((w1, target, w3)) / d
    c = det3((w1, w2, target)) / d
    return a, b, c


def _sb_defect(f: MapJet, ctx: ZeroCtx):
    """alpha, beta with f_uv(0) = alpha f_u(0) + beta f_vv(0), after SB guards."""
    fu0 = f.partial_u().at0()
    fvv0 = f.partial_v().partial_v().at0()
    fuv0 = f.partial_u().partial_v().at0()
    if ctx.is_zero_vec(cross3(fu0, fvv0)):
        raise PreconditionError("germ is not SB-type: f_u(0) x f_vv(0) = 0")
    if not ctx.is_zero(det3((fu0, fvv0, fuv0))):
        raise PreconditionError("germ is a Whitney umbrella, no SB-2 pair exists")
    return solve_span2(fuv0, fu0, fvv0, ctx)


def sb2_adapt(f: MapJet) -> FrameBuild:
    """SB-2 pair: xi = (1 - alpha v) du - beta dv, eta = -alpha u du + dv."""
    ctx = f.zero_ctx()
    alpha, beta = _sb_defect(f, ctx)
    n, eps = f.order, f.eps
    xi = VectorFieldJet(Jet2(n, {(0, 0): 1, (0, 1): -alpha}, eps),
                        Jet2.const(-beta, n, eps))
    eta = VectorFieldJet(Jet2(n, {(1, 0): -alpha}, eps), Jet2.const(1, n, eps))
    pair = FramePair(xi, eta)
    return FrameBuild(pair, {"alpha": alpha, "beta": beta}, Words(f, pair))


def _solve_affine(columns, rhs, ctx: ZeroCtx):
    """Solve sum_j x_j columns[j] = rhs exactly (consistent overdetermined system)."""
    m = len(rhs)
    n = len(columns)
    rows = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(m)]
    zero = rhs[0] * 0
    x = [zero] * n
    row = 0
    pivots = []
    for col in range(n):
        if ctx.exact:
            pivot_row = next((k for k in range(row, m) if rows[k][col] != 0), None)
        else:
            pivot_row = max(range(row, m), key=lambda k: abs(rows[k][col]), default=None)
            if pivot_row is not None and ctx.is_zero(rows[pivot_row][col]):
                pivot_row = None
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
        if row == m:
            break
    for k in range(row, m):
        if not ctx.is_zero(rows[k][n]):
            raise PreconditionError("correction system is inconsistent")
    for idx, col in enumerate(pivots):
        x[col] = rows[idx][n]
    return x


def s3_adapt(f: MapJet) -> FrameBuild:
    """S-3 pair, built from scratch over the normalized coordinates.

    Stage one is the SB-2 pair and its defect (alpha, beta).  Stage two
    writes corrections into three fixed coefficient slots -- a uv term in
    xi's du-coefficient, a u term in its dv-coefficient, a u^2 term in eta's
    du-coefficient -- and solves the three correction coefficients exactly
    against the level-3 vanishing conditions.  (Closed forms for these
    corrections exist but are fragile: the classical expressions break
    when alpha and beta are both nonzero, so the solve-and-verify route is
    used instead.)  The conditions are affine in the corrections: each
    correction coefficient surfaces at the origin through exactly one
    coefficient-derivative extraction, which together with at least one
    derivative left for f exhausts the three letters of every word.  The
    zero-correction trial is the SB-2 pair itself, so it reads the SB-2
    word table.
    """
    ctx = f.zero_ctx()
    sb = sb2_adapt(f)
    alpha, beta = sb.params["alpha"], sb.params["beta"]
    sbw = sb.words
    xif0 = sbw.at0("x")
    eta2f0 = sbw.at0("ee")
    # S-type guard: eta^2 phi(0) = det(xi f, eta^2 f, eta^3 f)(0) must survive.
    if ctx.is_zero(det3((xif0, eta2f0, sbw.at0("eee")))):
        raise PreconditionError("germ is not S-type: eta^2 phi vanishes at 0")
    try:
        alpha1, beta1 = solve_span2(sbw.at0("xxe"), xif0, eta2f0, ctx)
    except PreconditionError:
        raise PreconditionError("germ is not S-type: xi^2 eta f(0) outside the span")

    n, eps = f.order, f.eps

    def trial(p, q, r):
        a1 = Jet2(n, {(0, 0): 1, (0, 1): -alpha, (1, 1): p}, eps)
        b1 = Jet2(n, {(0, 0): -beta, (1, 0): q}, eps)
        c1 = Jet2(n, {(1, 0): -alpha, (2, 0): r}, eps)
        d1 = Jet2.const(1, n, eps)
        return Words(f, FramePair(VectorFieldJet(a1, b1), VectorFieldJet(c1, d1)))

    def level3_defect(words):
        out = []
        for word in ("xxe", "xex", "exx"):
            out.extend(words.at0(word))
        return out

    zero = alpha * 0
    one = zero + 1
    base = level3_defect(sbw)
    columns = []
    for unit in ((one, zero, zero), (zero, one, zero), (zero, zero, one)):
        shifted = level3_defect(trial(*unit))
        columns.append([s - b for s, b in zip(shifted, base)])
    p, q, r = _solve_affine(columns, [-b for b in base], ctx)
    words = trial(p, q, r)
    if not all(ctx.is_zero(value) for value in level3_defect(words)):
        raise PreconditionError("S-3 correction failed verification")
    return FrameBuild(words.pair, {"alpha": alpha, "beta": beta,
                                   "alpha1": alpha1, "beta1": beta1,
                                   "corr_xi_uv": p, "corr_xi_u": q, "corr_eta_uu": r},
                      words)


def b3_adapt(f: MapJet) -> FrameBuild:
    """B-3 pair: the SB-2 pair corrected so that eta^3 f(0) = 0."""
    ctx = f.zero_ctx()
    sb = sb2_adapt(f)
    alpha, beta = sb.params["alpha"], sb.params["beta"]
    sbw = sb.words
    xif0 = sbw.at0("x")
    eta2f0 = sbw.at0("ee")
    # B-type guard: xi^2 phi(0), equivalently det(xi f, xi^2 eta f, eta^2 f)(0).
    if ctx.is_zero(det3((xif0, sbw.at0("xxe"), eta2f0))):
        raise PreconditionError("germ is not B-type: xi^2 phi vanishes at 0")
    try:
        alpha1, beta1 = solve_span2(sbw.at0("eee"), xif0, eta2f0, ctx)
    except PreconditionError:
        raise PreconditionError("germ is not B-type: eta^3 f(0) outside the span")
    n, eps = f.order, f.eps
    a1 = Jet2(n, {(0, 0): 1, (0, 1): -alpha}, eps)
    b1 = Jet2.const(-beta, n, eps)
    c1 = Jet2(n, {(1, 0): -alpha, (0, 2): -alpha1 / 2}, eps)
    d1 = Jet2(n, {(0, 0): 1, (0, 1): -beta1 / 3}, eps)
    pair = FramePair(VectorFieldJet(a1, b1), VectorFieldJet(c1, d1))
    return FrameBuild(pair, {"alpha": alpha, "beta": beta,
                             "alpha1": alpha1, "beta1": beta1}, Words(f, pair))


def h2_adapt(f: MapJet) -> FrameBuild:
    """H-2 pair: xi = du, eta = -alpha v du + dv, where f_vv(0) = alpha f_u(0)."""
    ctx = f.zero_ctx()
    fu0 = f.partial_u().at0()
    fvv0 = f.partial_v().partial_v().at0()
    fuv0 = f.partial_u().partial_v().at0()
    if not ctx.is_zero_vec(cross3(fu0, fvv0)):
        raise PreconditionError("germ is not HP-type: f_u(0) x f_vv(0) != 0")
    if ctx.is_zero_vec(cross3(fu0, fuv0)):
        raise PreconditionError("germ is not HP-type: f_u(0) x f_uv(0) = 0")
    alpha = solve_parallel(fvv0, fu0, ctx)
    n, eps = f.order, f.eps
    eta = VectorFieldJet(Jet2(n, {(0, 1): -alpha}, eps), Jet2.const(1, n, eps))
    pair = FramePair(d_du(n, eps), eta)
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
    in exact arithmetic the first pass leaves eta^4 f(0) = 0.  The slots
    are not jointly affine (eta^4 f(0) has an s*w term), so they cannot be
    solved as one linear system.  In float mode an ill-conditioned germ can
    leave a rounding residue after the first pass; up to two more passes
    refine it, starting from the residue the last pass verified.  The zero
    trial is the H-2 pair, so the first pass starts from its word table.
    """
    ctx = f.zero_ctx()
    h2 = h2_adapt(f)
    alpha = h2.params["alpha"]
    h2w = h2.words
    xif0 = h2w.at0("x")
    xietaf0 = h2w.at0("xe")
    eta3f0 = h2w.at0("eee")
    if ctx.is_zero(det3((xif0, xietaf0, eta3f0))):
        raise PreconditionError("germ is not H-type: det(xi f, xi eta f, eta^3 f)(0) = 0")
    alpha1, beta1, delta1 = solve_basis3(h2w.at0("eeee"), xif0, xietaf0, eta3f0, ctx)

    n, eps = f.order, f.eps
    xi = d_du(n, eps)

    def trial(s, t, w):
        c1 = Jet2(n, {(0, 1): -alpha, (0, 2): s, (0, 3): t}, eps)
        d1 = Jet2(n, {(0, 0): 1, (0, 1): w}, eps)
        return Words(f, FramePair(xi, VectorFieldJet(c1, d1)))

    def components(words):
        return solve_basis3(words.at0("eeee"), xif0, xietaf0, eta3f0, ctx)

    zero = alpha * 0
    one = zero + 1
    s = t = w = zero
    residue = (alpha1, beta1, delta1)   # the zero trial is the H-2 pair
    for _ in range(3):
        # dv-slot against the eta^3 f component
        c0 = residue[2]
        slope = components(trial(s, t, w + one))[2] - c0
        if not ctx.is_zero(slope):
            w = w - c0 / slope
        # v^2 slot against the xi eta f component
        c0 = components(trial(s, t, w))[1]
        slope = components(trial(s + one, t, w))[1] - c0
        if not ctx.is_zero(slope):
            s = s - c0 / slope
        # v^3 slot against the xi f component
        c0 = components(trial(s, t, w))[0]
        slope = components(trial(s, t + one, w))[0] - c0
        if not ctx.is_zero(slope):
            t = t - c0 / slope
        words = trial(s, t, w)
        residue = components(words)
        if all(ctx.is_zero(c) for c in residue):
            break
    else:
        raise PreconditionError("H-4 correction failed to converge")
    if not all(ctx.is_zero(c) for c in words.at0("ee")):
        raise PreconditionError("H-4 correction broke the H-2 level")
    return FrameBuild(words.pair,
                      {"alpha": alpha, "alpha1": alpha1, "beta1": beta1,
                       "delta1": delta1, "corr_eta_vv": s, "corr_eta_vvv": t,
                       "corr_d_v": w}, words)
