"""Randomized A-equivalence actions and target-pushforward identities.

The classification of a germ is invariant under composing with source and
target diffeomorphisms that fix the origin.  This module samples bounded-
rational polynomial diffeomorphisms, acts with them, and provides the
derivative pushforward checks that explain *why* the determinant criteria
do not see the target diffeomorphism: for the right derivative words,
word(Phi o f)(0) = J_Phi(0) * word(f)(0).

The identity holds only under specific hypotheses on the word (T-1..T-7
below); `check_target_pushforward` verifies the hypothesis numerically
before testing the identity, so a word outside every hypothesis class is
an error, not a silent False.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random

from .errors import PreconditionError
from .jets import (Jet2, MapJet, PolyMap2, PolyMap3, compose_map,
                   post_compose)
from .vfields import VectorFieldJet, apply, apply_word


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    trials: int = 100
    bound: int = 9          # numerator/denominator cap for sampled rationals
    degree: int = 3         # max total degree of sampled diffeos
    order: int = 6

    def __post_init__(self):
        if self.trials < 1:
            raise PreconditionError("trials must be >= 1")
        if self.bound < 1:
            raise PreconditionError("bound must be >= 1")
        if self.degree < 1:
            raise PreconditionError("diffeo degree must be >= 1")
        if self.degree > self.order:
            raise PreconditionError("diffeo degree must not exceed the jet order")


def random_rational(rng: Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _monomials(nvars: int, degree: int):
    """Exponent tuples of total degree 1..degree, by degree, then lexicographically."""
    return [key for d in range(1, degree + 1)
            for key in product(range(d + 1), repeat=nvars) if sum(key) == d]


def _random_change(cfg: FuzzConfig, rng: Random, degree, nvars: int, density: float, build):
    """build(tables) on nvars random coefficient tables, redrawn while it raises.

    Each monomial of degree <= `degree` gets a coefficient with probability
    `density`; the constructors raise on a singular linear part.
    """
    degree = cfg.degree if degree is None else degree
    if degree < 1:
        raise PreconditionError("diffeo degree must be >= 1")
    monos = _monomials(nvars, degree)
    while True:
        tables = [{key: random_rational(rng, cfg.bound) for key in monos
                   if rng.random() < density} for _ in range(nvars)]
        try:
            return build(tables)
        except PreconditionError:
            continue


def random_source_diffeo(cfg: FuzzConfig, rng: Random,
                         degree: int | None = None) -> PolyMap2:
    """A random polynomial source change with invertible linear part."""
    return _random_change(cfg, rng, degree, 2, 0.7, lambda t: PolyMap2(
        Jet2(cfg.order, t[0]), Jet2(cfg.order, t[1])))


def random_target_diffeo(cfg: FuzzConfig, rng: Random,
                         degree: int | None = None) -> PolyMap3:
    """A random polynomial target change with invertible linear part."""
    return _random_change(cfg, rng, degree, 3, 0.5, lambda t: PolyMap3(t, cfg.order))


def act(f: MapJet, phi_s: PolyMap2, phi_t: PolyMap3) -> MapJet:
    """The A-action phi_t o f o phi_s (an action by group elements, so this
    reaches the same orbit as composing with an inverse would)."""
    return compose_map(post_compose(phi_t, f), phi_s)


# -- target pushforward hypotheses ------------------------------------------

def _is_null(zeta: VectorFieldJet, f: MapJet) -> bool:
    return not any(apply(zeta, f).at0())


def _word_key(word):
    """Group word entries by object identity; a word must use at most two fields."""
    distinct = []
    pattern = []
    for zeta in word:
        for k, known in enumerate(distinct):
            if known is zeta:
                pattern.append(k)
                break
        else:
            distinct.append(zeta)
            pattern.append(len(distinct) - 1)
    return distinct, pattern


def _sb2_holds(f, xi, eta):
    return (not any(apply_word([xi, eta], f).at0())
            and not any(apply_word([eta, xi], f).at0()))


def _word_hypothesis(f: MapJet, word) -> str:
    """Match the word against the hypothesis catalogue; raise if none fits.

    T-1: any single field.
    T-2: length 2, at least one field null.
    T-3: length 3, the innermost and outermost fields null, and additionally
         the middle field null or (outer)(inner) f vanishing at 0.  The extra
         condition is a repair: expanding zeta3 zeta2 (W(f) zeta1 f) produces
         a term zeta2(W(f)) * zeta3 zeta1 f that nullity of zeta1 and zeta3
         alone does not kill (take eta, xi, eta on any germ with
         eta^2 f(0) != 0 and a quadratic target change for a counterexample;
         the test suite pins one).
    T-4: length 3 over an SB-2 pair, exactly one eta.
    T-5: length 4 over an S-3 pair, exactly one eta.
    T-6: length 4 over a B-3 pair, exactly three eta.
    T-7: eta^5 over an H-2 pair (H-type germ).
    """
    n = len(word)
    if n == 1:
        return "T-1"
    if n == 2 and (_is_null(word[0], f) or _is_null(word[1], f)):
        return "T-2"
    if n == 3 and _is_null(word[0], f) and _is_null(word[2], f):
        skip_mid = apply_word([word[0], word[2]], f).at0()
        if _is_null(word[1], f) or not any(skip_mid):
            return "T-3"

    distinct, pattern = _word_key(word)
    if n == 5 and len(distinct) == 1:
        eta = distinct[0]
        if _is_null(eta, f) and not any(apply_word([eta, eta], f).at0()):
            return "T-7"
    if len(distinct) == 2 and n in (3, 4):
        a, b = distinct
        if _is_null(b, f) and not _is_null(a, f):
            xi, eta = a, b
        elif _is_null(a, f) and not _is_null(b, f):
            xi, eta = b, a
        else:
            raise PreconditionError("word does not match any pushforward hypothesis")
        n_eta = sum(1 for zeta in word if zeta is eta)
        if not _sb2_holds(f, xi, eta):
            raise PreconditionError("word pair is not SB-2-adapted")
        if n == 3 and n_eta == 1:
            return "T-4"
        if n == 4 and n_eta == 1:
            for w in ([xi, xi, eta], [xi, eta, xi], [eta, xi, xi]):
                if any(apply_word(w, f).at0()):
                    raise PreconditionError("word pair is not S-3-adapted")
            return "T-5"
        if n == 4 and n_eta == 3:
            if any(apply_word([eta] * 3, f).at0()):
                raise PreconditionError("word pair is not B-3-adapted")
            return "T-6"
    raise PreconditionError("word does not match any pushforward hypothesis")


def check_target_pushforward(f: MapJet, phi: PolyMap3, word) -> bool:
    """True iff word(Phi o f)(0) = J_Phi(0) word(f)(0), under T-1..T-7."""
    _word_hypothesis(f, word)
    return pushforward_identity_holds(f, phi, word)


def pushforward_identity_holds(f: MapJet, phi: PolyMap3, word) -> bool:
    """The raw identity test, with no hypothesis validation (negative controls)."""
    lhs = apply_word(word, post_compose(phi, f)).at0()
    vec = apply_word(word, f).at0()
    rhs = [sum(m * x for m, x in zip(row, vec)) for row in phi.linear_matrix()]
    return not any(a - b for a, b in zip(lhs, rhs))


def run_invariance(cfg: FuzzConfig, germs: dict) -> dict:
    """classify(act(f)) == classify(f) over cfg.trials random actions per germ.

    Trials are seeded independently per (germ, index) so the report is
    deterministic and order-independent.
    """
    from .classify import classify

    results = {}
    for name in sorted(germs):
        f = germs[name]
        base = classify(f)[0]
        good = 0
        failures = []
        for k in range(cfg.trials):
            rng = Random("%d|%s|%d" % (cfg.seed, name, k))
            degree = rng.randint(1, cfg.degree)
            phi_s = random_source_diffeo(cfg, rng, degree)
            phi_t = random_target_diffeo(cfg, rng, degree)
            got = classify(act(f, phi_s, phi_t))[0]
            if got == base:
                good += 1
            else:
                failures.append((k, str(got)))
        results[name] = {"base": str(base), "ok": good, "trials": cfg.trials,
                         "failures": failures}
    return results
