"""Shared helpers for the test suite: builders and branch-specific germ generators."""

import re
from fractions import Fraction
from random import Random

from germclass.docparse import parse_poly
from germclass.fuzz import FuzzConfig, act, random_source_diffeo, random_target_diffeo
from germclass.jets import Jet2, MapJet, PolyMap
from germclass.oracle import HNormalCoeffs, SBNormalCoeffs


def jet(table, order=6):
    return Jet2(order, {k: Fraction(v) for k, v in table.items()})


def uni(table, order=6):
    return Jet2(order, {(0, j): Fraction(v) for j, v in table.items()})


def germ(f1, f2, f3, order=6):
    return MapJet.germ(parse_poly(f1, order), parse_poly(f2, order), parse_poly(f3, order))


def linear_map(matrix, order=6) -> PolyMap:
    """The source change (u, v) -> (a u + b v, c u + d v) of matrix ((a, b), (c, d))."""
    (a, b), (c, d) = matrix
    return PolyMap(({(1, 0): a, (0, 1): b}, {(1, 0): c, (0, 1): d}), order)


def target_identity(order=6) -> PolyMap:
    """The identity target change (x, y, z) -> (x, y, z)."""
    return PolyMap(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}), order)


def rational(rng: Random, bound=5, den=3, nonzero=False) -> Fraction:
    while True:
        num = rng.randint(-bound, bound)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, den))


def random_jet(rng: Random, order=6, max_degree=4, density=0.4) -> Jet2:
    table = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            if rng.random() < density:
                table[(i, j)] = rational(rng)
    return Jet2(order, table)


def scramble(f: MapJet, rng: Random, max_degree=3, order=6) -> MapJet:
    """Act with a random A-equivalence (source and target diffeos)."""
    cfg = FuzzConfig(seed=0, bound=5, degree=max_degree, order=order)
    degree = rng.randint(1, max_degree)
    phi_s = random_source_diffeo(cfg, rng, degree)
    phi_t = random_target_diffeo(cfg, rng, degree)
    return act(f, phi_s, phi_t)


def random_sb_coeffs(rng: Random, branch: str) -> SBNormalCoeffs:
    """Random SB-shape coefficients constrained to land in a given branch.

    branch: 'S1' (a21,a03 nonzero), 'S' (a21=0, a03!=0), 'S2' (also a31!=0),
    'B' (a03=0, a21!=0), 'B2' (also disc!=0, b=0), 'SB' (unconstrained).
    """
    a = {(i, j): rational(rng) for i in range(6) for j in range(1, 6)
         if 3 <= i + j <= 5 and rng.random() < 0.6}
    b = {i: rational(rng) for i in (3, 4, 5) if rng.random() < 0.5}
    if branch in ("S", "S2"):
        a.pop((2, 1), None)
        a[(0, 3)] = rational(rng, nonzero=True)
        if branch == "S2":
            a[(3, 1)] = rational(rng, nonzero=True)
    elif branch in ("B", "B2"):
        a.pop((0, 3), None)
        a[(2, 1)] = rational(rng, nonzero=True)
        if branch == "B2":
            b = {}
            while 3 * a.get((0, 5), 0) * a[(2, 1)] - 5 * a.get((1, 3), 0) ** 2 == 0:
                a[(0, 5)] = rational(rng)
                a[(1, 3)] = rational(rng)
    elif branch == "S1":
        a[(2, 1)] = rational(rng, nonzero=True)
        a[(0, 3)] = rational(rng, nonzero=True)
    return SBNormalCoeffs(a, b)


def random_h_coeffs(rng: Random, branch: str) -> HNormalCoeffs:
    """branch: 'HP2' (b03 free), 'H' (b03 != 0), 'H2' (also quintic nonzero)."""
    from germclass.oracle import h2_discriminant

    while True:
        a = {(i, j): rational(rng) for i in range(6) for j in range(6)
             if 3 <= i + j <= 5 and rng.random() < 0.4}
        b = {(i, j): rational(rng) for i in range(6) for j in range(6)
             if 3 <= i + j <= 5 and rng.random() < 0.4}
        if branch in ("H", "H2"):
            b[(0, 3)] = rational(rng, nonzero=True)
        coeffs = HNormalCoeffs(a, b)
        if branch == "H2" and h2_discriminant(coeffs) == 0:
            continue
        return coeffs


def reference_poly(src: str, order: int) -> Jet2:
    """A valid source of the `docparse` polynomial grammar, evaluated naively.

    Every literal and variable is built by Jet2(order, {...}) and every
    power by square-and-multiply from Jet2(order, {(0, 0): 1}), with the
    parser's order of operations.
    """
    tokens = re.findall(r"\d+|\S", src) + [None]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        negate = tokens[pos] == "-"
        if tokens[pos] in ("+", "-"):
            take()
        total = term()
        if negate:
            total = -total
        while tokens[pos] in ("+", "-"):
            op = take()
            rhs = term()
            total = total - rhs if op == "-" else total + rhs
        return total

    def term():
        total = factor()
        while tokens[pos] == "*":
            take()
            total = total * factor()
        return total

    def factor():
        base = atom()
        if tokens[pos] != "^":
            return base
        take()
        n = int(take())
        power = Jet2(order, {(0, 0): 1})
        while n:
            if n & 1:
                power = power * base
            n >>= 1
            if n:
                base = base * base
        return power

    def atom():
        tok = take()
        if tok == "(":
            inner = expr()
            assert take() == ")"
            return inner
        if tok in ("u", "v"):
            return Jet2(order, {(1, 0) if tok == "u" else (0, 1): 1})
        value = Fraction(int(tok))
        if tokens[pos] == "/":
            take()
            value /= int(take())
        return Jet2(order, {(0, 0): value})

    jet = expr()
    assert tokens[pos] is None
    return jet


def reference_ruled_frame(c3: Jet2, order=None):
    """`applications.ruled_frame` as a recursion on Fraction coefficients."""
    n = c3.order + 1 if order is None else order
    zero, one = Fraction(0), Fraction(1)
    c = [c3.coeff(0, m) if m <= c3.order else zero for m in range(n)]
    a1 = [(one, zero, zero)]
    a2 = [(zero, one, zero)]
    a3 = [(zero, zero, one)]
    for k in range(n):
        conv_a3 = [sum(c[m] * a3[k - m][i] for m in range(k + 1)) for i in range(3)]
        conv_a2 = [sum(c[m] * a2[k - m][i] for m in range(k + 1)) for i in range(3)]
        a1.append(tuple(a2[k][i] / (k + 1) for i in range(3)))
        a2.append(tuple((-a1[k][i] + conv_a3[i]) / (k + 1) for i in range(3)))
        a3.append(tuple(-conv_a2[i] / (k + 1) for i in range(3)))

    def pack(rows):
        return tuple(Jet2(n, {(0, k): rows[k][i] for k in range(n + 1)}) for i in range(3))
    return pack(a1), pack(a2), pack(a3)


def random_branch_germ(rng: Random, branch: str, order=6, scrambled=True) -> MapJet:
    """A random germ provably in the given branch, optionally diffeo-scrambled."""
    if branch in ("S1", "S", "S2", "B", "B2", "SB"):
        f = random_sb_coeffs(rng, branch).to_map_jet(order)
    elif branch in ("HP2", "H", "H2"):
        f = random_h_coeffs(rng, branch).to_map_jet(order)
    elif branch == "WU":
        f = germ("u", "v^2", "u*v", order)
    else:
        raise ValueError(branch)
    return scramble(f, rng, order=order) if scrambled else f
