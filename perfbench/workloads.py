"""Seeded inputs and checked operations for the germclass benchmark.

Each workload function takes the freshly imported germclass modules, the
seed, a scratch directory and a `lap` callback that it calls after each
unit of set-up work, and returns a `Corpus`: a list of operations
in the order the closed loop runs them, plus the warm-up operations run
once in set-up.  An operation carries the call that is timed and a judge
that compares the outcome with an expectation fixed outside the generic
classifier: the class of a model germ known by construction, the formula
or coefficient-oracle route, the exact-angle route for float fold
documents, or "exit 1 with an `error:` line" for malformed documents.

Stratification keeps the cost mix of every run the same across seeds: the
operations are laid out round-robin over verdict classes or document
strata, every class gets the same number of scrambled inputs, and the
degree of a random diffeomorphism cycles through 1, 2, 3 instead of being
drawn, so the share of cheap and costly inputs does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

# class bucket of each verdict value; S1+- and B2+- are pooled
CLASS_OF = {
    "WhitneyUmbrella": "S0", "S1+": "S1", "S1-": "S1", "S2": "S2",
    "B2+": "B2", "B2-": "B2", "H2": "H2", "MoreDegenerate": "MoreDegenerate",
    "Regular": "Regular", "Corank2": "Corank2",
}
CLASSES = ("S0", "S1", "S2", "B2", "H2", "MoreDegenerate", "Regular", "Corank2")

# name: (f1, f2, f3, verdict known by construction)
MODELS = {
    "S0": ("u", "v^2", "u*v", "WhitneyUmbrella"),
    "S1+": ("u", "v^2", "v*(u^2+v^2)", "S1+"),
    "S1-": ("u", "v^2", "v*(-u^2+v^2)", "S1-"),
    "S2": ("u", "v^2", "v*(u^3+v^2)", "S2"),
    "B2+": ("u", "v^2", "v*(u^2+v^4)", "B2+"),
    "B2-": ("u", "v^2", "v*(u^2-v^4)", "B2-"),
    "H2": ("u", "u*v+v^5", "v^3", "H2"),
    "S-degenerate": ("u", "v^2", "v*(u^4+v^2)", "MoreDegenerate"),
    "B-degenerate": ("u", "v^2", "u^2*v", "MoreDegenerate"),
    "H-degenerate": ("u", "u*v", "v^3", "MoreDegenerate"),
    "P-type": ("u", "u*v", "v^4+u^2*v", "MoreDegenerate"),
    "Regular": ("u", "v", "u*v", "Regular"),
    "Corank2": ("u^2", "v^2", "u*v", "Corank2"),
}

ORDER = 6
BOUND = 9                 # criterion-2 recipe: rationals p/q with |p|, q <= 9
PER_CLASS = 84            # scrambled germs per verdict class
TRIAL_PER_CLASS = 56      # invariance trials per verdict class; a trial also draws and acts
DOC_PER_CLASS = 128       # documents per verdict class; a document costs less
TRACED_ROUNDS = 8         # rounds of the op order that a traced run replays
# Two inputs a round for MoreDegenerate, which pools four models, and for B2
# and H2, whose inputs vary most in cost; this also keeps the overall median
# off the gap between the cheap and the costly classes
ROUND_WEIGHT = {"MoreDegenerate": 2, "B2": 2, "H2": 2}

FLOAT_THETA = math.atan2(4, 3)   # float angle whose exact point is (3/5, 4/5)
EXACT_THETA = (Fraction(3, 5), Fraction(4, 5))


@dataclass
class Op:
    """One timed call and the judge of its outcome.

    `judge(outcome)` returns (ok, verdict string); the verdict strings feed
    the verdict digest.  `cls` is the expected class bucket, or None for an
    operation without a verdict (a malformed document).  `input` is the
    germ or document path the call works on, where there is one.
    """

    label: str
    cls: str | None
    run: Callable[[], object]
    judge: Callable[[object], tuple]
    input: object = None


@dataclass
class Corpus:
    ops: list
    warmup: list
    round_size: int       # ops per round of the round-robin order


def model_germs(G):
    return {name: G.jets.MapJet.germ(*(G.docparse.parse_poly(p, ORDER) for p in spec[:3]))
            for name, spec in MODELS.items()}


def _fuzz_config(G, seed):
    return G.fuzz.FuzzConfig(seed=seed, bound=BOUND, degree=3, order=ORDER)


def _scramble(G, cfg, f, rng, degree):
    phi_s = G.fuzz.random_source_diffeo(cfg, rng, degree)
    phi_t = G.fuzz.random_target_diffeo(cfg, rng, degree)
    return G.fuzz.act(f, phi_s, phi_t)


def _classify_judge(expected):
    def judge(classification):
        return classification.verdict.value == expected, str(classification)
    return judge


def class_rounds(groups, per_class):
    """(class, item, j) in round-robin order over the classes.

    groups maps each class to its items.  A round has one entry per class
    and ROUND_WEIGHT[cls] entries for the classes that pool more models;
    a class's entries cycle through its items, and j counts the entries of
    an item so far.
    """
    out = []
    seen = {cls: 0 for cls in CLASSES}
    for _ in range(per_class):
        for cls in CLASSES:
            items = groups[cls]
            for _ in range(ROUND_WEIGHT.get(cls, 1)):
                c = seen[cls]
                seen[cls] += 1
                out.append((cls, items[c % len(items)], c // len(items)))
    return out


def _round_size():
    return sum(ROUND_WEIGHT.get(cls, 1) for cls in CLASSES)


def model_rounds(per_class):
    """(model, j, degree): the j-th input of a model is scrambled at degree 1 + j % 3."""
    groups = {}
    for name, spec in MODELS.items():
        groups.setdefault(CLASS_OF[spec[3]], []).append(name)
    return [(name, j, 1 + j % 3) for _, name, j in class_rounds(groups, per_class)]


def _classify_call(G, g):
    # looked up at call time, so a traced run sees the wrapped function
    return lambda: G.classify.classify(g)[0]


# -- scrambled ----------------------------------------------------------------

def _no_lap():
    pass


def build_scrambled(G, seed, workdir=None, lap=_no_lap) -> Corpus:
    """Model germs scrambled in set-up; one op is one classify() call."""
    cfg = _fuzz_config(G, seed)
    germs = model_germs(G)
    ops = []
    for name, j, degree in model_rounds(PER_CLASS):
        rng = Random("%d|%s|%d" % (seed, name, j))
        g = _scramble(G, cfg, germs[name], rng, degree)
        expected = MODELS[name][3]
        ops.append(Op("%s#%d" % (name, j), CLASS_OF[expected],
                      _classify_call(G, g), _classify_judge(expected), g))
        lap()
    warmup = [Op(name, CLASS_OF[MODELS[name][3]], _classify_call(G, f),
                 _classify_judge(MODELS[name][3])) for name, f in germs.items()]
    return Corpus(ops, warmup, _round_size())


# -- invariance -----------------------------------------------------------------

def build_invariance(G, seed, workdir=None, lap=_no_lap) -> Corpus:
    """Criterion-2 trials; one op draws both diffeos, acts and classifies."""
    cfg = _fuzz_config(G, seed)
    germs = model_germs(G)
    base = {}
    for name, f in germs.items():
        verdict = G.classify.classify(f)[0]
        if verdict.verdict.value != MODELS[name][3]:
            raise RuntimeError("model %s classified as %s" % (name, verdict))
        base[name] = verdict
        lap()

    def trial(name, j, degree):
        f = germs[name]

        def run():
            rng = Random("%d|%s|%d" % (seed, name, j))
            return G.classify.classify(_scramble(G, cfg, f, rng, degree))[0]
        return run

    def judge_for(name):
        def judge(classification):
            return classification == base[name], str(classification)
        return judge

    ops = [Op("%s#%d" % (name, j), CLASS_OF[MODELS[name][3]], trial(name, j, degree),
              judge_for(name))
           for name, j, degree in model_rounds(TRIAL_PER_CLASS)]
    # warm-up trials use an index past the ones the timed loop runs
    warmup = [Op(name, CLASS_OF[MODELS[name][3]], trial(name, len(ops), 3), judge_for(name))
              for name in germs]
    return Corpus(ops, warmup, _round_size())


# -- documents ------------------------------------------------------------------

def _rat(rng, nonzero=False):
    """A small rational p/q with |p| <= 5 and 1 <= q <= 3."""
    while True:
        num = rng.randint(-5, 5)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, 3))


def _poly_v(table):
    """Univariate polynomial text in v."""
    terms = ["(%s)*v^%d" % (c, j) for j, c in sorted(table.items()) if c]
    return " + ".join(terms) if terms else "0"


def _coeff_lines(prefix, table):
    return "".join("%s%d%d = %s\n" % (prefix, i, j, c) for (i, j), c in sorted(table.items()) if c)


def _ruled(G, rng, branch):
    g1 = {j: _rat(rng) for j in range(5)}
    g3 = {j: _rat(rng) for j in range(2, 6)}
    c3 = {j: _rat(rng) for j in range(5)}
    if branch == "WU":
        g3[1] = _rat(rng, nonzero=True)
    elif branch == "S1":
        g1[0] = _rat(rng, nonzero=True)
        g3[2] = _rat(rng, nonzero=True)
    elif branch == "S2":
        del g3[2]
        g1[0] = _rat(rng, nonzero=True)
        c3[0] = _rat(rng, nonzero=True)
        g3[3] = _rat(rng, nonzero=True)
    elif branch == "B":
        g1[0] = _rat(rng, nonzero=True)
        g3[2] = _rat(rng, nonzero=True)
        c3[0] = g3[2] / g1[0]
    elif branch == "H":
        del g1[0]
        g3[2] = _rat(rng, nonzero=True)
    text = "[ruled]\ngamma1 = %s\ngamma3 = %s\nc3 = %s\n" % (_poly_v(g1), _poly_v(g3), _poly_v(c3))
    order = 6
    d = G.applications.RuledData(*(G.docparse.parse_poly(_poly_v(t), order) for t in (g1, g3, c3)))
    return "ruled", text, G.applications.ruled_classify_formulas(d)[0]


def _center(G, rng, branch):
    a = {(i, j): _rat(rng) for i in range(7) for j in range(7)
         if 2 <= i + j <= 6 and (i, j) != (1, 1) and rng.random() < 0.4}
    a[(0, 2)] = _rat(rng, nonzero=True)
    a[(2, 0)] = a[(0, 2)] + _rat(rng, nonzero=True)
    if branch == "S1":
        a[(0, 3)] = _rat(rng, nonzero=True)
    elif branch == "S2":
        a[(0, 3)] = _rat(rng, nonzero=True)
        a[(1, 2)] = _rat(rng)
        a[(2, 1)] = a[(1, 2)] ** 2 / a[(0, 3)]
    elif branch == "H":
        a.pop((0, 3), None)
    m = G.applications.MongeCoeffs(a)
    return "center", "[center]\n" + _coeff_lines("a", m.a), \
        G.applications.center_classify_formulas(m)[0]


def _umbilic_monge(G, rng, branch):
    """Umbilic Monge data whose fold at (3/5, 4/5) lies in the given branch."""
    apps = G.applications
    a = {(i, j): _rat(rng) for i in range(6) for j in range(6)
         if 3 <= i + j <= 5 and rng.random() < 0.5}
    a[(0, 2)] = a[(2, 0)] = _rat(rng, nonzero=True)
    if branch in ("S", "B"):
        # solve the slot the branch's Hessian entry is affine in
        slot, entry = ((2, 1), 0) if branch == "S" else ((0, 3), 1)
        a[slot] = Fraction(0)
        h0 = apps.folded_invariants(apps.MongeCoeffs(a), EXACT_THETA)[entry]
        a[slot] = Fraction(1)
        slope = apps.folded_invariants(apps.MongeCoeffs(a), EXACT_THETA)[entry] - h0
        a[slot] = -h0 / slope
    return apps.MongeCoeffs(a)


def _folded(G, rng, branch, exact):
    m = _umbilic_monge(G, rng, branch)
    expected = G.applications.folded_classify_formulas(m, EXACT_THETA)[0]
    if exact:
        angle = "theta_cos = 3/5\ntheta_sin = 4/5\n"
    else:
        angle = "theta = %.17g\n" % FLOAT_THETA
    return "folded", "[folded]\n" + _coeff_lines("a", m.a) + angle, expected


def _sb_normal(G, rng, branch):
    a = {(i, j): _rat(rng) for i in range(6) for j in range(1, 6)
         if 3 <= i + j <= 5 and rng.random() < 0.6}
    b = {i: _rat(rng) for i in (3, 4, 5) if rng.random() < 0.5}
    if branch == "S1":
        a[(2, 1)] = _rat(rng, nonzero=True)
        a[(0, 3)] = _rat(rng, nonzero=True)
    elif branch == "S2":
        a.pop((2, 1), None)
        a[(0, 3)] = _rat(rng, nonzero=True)
        a[(3, 1)] = _rat(rng, nonzero=True)
    elif branch == "B2":
        # the oracle's B condition is trusted on the b == 0 slice only
        b = {}
        a.pop((0, 3), None)
        a[(2, 1)] = _rat(rng, nonzero=True)
        while 3 * a.get((0, 5), 0) * a[(2, 1)] - 5 * a.get((1, 3), 0) ** 2 == 0:
            a[(0, 5)] = _rat(rng)
            a[(1, 3)] = _rat(rng)
    c = G.oracle.SBNormalCoeffs(a, b)
    text = "[sb-normal]\n" + _coeff_lines("a", c.a) + "".join(
        "b0%d = %s\n" % (i, v) for i, v in sorted(c.b.items()))
    return "oracle", text, G.oracle.skbk_classify(c)


def _h_normal(G, rng, branch):
    a = {(i, j): _rat(rng) for i in range(6) for j in range(6)
         if 3 <= i + j <= 5 and rng.random() < 0.4}
    b = {(i, j): _rat(rng) for i in range(6) for j in range(6)
         if 3 <= i + j <= 5 and rng.random() < 0.4}
    if branch == "H2":
        b[(0, 3)] = _rat(rng, nonzero=True)
    else:
        b.pop((0, 3), None)
    c = G.oracle.HNormalCoeffs(a, b)
    return "oracle", "[h-normal]\n" + _coeff_lines("a", c.a) + _coeff_lines("b", c.b), \
        G.oracle.h2_check(c)


def _map_doc(G, germs, cfg, name, rng):
    """A model germ under a linear A-equivalence, written as a [map] document."""
    g = _scramble(G, cfg, germs[name], rng, 1)
    lines = ["[map]", "order = %d" % ORDER]
    lines += ["f%d = %s" % (k + 1, G.jets.poly_str(c)) for k, c in enumerate(g)]
    return "classify", "\n".join(lines) + "\n", MODELS[name][3]


# malformed documents the CLI rejects with exit 1 and an `error:` line
MALFORMED = [
    ("classify", "[nope]\nf1 = u\n"),
    ("classify", "[map]\nf1 = u\nf2 = v^2\n"),
    ("classify", "[map]\nf1 = u/2\nf2 = v\nf3 = u\n"),
    ("classify", "[map]\norder = 11\nf1 = u\nf2 = v^2\nf3 = u*v\n"),
    ("folded", "[folded]\na02 = 1\na20 = 1\na03 = 1\ntheta_cos = 3/5\n"),
    ("oracle", "[sb-normal]\na21 = 1/0\n"),
    ("classify", "[map]\nf1 = u +\nf2 = v^2\nf3 = u*v\n"),
    ("classify", "f1 = u\n[map]\n"),
    ("classify", "[ruled]\ngamma1 = 1\ngamma3 = v^2\nc3 = 1\n"),
    ("center", "[center]\na02 = 1\na20 = 1\na03 = 1\n"),
    ("classify", "[map]\nf1 = u + 1\nf2 = v^2\nf3 = u*v\n"),
    ("folded", "[folded]\na02 = 1\na20 = 1\na03 = 1\ntheta_cos = 1/2\ntheta_sin = 1/2\n"),
    ("oracle", "[sb-normal]\na30 = 1\n"),
    ("classify", "[map]\nmode = fuzzy\nf1 = u\nf2 = v^2\nf3 = u*v\n"),
]

# inputs the CLI is known to mishandle; run once per documents run, untimed
KNOWN_DEFECTS = [
    ("literal-5000-digits", "classify",
     "[map]\nf1 = %s*u\nf2 = v^2\nf3 = u*v\n" % ("7" * 5000), None),
    ("theta-abc", "folded", "[folded]\na02 = 1\na20 = 1\na03 = 1\na21 = 2\ntheta = abc\n", None),
    ("theta-inf", "folded", "[folded]\na02 = 1\na20 = 1\na03 = 1\na21 = 2\ntheta = inf\n", None),
    ("theta-nan", "folded", "[folded]\na02 = 1\na20 = 1\na03 = 1\na21 = 2\ntheta = nan\n", None),
]
DEFECT_LAMBDA = Fraction(1, 10 ** 5)


def _b2_fold_anchor():
    """The B2- fold anchor of the sign-convention report, exact at (3/5, 4/5)."""
    c, s = EXACT_THETA
    a12, a21, a30 = Fraction(1), Fraction(2), Fraction(3)
    a03 = -(3 * a12 * c * c * s + 3 * a21 * c * s * s + a30 * s ** 3) / c ** 3
    return {(0, 2): Fraction(1), (2, 0): Fraction(1), (0, 3): a03, (1, 2): a12,
            (2, 1): a21, (3, 0): a30, (0, 5): Fraction(2)}


def known_defect_docs():
    """(name, command, text, expected verdict or None for 'must exit 1')."""
    scaled = {k: v * DEFECT_LAMBDA for k, v in _b2_fold_anchor().items()}
    text = "[folded]\n" + _coeff_lines("a", scaled) + "theta = %.17g\n" % FLOAT_THETA
    return KNOWN_DEFECTS + [("b2-fold-lambda-1e-5", "folded", text, "B2-")]


# document strata by the class their verdict is expected in; the formula
# or oracle route decides the actual class of each document
DOC_STRATA = {
    "S0": [("map", "S0"), ("ruled", "WU")],
    "S1": [("map", "S1+"), ("map", "S1-"), ("ruled", "S1"), ("center", "S1"),
           ("folded-exact", "S1"), ("folded-float", "S1"), ("sb-normal", "S1")],
    "S2": [("map", "S2"), ("ruled", "S2"), ("center", "S2"), ("folded-exact", "S"),
           ("folded-float", "S"), ("sb-normal", "S2")],
    "B2": [("map", "B2+"), ("map", "B2-"), ("ruled", "B"), ("folded-exact", "B"),
           ("folded-float", "B"), ("sb-normal", "B2")],
    "H2": [("map", "H2"), ("ruled", "H"), ("h-normal", "H2")],
    "MoreDegenerate": [("map", "S-degenerate"), ("map", "B-degenerate"),
                       ("map", "H-degenerate"), ("map", "P-type"), ("center", "H"),
                       ("h-normal", "HP")],
    "Regular": [("map", "Regular")],
    "Corank2": [("map", "Corank2")],
}
MALFORMED_EVERY = 2       # one malformed document every other round


def run_cli(G, cmd, path):
    """cli.main([cmd, path, '--json']) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = G.cli.main([cmd, str(path), "--json"])
    return code, out.getvalue(), err.getvalue()


def judge_document(expected, outcome):
    """expected: a verdict value, or None for a document that must be rejected."""
    code, out, err = outcome
    if expected is None:
        ok = code == 1 and any(line.startswith("error:") for line in err.splitlines()) \
            and "Traceback" not in err
        return ok, "exit=%s, must exit 1 with an error line" % code
    if code not in (0, 2, 3):
        return False, "exit=%s" % code
    obj = json.loads(out)
    if "generic" in obj:
        got = (obj["formula"]["verdict"], obj["generic"]["verdict"])
        text = "exit=%d formula=%s generic=%s" % (code, got[0], got[1])
    else:
        got = (obj["verdict"],)
        text = "exit=%d %s" % (code, got[0])
    want_code = 2 if expected == "MoreDegenerate" else 0
    return code == want_code and all(v == expected for v in got), text


def _doc_op(G, label, cmd, path, expected):
    return Op(label, CLASS_OF[expected] if expected else None,
              lambda: run_cli(G, cmd, path), lambda outcome: judge_document(expected, outcome),
              path)


def make_document(G, germs, cfg, stratum, rng, k):
    """(command, text, expected verdict value or None) for one stratum draw."""
    kind, branch = stratum
    if kind == "map":
        return _map_doc(G, germs, cfg, branch, rng)
    if kind == "malformed":
        cmd, text = MALFORMED[k % len(MALFORMED)]
        return cmd, text, None
    maker = {"ruled": _ruled, "center": _center, "sb-normal": _sb_normal,
             "h-normal": _h_normal}.get(kind)
    if maker is not None:
        cmd, text, cls = maker(G, rng, branch)
    else:
        cmd, text, cls = _folded(G, rng, branch, kind == "folded-exact")
    return cmd, text, cls.verdict.value


def _write_document(G, germs, cfg, seed, workdir, stratum, k):
    kind, branch = stratum
    rng = Random("%d|doc|%s|%s|%d" % (seed, kind, branch, k))
    cmd, text, expected = make_document(G, germs, cfg, stratum, rng, k)
    name = "%s-%s-%d" % (kind, branch.replace("+", "p").replace("-", "m"), k)
    path = workdir / (name + ".germ")
    path.write_text(text, encoding="utf-8")
    return _doc_op(G, name, cmd, path, expected)


def build_documents(G, seed, workdir: Path, lap=_no_lap) -> Corpus:
    """Document files written in set-up; one op is one in-process CLI call."""
    cfg = _fuzz_config(G, seed)
    germs = model_germs(G)
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    round_size = _round_size()
    for pos, (_, stratum, j) in enumerate(class_rounds(DOC_STRATA, DOC_PER_CLASS)):
        rnd, first = divmod(pos, round_size)
        if first == 0 and rnd % MALFORMED_EVERY == 0:
            ops.append(_write_document(G, germs, cfg, seed, workdir, ("malformed", "-"),
                                       rnd // MALFORMED_EVERY))
        ops.append(_write_document(G, germs, cfg, seed, workdir, stratum, j))
        lap()
    return Corpus(ops, ops[:round_size + 1], round_size)


def probe_known_defects(G, workdir: Path):
    """Run each known-defect input once; returns [(name, ok, what happened)]."""
    workdir.mkdir(parents=True, exist_ok=True)
    results = []
    for name, cmd, text, expected in known_defect_docs():
        path = workdir / ("defect-%s.germ" % name)
        path.write_text(text, encoding="utf-8")
        try:
            ok, text_out = judge_document(expected, run_cli(G, cmd, path))
        except Exception as error:  # a traceback is the defect being recorded
            ok, text_out = False, "raised %s" % type(error).__name__
        results.append((name, ok, text_out))
    return results


WORKLOADS = {
    "scrambled": build_scrambled,
    "invariance": build_invariance,
    "documents": build_documents,
}
