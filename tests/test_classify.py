import importlib
import itertools
import time
from random import Random

import pytest

from germclass.classify import (NORMAL_FORM_VERDICTS, Verdict, classify,
                                normal_forms, phi, second_derivatives_phi)
from germclass import frames, jets
from germclass.errors import GermError, OrderExhaustedError, PreconditionError
from germclass.frames import (Words, b3_adapt, h2_adapt, h4_adapt, linear_normalize,
                              s3_adapt, sb2_adapt)
from germclass.jets import Jet2, MapJet, PolyMap, det3
from germclass.vfields import apply, apply_word
from util import germ, linear_map, random_branch_germ, rational, scramble


def test_golden_normal_forms():
    for name, f in normal_forms().items():
        cls, _ = classify(f)
        assert cls.verdict is NORMAL_FORM_VERDICTS[name], name


def test_certificate_anchor_values():
    _, cert = classify(normal_forms()["S2"])
    assert cert.invariants["s2_det"] == -12
    _, cert = classify(normal_forms()["B2+"])
    assert cert.invariants["b2_value"] == 2880
    _, cert = classify(normal_forms()["B2-"])
    assert cert.invariants["b2_value"] == -2880
    _, cert = classify(normal_forms()["H2"])
    assert cert.invariants["h2_det"] == 720


def test_phi_expansion_s1():
    f = germ("u", "v^2", "u^2*v+v^3")
    g, _ = linear_normalize(f)
    pair = sb2_adapt(g).words.pair
    p = phi(g, pair)
    assert p.coeff(2, 0) == -2
    assert p.coeff(0, 2) == 6
    # phi reads f to degree 3: order 3 is enough and order 2 is not
    assert phi(g.truncate(3), pair) == p.truncate(1)
    with pytest.raises(OrderExhaustedError, match="phi needs a jet of order >= 3"):
        phi(g.truncate(2), pair)
    assert second_derivatives_phi(g, pair) == (-4, 0, 0, 12)


def test_phi_second_derivatives_examples():
    cases = {
        "u^2*v+v^3": (-4, 0, 0, 12),
        "-1*u^2*v+v^3": (4, 0, 0, 12),
        "u^3*v+v^3": (0, 0, 0, 12),
    }
    for f3, expected in cases.items():
        f = germ("u", "v^2", f3)
        pair = sb2_adapt(f).words.pair
        assert second_derivatives_phi(f, pair) == expected


def test_phi_linear_part_nonzero_for_cross_cap():
    # sb2_adapt rejects the cross cap; phi itself is defined for any pair,
    # and d phi_0 != 0 is exactly the cross-cap condition
    from reference import coordinate_pair

    f = germ("u", "v^2", "u*v")
    p = phi(f, coordinate_pair(6))
    assert p.coeff(1, 0) == -2
    assert p.coeff(0, 1) == 0


def test_regular_and_corank2():
    assert classify(germ("u", "v", "u*v"))[0].verdict is Verdict.REGULAR
    assert classify(germ("u^2", "v^2", "u*v"))[0].verdict is Verdict.CORANK2


def test_more_degenerate_reasons():
    cls, _ = classify(germ("u", "u^2*v", "u^3*v"))
    assert cls.verdict is Verdict.MORE_DEGENERATE
    assert "2-jet" in cls.reason
    cls, _ = classify(germ("u", "v^2", "u^4*v+v^3"))
    assert cls.verdict is Verdict.MORE_DEGENERATE
    assert "S3 or beyond" in cls.reason
    cls, _ = classify(germ("u", "v^2", "u^2*v"))
    assert cls.verdict is Verdict.MORE_DEGENERATE
    assert "B3 or beyond" in cls.reason
    cls, _ = classify(germ("u", "u*v", "v^4"))
    assert cls.verdict is Verdict.MORE_DEGENERATE
    assert "P-type" in cls.reason
    cls, _ = classify(germ("u", "u*v+v^6", "v^3"))
    assert cls.verdict is Verdict.MORE_DEGENERATE
    assert "H3 or beyond" in cls.reason
    cls, _ = classify(germ("u", "v^2", "v^4"))
    assert cls.verdict is Verdict.MORE_DEGENERATE


def test_order_too_low_reports_word():
    with pytest.raises(OrderExhaustedError, match="eeeee"):
        classify(germ("u", "v^2", "u^2*v+v^5", order=4))


def test_mixed_hessian_vanishes_on_random_sb_germs():
    rng = Random(7)
    for _ in range(30):
        f = random_branch_germ(rng, "SB")
        g, _ = linear_normalize(f)
        try:
            pair = sb2_adapt(g).words.pair
        except Exception:
            continue
        _, m1, m2, _ = second_derivatives_phi(g, pair)
        assert m1 == 0 and m2 == 0


def test_eta2phi_identity():
    # on SB-2 pairs xi^2 phi(0) = det(xi f, xi^2 eta f, eta^2 f)(0) and
    # eta^2 phi(0) = det(xi f, eta^2 f, eta^3 f)(0)
    rng = Random(11)
    for _ in range(30):
        f = random_branch_germ(rng, "SB")
        g, _ = linear_normalize(f)
        pair = sb2_adapt(g).words.pair
        a, _, _, c = second_derivatives_phi(g, pair)
        xif = apply(pair.xi, g)
        xxef = apply_word([pair.xi, pair.xi, pair.eta], g)
        eta2f = apply_word([pair.eta, pair.eta], g)
        eta3f = apply_word([pair.eta] * 3, g)
        assert a == det3((xif.at0(), xxef.at0(), eta2f.at0()))
        assert c == det3((xif.at0(), eta2f.at0(), eta3f.at0()))


HESSIAN = ("xi2phi", "hess_mixed_xi_eta", "hess_mixed_eta_xi", "eta2phi")


def test_recorded_phi_hessian_matches_jet_expansion():
    rng = Random("phi-hessian")
    germs = [f for name, f in normal_forms().items() if name not in ("S0", "H2")]
    germs += [random_branch_germ(rng, branch) for branch in ("SB", "S", "B") for _ in range(15)]
    for f in germs:
        _, cert = classify(f)
        g = cert.normalized
        expected = second_derivatives_phi(g, sb2_adapt(g).words.pair)
        assert tuple(cert.invariants[name] for name in HESSIAN) == expected
        names = [name for name, _ in cert.trace]
        start = names.index("xi2phi")
        assert tuple(names[start:start + 4]) == HESSIAN


def test_tampered_sb2_pair_fails_the_mixed_hessian_check(monkeypatch):
    sb_defect = frames._sb_defect

    def tampered(f):
        alpha, beta = sb_defect(f)
        return alpha, beta + 1

    monkeypatch.setattr(frames, "_sb_defect", tampered)
    rng = Random("tampered-beta")
    germs = [normal_forms()[name] for name in ("S1+", "S2", "B2-")]
    germs += [random_branch_germ(rng, "SB") for _ in range(5)]
    for f in germs:
        with pytest.raises(GermError, match="mixed phi Hessian"):
            classify(f)


def test_classify_multiplies_no_jets(monkeypatch):
    """Every criterion is read from vectors at 0: no jet product on the classify path."""
    rng = Random("no-jet-products")
    models = normal_forms()
    names = sorted(models)
    germs = list(models.values())
    germs += [scramble(models[names[k % len(names)]], rng) for k in range(20)]
    products = []
    mul = Jet2.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Jet2, "__mul__", counted)
    monkeypatch.setattr(Jet2, "__rmul__", counted)
    for f in germs:
        classify(f)
    assert not products


# (SB-2 builds, H-2 builds, frames.apply calls) per classify of each model germ;
# the words are read as functionals, and `apply` runs only in the forward checks
# of the S-3 and H-4 corrections: the 8 suffixes of xxe, xex, exx and the 4 of
# eeee, ee, each once
PARENT_BUILDS = {
    "S0": (0, 0, 0),
    "S1+": (1, 0, 0),
    "S1-": (1, 0, 0),
    # s3_adapt still builds its own SB-2 pair: perfbench/tests/test_perfbench.py::
    # test_tracer_wraps_every_binding_site pins two sb2_adapt calls per S2 classify
    "S2": (2, 0, 8),
    "B2+": (1, 0, 0),
    "B2-": (1, 0, 0),
    "H2": (0, 1, 4),
}


def test_b3_and_h4_extend_the_parent_build(monkeypatch):
    """A B2 or H2 classify builds its SB-2 or H-2 pair once; B-3 and H-4 extend it."""
    calls = dict.fromkeys(["sb2_adapt", "h2_adapt", "apply"], 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # the package re-exports the function `classify` under the submodule's name
    classify_module = importlib.import_module("germclass.classify")
    for name in ("sb2_adapt", "h2_adapt"):
        wrapped = counted(name, getattr(frames, name))
        monkeypatch.setattr(frames, name, wrapped)
        monkeypatch.setattr(classify_module, name, wrapped)
    monkeypatch.setattr(frames, "apply", counted("apply", frames.apply))
    for name, f in normal_forms().items():
        calls.update(dict.fromkeys(calls, 0))
        classify(f)
        assert (calls["sb2_adapt"], calls["h2_adapt"], calls["apply"]) == PARENT_BUILDS[name], name


# word values at 0 that one classify computes: B-3 and H-4 reuse the values
# classify read on the SB-2 or H-2 table, and S-3 reads its own SB-2 table
WORD_VALUES = {"S0": 0, "S1+": 6, "S1-": 6, "S2": 13, "B2+": 11, "B2-": 11, "H2": 7}


def test_classify_applies_each_word_once(monkeypatch):
    """A classify builds each prefix functional once per table, computes each
    word's value at 0 once per table, and applies each suffix of the forward
    check words once."""
    tables = []
    built = []
    read = []
    applies = []

    class Recorded(Words):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    after = jets.Functional.after
    read_values = jets.Functional.read

    def counted_after(self, a, b):
        built.append(self)
        return after(self, a, b)

    def counted_read(self, vector):
        read.append(self)
        return read_values(self, vector)

    def counted(*args):
        applies.append(args[2])
        return apply(*args)

    monkeypatch.setattr(frames, "Words", Recorded)
    monkeypatch.setattr(jets.Functional, "after", counted_after)
    monkeypatch.setattr(jets.Functional, "read", counted_read)
    monkeypatch.setattr(frames, "apply", counted)
    rng = Random("applies-once")
    germs = list(normal_forms().items())
    germs += [("random " + branch, random_branch_germ(rng, branch))
              for branch in ("S1", "S", "S2", "B", "B2", "SB", "HP2", "H", "H2", "WU")
              for _ in range(3)]
    levels = set()
    for name, f in germs:
        tables.clear()
        built.clear()
        read.clear()
        applies.clear()
        cls, cert = classify(f)
        # every table holds the evaluation at 0 as the empty word, built by no step
        assert len(built) == sum(len(t._functionals) - 1 for t in tables), name
        # a functional belongs to one word of one table
        assert len(read) == len(set(map(id, read))), name
        if name in WORD_VALUES:
            assert len(read) == WORD_VALUES[name], name
        assert len(applies) == len(set(applies)), name
        # the levels with checks whose pair the classify built, by their frame keys
        checked = [level for level, key in (("s3", "corr_xi_uv"), ("h4", "corr_d_v"))
                   if key in cert.frame]
        suffixes = {w[k:] + " f" for level in checked for w in frames.CHECKS[level]
                    for k in range(len(w))}
        assert set(applies) == suffixes, name
        levels.update(checked)
    assert levels == set(frames.CHECKS)


def test_forward_checks_catch_a_faulty_transpose(monkeypatch):
    """The S-3 and H-4 corrections are verified by forward `apply`, not by the
    functionals that computed them: a transpose step that adds f_u(0) to every
    read of length >= 3 leaves each guard determinant with its xi f column as
    it is, but moves the solved corrections, and the checks refuse them."""
    after = jets.Functional.after

    def faulty(self, a, b):
        out = after(self, a, b)
        if max(map(sum, out._num)) >= 3:
            out._num[(1, 0)] = out._num.get((1, 0), 0) + out._den
        return out

    models = normal_forms()
    for name in ("S2", "H2"):
        assert classify(models[name])[0].verdict is NORMAL_FORM_VERDICTS[name]
    monkeypatch.setattr(jets.Functional, "after", faulty)
    with pytest.raises(PreconditionError, match="S-3 correction failed verification"):
        classify(models["S2"])
    with pytest.raises(PreconditionError, match="H-4 correction failed verification"):
        classify(models["H2"])


def test_three_way_nonvanishing_equivalence():
    rng = Random(13)
    for _ in range(30):
        f = random_branch_germ(rng, "SB")
        g, _ = linear_normalize(f)
        pair = sb2_adapt(g).words.pair
        xi, eta = pair.xi, pair.eta
        xif0 = apply(xi, g).at0()
        eta2f0 = apply_word([eta, eta], g).at0()
        values = [det3((xif0, apply_word(word, g).at0(), eta2f0))
                  for word in ([xi, xi, eta], [xi, eta, xi], [eta, xi, xi])]
        zeros = [v == 0 for v in values]
        assert all(zeros) or not any(zeros)


def test_b_criterion_word_freedom():
    rng = Random(17)
    for _ in range(25):
        f = random_branch_germ(rng, "B")
        g, _ = linear_normalize(f)
        pair = b3_adapt(sb2_adapt(g)).words.pair
        xi, eta = pair.xi, pair.eta
        xif0 = apply(xi, g).at0()
        eta2f0 = apply_word([eta, eta], g).at0()

        def slot(words):
            return {det3((xif0, apply_word(list(w), g).at0(), eta2f0)) for w in words}

        quartic = slot([(xi, eta, eta, eta), (eta, xi, eta, eta),
                        (eta, eta, xi, eta), (eta, eta, eta, xi)])
        assert len(quartic) == 1
        cubic = slot([(xi, xi, eta), (xi, eta, xi), (eta, xi, xi)])
        assert len(cubic) == 1


def test_invariance_under_linear_source_maps():
    rng = Random(19)
    forms = normal_forms()
    for name, f in forms.items():
        base = classify(f)[0]
        for _ in range(50):
            while True:
                m = [[rational(rng), rational(rng)], [rational(rng), rational(rng)]]
                if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                    break
            from germclass.jets import compose_map
            g = compose_map(f, linear_map((tuple(m[0]), tuple(m[1]))))
            assert classify(g)[0] == base, name


def test_invariance_under_random_actions_smoke():
    rng = Random(23)
    for name, f in normal_forms().items():
        base = classify(f)[0]
        for _ in range(5):
            assert classify(scramble(f, rng))[0] == base, name


def test_certificate_reproducible_from_normalized_germ():
    f = scramble(normal_forms()["S2"], Random(29))
    cls, cert = classify(f)
    redone, recert = classify(cert.normalized)
    assert redone == cls
    assert recert.invariants == cert.invariants


def test_golden_suite_under_one_second():
    start = time.monotonic()
    for name, f in normal_forms().items():
        classify(f)
    assert time.monotonic() - start < 1.0


def test_classify_other_orders():
    for order in (5, 8, 10):
        f = germ("u", "v^2", "v*(u^3+v^2)", order=order)
        cls, cert = classify(f)
        assert cls.verdict is Verdict.S2
        assert cert.invariants["s2_det"] == -12


# -- truncation is exact ------------------------------------------------------

WORDS_TO_5 = ["".join(w) for n in range(1, 6) for w in itertools.product("xe", repeat=n)]
BRANCHES = ["S1", "S", "S2", "B", "B2", "SB", "HP2", "H", "H2", "WU"]
CONSTRUCTORS = {"sb2": sb2_adapt, "s3": s3_adapt, "b3": lambda g: b3_adapt(sb2_adapt(g)),
                "h2": h2_adapt, "h4": lambda g: h4_adapt(h2_adapt(g))}


@pytest.mark.parametrize("branch", BRANCHES)
def test_truncation_is_exact(branch):
    """The criteria read f only to degree 5, and a word read at 0 only to its length.

    Each level's production table, built for its declared reads, agrees at 0
    with full-order `apply_word` on every read, and so does a table of all
    words up to length 5.
    """
    rng = Random("truncation|" + branch)
    for _ in range(2):
        f = random_branch_germ(rng, branch, order=8)
        results = [classify(h) for h in (f, f.truncate(6), f.truncate(5))]
        for cls, cert in results[1:]:
            assert cls == results[0][0]
            assert cert.invariants == results[0][1].invariants
            assert cert.frame == results[0][1].frame
        g, _ = linear_normalize(f)
        for level, constructor in CONSTRUCTORS.items():
            try:
                build = constructor(g)
            except PreconditionError:
                continue
            pair = build.words.pair
            fields = {"x": pair.xi, "e": pair.eta}
            for words, reads in ((build.words, frames.READS[level]),
                                 (Words(g, pair, WORDS_TO_5), WORDS_TO_5)):
                for word in reads:
                    full = apply_word([fields[letter] for letter in word], g)
                    assert words.at0(word) == full.at0(), (level, word)


@pytest.mark.parametrize("branch", BRANCHES)
def test_word_functionals_match_forward_words(branch):
    """The differential test of the functionals: at orders 5 to 8, three germs
    each, every level's reads and check words, read by `Words.scaled` on the
    level's own pair, equal `apply_word` at 0 exactly; and on f cut one below a
    word's length, the read raises naming that word."""
    rng = Random("functionals|" + branch)
    levels = set()
    for order in [5, 6, 7, 8] * 3:
        g, _ = linear_normalize(random_branch_germ(rng, branch, order=order))
        for level, constructor in CONSTRUCTORS.items():
            try:
                pair = constructor(g).words.pair
            except PreconditionError:
                continue
            levels.add(level)
            fields = {"x": pair.xi, "e": pair.eta}
            words = frames.READS[level] + frames.CHECKS.get(level, ())
            table = Words(g, pair, words)
            for word in words:
                assert table.at0(word) == apply_word([fields[w] for w in word], g).at0(), (
                    level, word)
                short = Words(g.truncate(len(word) - 1), pair, words)
                with pytest.raises(OrderExhaustedError) as info:
                    short.scaled(word)
                assert str(info.value) == "derivative %s f exhausts the truncation order" % word
    # the Whitney umbrella has no adapted pair
    assert bool(levels) == (branch != "WU"), branch


# the largest degree of f that each verdict reads: its longest word, or the
# degree-1 and degree-2 partials at 0
READ_DEGREE = {Verdict.REGULAR: 1, Verdict.CORANK2: 1, Verdict.WHITNEY_UMBRELLA: 2,
               Verdict.S1_PLUS: 3, Verdict.S1_MINUS: 3, Verdict.S2: 4,
               Verdict.B2_PLUS: 5, Verdict.B2_MINUS: 5, Verdict.H2: 5}
MORE_DEGENERATE_READ_DEGREE = {"2-jet equivalent": 2, "fully degenerate": 3, "P-type": 3,
                               "S3 or beyond": 4, "B3 or beyond": 5, "H3 or beyond": 5}


def _read_degree(cls):
    """The verdict's read degree, and the key of READ_DEGREE or of
    MORE_DEGENERATE_READ_DEGREE that gave it."""
    if cls.verdict is not Verdict.MORE_DEGENERATE:
        return READ_DEGREE[cls.verdict], cls.verdict
    ((phrase, degree),) = [(phrase, d) for phrase, d in MORE_DEGENERATE_READ_DEGREE.items()
                           if phrase in cls.reason]
    return degree, phrase


def _decision(cls, cert):
    """Everything a verdict was decided on, types included; not the order or the
    normalized germ, which follow the input's order."""
    return repr((cls, cert.trace, cert.invariants, cert.frame, cert.normalization))


MODEL_GERMS = {"Regular": ("u", "v", "u*v"), "Corank2": ("u^2", "v^2", "u*v"),
               "2-jet": ("u", "u^2*v", "u^3*v")}


def test_the_read_degree_is_enough_and_needed():
    """No order gate: a jet of the verdict's read degree d gives the verdict of the
    order-8 germ, bit for bit, and a jet of order d - 1 raises.  25 scrambled
    germs per branch, and per model germ, reach every row of the table."""
    seen = set()
    for branch in BRANCHES + sorted(MODEL_GERMS):
        rng = Random("read-degree|" + branch)
        for _ in range(25):
            if branch in MODEL_GERMS:
                f = scramble(germ(*MODEL_GERMS[branch], order=8), rng, order=8)
            else:
                f = random_branch_germ(rng, branch, order=8)
            cls, cert = classify(f)
            degree, row = _read_degree(cls)
            seen.add(row)
            assert _decision(*classify(f.truncate(degree))) == _decision(cls, cert), branch
            with pytest.raises(OrderExhaustedError):
                classify(f.truncate(degree - 1))
    assert seen == set(READ_DEGREE) | set(MORE_DEGENERATE_READ_DEGREE)


def test_every_declared_read_is_read(monkeypatch):
    """No dead declarations: each level's reads are all read on some branch, and
    each of its check words is checked, by the forward evaluator alone."""
    read = set()
    checked = set()

    class Recorded(Words):
        def __init__(self, f, pair, reads):
            super().__init__(f, pair, reads)
            self.level = next(k for k, v in frames.READS.items() if v is reads)

        def scaled(self, *words):
            read.update((self.level, w) for w in words)
            return super().scaled(*words)

    forward_at0 = frames.forward_at0

    def recorded(f, pair, words):
        checked.update((next(k for k, v in frames.CHECKS.items() if v is words), w)
                       for w in words)
        return forward_at0(f, pair, words)

    monkeypatch.setattr(frames, "Words", Recorded)
    monkeypatch.setattr(frames, "forward_at0", recorded)
    rng = Random("declared-reads")
    for branch in BRANCHES:
        for _ in range(3):
            classify(random_branch_germ(rng, branch))
    assert read == {(level, w) for level, reads in frames.READS.items() for w in reads}
    assert checked == {(level, w) for level, words in frames.CHECKS.items() for w in words}
    assert not read & checked


def _refuse(*_, **__):
    raise AssertionError("the classify path reached the general substitution")


def test_classify_makes_no_general_substitution(monkeypatch):
    """`linear_normalize` composes by closed forms: no `jets._substitute` on the classify path."""
    rng = Random("no-substitution")
    germs = list(normal_forms().values())
    germs += [random_branch_germ(rng, branch) for branch in BRANCHES for _ in range(3)]
    before = [classify(f) for f in germs]
    monkeypatch.setattr(jets, "_substitute", _refuse)
    for f, (cls, cert) in zip(germs, before):
        got_cls, got_cert = classify(f)
        assert (got_cls, got_cert) == (cls, cert)
        assert ([list(c.items()) for c in got_cert.normalized]
                == [list(c.items()) for c in cert.normalized])


def test_words_make_no_truncated_copies(monkeypatch):
    """Every production level reads its words with no lower-order `MapJet.truncate`."""
    truncate = MapJet.truncate

    def refused(self, order):
        assert order >= self.order, "a truncated copy at order %d of %d" % (order, self.order)
        return truncate(self, order)

    monkeypatch.setattr(MapJet, "truncate", refused)
    rng = Random("no-truncated-copies")
    levels = set()
    for branch in BRANCHES:
        for _ in range(2):
            f = random_branch_germ(rng, branch)
            classify(f)
            g, _ = linear_normalize(f)
            for level, constructor in CONSTRUCTORS.items():
                try:
                    build = constructor(g)
                except PreconditionError:
                    continue
                build.words.scaled(*frames.READS[level])
                levels.add(level)
    assert levels == set(frames.READS)


def _refuse_to_build(*_, **__):
    raise AssertionError("classify built a map or formatted a value")


def test_classify_builds_no_map_and_formats_nothing(monkeypatch):
    """The normalization is a matrix and the certificate holds exact values:
    no `PolyMap` (either constructor) and no `fmt_scalar` on the classify path."""
    classify_module = importlib.import_module("germclass.classify")
    scalars = importlib.import_module("germclass.scalars")
    rng = Random("builds-nothing")
    germs = list(normal_forms().values()) + [germ("u", "v", "0"), germ("u^2", "v^2", "u*v")]
    germs += [random_branch_germ(rng, branch) for branch in BRANCHES for _ in range(3)]
    before = [classify(f) for f in germs]
    monkeypatch.setattr(PolyMap, "_build", _refuse_to_build)
    monkeypatch.setattr(classify_module, "fmt_scalar", _refuse_to_build)
    monkeypatch.setattr(scalars, "fmt_scalar", _refuse_to_build)
    for f, (cls, cert) in zip(germs, before):
        assert classify(f) == (cls, cert)


def test_value_past_the_print_limit_is_classified():
    """A certificate value past Python's 4300-digit print limit is computed and
    kept exact; only printing it fails."""
    n = 10 ** 4400 + 1
    f = MapJet.germ(Jet2.variable("u", 6), Jet2(6, {(0, 2): 1}), Jet2(6, {(1, 1): n}))
    cls, cert = classify(f)
    assert cls.verdict is Verdict.WHITNEY_UMBRELLA
    assert cert.invariants["whitney_det"] == 2 * n
    with pytest.raises(PreconditionError, match="too many digits"):
        cert.summary(cls)
