"""Acceptance suite: one test per criterion, at full stated volume.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  The volumes (500 actions per model germ, 200 germs per
branch, 100 pushforward instances per item, 300 oracle samples) are the
contract, not a smoke-test default.
"""

import time
from pathlib import Path
from random import Random

import pytest

from germclass.classify import (NORMAL_FORM_VERDICTS, Verdict, classify,
                                normal_forms, second_derivatives_phi)
from germclass.errors import PreconditionError
from germclass.frames import (b3_adapt, h2_adapt, h4_adapt, linear_normalize,
                              s3_adapt, sb2_adapt)
from germclass.fuzz import (FuzzConfig, check_target_pushforward,
                            pushforward_identity_holds, random_target_diffeo,
                            run_invariance)
from germclass.jets import PolyMap3, det3
from germclass.vfields import apply, apply_word, d_du, d_dv
from util import germ, random_branch_germ, random_h_coeffs, random_sb_coeffs


def report(number, label):
    print("\n[acceptance] criterion %d (%s): PASS" % (number, label))


def test_criterion_1_normal_form_golden_suite():
    start = time.monotonic()
    certs = {}
    for name, f in normal_forms().items():
        cls, cert = classify(f)
        assert cls.verdict is NORMAL_FORM_VERDICTS[name], name
        certs[name] = cert
    elapsed = time.monotonic() - start
    assert certs["S2"].invariants["s2_det"] == -12
    assert certs["B2+"].invariants["b2_value"] == 2880
    assert certs["H2"].invariants["h2_det"] == 720
    assert elapsed < 1.0, "golden suite took %.3fs" % elapsed
    report(1, "normal-form golden suite, < 1 s")


def test_criterion_2_a_equivalence_invariance():
    start = time.monotonic()
    cfg = FuzzConfig(seed=2024, trials=500, bound=9, degree=3)
    results = run_invariance(cfg, normal_forms())
    for name, r in results.items():
        assert r["ok"] == r["trials"], (name, r["failures"][:3])
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, "invariance suite took %.1fs" % elapsed
    report(2, "3500 random A-actions preserve all verdicts, %.0fs" % elapsed)


def test_criterion_3_frame_invariant_suite():
    rng = Random(33)

    # (a) SB-2 mixed Hessian entries vanish; (b) xi^2 phi(0) equals
    # det(xi f, xi^2 eta f, eta^2 f)(0) and eta^2 phi(0) equals
    # det(xi f, eta^2 f, eta^3 f)(0); (c) three-way nonvanishing equivalence.
    for _ in range(200):
        g, _ = linear_normalize(random_branch_germ(rng, "SB"))
        pair = sb2_adapt(g).pair
        a, m1, m2, c = second_derivatives_phi(g, pair)
        assert m1 == 0 and m2 == 0
        xi, eta = pair.xi, pair.eta
        xif0 = apply(xi, g).at0()
        eta2f0 = apply_word([eta, eta], g).at0()
        eta3f0 = apply_word([eta] * 3, g).at0()
        assert a == det3((xif0, apply_word([xi, xi, eta], g).at0(), eta2f0))
        assert c == det3((xif0, eta2f0, eta3f0))
        three = [det3((xif0, apply_word(w, g).at0(), eta2f0))
                 for w in ([xi, xi, eta], [xi, eta, xi], [eta, xi, xi])]
        zeros = [v == 0 for v in three]
        assert all(zeros) or not any(zeros)

    # (d) exact word freedom in both B2 determinant slots.
    for _ in range(200):
        g, _ = linear_normalize(random_branch_germ(rng, "B"))
        pair = b3_adapt(sb2_adapt(g)).pair
        xi, eta = pair.xi, pair.eta
        xif0 = apply(xi, g).at0()
        eta2f0 = apply_word([eta, eta], g).at0()
        quartic = {det3((xif0, apply_word(list(w), g).at0(), eta2f0))
                   for w in ((xi, eta, eta, eta), (eta, xi, eta, eta),
                             (eta, eta, xi, eta), (eta, eta, eta, xi))}
        assert len(quartic) == 1
        cubic = {det3((xif0, apply_word(list(w), g).at0(), eta2f0))
                 for w in ((xi, xi, eta), (xi, eta, xi), (eta, xi, xi))}
        assert len(cubic) == 1

    # (e) every frame constructor's defining vanishing conditions, exactly.
    suites = [
        ("SB", sb2_adapt, ("xe", "ex")),
        ("S", s3_adapt, ("xe", "ex", "xxe", "xex", "exx")),
        ("B", lambda g: b3_adapt(sb2_adapt(g)), ("xe", "ex", "eee")),
        ("HP2", h2_adapt, ("ee",)),
        ("H", lambda g: h4_adapt(h2_adapt(g)), ("ee", "eeee")),
    ]
    for branch, constructor, patterns in suites:
        for _ in range(200):
            g, _ = linear_normalize(random_branch_germ(rng, branch))
            pair = constructor(g).pair
            fields = {"x": pair.xi, "e": pair.eta}
            for pattern in patterns:
                word = [fields[ch] for ch in pattern]
                assert all(v == 0 for v in apply_word(word, g).at0()), (branch, pattern)
    report(3, "frame and Hessian invariants (a)-(e), 200 random germs per branch")


def test_criterion_4_pushforward_identities():
    rng = Random(44)
    cfg = FuzzConfig(seed=0, bound=5, degree=3)

    def phi():
        return random_target_diffeo(cfg, rng, rng.randint(1, 3))

    counts = dict.fromkeys(["T-1", "T-2", "T-3", "T-4", "T-5", "T-6", "T-7"], 0)
    xi, eta = d_du(6), d_dv(6)

    while counts["T-1"] < 100 or counts["T-2"] < 100:
        f = random_branch_germ(rng, rng.choice(["SB", "S", "B", "HP2", "H"]))
        g, _ = linear_normalize(f)
        assert check_target_pushforward(g, phi(), [rng.choice([xi, eta])])
        counts["T-1"] += 1
        assert check_target_pushforward(g, phi(), rng.choice([[xi, eta], [eta, xi]]))
        counts["T-2"] += 1

    from germclass.jets import Jet2
    from germclass.vfields import VectorFieldJet

    other_null = VectorFieldJet(Jet2(6, {(1, 0): 1}), Jet2.const(1, 6))
    while counts["T-3"] < 100:
        g, _ = linear_normalize(random_branch_germ(rng, "HP2"))
        pair = h2_adapt(g).pair
        assert check_target_pushforward(g, phi(), [pair.eta, pair.xi, pair.eta])
        assert check_target_pushforward(g, phi(), [pair.eta, other_null, pair.eta])
        counts["T-3"] += 2

    while counts["T-4"] < 100:
        g, _ = linear_normalize(random_branch_germ(rng, "SB"))
        pair = sb2_adapt(g).pair
        words = ([pair.xi, pair.xi, pair.eta], [pair.xi, pair.eta, pair.xi],
                 [pair.eta, pair.xi, pair.xi])
        assert check_target_pushforward(g, phi(), list(rng.choice(words)))
        counts["T-4"] += 1

    while counts["T-5"] < 100:
        g, _ = linear_normalize(random_branch_germ(rng, "S"))
        pair = s3_adapt(g).pair
        spots = [[pair.eta if k == j else pair.xi for k in range(4)] for j in range(4)]
        assert check_target_pushforward(g, phi(), rng.choice(spots))
        counts["T-5"] += 1

    while counts["T-6"] < 100:
        g, _ = linear_normalize(random_branch_germ(rng, "B"))
        pair = b3_adapt(sb2_adapt(g)).pair
        spots = [[pair.xi if k == j else pair.eta for k in range(4)] for j in range(4)]
        assert check_target_pushforward(g, phi(), rng.choice(spots))
        counts["T-6"] += 1

    while counts["T-7"] < 100:
        g, _ = linear_normalize(random_branch_germ(rng, "H"))
        pair = h2_adapt(g).pair
        assert check_target_pushforward(g, phi(), [pair.eta] * 5)
        counts["T-7"] += 1

    # documented negative control: hypotheses matter
    f = germ("u", "v^2", "u*v")
    quad = PolyMap3(({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1, (2, 0, 0): 1}), 6)
    assert not pushforward_identity_holds(f, quad, [d_du(6), d_du(6)])
    with pytest.raises(PreconditionError):
        check_target_pushforward(f, quad, [d_du(6), d_du(6)])
    report(4, "pushforward identities, 100 instances per item + negative control")


def test_criterion_5_application_agreement():
    from germclass.applications import (MongeCoeffs, center_classify_formulas,
                                        center_map, folded_map,
                                        ruled_classify_formulas, ruled_map)
    from germclass.oracle import skbk_classify
    from test_applications import (_branch_ruled, _random_center,
                                   _read_off_sb_coeffs)

    start = time.monotonic()
    rng = Random(55)
    for branch in ("WU", "S1", "S2", "B", "H"):
        for _ in range(200):
            d = _branch_ruled(rng, branch)
            formula, _ = ruled_classify_formulas(d)
            generic, _ = classify(ruled_map(d))
            assert formula.verdict == generic.verdict, branch

    never = (Verdict.WHITNEY_UMBRELLA, Verdict.B2_PLUS, Verdict.B2_MINUS, Verdict.H2)
    for _ in range(200):
        m = _random_center(rng, rng.choice(["S1", "S2", "H"]))
        formula, _ = center_classify_formulas(m)
        generic, _ = classify(center_map(m))
        assert formula.verdict == generic.verdict
        assert generic.verdict not in never

    from util import rational

    for _ in range(200):
        a = {(i, j): rational(rng) for i in range(6) for j in range(6)
             if 2 <= i + j <= 5 and (i, j) != (1, 1) and rng.random() < 0.5}
        a[(0, 2)] = rational(rng, nonzero=True)
        a[(2, 0)] = rational(rng, nonzero=True)
        m = MongeCoeffs(a)
        f = folded_map(m, (1, 0))
        assert classify(f)[0].verdict == skbk_classify(_read_off_sb_coeffs(f[2])).verdict

    elapsed = time.monotonic() - start
    assert elapsed < 600.0, "application agreement took %.1fs" % elapsed
    report(5, "formula vs classifier agreement on all applications, %.0fs" % elapsed)


def test_criterion_6_oracle_agreement():
    from germclass.oracle import SBNormalCoeffs, h2_check, skbk_classify

    rng = Random(66)
    s2_seen = b2_sign_seen = 0
    for _ in range(300):
        c = random_sb_coeffs(rng, rng.choice(["SB", "S1", "S", "S2", "B", "B2"]))
        if c.a_(0, 3) == 0 and c.b:
            c = SBNormalCoeffs(c.a, {})   # the literal B2 discriminant below needs b == 0
        mine = skbk_classify(c)
        assert mine.verdict == classify(c.to_map_jet())[0].verdict
        if mine.verdict is Verdict.S2:
            assert c.a_(2, 1) == 0 and c.a_(3, 1) != 0 and c.a_(0, 3) != 0
            s2_seen += 1
        if mine.verdict in (Verdict.B2_PLUS, Verdict.B2_MINUS):
            disc = 3 * c.a_(0, 5) * c.a_(2, 1) - 5 * c.a_(1, 3) ** 2
            assert (disc > 0) == (mine.verdict is Verdict.B2_PLUS)
            b2_sign_seen += 1
    assert s2_seen >= 20 and b2_sign_seen >= 20

    for _ in range(300):
        c = random_h_coeffs(rng, rng.choice(["HP2", "H", "H2"]))
        assert h2_check(c).verdict == classify(c.to_map_jet())[0].verdict
    report(6, "coefficient oracles agree with the classifier, 300 samples each")


def test_criterion_7_sign_convention_artifacts():
    from germclass.sign_report import generate

    text = generate()
    committed = Path(__file__).resolve().parents[1] / "SIGN_CONVENTIONS.md"
    assert committed.read_text(encoding="utf-8") == text
    assert "det hess phi(0) = -48" in text
    assert "det hess phi(0) = 48" in text
    assert "det hess phi(0) < 0 -> S1+" in text
    for marker in ("gamma3''(0)(2 c3(0) gamma1(0) - gamma3''(0)) < 0 -> S1+",
                   "sign(B2) = sign(b)",
                   "a03 a21 - a12^2 > 0 -> S1-",
                   "sign(B2) = sign(-r_b)"):
        assert marker in text, marker
    report(7, "sign-convention report regenerates and records the resolved wirings")
