"""Golden digest of the certificates of a fixed corpus of exact germs.

The digest is the sha1 of the sorted-key JSON of every certificate, in
corpus order.  It was recorded before the float arithmetic mode was
removed, so any change to a verdict, an invariant, a frame parameter, the
normalization or the normalized germ of an exact input shows up here.  A
change that alters certificates on purpose records the new digest and says
why.

Sorted keys cannot see the order in which a certificate lists its fields
and the coefficients of its normalized germ, and that order reaches the
CLI, which prints JSON without sorting.  KEY_ORDER_DIGEST hashes the same
certificates in their own key order.  It was recorded again when
`Jet2.items()` took the canonical order (total degree, then u-exponent)
in place of the jet's insertion order; DIGEST held across that change.

SCRAMBLED_DIGEST and SCRAMBLED_KEY_ORDER_DIGEST hash, the same two ways,
the certificates of a dense scrambled corpus: every model germ acted on
by `fuzz` diffeomorphisms of degree 1 to 3 with rationals up to 9/9,
seeded by a fixed string.  Their denominators are far larger than the
first corpus's, so these two digests watch the exact arithmetic on the
words at 0 where common denominators grow.  SCRAMBLED_DIGEST was recorded
while the words at 0 were still read and solved as `Fraction`s;
SCRAMBLED_KEY_ORDER_DIGEST was recorded again with KEY_ORDER_DIGEST.
"""

import hashlib
import json
from fractions import Fraction
from random import Random

from util import random_branch_germ, rational, scramble

from germclass.applications import MongeCoeffs, folded_invariants, folded_map
from germclass.classify import classify, normal_forms
from germclass.docparse import parse_poly
from germclass.fuzz import FuzzConfig, act, random_source_diffeo, random_target_diffeo
from germclass.jets import MapJet

DIGEST = "9b96820e095e53bb6588be7b75140070a7376283"
KEY_ORDER_DIGEST = "b38a33d66027ac437d94389d758a4b49603edda2"
SCRAMBLED_DIGEST = "08e0f88678a6b39da79311fd8fae4d592b09d53b"
SCRAMBLED_KEY_ORDER_DIGEST = "61aae900a58625497df8196941e50cfd40cf3343"

BRANCHES = ("S1", "S", "S2", "B", "B2", "SB", "HP2", "H", "H2", "WU")

FOLD_POINTS = [
    (Fraction(1), Fraction(0)), (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(4, 5), Fraction(-3, 5)), (Fraction(-5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)), (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)), (Fraction(-7, 25), Fraction(-24, 25)),
]


def _fold(rng, point, branch):
    """An umbilic fold at an exact angle, put on the S or B branch when it can be."""
    a = {(i, j): rational(rng) for i in range(6) for j in range(6)
         if 3 <= i + j <= 5 and rng.random() < 0.5}
    a[(0, 2)] = a[(2, 0)] = rational(rng, nonzero=True)
    if branch != "S1":
        slot, entry = ((2, 1), 0) if branch == "S" else ((0, 3), 1)
        a[slot] = Fraction(0)
        h0 = folded_invariants(MongeCoeffs(a), point)[entry]
        a[slot] = Fraction(1)
        slope = folded_invariants(MongeCoeffs(a), point)[entry] - h0
        a[slot] = -h0 / slope if slope else Fraction(0)
    return folded_map(MongeCoeffs(a), point)


def corpus():
    models = normal_forms()
    germs = [models[name] for name in sorted(models)]
    rng = Random(2024)
    germs += [scramble(models[name], rng) for name in sorted(models) for _ in range(4)]
    rng = Random(2025)
    germs += [random_branch_germ(rng, branch) for _ in range(4) for branch in BRANCHES]
    rng = Random(2026)
    germs += [_fold(rng, point, ("S1", "S", "B")[k % 3])
              for k, point in enumerate(FOLD_POINTS)]
    return germs


# the degenerate and non-corank-1 models next to `normal_forms`
MORE_MODELS = {
    "S-degenerate": ("u", "v^2", "v*(u^4+v^2)"),
    "B-degenerate": ("u", "v^2", "u^2*v"),
    "H-degenerate": ("u", "u*v", "v^3"),
    "P-type": ("u", "u*v", "v^4+u^2*v"),
    "Regular": ("u", "v", "u*v"),
    "Corank2": ("u^2", "v^2", "u*v"),
}
SCRAMBLES_PER_MODEL = 20


def scrambled_corpus():
    """Each model germ under SCRAMBLES_PER_MODEL seeded A-actions of degree 1, 2, 3, ..."""
    models = normal_forms()
    models.update((name, MapJet.germ(*(parse_poly(p, 6) for p in polys)))
                  for name, polys in MORE_MODELS.items())
    cfg = FuzzConfig(seed=0, bound=9, degree=3, order=6)
    germs = []
    for name in sorted(models):
        for k in range(SCRAMBLES_PER_MODEL):
            rng = Random("certificates|%s|%d" % (name, k))
            degree = 1 + k % 3
            germs.append(act(models[name], random_source_diffeo(cfg, rng, degree),
                             random_target_diffeo(cfg, rng, degree)))
    return germs


def _certificates(germs):
    return [cert.to_json_obj(cls) for cls, cert in map(classify, germs)]


def _sha1(certificates, sort_keys):
    digest = hashlib.sha1()
    for obj in certificates:
        digest.update(json.dumps(obj, sort_keys=sort_keys).encode())
    return digest.hexdigest()


def _digest(sort_keys):
    germs = corpus()
    assert len(germs) == 7 + 28 + 40 + 8
    return _sha1(_certificates(germs), sort_keys)


def test_certificates_match_recorded_digest():
    assert _digest(sort_keys=True) == DIGEST


def test_certificate_key_order_matches_recorded_digest():
    assert _digest(sort_keys=False) == KEY_ORDER_DIGEST


def test_scrambled_certificates_match_recorded_digests():
    germs = scrambled_corpus()
    assert len(germs) == 13 * SCRAMBLES_PER_MODEL
    certificates = _certificates(germs)
    assert _sha1(certificates, sort_keys=True) == SCRAMBLED_DIGEST
    assert _sha1(certificates, sort_keys=False) == SCRAMBLED_KEY_ORDER_DIGEST
    _assert_normalized_germ_in_canonical_order(certificates)


def _assert_normalized_germ_in_canonical_order(certificates):
    """Each component of `normalized_germ` lists its "i,j" keys by total degree
    i + j, then by i: the order `poly_str` prints."""
    listed = 0
    for obj in certificates:
        for table in obj.get("normalized_germ", {}).values():
            keys = [tuple(map(int, key.split(","))) for key in table]
            assert keys == sorted(keys, key=lambda key: (key[0] + key[1], key[0]))
            listed += len(keys) > 1
    assert listed


def test_normalized_germ_lists_coefficients_in_canonical_order():
    _assert_normalized_germ_in_canonical_order(_certificates(corpus()))
