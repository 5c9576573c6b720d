"""Golden digest of the certificates of a fixed corpus of exact germs.

The digest is the sha1 of the sorted-key JSON of every certificate, in
corpus order.  It was recorded before the float arithmetic mode was
removed, so any change to a verdict, an invariant, a frame parameter, the
normalization or the normalized germ of an exact input shows up here.  A
change that alters certificates on purpose records the new digest and says
why.

Sorted keys cannot see the order in which a certificate lists the
coefficients of its normalized germ, and that order reaches the CLI, which
prints JSON without sorting.  KEY_ORDER_DIGEST hashes the same certificates
in their own key order; it was recorded on the Fraction-dict jet kernel,
before jets moved to integer numerators over one denominator.
"""

import hashlib
import json
from fractions import Fraction
from random import Random

from util import random_branch_germ, rational, scramble

from germclass.applications import MongeCoeffs, folded_invariants, folded_map
from germclass.classify import classify, normal_forms

DIGEST = "9b96820e095e53bb6588be7b75140070a7376283"
KEY_ORDER_DIGEST = "82d4a2f2207904e567a04955c232c24ac2ec8662"

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


def _digest(sort_keys):
    germs = corpus()
    assert len(germs) == 7 + 28 + 40 + 8
    digest = hashlib.sha1()
    for f in germs:
        cls, cert = classify(f)
        digest.update(json.dumps(cert.to_json_obj(cls), sort_keys=sort_keys).encode())
    return digest.hexdigest()


def test_certificates_match_recorded_digest():
    assert _digest(sort_keys=True) == DIGEST


def test_certificate_key_order_matches_recorded_digest():
    assert _digest(sort_keys=False) == KEY_ORDER_DIGEST
