"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Counts marked "fuzz" honor the MSF7_FUZZ_ITERS environment variable (default
100); everything else is pinned to the counts stated in the criteria.  All
comparisons are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction

from msf7.algebras import (
    build_algebra,
    multiply,
    norm,
    octonion_form_basis,
    split_octonion_form_basis,
    triple_form,
)
from msf7.cli import fuzz_iterations
from msf7.exterior import KForm, kernel, pullback, wedge
from msf7.forms7 import (
    b_signature,
    canonical,
    classify,
    compact_dim,
    is_multisymplectic,
    random_invertible,
    stabilizer_dim,
    _CLASSIFIER_TABLE,
)
from msf7.stabilizers import (
    catalog,
    cayley_so3,
    embed_gl2pair,
    embed_sl2pair,
    embed_so3_33,
    embed_so4,
    sample_gl2,
    sample_sl2pair,
    unit_quaternion,
    verify_membership,
)
from msf7.topology import ADMITS, NO, bundled_model, bundled_model_names, check_type, verify_witness

from conftest import _classifier_key, contraction_matrix


def conclude(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number:2d}] {status}: {description}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, detail or description


def test_criterion_01_multisymplecticity():
    all_pass = all(is_multisymplectic(canonical(i).form) for i in range(1, 9))

    # single-term deletions from the orbit-8 representative: the test must
    # agree exactly with the injectivity of the contraction map (none of the
    # seven deletions actually creates a kernel vector, which the equivalence
    # also certifies)
    w8 = canonical(8).form
    deletions_consistent = True
    for idx in sorted(w8.terms):
        variant = KForm(3, {k: v for k, v in w8.terms.items() if k != idx})
        has_kernel = bool(kernel(contraction_matrix(variant)))
        deletions_consistent &= is_multisymplectic(variant) == (not has_kernel)

    # deleting every term that feeds a fixed contraction direction must flip
    # the verdict to False
    degenerate = KForm(3, {k: v for k, v in w8.terms.items() if 1 not in k})
    negative_branch = not is_multisymplectic(degenerate)
    negative_branch &= not is_multisymplectic(KForm.monomial([1, 2, 3]))

    conclude(1, "multisymplecticity test agrees with contraction kernels",
             all_pass and deletions_consistent and negative_branch)


def test_criterion_02_stabilizer_dimensions():
    dims = {i: stabilizer_dim(canonical(i).form) for i in range(1, 9)}
    ok = dims[8] == 14 and dims[5] == 14 and all(d >= 14 for d in dims.values())
    rng = random.Random(2)
    detail = ""
    for orbit in range(1, 9):
        w = canonical(orbit).form
        for _ in range(20):
            g = random_invertible(rng)
            if stabilizer_dim(pullback(g, w)) != dims[orbit]:
                ok = False
                detail = f"orbit {orbit} dimension not constant"
                break
    conclude(2, "stabilizer dimensions (14 for orbits 5 and 8; constant on orbits)",
             ok, detail)


def test_criterion_03_compact_dimensions():
    reps = [canonical(1).form, canonical(2, "prime").form, canonical(3).form,
            canonical(4).form, canonical(5).form, canonical(6).form,
            canonical(7).form, canonical(8).form]
    got = [compact_dim(w) for w in reps]
    conclude(3, "compact stabilizer dimensions are [2,2,9,3,6,4,6,14]",
             got == [2, 2, 9, 3, 6, 4, 6, 14], f"computed {got}")


def test_criterion_04_signatures():
    ok = (b_signature(canonical(8).form) == (7, 0)
          and b_signature(canonical(5).form) == (4, 3))
    conclude(4, "induced bilinear form signatures (7,0) and (4,3)", ok)


def test_criterion_05_algebra_to_form_round_trip():
    w8 = triple_form(build_algebra("O"), octonion_form_basis())
    w5 = triple_form(build_algebra("Osplit_from_Hsplit"), split_octonion_form_basis())
    conclude(5, "induced 3-forms reproduce the orbit-8 and orbit-5 representatives",
             w8 == canonical(8).form and w5 == canonical(5).form)


def test_criterion_06_identity_suite():
    vol3 = KForm.monomial([1, 2, 3])
    ok = canonical(8).form == canonical(7).form + vol3
    ok &= classify(canonical(2, "prime").form + vol3) == 5
    reduced = canonical(6).form - wedge(KForm.monomial([3]),
                                        KForm.monomial([4, 7]) - KForm.monomial([5, 6]))
    ok &= classify(reduced) == 5
    conclude(6, "identity suite (volume shifts between orbits 8/7 and into orbit 5)", ok)


def test_criterion_07_transformation_catalog():
    ok = all(entry.verify() for entry in catalog())
    detail = "" if ok else "catalog entry failed"

    rng = random.Random(7)

    def rnd_q():
        return unit_quaternion(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                               Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                               Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    w8, w5 = canonical(8).form, canonical(5).form
    w2p, w4, w1 = canonical(2, "prime").form, canonical(4).form, canonical(1).form
    for _ in range(50):
        if not verify_membership(embed_so4(rnd_q(), rnd_q()), w8):
            ok, detail = False, "so4 on orbit 8"
            break
    for _ in range(50):
        if not verify_membership(embed_so4(rnd_q(), rnd_q(), split=True), w5):
            ok, detail = False, "so4 split on orbit 5"
            break
    for _ in range(50):
        a, b = sample_sl2pair(rng)
        if not verify_membership(embed_sl2pair(a, b), w2p):
            ok, detail = False, "sl2 pair on orbit 2 alternate"
            break
    for _ in range(50):
        A = cayley_so3(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                       Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                       Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if not verify_membership(embed_so3_33(A), w4):
            ok, detail = False, "so3 on orbit 4"
            break
    for _ in range(50):
        if not verify_membership(embed_gl2pair(sample_gl2(rng), sample_gl2(rng)), w1):
            ok, detail = False, "gl2 pair on orbit 1"
            break
    conclude(7, "transformation catalog and 50 draws per embedding", ok, detail)


def test_criterion_08_classifier_fuzz():
    keys = {_classifier_key(canonical(orbit).form): orbit for orbit in range(1, 9)}
    ok = keys == _CLASSIFIER_TABLE
    detail = "" if ok else "canonical keys differ from the classifier table"

    iters = fuzz_iterations(100)
    for orbit in range(1, 9):
        w = canonical(orbit).form
        rng = random.Random(1000 + orbit)
        for _ in range(iters):
            g = random_invertible(rng)
            if classify(pullback(g, w)) != orbit:
                ok, detail = False, f"misclassified a pullback of orbit {orbit}"
                break
        if not ok:
            break
    conclude(8, f"classifier sound on {iters} random pullbacks per orbit; "
                "keys pairwise distinct", ok, detail)


def test_criterion_09_composition_algebra_properties():
    rng = random.Random(9)
    ok = True
    detail = ""
    for kind in ("C", "H", "Hsplit", "O", "Osplit"):
        t = build_algebra(kind)
        for _ in range(200):
            x = t.element([Fraction(rng.randint(-5, 5)) for _ in range(t.dim)])
            y = t.element([Fraction(rng.randint(-5, 5)) for _ in range(t.dim)])
            if norm(t, multiply(t, x, y)) != norm(t, x) * norm(t, y):
                ok, detail = False, f"norm not multiplicative in {kind}"
                break

    for kind in ("O", "Osplit"):
        t = build_algebra(kind)
        for _ in range(60):
            x = t.element([Fraction(rng.randint(-4, 4)) for _ in range(8)])
            y = t.element([Fraction(rng.randint(-4, 4)) for _ in range(8)])
            xx = multiply(t, x, x)
            if (multiply(t, xx, y).coords != multiply(t, x, multiply(t, x, y)).coords
                    or multiply(t, y, xx).coords != multiply(t, multiply(t, y, x), x).coords):
                ok, detail = False, f"alternativity fails in {kind}"
                break

    O = build_algebra("O")
    assoc_fails = False
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                lhs = multiply(O, multiply(O, O.basis(i), O.basis(j)), O.basis(k))
                rhs = multiply(O, O.basis(i), multiply(O, O.basis(j), O.basis(k)))
                if lhs.coords != rhs.coords:
                    assoc_fails = True
    if not assoc_fails:
        ok, detail = False, "octonions appear associative"

    conclude(9, "composition law, alternativity, and non-associativity", ok, detail)


def test_criterion_10_topology_checker():
    ok = True
    detail = ""

    s7 = bundled_model("s7")
    for t in range(1, 9):
        v = check_type(s7, t)
        if v.status != ADMITS or not verify_witness(s7, t, v.witness):
            ok, detail = False, f"s7 type {t}"

    cp = bundled_model("cp3xs1")
    if check_type(cp, 4).status != NO:
        ok, detail = False, "cp3xs1 type 4 should be NO"
    for t in (3, 5, 6, 7, 8):
        v = check_type(cp, t)
        if v.status != ADMITS or not verify_witness(cp, t, v.witness):
            ok, detail = False, f"cp3xs1 type {t}"

    s52 = bundled_model("s5xs2")
    for t in (1, 2, 4):
        v = check_type(s52, t)
        if v.status != ADMITS or not verify_witness(s52, t, v.witness):
            ok, detail = False, f"s5xs2 type {t}"

    for name in bundled_model_names():
        m = bundled_model(name)
        statuses = {check_type(m, t).status for t in (5, 6, 7, 8)}
        if len(statuses) != 1:
            ok, detail = False, f"generic types disagree on {name}"

    conclude(10, "existence checker verdicts, witness substitution, type 5..8 "
                 "equivalence", ok, detail)
