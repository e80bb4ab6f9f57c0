"""Golden outputs of the algebra tables, the catalog's matrix constructions,
the stabilizer dimensions and the other 3-form invariants, the
exterior-algebra operations, the verify_paper report and the check_type
outcomes.

The algebra and matrix digests were computed from the implementation before
the doubling routine, the pair action and the block-diagonal matrices were
each folded into one helper.  They pin every algebra table and the exact
matrices (entry types included) that the embeddings return on a fixed, seeded
corpus of parameters, so any rewrite of those constructions must reproduce
them bit for bit.  The stabilizer digests were computed while compact_dim
still ranked the 63 x 49 system (the stabilizer system stacked on the
symmetric part of A); they pin (stabilizer_dim, compact_dim) on a seeded
corpus of 3-forms.  The verify_paper and check_type digests were computed
before the catalog's small constructions and check_type's flag checks were
each written once.  The exterior digests were computed while KForm still
took a dimension parameter and every operation dropped zero coefficients
itself; they pin pullback, wedge and interior on a seeded corpus of sparse
and dense forms, and integer, rational and singular maps.  The sample_orbit and canon digests
were computed while pullback still expanded every k x k minor of the map.
The last tests check signature against the congruence diagonalization it
replaced (``reference_signature`` in conftest) on every matrix its callers
pass it over these corpora, and the integer classifier key, b_form, ms_rank
and classify against the Fraction path they replaced
(``reference_classifier_key`` and its neighbours in conftest).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest

from msf7 import forms7, topology
from msf7.algebras import ALGEBRA_KINDS, build_algebra
from msf7.cli import main
from msf7.exterior import (
    DIM,
    KForm,
    LinearMap,
    _inertia,
    interior,
    pullback,
    signature,
    wedge,
)
from msf7.forms7 import (
    _stabilizer_system,
    b_form,
    canonical,
    classify,
    compact_dim,
    ms_rank,
    sample_orbit,
    stabilizer_dim,
)
from msf7.topology import (
    CohomologyModel,
    HypothesisError,
    bundled_model,
    bundled_model_names,
    check_type,
)
from msf7.stabilizers import (
    cayley_so3,
    embed_gl2pair,
    embed_sl2pair,
    embed_so3_33,
    embed_so4,
    sample_gl2,
    sample_sl2pair,
    torus_matrix,
    unit_quaternion,
    verify_paper,
)

import conftest
from conftest import (
    _classifier_key,
    contraction_matrix,
    embed_so4_algebra_matrix,
    norm_signature,
    rational_invertible,
    reference_classifier_key,
    reference_classify,
    reference_fraction_b_form,
    reference_ms_rank,
    reference_signature,
    rotation_cs,
)

ALGEBRA_DIGESTS = {
    "R": "961f745a059809bb3e6297f2e45637b882ebe4cf904f505d1b5c95aa217752f1",
    "C": "b9126db750fe93735cfbdce740d2a315ffe0a66a3999d6466ffcd537826507b4",
    "H": "0296c4f1f07e78ddfaa987a83c6881f81389fe1420455552219e5a069ec1278a",
    "Hsplit": "fe1f338067332d263fca6f5e599b076af8435d59c0aa03acf31f62b2f084417e",
    "O": "62cdbbb086dd69dfc0929ddaee517fde0a1b306ccd29a59f197aec5f5e335434",
    "Osplit": "1a0f017acb6a5ead5d2a94e6d87a4cb55dc79b83e737df48629b309aaa44d1e7",
    "Osplit_from_Hsplit": "809f7a444f16c327a209c2b56db79a9ec12069b631d8332a3143506d41a455ec",
}

MATRIX_DIGESTS = {
    "embed_gl2pair": "399cc52188fe072591b897d025af1c89fa00f4c8c733a0682358914ed69b24ad",
    "embed_sl2pair": "4dc468a382d5574036a35008a262e9be40f6db7d8425949dd60330b9b60b0164",
    "embed_so3_33": "abda2c39c2b0108e4c020314f031e4a6c509f15c912a4079128632b692dd1761",
    "embed_so4": "31022f2436799cb1451ecdc03016b5d6272d157e7d088375ab1da1c432892845",
    "embed_so4/split": "611ced6f4b0128d8744fae8ef06ef056c701c4a1283f6c69706b0052e045d4ae",
    "embed_so4_algebra_matrix": "61a74d3b8f4c7437ac8a01a687555afbe16cd5bcbbb41368cd9f240f74108ba0",
    "embed_so4_algebra_matrix/split":
        "fc2e9803dcfd700c8c36a47ddffeac4fc7460d5f65f2a027f065057094c1a703",
    "torus_matrix": "8ea2723da1c47af2f028fe30988d679d04b3210eb4580ec3c812ff694979d64b",
}


def _corpus(n: int = 30, seed: int = 20261018) -> list[dict]:
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def mat2(trace_free: bool):
        p, q, r, s = frac(), frac(), frac(), frac()
        return [[p, q], [r, -p if trace_free else s]]

    draws = []
    for _ in range(n):
        draws.append({
            "a": unit_quaternion(frac(), frac(), frac()),
            "b": unit_quaternion(frac(), frac(), frac()),
            "sl2": sample_sl2pair(rng),
            "so3": cayley_so3(frac(), frac(), frac()),
            "gl2": (sample_gl2(rng), sample_gl2(rng)),
            # x .. my fed the Lie-algebra generators, since deleted; they are
            # still drawn so the rng sequence, and every digest after them,
            # stays the same.
            "x": [frac() for _ in range(3)],
            "y": [frac() for _ in range(3)],
            "tx": mat2(True),
            "ty": mat2(True),
            "s": (frac(), frac(), frac()),
            "mx": mat2(False),
            "my": mat2(False),
            "th": rotation_cs(frac()),
            "rh": rotation_cs(frac()),
        })
    return draws


CASES = {
    "embed_so4": lambda d: embed_so4(d["a"], d["b"]),
    "embed_so4/split": lambda d: embed_so4(d["a"], d["b"], split=True),
    "embed_so4_algebra_matrix": lambda d: embed_so4_algebra_matrix(d["a"], d["b"]),
    "embed_so4_algebra_matrix/split":
        lambda d: embed_so4_algebra_matrix(d["a"], d["b"], split=True),
    "embed_sl2pair": lambda d: embed_sl2pair(*d["sl2"]),
    "embed_so3_33": lambda d: embed_so3_33(d["so3"]),
    "embed_gl2pair": lambda d: embed_gl2pair(*d["gl2"]),
    "torus_matrix": lambda d: torus_matrix(d["th"], d["rh"]),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _matrix_text(m) -> str:
    rows = m.rows if isinstance(m, LinearMap) else m
    return json.dumps([[repr(x) for x in row] for row in rows])


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_algebra_table_is_unchanged(kind):
    text = json.dumps(build_algebra(kind).to_json(), sort_keys=True)
    assert _digest(text) == ALGEBRA_DIGESTS[kind]


@pytest.mark.parametrize("name", sorted(CASES))
def test_matrices_are_unchanged(name):
    text = "\n".join(_matrix_text(CASES[name](d)) for d in _corpus())
    assert _digest(text) == MATRIX_DIGESTS[name]


STABILIZER_DIGESTS = {
    "canonical": "1033138cdc90ef022c9083e10bac5f7c5fd8a048a2331f42f7db195265069872",
    "pullbacks": "a60800f7f874523c26ee829f47957c1d7cbe8df648eb8e7ab24943c6547cca7f",
    "random": "c9d6d78ebb4c8564cfb90f310f42c77e333ffc820e6c5d53f269b805b784601a",
}


@cache
def _form_corpus(seed: int = 20261018) -> dict[str, list[KForm]]:
    """The twelve canonical forms and their pullbacks by random signed
    permutations (orthogonal, so the compact part keeps its dimension),
    pullbacks of each by a random rational map, and random sparse rational
    forms (the zero form among them)."""
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    def invertible():
        while True:
            g = LinearMap([[frac() for _ in range(DIM)] for _ in range(DIM)])
            if g.is_invertible():
                return g

    def signed_permutation():
        perm = rng.sample(range(DIM), DIM)
        return LinearMap([[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(DIM)]
                          for i in range(DIM)])

    forms = ([canonical(i).form for i in range(1, 9)]
             + [canonical(i, "prime").form for i in (2, 5, 6, 7)])
    triples = list(combinations(range(1, DIM + 1), 3))
    return {
        "canonical": forms + [pullback(signed_permutation(), w) for w in forms],
        "pullbacks": [pullback(invertible(), w) for w in forms],
        "random": [KForm(3, {t: frac() for t in rng.sample(triples, rng.randint(0, 10))})
                   for _ in range(24)],
    }


@pytest.mark.parametrize("name", sorted(STABILIZER_DIGESTS))
def test_stabilizer_dimensions_are_unchanged(name):
    dims = [(stabilizer_dim(w), compact_dim(w)) for w in _form_corpus()[name]]
    assert _digest(json.dumps(dims)) == STABILIZER_DIGESTS[name]


# Computed while B, the stabilizer system and the contraction matrix each
# worked out the signs of interior and wedge by hand; entry types are pinned
# too (Fraction for the contraction matrix and B, int for the system).
FORM_CASES = {
    "b_form": lambda w: _matrix_text(b_form(w).rows),
    "stabilizer_system": lambda w: _matrix_text(_stabilizer_system(w)),
    "contraction_matrix": lambda w: _matrix_text(contraction_matrix(w)),
    "classifier_key": lambda w: json.dumps(_classifier_key(w)),
    "ms_rank": lambda w: str(ms_rank(w)),
}

FORM_DIGESTS = {
    "b_form": {
        "canonical": "a29c8a80cfc0162a88ea95f33f456de88db89e1554a4dfc2f7d50400352e7ad2",
        "pullbacks": "90952149631eaec9f41122fade456f413221cc2d08630adb04a9845dfc9d5afc",
        "random": "7875b20f3cd81529a781121796165e3914a28df72321f8ea111f614d108e1aca",
    },
    "stabilizer_system": {
        "canonical": "b6d9cb12f7c240dbb962fbb9a54b07ae6a21d4ec7c0e07e903338f926185bbc9",
        "pullbacks": "05d9f0592399c7e3401581c3fc56ca674ceb9bee82f1fb1a4e4d81fac9997782",
        "random": "b8cbc8b980f536d904e366b06cd7c7d49f17378fb40759e373310b4fdc506fb0",
    },
    "contraction_matrix": {
        "canonical": "5427e9c9e47d647c74d2eba5a696ece74172913a5a135b5868a88c45f9c5c35d",
        "pullbacks": "1ba393feb60f0f4a95d254753072291db6e117bf25b9b26c4bd5ab97ed2c34e7",
        "random": "b645b683e8810cc6f25f3f71d6c2ddebb90a548842cae4ce61497a727369b10c",
    },
    "classifier_key": {
        "canonical": "fc2722dc174c26e3cdb7fcac1f14c1a41f93e88ec6295feb1aba79381e0722a3",
        "pullbacks": "2e276b199c925756e65e26901d33d39bd5b4b04b01e5da9dcfb8e04e8c8b95f1",
        "random": "2517a374d5b614da522b1ff45820046aec93e3266981561b75e248fe2e4b8960",
    },
    "ms_rank": {
        "canonical": "344b3f2915354ea93474b2b490c9527a9a1c2dfa4fc03164111b3edd2211f106",
        "pullbacks": "3c2ac3e9d5cfe9b29df70219efe6e1dc85df2ce0abfa177416a2bbf62c814798",
        "random": "2cc8541f9d193bcb78e6cc779657d5d996a96aafc1dbfc23e84dd289e3aafe9c",
    },
}


@pytest.mark.parametrize("group", sorted(STABILIZER_DIGESTS))
@pytest.mark.parametrize("name", sorted(FORM_CASES))
def test_form_invariants_are_unchanged(name, group):
    text = "\n".join(FORM_CASES[name](w) for w in _form_corpus()[group])
    assert _digest(text) == FORM_DIGESTS[name][group]


EXTERIOR_DIGESTS = {
    "interior": "bcd6674f6f3109370b6a61253aa12f199e4367844896d86854e9ee2696833867",
    "pullback": "1b13066acddbb489564d3f2d37c2a39be622785c7c3d235064fcaa9433f90286",
    "wedge": "0798582ab40307d30fcf7e3e3d021fc2a8f1ccee803937dc83b39588b61911a4",
}


def _exterior_corpus(seed: int = 20261018) -> dict[str, list[KForm]]:
    """Seeded outputs of the three exterior operations.

    pullback: integer, rational and singular (rank 0, 3 and 6) maps applied to
    sparse and dense 0-, 1- and 3-forms.  wedge: sparse and dense forms of
    every degree pair with sum at most 7.  interior: integer, rational and
    sparse vectors contracted into sparse and dense forms of degree 1..7.
    """
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def form(degree, dense):
        idxs = list(combinations(range(1, DIM + 1), degree))
        picked = idxs if dense else rng.sample(idxs, min(len(idxs), rng.randint(1, 3)))
        return KForm(degree, {t: frac() for t in picked})

    def integer_map():
        return LinearMap([[rng.randint(-3, 3) for _ in range(DIM)] for _ in range(DIM)])

    def rational_map():
        return LinearMap([[frac() for _ in range(DIM)] for _ in range(DIM)])

    def singular_map(rank):
        # integer map whose last DIM - rank rows are combinations of the first
        rows = [[rng.randint(-3, 3) for _ in range(DIM)] for _ in range(rank)]
        for _ in range(DIM - rank):
            mix = [rng.randint(-2, 2) for _ in range(rank)]
            rows.append([sum(m * r[j] for m, r in zip(mix, rows)) for j in range(DIM)])
        rng.shuffle(rows)
        return LinearMap(rows)

    maps = ([integer_map() for _ in range(4)] + [rational_map() for _ in range(4)]
            + [singular_map(r) for r in (0, 3, 6)])
    pullbacks = [pullback(g, form(k, dense))
                 for g in maps for k in (0, 1, 3) for dense in (False, True)]

    wedges = []
    for ka in range(DIM + 1):
        for kb in range(DIM + 1 - ka):
            for dense_a, dense_b in product((False, True), repeat=2):
                wedges.append(wedge(form(ka, dense_a), form(kb, dense_b)))

    def vector(kind):
        if kind == "integer":
            return tuple(Fraction(rng.randint(-3, 3)) for _ in range(DIM))
        if kind == "rational":
            return tuple(frac() for _ in range(DIM))
        support = set(rng.sample(range(DIM), 2))
        return tuple(frac() if i in support else Fraction(0) for i in range(DIM))

    interiors = [interior(vector(kind), form(k, dense))
                 for k in range(1, DIM + 1) for dense in (False, True)
                 for kind in ("integer", "rational", "sparse")]
    return {"pullback": pullbacks, "wedge": wedges, "interior": interiors}


@pytest.mark.parametrize("name", sorted(EXTERIOR_DIGESTS))
def test_exterior_operations_are_unchanged(name):
    text = json.dumps([w.to_json() for w in _exterior_corpus()[name]])
    assert _digest(text) == EXTERIOR_DIGESTS[name]


SAMPLE_ORBIT_DIGEST = "b8fde15243aeaafbe8510bbb4003c0ab8f8fada7ccdc145398044f8d51715ac9"

# 2**64 - 1 is the seed -1 stood for when seeds were masked to 64 bits
SAMPLE_SEEDS = (0, 1, 9, 77, 2**40 + 3, 2**64 - 1)


def test_sample_orbit_is_unchanged():
    out = [{"form": form.to_json(), "map": g.to_json()}
           for i in range(1, 9) for seed in SAMPLE_SEEDS
           for form, g in [sample_orbit(i, seed)]]
    assert _digest(json.dumps(out)) == SAMPLE_ORBIT_DIGEST


CANON_DIGEST = "c228b683d1eac8b390ef86d511ddee147a18fef520b47963f77b43ba0a24e0d9"

CANON_VARIANTS = [(i, "standard") for i in range(1, 9)] + [(i, "prime") for i in (2, 5, 6, 7)]


def test_canon_payloads_are_unchanged():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for i, variant in CANON_VARIANTS:
            assert main(["canon", str(i), "--variant", variant, "--json"]) == 0
    assert out.getvalue().count("change_of_basis") == 4
    assert _digest(out.getvalue()) == CANON_DIGEST


VERIFY_PAPER_DIGEST = "08e26f89bac79adf5b887a4f46ad364bbf6006c6cb1ff6b7e4fc86ab2447c9a9"


def test_verify_paper_report_is_unchanged():
    assert _digest(json.dumps(verify_paper(draws=10, seed=0))) == VERIFY_PAPER_DIGEST


CHECK_TYPE_DIGEST = "e50d75c10ba0c1ffc8a8c84e81bfe5ccb354bbc4045a99e7a413b2469639b095"

_GRID_CUPS = {0: (), 1: (((1,),),), 2: (((1,), (0,)), ((0,), (-1,)))}


def _check_type_grid():
    """Every combination of the four flags (consistent or not: the models are
    built without make_model's validation), r2 in {0, 1, 2} with a definite
    and an indefinite cup form, odd and even p1, zero and nonzero w2, types
    1..8, at bound 3."""
    for flags in product((False, True), repeat=4):
        for r2, p1 in product((0, 1, 2), (2, 3, 8)):
            for w2 in dict.fromkeys(((0,) * r2, (1,) * r2)):
                model = CohomologyModel("grid", r2, 1, _GRID_CUPS[r2], (p1,), w2, *flags)
                for type_id in range(1, 9):
                    yield model, type_id


def test_check_type_outcomes_are_unchanged():
    outcomes = []
    for model, type_id in _check_type_grid():
        try:
            outcomes.append(json.dumps(check_type(model, type_id, 3).to_json(),
                                       sort_keys=True))
        except Exception as exc:  # the exception type and text are pinned too
            outcomes.append(f"{type(exc).__name__}: {exc}")
    assert len(outcomes) == 1920
    assert _digest("\n".join(outcomes)) == CHECK_TYPE_DIGEST


def test_signature_agrees_with_congruence_reference(monkeypatch):
    """signature against the congruence diagonalization it replaced, on every
    matrix its callers hand it or its integer core: D^3 B of each corpus form,
    the norm forms (whole and imaginary part) of the seven algebras, and the
    functionals that check_type forms for the bundled models and the
    check_type grid."""
    seen = []

    def recorder(fn):
        def recording(m):
            seen.append(m)
            return fn(m)
        return recording

    monkeypatch.setattr(forms7, "_inertia", recorder(_inertia))
    for module in (conftest, topology):
        monkeypatch.setattr(module, "signature", recorder(signature))
    for group in _form_corpus().values():
        for w in group:
            _classifier_key(w)
    for kind in ALGEBRA_KINDS:
        norm_signature(build_algebra(kind))
        norm_signature(build_algebra(kind), imaginary_only=True)
    models = [bundled_model(name) for name in bundled_model_names()]
    for model, type_id in [(m, t) for m in models for t in range(1, 9)] + list(_check_type_grid()):
        with contextlib.suppress(HypothesisError):
            check_type(model, type_id, 3)
    # 60 forms, 14 norm forms, 1 functional for the bundled models, 240 for the grid
    assert len(seen) == 60 + 14 + 1 + 240
    for m in seen + _small_and_singular_matrices():
        assert signature(m) == reference_signature(m)


def _small_and_singular_matrices():
    """n = 0, 1 and 2, where the characteristic polynomial needs no half
    product (n = 0 and 1 not even P_1), and L diag(s) L^T of every rank r <= n
    for n <= 7, with rational L and signs s, so singular ones of each size."""
    rng = random.Random(396)
    out = [[], [[0]], [[5]], [[Fraction(-2, 3)]], [[0, 0], [0, 0]], [[0, 1], [1, 0]],
           [[1, 2], [2, 4]], [[-1, 2], [2, -4]], [[2, -1], [-1, 3]], [[1, 3], [3, 1]]]
    for n in range(1, DIM + 1):
        for r in range(n + 1):
            for _ in range(3):
                ell = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(r)]
                       for _ in range(n)]
                s = [rng.choice((-1, 1)) for _ in range(r)]
                out.append([[sum(x * y * t for x, y, t in zip(u, v, s)) for v in ell]
                            for u in ell])
    return out


def _pullback_corpus(seed: int = 17) -> list[KForm]:
    """Ten pullbacks of each canonical form by each kind of seeded map:
    integer entries in [-3, 3], rational p/q with |p| <= 3 and q <= 5, and
    rational maps of rank 6 and of rank 5 (their last rows zero)."""
    rng = random.Random(seed)

    def integer_map():
        while True:
            g = LinearMap([[rng.randint(-3, 3) for _ in range(DIM)] for _ in range(DIM)])
            if g.is_invertible():
                return g

    def singular_map(rank):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(DIM)]
                for _ in range(rank)]
        return LinearMap(rows + [[0] * DIM] * (DIM - rank))

    makers = (integer_map, lambda: rational_invertible(rng),
              lambda: singular_map(6), lambda: singular_map(5))
    return [pullback(make(), canonical(orbit).form)
            for orbit in range(1, 9) for make in makers for _ in range(10)]


@pytest.mark.parametrize("group", ["canonical", "pullbacks", "random", "seeded"])
def test_classifier_agrees_with_fraction_reference(group):
    """The integer key path against the Fraction path it replaced, on the
    golden corpus (its canonical group holds every canonical variant, whose
    ms_rank minor is singular, so the fallback runs), 320 seeded pullbacks
    by integer, rational and singular maps, and the zero form."""
    forms = _pullback_corpus() + [KForm(3)] if group == "seeded" else _form_corpus()[group]
    answers = set()
    for w in forms:
        assert _classifier_key(w) == reference_classifier_key(w)
        assert b_form(w) == reference_fraction_b_form(w)
        assert ms_rank(w) == reference_ms_rank(w)
        answer = classify(w)
        assert answer == reference_classify(w)
        answers.add(answer)
    if group == "seeded":
        assert answers == set(range(1, 9)) | {forms7.NON_MULTISYMPLECTIC}
