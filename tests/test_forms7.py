"""Canonical representatives, orbit invariants, and the classifier."""

from __future__ import annotations

import math
import random
from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from msf7 import forms7
from msf7.exterior import (
    DIM,
    KForm,
    LinearMap,
    SymmetricMatrix,
    basis_vector,
    interior,
    pullback,
    rank,
    signature,
    wedge,
)
from msf7.forms7 import (
    NON_MULTISYMPLECTIC,
    InvariantVector,
    b_form,
    b_signature,
    canonical,
    classify,
    compact_dim,
    invariant_vector,
    is_multisymplectic,
    ms_rank,
    random_invertible,
    sample_orbit,
    stabilizer_algebra,
    stabilizer_dim,
    _ANTISYMMETRIC_COLUMNS,
    _BY_P,
    _CLASSIFIER_TABLE,
    _OPEN_PIVOTS,
    _divides,
    _stabilizer_system,
)

from conftest import (
    _classifier_key,
    alpha,
    apply,
    coefficient,
    coefficients,
    contraction_matrix,
    evaluate,
    in_matrix_span,
    kforms,
    rational_invertible,
    scaling,
    transpose,
    vectors,
)


# --- reference definitions the integer code paths are checked against ------

def reference_b_form(w: KForm) -> SymmetricMatrix:
    """B from its definition: 28 products interior(e_i,w) ^ interior(e_j,w) ^ w."""
    vol = tuple(range(1, DIM + 1))
    ivw = [interior(basis_vector(i), w) for i in range(1, DIM + 1)]
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            rows[i][j] = rows[j][i] = wedge(wedge(ivw[i], ivw[j]), w).terms.get(vol, Fraction(0))
    return SymmetricMatrix(rows)


def reference_contraction_matrix(w: KForm) -> list[list[Fraction]]:
    return [[coefficient(w, (j, p, q)) for j in range(1, DIM + 1)]
            for (p, q) in combinations(range(1, DIM + 1), 2)]


def reference_stabilizer_system(w: KForm) -> list[list[Fraction]]:
    rows = []
    for (p, q, r) in combinations(range(1, DIM + 1), 3):
        row = [Fraction(0)] * (DIM * DIM)
        for m in range(1, DIM + 1):
            row[(m - 1) * DIM + (p - 1)] += coefficient(w, (m, q, r))
            row[(m - 1) * DIM + (q - 1)] += coefficient(w, (p, m, r))
            row[(m - 1) * DIM + (r - 1)] += coefficient(w, (p, q, m))
        rows.append(row)
    return rows


def reference_compact_dim(w: KForm) -> int:
    """compact_dim as one joint rank: the 35 x 49 stabilizer system stacked
    on the 28 rows A[m][p] + A[p][m] = 0, m <= p."""
    rows = _stabilizer_system(w)
    for m in range(DIM):
        for p in range(m, DIM):
            row = [0] * (DIM * DIM)
            row[m * DIM + p] += 1
            row[p * DIM + m] += 1
            rows.append(row)
    return DIM * DIM - rank(rows)


def one_form(covector) -> KForm:
    return KForm(1, {(k + 1,): x for k, x in enumerate(covector)})


def reference_divides(covector, w: KForm) -> bool:
    return not wedge(one_form(covector), w).terms


def reference_key(w: KForm) -> tuple:
    """The classifier key before the divisibility flag replaced the
    stabilizer dimension."""
    p, n, _ = signature(reference_b_form(w))
    return (p + n, (max(p, n), min(p, n)), stabilizer_dim(w))


@st.composite
def dense_3forms(draw):
    return KForm(3, {t: draw(coefficients) for t in combinations(range(1, DIM + 1), 3)})


@st.composite
def degenerate_3forms(draw):
    """Forms in e1..e6 only, so e7 contracts to zero."""
    terms = draw(st.dictionaries(st.sampled_from(list(combinations(range(1, DIM), 3))),
                                 coefficients, max_size=8))
    return KForm(3, terms)


class TestCanonical:
    def test_orbit8_prints_exactly_seven_terms(self):
        w8 = canonical(8).form
        assert len(w8.terms) == 7
        assert coefficient(w8, (1, 2, 3)) == 1
        assert coefficient(w8, (1, 6, 7)) == -1
        assert coefficient(w8, (3, 5, 6)) == -1

    def test_orbit2_alternate_has_six_terms_in_second_basis(self):
        cf = canonical(2, "prime")
        assert cf.source_basis == "beta"
        assert len(cf.form.terms) == 6
        assert coefficient(cf.form, (1, 4, 5)) == 1
        assert coefficient(cf.form, (3, 5, 6)) == -1

    @pytest.mark.parametrize("orbit", [2, 5, 6, 7])
    def test_alternates_reachable_by_stored_map(self, orbit):
        cf = canonical(orbit, "prime")
        assert cf.change_of_basis is not None
        assert cf.change_of_basis.is_invertible()
        assert pullback(cf.change_of_basis, canonical(orbit).form) == cf.form

    @pytest.mark.parametrize("orbit", [1, 3, 4, 8])
    def test_missing_variants_rejected(self, orbit):
        with pytest.raises(ValueError, match="no prime variant"):
            canonical(orbit, "prime")

    def test_bad_ids_rejected(self):
        with pytest.raises(ValueError):
            canonical(0)
        with pytest.raises(ValueError, match="unknown variant"):
            canonical(3, "double-prime")

    @pytest.mark.parametrize("orbit", [True, 8.0, 5.0])
    def test_ids_that_are_not_ints_rejected(self, orbit):
        canonical(1)  # a cached int must not answer for a bool
        with pytest.raises(ValueError, match="orbit id must be 1..8"):
            canonical(orbit)

    def test_cached_form_cannot_be_changed(self):
        """canonical returns one cached object, so its terms are read-only."""
        before = canonical(8).form.to_json()
        with pytest.raises(TypeError):
            canonical(8).form.terms[(1, 2, 3)] = 5
        assert canonical(8).form.to_json() == before
        assert coefficient(canonical(8).form, (1, 2, 3)) == 1


class TestMultisymplectic:
    @pytest.mark.parametrize("orbit", range(1, 9))
    def test_all_canonical_forms_pass(self, orbit):
        assert is_multisymplectic(canonical(orbit).form)

    def test_decomposable_form_fails(self):
        assert not is_multisymplectic(alpha(1, 2, 3))

    def test_two_block_form_fails(self):
        # e7 contracts to zero
        assert classify(alpha(1, 2, 3) + alpha(4, 5, 6)) == NON_MULTISYMPLECTIC

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError, match="3-form"):
            is_multisymplectic(alpha(1, 2))

    def test_wrong_dimension_rejected(self):
        # forms live on R^7, so a form with an index 8 cannot be built
        with pytest.raises(ValueError, match="out of range 1..7"):
            KForm(3, {(1, 2, 8): 1})

    def test_rank_equals_contraction_rank(self):
        w = canonical(4).form
        assert ms_rank(w) == 7
        assert len(contraction_matrix(w)) == 21


class TestBForm:
    def test_orbit8_definite(self):
        assert b_signature(canonical(8).form) == (7, 0)

    def test_orbit5_split_signature(self):
        assert b_signature(canonical(5).form) == (4, 3)

    def test_decomposable_form_has_zero_matrix(self):
        m = b_form(alpha(1, 2, 3))
        assert all(v == 0 for row in m.rows for v in row)

    def test_covariance_under_pullback(self):
        rng = random.Random(5)
        w = canonical(6).form
        B = b_form(w)
        draws = [LinearMap([[rng.randint(-2, 2) for _ in range(7)] for _ in range(7)])
                 for _ in range(12)]
        # force a singular draw into the batch
        draws.append(scaling(0))
        for g in draws:
            lhs = b_form(pullback(g, w))
            rhs = (transpose(g) @ LinearMap(B.rows) @ g)
            det = g.det()
            assert lhs.rows == tuple(tuple(det * x for x in row) for row in rhs.rows)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(w=kforms(degree=3, max_terms=8))
    def test_sparse_forms(self, w):
        assert b_form(w) == reference_b_form(w)
        assert contraction_matrix(w) == reference_contraction_matrix(w)

    @settings(max_examples=20, deadline=None)
    @given(w=dense_3forms())
    def test_dense_forms(self, w):
        assert b_form(w) == reference_b_form(w)
        assert contraction_matrix(w) == reference_contraction_matrix(w)

    @settings(max_examples=30, deadline=None)
    @given(w=degenerate_3forms())
    def test_non_multisymplectic_forms(self, w):
        assert not is_multisymplectic(w)
        assert b_form(w) == reference_b_form(w)
        assert contraction_matrix(w) == reference_contraction_matrix(w)

    def test_zero_form(self):
        w = KForm(3)
        assert b_form(w) == reference_b_form(w) == SymmetricMatrix([[0] * DIM] * DIM)
        assert contraction_matrix(w) == reference_contraction_matrix(w)

    def test_entries_are_fractions(self):
        w = pullback(rational_invertible(random.Random(2)), canonical(4).form)
        assert all(type(x) is Fraction for row in b_form(w).rows for x in row)
        assert all(type(x) is Fraction for row in contraction_matrix(w) for x in row)

    @settings(max_examples=40, deadline=None)
    @given(w=st.one_of(kforms(degree=3, max_terms=8), dense_3forms()))
    def test_stabilizer_system_is_the_reference_times_the_denominator(self, w):
        d = math.lcm(*(x.denominator for x in w.terms.values()))
        assert _stabilizer_system(w) == [[d * x for x in row]
                                         for row in reference_stabilizer_system(w)]

    @pytest.mark.parametrize("orbit", range(1, 9))
    def test_classify_agrees_with_stabilizer_key(self, orbit):
        table = {reference_key(canonical(i).form): i for i in range(1, 9)}
        assert len(table) == 8
        rng = random.Random(500 + orbit)
        maps = [random_invertible(rng) for _ in range(2)]
        maps += [rational_invertible(rng) for _ in range(2)]
        for g in maps:
            w = pullback(g, canonical(orbit).form)
            assert classify(w) == table[reference_key(w)] == orbit


class TestDivisibilityFlag:
    def test_canonical_forms(self):
        assert _classifier_key(canonical(3).form) == (1, (1, 0), True)
        assert _classifier_key(canonical(4).form) == (1, (1, 0), False)
        for i in (1, 2, 5, 6, 7, 8):
            assert _classifier_key(canonical(i).form)[2] is None

    @staticmethod
    def _pullbacks(orbit):
        rng = random.Random(700 + orbit)
        maps = [random_invertible(rng) for _ in range(20)]
        maps += [rational_invertible(rng) for _ in range(20)]
        return [pullback(g, canonical(orbit).form) for g in maps]

    @pytest.mark.parametrize("orbit", [3, 4])
    def test_constant_on_pullbacks(self, orbit):
        keys = {_classifier_key(w) for w in self._pullbacks(orbit)}
        assert keys == {(1, (1, 0), orbit == 3)}

    @settings(max_examples=40, deadline=None)
    @given(covector=vectors(), w=st.one_of(kforms(degree=3, max_terms=8), dense_3forms()))
    def test_matches_wedge_reference(self, covector, w):
        assume(any(covector))
        assert _divides(covector, w) == reference_divides(covector, w)

    @settings(max_examples=40, deadline=None)
    @given(covector=vectors(), sigma=kforms(degree=2, max_terms=6))
    def test_divisible_forms_are_detected(self, covector, sigma):
        assume(any(covector))
        w = wedge(one_form(covector), sigma)
        assert _divides(covector, w) and reference_divides(covector, w)

    @pytest.mark.parametrize("orbit", [3, 4])
    def test_every_nonzero_row_gives_the_flag(self, orbit):
        for w in [canonical(orbit).form] + self._pullbacks(orbit):
            rows = [row for row in b_form(w).rows if any(row)]
            assert rows
            assert {_divides(row, w) for row in rows} == {orbit == 3}


class TestStabilizer:
    def test_exceptional_dimensions(self):
        assert stabilizer_dim(canonical(8).form) == 14
        assert stabilizer_dim(canonical(5).form) == 14

    def test_all_orbits_at_least_fourteen(self):
        dims = [stabilizer_dim(canonical(i).form) for i in range(1, 9)]
        assert dims == [18, 15, 28, 21, 14, 18, 15, 14]
        assert min(dims) == 14

    def test_basis_annihilates_form(self):
        # independent check of the kernel construction: each basis matrix
        # satisfies the derivation identity on random triples
        rng = random.Random(12)
        w = canonical(5).form
        basis = stabilizer_algebra(w)
        assert len(basis) == 14
        for A in basis[:5]:
            for _ in range(5):
                u = tuple(Fraction(rng.randint(-2, 2)) for _ in range(7))
                v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(7))
                x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(7))
                total = (evaluate(w, [apply(A, u), v, x])
                         + evaluate(w, [u, apply(A, v), x])
                         + evaluate(w, [u, v, apply(A, x)]))
                assert total == 0

    def test_closed_under_commutator(self):
        basis = stabilizer_algebra(canonical(8).form)
        for X in basis[:4]:
            for Y in basis[:4]:
                assert in_matrix_span(basis, (X @ Y) - (Y @ X))

    def test_column_order_is_a_permutation(self):
        assert sorted(_BY_P) == list(range(DIM * DIM))

    @pytest.mark.parametrize("orbit", range(1, 9))
    def test_dimension_is_conjugation_invariant(self, orbit):
        """Constant along integer and rational pullbacks, and equal to the
        corank of the system in its own (m-major) column order."""
        rng = random.Random(orbit)
        w = canonical(orbit).form
        maps = [random_invertible(rng) for _ in range(2)]
        maps += [rational_invertible(rng) for _ in range(2)]
        d = stabilizer_dim(w)
        for v in [w] + [pullback(g, w) for g in maps]:
            assert stabilizer_dim(v) == d == DIM * DIM - rank(_stabilizer_system(v))


class TestCompactDim:
    def test_preferred_representative_dimensions(self):
        reps = [canonical(1).form, canonical(2, "prime").form, canonical(3).form,
                canonical(4).form, canonical(5).form, canonical(6).form,
                canonical(7).form, canonical(8).form]
        assert [compact_dim(w) for w in reps] == [2, 2, 9, 3, 6, 4, 6, 14]

    @pytest.mark.parametrize("orbit,variant", [(i, "standard") for i in range(1, 9)]
                             + [(i, "prime") for i in (2, 5, 6, 7)])
    def test_every_canonical_variant_matches_reference(self, orbit, variant):
        w = canonical(orbit, variant).form
        assert compact_dim(w) == reference_compact_dim(w)

    @settings(max_examples=60, deadline=None)
    @given(w=kforms(degree=3, max_terms=8))
    def test_sparse_forms_match_reference(self, w):
        assert compact_dim(w) == reference_compact_dim(w)

    @settings(max_examples=20, deadline=None)
    @given(w=dense_3forms())
    def test_dense_forms_match_reference(self, w):
        assert compact_dim(w) == reference_compact_dim(w)

    @settings(max_examples=30, deadline=None)
    @given(w=degenerate_3forms())
    def test_non_multisymplectic_forms_match_reference(self, w):
        assert compact_dim(w) == reference_compact_dim(w)

    def test_zero_form(self):
        w = KForm(3)
        assert compact_dim(w) == reference_compact_dim(w) == 21

    @pytest.mark.parametrize("orbit", range(1, 9))
    def test_rational_pullbacks_match_reference(self, orbit):
        """The joint-rank oracle on the first five of the pullbacks that
        TestInvariantVector holds to the plain rank (~30 ms a form, so not
        all 40)."""
        for w in _rational_pullbacks(orbit, 5):
            assert compact_dim(w) == reference_compact_dim(w)


def _plain_invariants(w: KForm) -> tuple:
    """The invariant vector field by field, then compact_dim, one plain rank
    per system and no minor: the contraction rank, stabilizer_dim and the
    compact rank here rank the whole system, and the signature is read off
    the Fraction B."""
    restricted = [[row[a] - row[b] for a, b in _ANTISYMMETRIC_COLUMNS]
                  for row in _stabilizer_system(w)]
    p, n, _ = signature(b_form(w))
    return (rank(contraction_matrix(w)), (max(p, n), min(p, n)), stabilizer_dim(w),
            len(_ANTISYMMETRIC_COLUMNS) - rank(restricted))


def _rational_pullbacks(orbit: int, count: int) -> list[KForm]:
    """Pullbacks by seeded maps with entries p/q, |p| <= 3, 1 <= q <= 5."""
    rng = random.Random(900 + orbit)
    w = canonical(orbit).form
    return [pullback(rational_invertible(rng), w) for _ in range(count)]


def _singular_pullbacks(count: int) -> list[KForm]:
    """Pullbacks of canonical forms by rational maps g of rank 6 or 5: the
    pullback contracts to zero with any v in the kernel of g, so none is
    multisymplectic."""
    rng = random.Random(990)
    out = []
    for k in range(count):
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(DIM)]
                for _ in range(DIM - 1 - k % 2)]
        rows += [[0] * DIM] * (DIM - len(rows))
        out.append(pullback(LinearMap(rows), canonical(1 + k % 8).form))
    return out


class TestInvariantVector:
    """invariant_vector answers from one pass, certifying full rank by square
    minors where it can; these tests hold it and compact_dim to the plain
    ranks and pin which eliminations they run."""

    @staticmethod
    def _spy(monkeypatch) -> list[tuple[int, int]]:
        shapes = []

        def recording(m):
            shapes.append((len(m), len(m[0]) if m else 0))
            return rank(m)

        monkeypatch.setattr(forms7, "rank", recording)
        return shapes

    @staticmethod
    def _check(w: KForm) -> int:
        """Holds invariant_vector(w) and compact_dim(w) to the plain ranks;
        returns compact_dim(w)."""
        iv, compact = invariant_vector(w), compact_dim(w)
        ms, sig, stab, plain_compact = _plain_invariants(w)
        assert (iv.ms_rank, iv.b_signature, iv.b_rank, iv.stab_dim, compact) == \
            (ms, sig, sum(sig), stab, plain_compact)
        return compact

    @pytest.mark.parametrize("orbit", range(1, 9))
    def test_rational_pullbacks_match_plain_ranks(self, orbit):
        found = [self._check(w) for w in _rational_pullbacks(orbit, 40)]
        # orbit 3 brings the rational forms with compact_dim > 0
        assert {compact > 0 for compact in found} == {orbit == 3}

    @pytest.mark.parametrize("orbit,variant", [(i, "standard") for i in range(1, 9)]
                             + [(i, "prime") for i in (2, 5, 6, 7)])
    def test_canonical_variants_match_plain_ranks(self, orbit, variant):
        self._check(canonical(orbit, variant).form)

    def test_non_multisymplectic_and_zero_forms_match_plain_ranks(self):
        forms = _singular_pullbacks(16) + [KForm(3), alpha(1, 2, 3) + alpha(4, 5, 6)]
        for w in forms:
            assert ms_rank(w) < DIM
            self._check(w)

    @settings(max_examples=30, deadline=None)
    @given(w=st.one_of(kforms(degree=3, max_terms=8), dense_3forms(), degenerate_3forms()))
    def test_generated_forms_match_plain_ranks(self, w):
        self._check(w)

    def test_corpus_takes_every_branch(self, monkeypatch):
        """Each elimination sequence invariant_vector can run, and no other,
        seen on the corpus: the open-orbit minor certifies; it falls back;
        B of rank below 7 ranks the 7 x 7 minor of C, then all of C only if
        that minor is singular (at the canonical and singular forms), and the
        whole stabilizer system.  Only a B of rank 7 skips the rank of C and
        tries the open-orbit minor; nothing ranks the compact system."""
        shapes = self._spy(monkeypatch)
        seen = set()
        corpus = ([w for orbit in range(1, 9) for w in _rational_pullbacks(orbit, 2)]
                  + [canonical(i).form for i in range(1, 9)] + _singular_pullbacks(2))
        for w in corpus:
            shapes.clear()
            full = invariant_vector(w).b_rank == DIM
            assert ((7, 7) not in shapes) == ((35, 35) in shapes) == full
            seen.add(tuple(shapes))
        assert seen == {
            ((35, 35),),
            ((35, 35), (35, 49)),
            ((7, 7), (35, 49)),
            ((7, 7), (21, 7), (35, 49)),
        }

    def test_open_orbit_pullback_needs_no_full_elimination(self, monkeypatch):
        shapes = self._spy(monkeypatch)
        iv = invariant_vector(_rational_pullbacks(8, 1)[0])
        assert (iv.ms_rank, iv.stab_dim) == (7, 14)
        assert shapes == [(35, 35)]

    def test_canonical_orbit8_falls_back_to_the_full_elimination(self, monkeypatch):
        shapes = self._spy(monkeypatch)
        iv = invariant_vector(canonical(8).form)
        assert iv.stab_dim == 14
        assert shapes == [(35, 35), (35, 49)]

    def test_compact_dim_is_one_elimination(self, monkeypatch):
        shapes = self._spy(monkeypatch)
        assert compact_dim(canonical(3).form) == 9
        assert shapes == [(35, 21)]

    def test_fields_are_the_wire_fields(self):
        """The dataclass holds exactly the orbit invariants to_json sends."""
        names = [f.name for f in fields(InvariantVector)]
        assert names == ["ms_rank", "b_rank", "b_signature", "stab_dim"]
        wire = invariant_vector(canonical(5).form).to_json()
        assert list(wire) == ["ms_rank", "b_rank", "b_sig", "stab_dim"]

    @pytest.mark.parametrize("orbit", [5, 8])
    def test_open_pivots_certify_rational_pullbacks(self, orbit):
        """The k_p = (7, 7, 7, 7, 4, 2, 1) columns carry a nonsingular minor
        at seeded rational pullbacks of both open orbits."""
        assert len(set(_OPEN_PIVOTS)) == 35
        for w in _rational_pullbacks(orbit, 10):
            rows = _stabilizer_system(w)
            assert rank([[row[j] for j in _OPEN_PIVOTS] for row in rows]) == 35


class TestClassifier:
    def test_round_trip_on_canonical_forms(self):
        for i in range(1, 9):
            assert classify(canonical(i).form) == i

    def test_table_separates_without_fallback(self):
        # eight distinct keys, each the key of its canonical form
        keys = {_classifier_key(canonical(i).form): i for i in range(1, 9)}
        assert keys == _CLASSIFIER_TABLE

    def test_invariant_vector_of_orbit8(self):
        iv = invariant_vector(canonical(8).form)
        assert (iv.ms_rank, iv.b_rank, iv.b_signature, iv.stab_dim,
                compact_dim(canonical(8).form)) == (7, 7, (7, 0), 14, 14)
        assert iv.to_json() == {"ms_rank": 7, "b_rank": 7, "b_sig": [7, 0],
                                "stab_dim": 14}

    def test_fuzz_smoke(self):
        for orbit in range(1, 9):
            for seed in (1, 2):
                w, g = sample_orbit(orbit, seed)
                assert classify(w) == orbit

    def test_degree_checked(self):
        with pytest.raises(ValueError):
            classify(alpha(1, 2))

    def test_b_signature_matches_fraction_b(self):
        for i in range(1, 9):
            w = sample_orbit(i, 3)[0]
            p, n, _ = signature(b_form(w))
            assert b_signature(w) == (max(p, n), min(p, n))


class TestClassifierCost:
    """classify runs no elimination when B has rank 7, and one 7 x 7 minor of
    the contraction matrix otherwise; only a singular minor ranks all of C."""

    @pytest.fixture
    def shapes(self, monkeypatch) -> list[tuple[int, int]]:
        return TestInvariantVector._spy(monkeypatch)

    def test_open_orbit_pullback_runs_no_elimination(self, shapes):
        assert classify(sample_orbit(8, 1)[0]) == 8
        assert shapes == []

    def test_orbit1_pullback_runs_one_minor(self, shapes):
        assert classify(sample_orbit(1, 1)[0]) == 1
        assert shapes == [(7, 7)]

    def test_canonical_orbit1_falls_back_to_the_whole_matrix(self, shapes):
        assert classify(canonical(1).form) == 1
        assert shapes == [(7, 7), (21, 7)]

    def test_singular_pullback_falls_back(self, shapes):
        assert classify(_singular_pullbacks(1)[0]) == NON_MULTISYMPLECTIC
        assert shapes == [(7, 7), (21, 7)]


class TestSampleOrbit:
    def test_deterministic_per_seed(self):
        a1, g1 = sample_orbit(3, 987654321)
        a2, g2 = sample_orbit(3, 987654321)
        assert a1 == a2 and g1 == g2

    def test_distinct_seeds_differ(self):
        a1, _ = sample_orbit(3, 1)
        a2, _ = sample_orbit(3, 2)
        assert a1 != a2

    def test_witness_is_invertible_and_consistent(self):
        w, g = sample_orbit(6, 42)
        assert g.det() != 0
        assert pullback(g, canonical(6).form) == w
        assert all(abs(x) <= 3 for row in g.rows for x in row)

    def test_orbit_range_checked(self):
        with pytest.raises(ValueError):
            sample_orbit(9, 0)

    @pytest.mark.parametrize("orbit", [True, 3.0])
    def test_orbit_ids_that_are_not_ints_are_refused(self, orbit):
        with pytest.raises(ValueError, match="orbit id must be 1..8"):
            sample_orbit(orbit, 0)

    def test_seed_range_ends(self):
        low, _ = sample_orbit(3, 0)
        high, _ = sample_orbit(3, 2 ** 64 - 1)
        assert low != high
        assert sample_orbit(3, 2 ** 64 - 1)[0] == high

    @pytest.mark.parametrize("seed", [-1, -5, 2 ** 64, 2 ** 64 + 1, True, False, 1.0, "1"])
    def test_seeds_outside_the_range_are_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_orbit(3, seed)
