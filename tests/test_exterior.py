"""Exterior-algebra core: wedge, interior, pullback, kernel, signature."""

from __future__ import annotations

import copy
import math
import pickle
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msf7.exterior import (
    DIM,
    KForm,
    LinearMap,
    SymmetricMatrix,
    _det,
    _echelon,
    _inertia,
    _invert,
    basis_vector,
    interior,
    kernel,
    pullback,
    rank,
    scal,
    signature,
    vec,
    wedge,
)
from msf7.forms7 import (
    _ANTISYMMETRIC_COLUMNS,
    _BY_P,
    _contractions,
    _scaled_coefficients,
    _stabilizer_system,
    canonical,
    random_invertible,
)

from conftest import (
    alpha,
    apply,
    coefficient,
    coefficients,
    evaluate,
    in_matrix_span,
    invertible_maps,
    kforms,
    linear_maps,
    polarize,
    rational_invertible,
    reference_echelon,
    reference_signature,
    scaling,
    transpose,
    vectors,
    wedge_pullback,
)


def oracle_interior(v, a: KForm) -> KForm:
    """Independent contraction: reconstruct coefficients by full multilinear
    evaluation on basis tuples (no shared code with `interior`)."""
    terms = {}
    for idx in combinations(range(1, DIM + 1), a.degree - 1):
        val = evaluate(a, [v] + [basis_vector(i) for i in idx])
        if val:
            terms[idx] = val
    return KForm(a.degree - 1, terms)


def reference_pullback(g: LinearMap, a: KForm) -> KForm:
    """pullback as the package computed it before it wedged the rows of g:
    the coefficient of J is the sum over terms c e^I of c times the I x J
    minor of g, here from the Fraction Gauss-Jordan reference below."""
    k = a.degree
    if k == 0:
        return a
    acc = {}
    for idx, c in a.terms.items():
        rows = [g.rows[i - 1] for i in idx]
        for J in combinations(range(1, DIM + 1), k):
            minor = reference_rref([[row[j - 1] for j in J] for row in rows])[2]
            if minor:
                acc[J] = acc.get(J, 0) + c * minor
    return KForm(k, acc)


@st.composite
def forms_of_any_degree(draw):
    """Forms of degree 0..7 with up to four terms."""
    k = draw(st.integers(0, DIM))
    picked = draw(st.lists(st.sampled_from(list(combinations(range(1, DIM + 1), k))),
                           max_size=4, unique=True))
    return KForm(k, {idx: draw(coefficients) for idx in picked})


@st.composite
def maps_of_every_kind(draw):
    """Integer, rational, or singular of rank 0..6 (the last rows are integer
    combinations of the first, then the rows are shuffled)."""
    kind = draw(st.sampled_from(("integer", "rational", "singular")))
    if kind == "integer":
        return draw(linear_maps())
    if kind == "rational":
        return LinearMap([[draw(coefficients) for _ in range(DIM)] for _ in range(DIM)])
    r = draw(st.integers(0, DIM - 1))
    rows = [[draw(st.integers(-3, 3)) for _ in range(DIM)] for _ in range(r)]
    for _ in range(DIM - r):
        mix = [draw(st.integers(-2, 2)) for _ in range(r)]
        rows.append([sum(m * row[j] for m, row in zip(mix, rows)) for j in range(DIM)])
    return LinearMap(draw(st.permutations(rows)))


class TestConstructor:
    def test_degree_above_seven_rejected(self):
        # no strictly increasing index tuple of length 8 exists in 1..7, so
        # zero is the only 8-form
        assert not KForm(8).terms and KForm(8).degree == 8
        with pytest.raises(ValueError, match="degree -1 is negative"):
            KForm(-1)
        with pytest.raises(ValueError, match="out of range 1..7"):
            KForm(8, {(1, 2, 3, 4, 5, 6, 7, 8): 1})

    def test_non_increasing_index_rejected(self):
        with pytest.raises(ValueError, match="not strictly increasing"):
            KForm(3, {(1, 3, 2): 1})

    def test_zero_coefficients_dropped(self):
        assert KForm(3, {(1, 2, 3): 0, (1, 2, 4): 2}).terms == {(1, 2, 4): 2}
        assert (alpha(1, 2) - alpha(1, 2)).terms == {}

    def test_pullback_by_non_7x7_map_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pullback(LinearMap.identity(3), alpha(1, 2, 3))


class TestWedge:
    def test_repeated_covector_vanishes(self):
        assert not wedge(alpha(1), alpha(1)).terms

    def test_antisymmetry_of_covectors(self):
        assert wedge(alpha(1), alpha(2)) == alpha(1, 2)
        assert wedge(alpha(2), alpha(1)) == -alpha(1, 2)

    def test_first_term_of_orbit1_representative(self):
        assert wedge(alpha(1, 2), alpha(7)) == alpha(1, 2, 7)
        assert coefficient(canonical(1).form, (1, 2, 7)) == 1

    def test_degree_overflow_is_zero(self):
        a = alpha(1, 2, 3, 4)
        assert not wedge(a, a).terms
        assert not wedge(a, alpha(5, 6, 7, 1)).terms

    def test_degree_overflow_keeps_its_degree(self):
        a = alpha(1, 2, 3, 4)
        assert wedge(a, a).degree == 8
        with pytest.raises(ValueError, match="cannot add forms of different degree"):
            wedge(a, a) + alpha(1, 2, 3, 4, 5, 6, 7)

    @settings(max_examples=60)
    @given(a=kforms(), b=kforms())
    def test_graded_commutativity(self, a, b):
        sign = (-1) ** (a.degree * b.degree)
        assert wedge(a, b) == sign * wedge(b, a)

    @settings(max_examples=40)
    @given(a=kforms(degree=1), b=kforms(degree=2), c=kforms(degree=2))
    def test_associativity(self, a, b, c):
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    @settings(max_examples=40)
    @given(a=kforms(degree=2), b=kforms(degree=2), c=kforms(degree=2))
    def test_bilinearity(self, a, b, c):
        assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


class TestInterior:
    def test_first_slot_contraction_of_orbit8(self):
        got = interior(basis_vector(1), canonical(8).form)
        assert got == alpha(2, 3) + alpha(4, 5) - alpha(6, 7)

    def test_absent_index_gives_zero(self):
        assert not interior(basis_vector(7), alpha(1, 2, 3)).terms

    def test_vector_sum_against_hand_expansion(self):
        v = vec(1, 1)
        got = interior(v, canonical(1).form)
        expected = alpha(2, 7) + alpha(3, 4) - alpha(1, 7) + alpha(5, 6)
        assert got == expected

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="cannot contract a scalar"):
            interior(basis_vector(1), KForm(0, {(): 1}))

    @settings(max_examples=50)
    @given(v=vectors(), a=kforms())
    def test_matches_evaluation_oracle(self, v, a):
        assert interior(v, a) == oracle_interior(v, a)

    @settings(max_examples=40)
    @given(v=vectors(), a=kforms(degree=1, max_terms=3), b=kforms(degree=2, max_terms=3))
    def test_antiderivation_low_degree(self, v, a, b):
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + (-1) ** a.degree * wedge(a, interior(v, b))
        assert lhs == rhs

    @settings(max_examples=30)
    @given(v=vectors(), a=kforms(degree=3, max_terms=3), b=kforms(degree=4, max_terms=3))
    def test_antiderivation_high_degree(self, v, a, b):
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + (-1) ** a.degree * wedge(a, interior(v, b))
        assert lhs == rhs


class TestPullback:
    def test_identity(self):
        w5 = canonical(5).form
        assert pullback(LinearMap.identity(), w5) == w5

    def test_cubic_homogeneity(self):
        w = canonical(3).form
        assert pullback(scaling(2), w) == 8 * w

    def test_published_basis_change_hits_orbit2_alternate(self):
        cf = canonical(2, "prime")
        assert pullback(cf.change_of_basis, canonical(2).form) == cf.form

    def test_singular_maps_allowed(self):
        g = scaling(0)
        assert not pullback(g, canonical(8).form).terms

    @settings(max_examples=30)
    @given(g=linear_maps(), h=linear_maps(), a=kforms(degree=2, max_terms=3))
    def test_contravariant_functoriality(self, g, h, a):
        assert pullback(g @ h, a) == pullback(h, pullback(g, a))

    @settings(max_examples=30)
    @given(g=linear_maps(), a=kforms(degree=1, max_terms=3), b=kforms(degree=2, max_terms=3))
    def test_multiplicative_over_wedge(self, g, a, b):
        assert pullback(g, wedge(a, b)) == wedge(pullback(g, a), pullback(g, b))

    @settings(max_examples=30)
    @given(g=invertible_maps(), v=vectors(), a=kforms(degree=3, max_terms=3))
    def test_compatible_with_interior(self, g, v, a):
        assert interior(v, pullback(g, a)) == pullback(g, interior(apply(g, v), a))

    @settings(max_examples=40)
    @given(g=linear_maps(), a=kforms(degree=2, max_terms=2), vs=st.lists(vectors(), min_size=2, max_size=2))
    def test_against_evaluation_oracle(self, g, a, vs):
        assert evaluate(pullback(g, a), vs) == evaluate(a, [apply(g, v) for v in vs])

    @settings(max_examples=80, deadline=None)
    @given(g=maps_of_every_kind(), a=forms_of_any_degree())
    def test_agrees_with_minor_expansion(self, g, a):
        assert pullback(g, a) == reference_pullback(g, a)


class TestIntegerPullback:
    """The integer pullback against the Fraction wedge of covectors it
    replaced (``wedge_pullback`` in conftest)."""

    @settings(max_examples=100)
    @given(g=maps_of_every_kind(), a=forms_of_any_degree())
    @example(g=scaling(0), a=KForm(3, {(1, 2, 3): 1}))
    @example(g=LinearMap.identity(), a=KForm(0, {(): Fraction(-3, 4)}))
    @example(g=LinearMap.identity(), a=KForm(5))
    def test_agrees_with_wedge_pullback(self, g, a):
        got = pullback(g, a)
        assert got == wedge_pullback(g, a)
        assert all(type(x) is Fraction for x in got.terms.values())

    def test_forms_above_degree_seven_pull_back_to_zero(self):
        assert pullback(LinearMap.identity(), KForm(8)) == KForm(8)


@st.composite
def sparse_maps_and_vectors(draw):
    """n x n integer matrix (n = 1..8) with some rows and columns zeroed,
    and a rational length-n vector with some zero entries."""
    n = draw(st.integers(1, 8))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1))):
        rows[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1))):
        for row in rows:
            row[j] = 0
    v = [draw(st.one_of(st.just(Fraction(0)), coefficients)) for _ in range(n)]
    return LinearMap(rows), v


class TestApply:
    @settings(max_examples=60)
    @given(case=sparse_maps_and_vectors())
    def test_sparse_apply_equals_dense_sum(self, case):
        g, v = case
        dense = tuple(sum((r[j] * v[j] for j in range(g.n)), Fraction(0)) for r in g.rows)
        got = apply(g, v)
        assert got == dense
        assert all(type(x) is Fraction for x in got)

    @pytest.mark.parametrize("v", [[1, 2, 3, 4], [1, 2], []])
    def test_wrong_length_vector_rejected(self, v):
        with pytest.raises(ValueError, match="expected a vector of length 3"):
            apply(LinearMap.identity(3), v)

    @pytest.mark.parametrize("v", [[0.5, 0, 0], [0, True, 0], [1, 0, 2.0]])
    def test_inexact_entry_rejected(self, v):
        with pytest.raises(TypeError, match="not an exact scalar"):
            apply(LinearMap.identity(3), v)

    def test_entries_become_fractions(self):
        got = apply(LinearMap.identity(3), [1, "1/2", 0])
        assert got == (1, Fraction(1, 2), 0) and all(type(x) is Fraction for x in got)

    @pytest.mark.parametrize("v", [[0, True, 0, 0, 0, 0, 0], [0.5, 0, 0, 0, 0, 0, 0],
                                   [0, 0, 0, 0, 0, 0, True]])
    def test_interior_rejects_inexact_entry(self, v):
        """Like apply: a bool is not read as 1, even where no term meets it."""
        with pytest.raises(TypeError, match="not an exact scalar"):
            interior(v, alpha(1, 2, 3))

    @pytest.mark.parametrize("v", [[1, 0, 0, 0, 0, 0, 0, 5], [0, 0, 1], []])
    def test_interior_rejects_wrong_length_vector(self, v):
        with pytest.raises(ValueError, match="expected a vector of length 7"):
            interior(v, alpha(1, 2, 3))


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel(LinearMap.identity().rows) == []

    def test_zero_matrix_has_full_kernel(self):
        assert len(kernel([[0] * 5 for _ in range(3)])) == 5

    def test_exceptional_stabilizer_dimension(self):
        from msf7.forms7 import _stabilizer_system
        assert len(kernel(_stabilizer_system(canonical(8).form))) == 14

    @settings(max_examples=50)
    @given(rows=st.integers(2, 5), cols=st.integers(2, 6), data=st.data())
    def test_kernel_vectors_annihilate_and_count(self, rows, cols, data):
        m = [[data.draw(st.integers(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        ker = kernel(m)
        for x in ker:
            assert all(sum(m[i][j] * x[j] for j in range(cols)) == 0
                       for i in range(rows))
        assert rank(m) + len(ker) == cols
        # independence: the kernel matrix has full column rank
        if ker:
            assert rank([[v[i] for v in ker] for i in range(cols)]) == len(ker)

    @pytest.mark.parametrize("m", [[[1, 2], [2, 4, 5]], [[1], [1, 5]], [[1, 2, 3], []]])
    def test_ragged_matrix_is_refused(self, m):
        for f in (rank, kernel):
            with pytest.raises(ValueError, match="ragged matrix"):
                f(m)

    @pytest.mark.parametrize("m", [[[True, True]], [[1, 2], [0, False]], [[0.5, 1]]])
    def test_inexact_entry_is_refused(self, m):
        """A bool is not read as 1, whether the rest of its row is int or not."""
        for f in (rank, kernel):
            with pytest.raises(TypeError, match="not an exact scalar"):
                f(m)

    def test_rational_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(2, 5), Fraction(2, 5)]]
        ker = kernel(m)
        assert len(ker) == 1
        x = ker[0]
        assert all(sum(row[j] * x[j] for j in range(3)) == 0 for row in m)


def reference_rref(m):
    """Gauss-Jordan over Fractions, independent of the package's elimination:
    returns (reduced rows, pivot columns, determinant if m is square)."""
    a = [[Fraction(x) for x in row] for row in m]
    nr, nc = len(a), len(a[0])
    pivots, det, r = [], Fraction(1), 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv], det = a[piv], a[r], -det
        det *= a[r][c]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    if nr != nc:
        return a, pivots, None
    return a, pivots, det if len(pivots) == nr else Fraction(0)


def reference_kernel(m):
    """One primitive integer vector per free column, first nonzero positive."""
    a, pivots, _ = reference_rref(m)
    nc = len(a[0])
    out = []
    for f in (c for c in range(nc) if c not in pivots):
        x = [Fraction(int(c == f)) for c in range(nc)]
        for row, pc in zip(a, pivots):
            x[pc] = -row[f]
        scale = math.lcm(*(v.denominator for v in x))
        ints = [int(v * scale) for v in x]
        g = math.gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
        out.append(tuple(Fraction(v // g) for v in ints))
    return out


# every p/q with 1 <= q <= 5 and |p/q| <= 6, smallest first so that shrinking
# heads to 0; one sampled_from is far cheaper to draw from than st.fractions
RATIONALS = sorted({Fraction(p, q) for q in range(1, 6) for p in range(-6 * q, 6 * q + 1)},
                   key=lambda x: (abs(x), x < 0))
rational_entries = st.one_of(st.just(Fraction(0)), st.sampled_from(RATIONALS))


@st.composite
def rational_matrices(draw):
    """Rational matrices up to 8 x 9, sparse, with zero and duplicate rows."""
    nr, nc = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    rows = [[draw(rational_entries) for _ in range(nc)] for _ in range(nr)]
    for i in range(1, nr):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "copy")))
        if kind == "zero":
            rows[i] = [Fraction(0)] * nc
        elif kind == "copy":
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    return rows


@st.composite
def symmetric_matrices(draw):
    """Rational symmetric matrices of size 0..8, sparse; some have a zero
    diagonal (only hyperbolic blocks to pivot on), and zero or duplicate
    rows and columns make some rank deficient."""
    n = draw(st.integers(0, 8))
    hyperbolic = draw(st.integers(0, 9)) < 3
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + int(hyperbolic), n):
            a[i][j] = a[j][i] = draw(rational_entries)
    for i in range(1, n):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "copy")))
        if kind == "zero":
            for t in range(n):
                a[i][t] = a[t][i] = Fraction(0)
        elif kind == "copy":
            k = draw(st.integers(0, i - 1))
            for t in range(n):
                a[i][t] = a[t][i] = a[k][t]
            a[i][i] = a[k][k]
    return a


# kernel basis of the orbit-8 stabilizer system as the earlier Fraction
# back-substitution returned it: nonzero entries {flattened index: value}
ORBIT8_KERNEL = (
    {11: 1, 17: -1, 23: 1, 29: -1}, {10: 1, 18: 1, 22: -1, 30: -1},
    {9: 1, 15: -1, 25: -1, 31: 1}, {5: 1, 17: 1, 23: -1, 35: -1},
    {4: 1, 12: -1, 28: -1, 36: 1}, {3: 1, 19: -1, 21: -1, 37: 1},
    {2: 1, 14: -1, 26: 1, 38: -1}, {1: 1, 7: -1, 33: 1, 39: -1},
    {6: 1, 10: -1, 22: 1, 42: -1}, {3: 1, 13: 1, 21: -1, 43: -1},
    {4: 1, 20: -1, 28: -1, 44: 1}, {1: 1, 7: -1, 27: -1, 45: 1},
    {2: 1, 14: -1, 34: 1, 46: -1}, {9: 1, 15: -1, 41: 1, 47: -1},
)


def _orbit_systems(seed: int = 20261018) -> list[list[list[int]]]:
    """The stabilizer system (m-major and grouped by p), its antisymmetric
    restriction and the contraction matrix of two integer and two rational
    pullbacks of each orbit's representative."""
    rng = random.Random(seed)
    out = []
    for orbit in range(1, 9):
        w = canonical(orbit).form
        maps = [random_invertible(rng) for _ in range(2)]
        for g in maps + [rational_invertible(rng) for _ in range(2)]:
            v = pullback(g, w)
            rows = _stabilizer_system(v)
            out += [rows, [[row[j] for j in _BY_P] for row in rows],
                    [[row[a] - row[b] for a, b in _ANTISYMMETRIC_COLUMNS] for row in rows],
                    _contractions(_scaled_coefficients(v)[0])]
    return out


class TestEchelonCore:
    """kernel, rank, det, inverse and span tests share one elimination; each
    is checked against an independent Fraction Gauss-Jordan reference."""

    @settings(max_examples=300)
    @given(m=rational_matrices())
    def test_agrees_with_fraction_reference(self, m):
        _, pivots, _ = reference_rref(m)
        assert kernel(m) == reference_kernel(m)
        assert rank(m) == len(pivots)
        n = min(len(m), len(m[0]))
        sq = [row[:n] for row in m[:n]]
        ref_det = reference_rref(sq)[2]
        assert _det(sq) == ref_det
        aug = reference_rref([row + [Fraction(int(i == j)) for j in range(n)]
                              for i, row in enumerate(sq)])[0]
        assert _invert(sq) == ([row[n:] for row in aug] if ref_det else None)

    @settings(max_examples=150)
    @given(m=rational_matrices())
    def test_span_membership_agrees_with_reference_rank(self, m):
        # columns of m, zero padded to 9 entries, as 3x3 matrices
        mats = [LinearMap([[(col + (Fraction(0),) * 9)[3 * i + j] for j in range(3)]
                           for i in range(3)]) for col in zip(*m)]
        expected = (len(reference_rref([row[:-1] for row in m])[1])
                    == len(reference_rref(m)[1]))
        assert in_matrix_span(mats[:-1], mats[-1]) == expected

    @settings(max_examples=300)
    @given(m=rational_matrices())
    def test_matches_eager_bareiss(self, m):
        """The deferred rescale returns the eager elimination's 4-tuple."""
        assert _echelon(m) == reference_echelon(m)

    def test_matches_eager_bareiss_on_orbit_systems(self):
        for m in _orbit_systems():
            assert _echelon(m) == reference_echelon(m)

    def test_empty_matrix(self):
        assert (_det([]), _invert([]), kernel([]), rank([])) == (1, [], [], 0)
        assert evaluate(KForm(0, {(): 3}), []) == 3

    def test_orbit8_stabilizer_kernel_is_pinned(self):
        got = kernel(_stabilizer_system(canonical(8).form))
        want = [tuple(Fraction(v.get(i, 0)) for i in range(49)) for v in ORBIT8_KERNEL]
        assert got == want


class TestSignature:
    def test_identity(self):
        assert signature(LinearMap.identity().rows) == (7, 0, 0)

    def test_mixed_diagonal(self):
        assert signature([[1, 0, 0], [0, -1, 0], [0, 0, 0]]) == (1, 1, 1)

    def test_hyperbolic_block(self):
        # eigenvalues +-1 by hand
        assert signature([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix([[0, 1], [2, 0]])

    @settings(max_examples=40)
    @given(data=st.data(), p=invertible_maps())
    def test_congruence_invariance(self, data, p):
        n = DIM
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = data.draw(st.integers(-3, 3))
        pt_s_p = (transpose(p) @ LinearMap(s) @ p).rows
        assert signature(s) == signature(pt_s_p)

    @settings(max_examples=300)
    @given(m=symmetric_matrices())
    @example(m=[[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    @example(m=[[0, Fraction(1, 2), 0, 0], [Fraction(1, 2), 0, 0, 0],
                [0, 0, 0, -3], [0, 0, -3, 0]])
    def test_agrees_with_congruence_reference(self, m):
        assert signature(m) == reference_signature(m)


class TestInertia:
    """The integer core of signature, held to the congruence reference."""

    @staticmethod
    def _gram(rng: random.Random, n: int, r: int) -> list[list[int]]:
        """L diag(s) L^T for an integer n x r matrix L and signs s: rank at
        most r."""
        ell = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        s = [rng.choice((-1, 1)) for _ in range(r)]
        return [[sum(x * y * t for x, y, t in zip(u, v, s)) for v in ell] for u in ell]

    def test_rank_deficient_integer_matrices(self):
        rng = random.Random(627)
        for n in range(9):
            for r in range(n + 1):
                for _ in range(3):
                    a = self._gram(rng, n, r)
                    assert _inertia(a) == reference_signature(a)

    def test_does_not_change_its_input(self):
        a = [[2, 1], [1, 0]]
        assert _inertia(a) == (1, 1, 0)
        assert a == [[2, 1], [1, 0]]

    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(0, 8))
    def test_agrees_with_congruence_reference(self, data, n):
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = data.draw(st.integers(-4, 4))
        assert _inertia(a) == reference_signature(a)


class TestScal:
    @pytest.mark.parametrize("text, value", [
        ("1", Fraction(1)), ("-1/2", Fraction(-1, 2)), ("+3", Fraction(3)),
        ("0", Fraction(0)), ("007", Fraction(7)), ("10/4", Fraction(5, 2)),
        ("-0/5", Fraction(0))])
    def test_exact_fraction_strings(self, text, value):
        assert scal(text) == value

    @pytest.mark.parametrize("text", [
        "1e3", "1E3", "1_000", " 1/2 ", "1.5", "\u0661", "1/-2", "1/", "/2", "",
        "+", "1\n", "inf", "nan", "0x10", "1/2/3"])
    def test_other_strings_are_refused(self, text):
        with pytest.raises(ValueError, match="not an exact fraction string"):
            scal(text)

    def test_huge_exponent_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not an exact fraction string"):
            scal("1e3000000")
        assert time.perf_counter() - start < 0.1

    def test_zero_denominator_message_is_kept(self):
        with pytest.raises(ValueError, match="zero denominator in scalar '3/0'"):
            scal("3/0")


class TestPolarize:
    def test_recovers_the_symmetric_matrix(self):
        m = [[1, Fraction(3, 2), 0], [Fraction(3, 2), -2, 5], [0, 5, Fraction(1, 3)]]

        def q(x):
            return sum(m[i][j] * x[i] * x[j] for i in range(3) for j in range(3))

        got = polarize(q, 3)
        assert got == m
        assert all(type(x) is Fraction for row in got for x in row)


class TestSerialization:
    def test_kform_json_round_trip(self):
        data = {"degree": 3, "terms": [{"idx": [1, 2, 7], "coef": "1"},
                                       {"idx": [2, 5, 6], "coef": "-1/2"}]}
        f = KForm.from_json(data)
        assert coefficient(f, (2, 5, 6)) == Fraction(-1, 2)
        assert KForm.from_json(f.to_json()) == f

    def test_kform_pickle_and_copy_round_trip(self):
        f = KForm(3, {(1, 2, 7): 1, (2, 5, 6): Fraction(-1, 2)})
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert g == f
            with pytest.raises(TypeError):
                g.terms[(1, 2, 3)] = 1

    def test_kform_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="malformed"):
            KForm.from_json({"degree": 3})

    @pytest.mark.parametrize("data", [
        {"degree": 3.9, "terms": [{"idx": [1, 2, 3], "coef": "1"}]},
        {"degree": "3", "terms": [{"idx": [1, 2, 3], "coef": "1"}]},
        {"degree": True, "terms": []},
        {"degree": 3, "terms": [{"idx": [1.7, 2, 3], "coef": "1"}]},
        {"degree": 3, "terms": [{"idx": [1, True, 3], "coef": "1"}]},
    ])
    def test_kform_json_rejects_non_integers(self, data):
        with pytest.raises(ValueError, match="must be an integer"):
            KForm.from_json(data)

    def test_linear_map_json_round_trip(self):
        g = LinearMap.from_images({1: vec(0, 1), 2: vec(1)})
        again = LinearMap.from_json(g.to_json())
        assert again == g
        # columns are images of basis vectors
        assert g.to_json()["cols"][0][1] == "1"

    @pytest.mark.parametrize("entry", [True, False, 1.0])
    def test_linear_map_json_rejects_bools_and_floats(self, entry):
        data = LinearMap.identity().to_json()
        data["cols"][2][2] = entry
        with pytest.raises(ValueError, match="not an exact scalar"):
            LinearMap.from_json(data)

    def test_linear_map_json_rejects_zero_denominator(self):
        data = LinearMap.identity().to_json()
        data["cols"][2][2] = "1/0"
        with pytest.raises(ValueError, match="malformed LinearMap JSON: zero denominator"):
            LinearMap.from_json(data)

    @pytest.mark.parametrize("cols", [[["1", "2"], ["3"]],
                                      [["1", "2", "9"], ["3", "4", "9"]]])
    def test_linear_map_json_rejects_ragged_columns(self, cols):
        with pytest.raises(ValueError, match="malformed LinearMap JSON: each of the 2 columns"):
            LinearMap.from_json({"cols": cols})

    def test_kform_json_rejects_bool_coefficient(self):
        with pytest.raises(ValueError, match="not an exact scalar"):
            KForm.from_json({"degree": 3, "terms": [{"idx": [1, 2, 3], "coef": True}]})

    def test_vector_helpers(self):
        assert basis_vector(3)[2] == 1
        assert vec(1, "1/2")[1] == Fraction(1, 2)
        with pytest.raises(ValueError):
            basis_vector(0)


class TestLinearMapOps:
    def test_inverse_and_det(self):
        g = LinearMap.from_images({1: vec(1, 1), 2: vec(0, 1)})
        assert g.det() == 1
        assert (g @ g.inverse()) == LinearMap.identity()

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError, match="singular"):
            scaling(0).inverse()

    @settings(max_examples=30)
    @given(g=linear_maps(), h=linear_maps())
    def test_det_multiplicative(self, g, h):
        assert (g @ h).det() == g.det() * h.det()
