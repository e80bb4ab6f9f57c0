"""Shared hypothesis strategies for exact forms, vectors and matrices, an
evaluation oracle for forms, the eager Bareiss elimination the package ran
before it deferred the rescale of rows it does not update, the congruence
signature the package used before it read signatures off the characteristic
polynomial, the wedge-based pullback it used before the integer one, and the
Fraction classifier key it computed before it took the inertia of the
integer D^3 B and certified the contraction rank by a 7 x 7 minor.

Also the oracles only the tests call: the pair actions on doubled
quaternions and the embeddings the package built from them before it read
block-diagonal matrices off quaternion products, the 8x8 matrix of the SO(4)
pair action, a span test for matrices, the norm-form signature of an
algebra and the matrix transpose, the dense structure-constant product the
package ran before it stored one signed-permutation table per algebra, the
max-norm shell enumeration the topology search ran before it solved for the
last coordinate, and the definite-functional bound it computed by
polarizing the criterion before it read Gram matrices off the cup tensor.

Last, the definitions the package keeps out of ``src/`` because only the
tests reach them: ``matrix_in_imaginary_basis``, which derives the stored
orbit-5 change ``BASIS_MAP_5`` from the split octonions and reads back the
reference embeddings, the polarization ``polarize`` of a quadratic form, and
the small accessors ``apply``, ``coefficient``, ``scaling``,
``rotation_cs``, ``contraction_matrix`` and ``_classifier_key``."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import prod
from typing import Sequence

from hypothesis import assume
from hypothesis import strategies as st

from msf7.algebras import (
    _I,
    _J,
    _K,
    _ONE,
    _Z,
    AlgebraElement,
    AlgebraTable,
    _pair,
    build_algebra,
    conjugate,
    inner,
    norm,
    octonion_form_basis,
    split_quaternion_coords,
    split_so4_basis,
)
from msf7.exterior import (
    DIM,
    KForm,
    LinearMap,
    SymmetricMatrix,
    _SUBSETS,
    _F0,
    _echelon,
    _sort_with_sign,
    _wedge_table,
    kernel,
    rank,
    scal,
    signature,
    wedge,
)
from msf7.forms7 import (
    NON_MULTISYMPLECTIC,
    UNKNOWN,
    _CLASSIFIER_TABLE,
    _contractions,
    _divides,
    _key_data,
    _scaled_coefficients,
)
from msf7.stabilizers import _as_quaternion

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)

index_tuples = {
    k: st.sets(st.integers(min_value=1, max_value=DIM), min_size=k, max_size=k)
    for k in range(1, 5)
}


@st.composite
def kforms(draw, degree=None, max_terms=4):
    k = degree if degree is not None else draw(st.integers(min_value=1, max_value=4))
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        idx = tuple(sorted(draw(index_tuples[k])))
        terms[idx] = draw(coefficients)
    return KForm(k, {i: c for i, c in terms.items() if c})


@st.composite
def vectors(draw):
    return tuple(draw(coefficients) for _ in range(DIM))


@st.composite
def linear_maps(draw):
    return LinearMap([[draw(st.integers(min_value=-2, max_value=2))
                       for _ in range(DIM)] for _ in range(DIM)])


@st.composite
def invertible_maps(draw):
    m = draw(linear_maps())
    assume(m.is_invertible())
    return m


def alpha(*idx):
    return KForm.monomial(idx)


def rational_invertible(rng) -> LinearMap:
    """Seeded invertible 7x7 map with entries p/q, |p| <= 3, 1 <= q <= 5."""
    while True:
        g = LinearMap([[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(DIM)]
                       for _ in range(DIM)])
        if g.is_invertible():
            return g


def leibniz_det(m) -> Fraction:
    """Determinant as the signed sum over permutations; independent of the
    package's elimination."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod((m[i][p] for i, p in enumerate(perm)),
                                           start=Fraction(1))
    return total


# The elimination the package ran before it deferred the Bareiss rescale,
# kept verbatim: the differential oracle of ``_echelon``.
def reference_echelon(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free row echelon form (Bareiss 1968) of a rational matrix.

    Each row is first scaled by the lcm of its denominators; elimination then
    runs in Python ints, every division exact.  Returns ``(rows, pivot_cols,
    swap_sign, row_scale)``: the eliminated integer rows (the first
    ``len(pivot_cols)`` are the echelon rows), the pivot column of each, the
    sign of the row permutation, and the product of the row scalings.  For
    a nonsingular square ``m`` the last pivot is
    ``swap_sign * row_scale * det(m)``.
    """
    a = []
    row_scale = 1
    for row in m:
        row = [x if isinstance(x, int) else scal(x) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        row_scale *= d
        a.append([x.numerator * (d // x.denominator) for x in row])
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivot_cols: list[int] = []
    swap_sign = 1
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            swap_sign = -swap_sign
        top = a[r]
        p = top[c]
        for i in range(r + 1, nr):
            row = a[i]
            h = row[c]
            if h:
                # Bareiss update: exact integer division by the previous pivot
                a[i] = row[:c] + [(p * x - h * y) // prev
                                  for x, y in zip(row[c:], top[c:])]
            elif p != prev:
                a[i] = row[:c] + [p * x // prev for x in row[c:]]
        prev = p
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols, swap_sign, row_scale


# The Fraction path of the classifier key the package ran before it worked
# on the integer D^3 B, kept verbatim: the differential oracle of b_form,
# _classifier_key, ms_rank and classify.
def reference_induced_form(c: list[int], d: int, contractions: list[list[int]]) -> SymmetricMatrix:
    """B = C^T M C / D^3, where C is the integer contraction matrix of w scaled
    by D (coefficients c) and M[P][Q] the volume coefficient of e^P ^ e^Q ^ D w.
    """
    # volume coefficient of e^R ^ D w, for each 4-subset R
    vol = [0] * len(_SUBSETS[4])
    for r, k, _, s in _wedge_table(4, 3):
        vol[r] = s * c[k]
    mc = [[0] * DIM for _ in contractions]  # M C
    for p, q, r, s in _wedge_table(2, 2):
        if x := s * vol[r]:
            mc[p] = [a + x * b for a, b in zip(mc[p], contractions[q])]
    d3 = d ** 3
    rows = [[Fraction(0)] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            total = sum(row[i] * m[j] for row, m in zip(contractions, mc))
            rows[i][j] = rows[j][i] = Fraction(total, d3)
    return SymmetricMatrix(rows)


def reference_fraction_b_form(w: KForm) -> SymmetricMatrix:
    c, d = _scaled_coefficients(w)
    return reference_induced_form(c, d, _contractions(c))


def reference_classifier_key(w: KForm) -> tuple:
    B = reference_fraction_b_form(w)
    p, n, _ = signature(B)
    divisible = None
    if p + n == 1:
        divisible = _divides(next(row for row in B.rows if any(row)), w)
    return (p + n, (max(p, n), min(p, n)), divisible)


def reference_ms_rank(w: KForm) -> int:
    """The rank of the whole 21 x 7 contraction matrix, with no minor."""
    return rank(_contractions(_scaled_coefficients(w)[0]))


def reference_classify(w: KForm):
    if reference_ms_rank(w) < DIM:
        return NON_MULTISYMPLECTIC
    return _CLASSIFIER_TABLE.get(reference_classifier_key(w), UNKNOWN)


def evaluate(form: KForm, vectors) -> Fraction:
    """Full multilinear evaluation of a k-form on k coordinate vectors; shares
    no code with wedge, interior, pullback or the elimination core."""
    if len(vectors) != form.degree:
        raise ValueError("wrong number of arguments")
    return sum((c * leibniz_det([[v[i - 1] for i in idx] for v in vectors])
                for idx, c in form.terms.items()), Fraction(0))


def reference_signature(rows) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix as the package
    computed it before it read signatures off the characteristic polynomial:
    congruence diagonalization over Fractions with symmetric pivoting.  When
    every remaining diagonal entry vanishes but some off-diagonal a[i][j] does
    not, adding row and column j to row and column i turns the hyperbolic
    2x2 block into one positive and one negative square."""
    a = [[Fraction(x) for x in r] for r in getattr(rows, "rows", rows)]
    n = len(a)
    pos = neg = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            hyp = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        hyp = (i, j)
                        break
                if hyp:
                    break
            if hyp is None:
                break  # remaining block is zero
            i, j = hyp
            # row/col addition makes a nonzero diagonal entry: a[i][i] becomes 2*a[i][j]
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for t in range(n):
                a[t][k], a[t][piv] = a[t][piv], a[t][k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / d
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
        k += 1
    return pos, neg, n - pos - neg


def wedge_pullback(g: LinearMap, a: KForm) -> KForm:
    """pullback as the package computed it before it worked in ints: row i
    of g is the covector g* e^i, so each term c e^{i1} ^ ... ^ e^{ik} pulls
    back to c (g* e^{i1}) ^ ... ^ (g* e^{ik}), a product of Fraction wedges."""
    if g.n != DIM:
        raise ValueError("dimension mismatch")
    covectors = [KForm(1, {(j,): x for j, x in enumerate(row, 1)}) for row in g.rows]
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, c in a.terms.items():
        term = KForm(0, {(): c})
        for i in idx:
            term = wedge(term, covectors[i - 1])
        for J, x in term.terms.items():
            acc[J] = acc.get(J, 0) + x
    return KForm(a.degree, acc)


def transpose(g: LinearMap) -> LinearMap:
    return LinearMap(list(zip(*g.rows)))


def in_matrix_span(candidates: list[LinearMap], target: LinearMap) -> bool:
    """Exact membership of target in the linear span of candidate matrices:
    one elimination of [candidates | target], in the span iff the target's
    column is not a pivot column."""
    n = target.n
    mats = list(candidates) + [target]
    rows = [[m.rows[i][j] for m in mats] for i in range(n) for j in range(n)]
    return len(candidates) not in _echelon(rows)[1]


def _sandwich(left, right):
    return lambda p: left * p * right


def _pair_action(base: AlgebraTable, t: AlgebraTable, fp, fq):
    """The map (p, q) -> (fp(p), fq(q)) on the algebra t of pairs of base
    elements."""
    h = base.dim

    def fn(x):
        p, q = base.element(x.coords[:h]), base.element(x.coords[h:])
        return t.element(fp(p).coords + fq(q).coords)

    return fn


def _so4_action(a, b, split: bool):
    """(algebra, map) of the unit-quaternion pair action; raises unless a and
    b are unit quaternions."""
    H = build_algebra("H")
    a = _as_quaternion(H, a)
    b = _as_quaternion(H, b)
    if norm(H, a) != 1 or norm(H, b) != 1:
        raise ValueError("parameters must be unit quaternions")
    ai = conjugate(H, a)
    bi = conjugate(H, b)
    if split:
        t = build_algebra("Osplit")
        return t, _pair_action(H, t, _sandwich(a, ai), _sandwich(a, bi))
    t = build_algebra("O")
    return t, _pair_action(H, t, _sandwich(a, ai), _sandwich(b, ai))


def sl2pair_basis() -> list:
    """Imaginary basis of the doubled split quaternions matching the
    coordinates of the orbit-2 alternate representative."""
    t = build_algebra("Osplit_from_Hsplit")
    return [_pair(t, _I, _Z), _pair(t, _J, _Z), _pair(t, _K, _Z), _pair(t, _Z, _ONE),
            _pair(t, _Z, _I), _pair(t, _Z, _J), _pair(t, _Z, _K)]


def reference_embed_so4(a, b, split: bool = False) -> LinearMap:
    """``embed_so4`` as the package built it before it read blocks off
    quaternion products: the pair action on the frozen basis elements, read
    back through ``matrix_in_imaginary_basis``."""
    t, fn = _so4_action(a, b, split)
    basis = split_so4_basis() if split else octonion_form_basis()
    return matrix_in_imaginary_basis(t, basis, [fn(x) for x in basis])


def reference_embed_sl2pair(a, b) -> LinearMap:
    """``embed_sl2pair`` the same old way, without its parameter checks."""
    da, db = LinearMap(a).det(), LinearMap(b).det()
    Ht = build_algebra("Hsplit")
    qa = Ht.element(split_quaternion_coords(a))
    qb = Ht.element(split_quaternion_coords(b))
    qai = conjugate(Ht, qa).scale(1 / da)
    qbi = conjugate(Ht, qb).scale(1 / db)
    t = build_algebra("Osplit_from_Hsplit")
    fn = _pair_action(Ht, t, _sandwich(qa, qai), _sandwich(qa, qbi))
    basis = sl2pair_basis()
    return matrix_in_imaginary_basis(t, basis, [fn(x) for x in basis])


def embed_so4_algebra_matrix(a, b, split: bool = False) -> list:
    """Full 8x8 matrix of the pair action behind ``embed_so4`` on the (split)
    octonions, for automorphism checks."""
    t, fn = _so4_action(a, b, split)
    cols = [fn(t.basis(j)).coords for j in range(8)]
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def norm_signature(t: AlgebraTable, imaginary_only: bool = False) -> tuple[int, int, int]:
    """Signature of the norm form, optionally restricted to the orthogonal
    complement of the unit."""
    gram = [[inner(t, t.basis(i), t.basis(j)) for j in range(t.dim)] for i in range(t.dim)]
    if not imaginary_only:
        return signature(gram)
    comp = kernel([gram[t.unit_index]])
    return signature([[sum(u[a] * gram[a][b] * v[b] for a in range(t.dim) for b in range(t.dim))
                       for v in comp] for u in comp])


# The dense product the package ran before it stored one signed-permutation
# table per algebra: the differential oracle of ``multiply``.
def reference_multiply(t: AlgebraTable, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """x y from the structure constants mult[i][j][k], the e_k coefficient of
    e_i e_j, as ``to_json`` writes them."""
    mult = [[[Fraction(c) for c in col] for col in row] for row in t.to_json()["mult"]]
    out = [Fraction(0)] * t.dim
    for i, xi in enumerate(x.coords):
        for j, yj in enumerate(y.coords):
            for k, m in enumerate(mult[i][j]):
                out[k] += xi * yj * m
    return AlgebraElement(t, tuple(out))


def _shell_vectors(dim: int, bound: int):
    """All integer vectors with max-norm <= bound, by shell then lexicographic."""
    if dim == 0:
        yield ()
        return
    for shell in range(bound + 1):
        yield from _shell(dim, shell)


def _shell(dim: int, s: int):
    """Vectors of max-norm exactly s in lexicographic order, generated from
    the boundary of the cube [-s, s]^dim only."""
    full = range(-s, s + 1)
    for x in full:
        if abs(x) == s:
            tails = product(full, repeat=dim - 1)
        elif dim > 1:
            tails = _shell(dim - 1, s)
        else:
            continue
        for rest in tails:
            yield (x,) + rest


def reference_exhaustion_bound(qvec, dim: int, r4: int, target) -> int | None:
    """If some +-coordinate or +-sum functional of the vector-valued quadratic
    form is definite, return a box bound containing all integer solutions of
    qvec(x) = target (None if no definite functional is found).

    A negative functional value with a positive definite form returns 0: no
    nonzero solution can exist and x = 0 is checked separately.
    """
    if dim == 0:
        return 0
    functionals = []
    for c in range(r4):
        lam = [0] * r4
        lam[c] = 1
        functionals.append(tuple(lam))
        functionals.append(tuple(-x for x in lam))
    if r4 > 1:
        functionals.append(tuple([1] * r4))
        functionals.append(tuple([-1] * r4))
    for lam in functionals:
        def q_scalar(x, _lam=lam):
            vals = qvec(x)
            return sum(l * v for l, v in zip(_lam, vals))

        m = polarize(q_scalar, dim)
        pos, neg, null = signature(m)
        if pos != dim:
            continue
        s = sum(l * t for l, t in zip(lam, target))
        if s < 0:
            return 0
        inv = LinearMap(m).inverse()
        box = 0
        for i in range(dim):
            # max of x_i^2 on {x^T m x <= s} is s * (m^-1)_ii
            cap = Fraction(s) * inv.rows[i][i]
            # floor(sqrt(cap)) == isqrt(floor(cap)) for cap >= 0
            box = max(box, math.isqrt(cap.numerator // cap.denominator))
        return box
    return None


# --- definitions only the tests reach ------------------------------------------

@cache
def _coordinates_in(columns: tuple) -> LinearMap:
    """Inverse of the matrix with these columns, cached per frozen basis."""
    return LinearMap.from_cols(columns).inverse()


def matrix_in_imaginary_basis(t: AlgebraTable, basis, images) -> LinearMap:
    """7x7 matrix whose column j holds the coordinates of images[j] in the
    given 7-element imaginary basis; raises if an image has a unit component."""
    pinv = _coordinates_in((t.unit().coords, *(b.coords for b in basis)))
    cols = []
    for image in images:
        c = apply(pinv, image.coords)
        if c[0] != 0:
            raise ValueError("map does not preserve the imaginary subspace")
        cols.append(c[1:])
    return LinearMap.from_cols(cols)


def apply(g: LinearMap, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """g v, summing only the products whose two factors are nonzero; each
    nonzero entry goes through ``scal``, so a float or a bool raises."""
    if len(v) != g.n:
        raise ValueError(f"expected a vector of length {g.n}, got {len(v)}")
    nonzero = [(j, scal(x)) for j, x in enumerate(v) if x]
    return tuple(sum((r[j] * x for j, x in nonzero if r[j]), _F0) for r in g.rows)


def coefficient(w: KForm, indices: Sequence[int]) -> Fraction:
    idx, sign = _sort_with_sign(indices)
    if sign == 0:
        return Fraction(0)
    return sign * w.terms.get(idx, Fraction(0))


def scaling(c) -> LinearMap:
    c = scal(c)
    return LinearMap([[c if i == j else 0 for j in range(DIM)] for i in range(DIM)])


def rotation_cs(t) -> tuple[Fraction, Fraction]:
    """Rational (cos, sin) pair from the tan-half-angle parameter t."""
    t = scal(t)
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


def contraction_matrix(w: KForm) -> list[list[Fraction]]:
    """21 x 7 matrix of v -> interior(v, w) in the pair basis of 2-forms."""
    c, d = _scaled_coefficients(w)
    return [[Fraction(x, d) for x in row] for row in _contractions(c)]


def _classifier_key(w: KForm) -> tuple:
    """(rank of B, unordered signature of B, divisibility flag or None).

    The flag is only defined when B has rank 1: then B = c l (x) l and every
    nonzero row of B is a multiple of l; the flag says whether l ^ w = 0.
    """
    return _key_data(w)[1]


def polarize(q, dim: int) -> list[list[Fraction]]:
    """Symmetric matrix m_ij = (q(e_i + e_j) - q(e_i) - q(e_j)) / 2 of the
    quadratic form q, a callable on 0/1 integer coordinate tuples."""
    def unit(*idx):
        return tuple(1 if k in idx else 0 for k in range(dim))

    diag = [Fraction(q(unit(i))) for i in range(dim)]
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        m[i][i] = diag[i]
        for j in range(i + 1, dim):
            m[i][j] = m[j][i] = (Fraction(q(unit(i, j))) - diag[i] - diag[j]) / 2
    return m
