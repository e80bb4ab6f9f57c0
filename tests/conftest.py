"""Shared hypothesis strategies for exact forms, vectors and matrices, an
evaluation oracle for forms, and the congruence signature the package used
before it read signatures off the characteristic polynomial."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

from hypothesis import assume
from hypothesis import strategies as st

from msf7.exterior import DIM, KForm, LinearMap

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


def leibniz_det(m) -> Fraction:
    """Determinant as the signed sum over permutations; independent of the
    package's elimination."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod((m[i][p] for i, p in enumerate(perm)),
                                           start=Fraction(1))
    return total


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
