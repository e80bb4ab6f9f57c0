"""Shared hypothesis strategies for exact forms, vectors and matrices, and an
evaluation oracle for forms."""

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
