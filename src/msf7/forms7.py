"""Canonical multisymplectic representatives, orbit invariants, classifier.

The eight orbit representatives are stored with their printed coefficients.
Orbit 2 also carries the rational change of basis to its six-term variant
(the square roots in the intermediate basis cancel once the first three
vectors are halved, so the stored matrix is exactly rational).  Orbits 5, 6
and 7 carry alternate representatives, each the pullback of the standard
form by a stored signed permutation: orbit 5 the split-octonion variant
used alongside orbit 2, orbits 6 and 7 the representatives obtained through
the published basis-change maps.

A form whose contraction map v -> i_v w has rank below 7 is not
multisymplectic.  Otherwise the classifier key is (rank and unordered
signature of the induced bilinear form B, divisibility flag).  The flag is
set only when B has rank 1, B = c l (x) l, and says whether l ^ w = 0, i.e.
w = l ^ sigma.  It is a GL(7) invariant: pullback by g turns B into
det(g) g^T B g, so l into a multiple of g^T l, and g*(l ^ w) = 0 iff
l ^ w = 0.  The keys of the eight orbits are distinct (Westwick, "Real
trivectors of rank seven", 1981), so classify looks them up in a static
table.  The rank, B and the stabilizer system all read one integer
contraction matrix (column m is i_{e_m} w, w scaled to integers) and the
cached tables of basis wedge products, which they import from ``exterior``
(``_SUBSETS``, ``_INDEX``, ``_wedge_table``) so one copy of each exists.

B is computed in Python ints: ``_induced_form`` returns D^3 B = C^T M C,
with D the lcm of the coefficient denominators of w, C the integer
contraction matrix of D w and M[P][Q] the volume coefficient of
e^P ^ e^Q ^ D w.  D^3 > 0, so ``_inertia`` reads the inertia of B off
D^3 B, and the divisibility flag takes its covector from a nonzero integer
row; only ``b_form`` divides by D^3.

``classify`` and ``invariant_vector`` are one pass: they scale w and build C
once.  rank C >= rank B, so a B of rank 7 sets ms_rank = 7 without an
elimination.  Before a full elimination they rank one square minor: a
nonsingular r x r minor of a matrix with r columns (or r rows) proves full
rank, and a singular one proves nothing (rows outside it may still be
independent), so the whole matrix is ranked as before.  The ms_rank minor
is the pair rows ``_MS_PIVOTS`` of C.  ``invariant_vector`` also builds the
35 x 49 stabilizer system once; its minor, tried when B has rank 7, is the
35 columns ``_OPEN_PIVOTS`` (stab_dim = 14).  The invariant vector holds
orbit invariants only: ``compact_dim``, which depends on the representative,
is computed by its own function.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from operator import itemgetter, mul

from .exterior import (
    DIM,
    KForm,
    LinearMap,
    SymmetricMatrix,
    _INDEX,
    _SUBSETS,
    _inertia,
    _wedge_table,
    kernel,
    pullback,
    rank,
)

ORBIT_IDS = (1, 2, 3, 4, 5, 6, 7, 8)

_ORBIT_TERMS = {
    1: [((1, 2, 7), 1), ((1, 3, 4), 1), ((2, 5, 6), 1)],
    2: [((1, 2, 5), 1), ((1, 2, 7), 1), ((1, 4, 7), 1),
        ((2, 3, 7), -1), ((3, 4, 7), 1), ((3, 4, 6), 1)],
    3: [((1, 2, 3), 1), ((1, 6, 7), -1), ((1, 4, 5), 1)],
    4: [((1, 2, 5), 1), ((1, 3, 6), 1), ((1, 4, 7), 1), ((2, 3, 4), 1)],
    5: [((1, 2, 3), 1), ((1, 4, 5), -1), ((1, 6, 7), 1),
        ((2, 4, 6), 1), ((2, 5, 7), 1), ((3, 4, 7), 1), ((3, 5, 6), -1)],
    6: [((1, 2, 3), 1), ((1, 4, 5), -1), ((1, 6, 7), 1),
        ((2, 4, 6), -1), ((2, 5, 7), -1)],
    7: [((1, 4, 5), 1), ((1, 6, 7), -1), ((2, 4, 6), 1),
        ((2, 5, 7), 1), ((3, 4, 7), 1), ((3, 5, 6), -1)],
    8: [((1, 2, 3), 1), ((1, 4, 5), 1), ((1, 6, 7), -1),
        ((2, 4, 6), 1), ((2, 5, 7), 1), ((3, 4, 7), 1), ((3, 5, 6), -1)],
}

_ORBIT_TERMS_2PRIME = [((1, 4, 5), 1), ((1, 6, 7), -1), ((2, 5, 7), 1),
                       ((2, 4, 6), -1), ((3, 4, 7), -1), ((3, 5, 6), -1)]

# Change of basis carrying the 6-term representative of orbit 2 to its
# printed alternate: columns are the new basis vectors in old coordinates.
# The published intermediate basis has 1/sqrt(2) factors on the last four
# vectors; halving the first three instead yields the same 3-form with all
# entries rational.
_BASIS_CHANGE_2 = LinearMap.from_cols([
    [0, 0, 0, 0, Fraction(1, 2), Fraction(1, 2), 0],
    [0, 0, 0, 0, Fraction(-1, 2), Fraction(1, 2), 0],
    [0, 0, 0, 0, Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)],
    [-1, 0, 0, -1, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0],
    [0, -1, -1, 0, 0, 0, 0],
    [-1, 0, 0, 1, 0, 0, 0],
])

# Change of basis carrying the orbit-5 representative to its variant used
# alongside orbit 2: e1->-e1, e2->-e4, e3->-e5, e4->-e2, e5->e3.  It writes
# the split-octonion basis inducing the variant in the coordinates of the one
# inducing the standard form; the tests derive it from the algebra.
BASIS_MAP_5 = LinearMap.from_images({
    1: [-1, 0, 0, 0, 0, 0, 0],
    2: [0, 0, 0, -1, 0, 0, 0],
    3: [0, 0, 0, 0, -1, 0, 0],
    4: [0, -1, 0, 0, 0, 0, 0],
    5: [0, 0, 1, 0, 0, 0, 0],
})

# Published map relating the six-term orbit-6 representative to the one used
# in the original classification: e3 -> -e7, e7 -> e3, e5 -> -e5, e6 -> -e6.
BASIS_MAP_6 = LinearMap.from_images({
    3: [0, 0, 0, 0, 0, 0, -1],
    7: [0, 0, 1, 0, 0, 0, 0],
    5: [0, 0, 0, 0, -1, 0, 0],
    6: [0, 0, 0, 0, 0, -1, 0],
})

# Same for orbit 7: e1->-e4, e2->-e7, e3->e5, e4->-e6, e5->e3, e6->-e1, e7->e2.
BASIS_MAP_7 = LinearMap.from_cols([
    [0, 0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, -1, 0],
    [0, 0, 1, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
])


@dataclass(frozen=True)
class CanonicalForm:
    orbit_id: int
    variant: str
    form: KForm
    source_basis: str
    change_of_basis: LinearMap | None  # pullback(change, standard) == this form


# For the prime variants of orbits 5, 6 and 7: the change of basis whose
# pullback of the standard form gives the variant, and the basis the variant
# is written in.
_PRIME_CHANGES = {
    5: (BASIS_MAP_5, "beta"),
    6: (BASIS_MAP_6.inverse(), "e"),
    7: (BASIS_MAP_7.inverse(), "e"),
}


# typed, so canonical(True) misses the entry of canonical(1) and is refused
@lru_cache(maxsize=None, typed=True)
def canonical(orbit_id: int, variant: str = "standard") -> CanonicalForm:
    """Exact canonical representative for an orbit.

    variant "standard" exists for all eight orbits; "prime" for orbits 2, 5,
    6 and 7 (the alternates the classification works with).  The stored
    change-of-basis map carries the standard form to the variant by pullback.
    An orbit id that is not an int (a bool or a float included) raises
    ValueError.
    """
    if type(orbit_id) is not int or orbit_id not in ORBIT_IDS:
        raise ValueError(f"orbit id must be 1..8, got {orbit_id!r}")
    if variant == "standard":
        return CanonicalForm(orbit_id, "standard",
                             KForm.from_terms(3, _ORBIT_TERMS[orbit_id]), "e", None)
    if variant != "prime":
        raise ValueError(f"unknown variant {variant!r}")
    if orbit_id == 2:
        return CanonicalForm(2, "prime", KForm.from_terms(3, _ORBIT_TERMS_2PRIME),
                             "beta", _BASIS_CHANGE_2)
    if orbit_id not in _PRIME_CHANGES:
        raise ValueError(f"orbit {orbit_id} has no prime variant")
    change, source_basis = _PRIME_CHANGES[orbit_id]
    return CanonicalForm(orbit_id, "prime", pullback(change, canonical(orbit_id).form),
                         source_basis, change)


# --- invariants ---------------------------------------------------------------

# (column of A[m][p], column of A[p][m]) in the stabilizer system, m < p
_ANTISYMMETRIC_COLUMNS = tuple((m * DIM + p, p * DIM + m)
                               for m, p in combinations(range(DIM), 2))

# stabilizer_dim ranks the system with its columns grouped by p.  Column m*7+p
# (e^(p+1) ^ i_{e_(m+1)} w) is zero off the 15 triples that contain p+1, so the
# first seven pivots touch only those rows for p = 0, and fill-in comes late.
_BY_P = tuple(m * DIM + p for p in range(DIM) for m in range(DIM))

# The first k_p columns of each p-group, k = (7, 7, 7, 7, 4, 2, 1), the number
# of pivots each group takes in the p-grouped elimination of a generic form of
# orbits 5 and 8.  Their 35 x 35 minor is singular at special forms such as
# canonical(8).
_OPEN_PIVOTS = tuple(m * DIM + p for p, k in enumerate((7, 7, 7, 7, 4, 2, 1))
                     for m in range(k))


def _scaled_coefficients(w: KForm) -> tuple[list[int], int]:
    """(c, D): D is the lcm of the coefficient denominators of w and c[k] is
    D times the coefficient of the k-th index triple (lexicographic order).
    Every integer path starts here, so it rejects forms of other degrees."""
    if w.degree != 3:
        raise ValueError(f"expected a 3-form, got degree {w.degree}")
    d = math.lcm(*(x.denominator for x in w.terms.values()))
    c = [0] * len(_SUBSETS[3])
    for idx, x in w.terms.items():
        c[_INDEX[idx]] = x.numerator * (d // x.denominator)
    return c, d


def _contractions(c: list[int]) -> list[list[int]]:
    """21 x 7 matrix whose column m is i_{e_m} w in the pair basis, for w with
    scaled coefficients c: i_{e_m} e^K = s e^P iff e^m ^ e^P = s e^K."""
    rows = [[0] * DIM for _ in _SUBSETS[2]]
    for m, p, k, s in _wedge_table(1, 2):
        rows[p][m] = s * c[k]
    return rows


# Seven pair rows of C (12, 34, 56, 17, 23, 45, 67: each index in two of
# them) whose 7 x 7 minor is nonsingular at a generic form of rank 7; it is
# singular at every canonical form.
_MS_PIVOTS = tuple(_INDEX[pair] for pair in ((1, 2), (3, 4), (5, 6), (1, 7),
                                             (2, 3), (4, 5), (6, 7)))


def _ms_rank(contractions: list[list[int]]) -> int:
    """Rank of the contraction matrix; the minor on ``_MS_PIVOTS`` is tried
    first."""
    if rank([contractions[p] for p in _MS_PIVOTS]) == DIM:
        return DIM
    return rank(contractions)


def ms_rank(w: KForm) -> int:
    return _ms_rank(_contractions(_scaled_coefficients(w)[0]))


def is_multisymplectic(w: KForm) -> bool:
    """True iff v -> w(v, -, -) is injective."""
    return ms_rank(w) == DIM


def b_form(w: KForm) -> SymmetricMatrix:
    """B(u, v) defined by interior(u,w) ^ interior(v,w) ^ w = B(u,v) vol."""
    c, d = _scaled_coefficients(w)
    d3 = d ** 3
    return SymmetricMatrix([[Fraction(x, d3) for x in row]
                            for row in _induced_form(c, _contractions(c))])


@cache
def _pair_neighbours() -> tuple[tuple[itemgetter, tuple[tuple[int, int], ...]], ...]:
    """For each pair P, a getter of the entries at the 10 pairs Q disjoint
    from P, and the (R, sign) with e^P ^ e^Q = sign e^R for each Q."""
    table = [([], []) for _ in _SUBSETS[2]]
    for p, q, r, s in _wedge_table(2, 2):
        table[p][0].append(q)
        table[p][1].append((r, s))
    return tuple((itemgetter(*qs), tuple(rs)) for qs, rs in table)


def _induced_form(c: list[int], contractions: list[list[int]]) -> list[list[int]]:
    """D^3 B = C^T M C as a symmetric matrix of ints, where C is the integer
    contraction matrix of w scaled by D (coefficients c) and M[P][Q] the
    volume coefficient of e^P ^ e^Q ^ D w.  M C is built a column at a
    time, one 10-term dot product per pair P, over the pairs Q disjoint
    from P."""
    # volume coefficient of e^R ^ D w, for each 4-subset R
    vol = [0] * len(_SUBSETS[4])
    for r, k, _, s in _wedge_table(4, 3):
        vol[r] = s * c[k]
    m = [(get, [s * vol[r] for r, s in rs]) for get, rs in _pair_neighbours()]
    cols = list(zip(*contractions))
    mc = [[sum(map(mul, x, get(col))) for get, x in m] for col in cols]
    b = [[0] * DIM for _ in range(DIM)]
    for i, col in enumerate(cols):
        for j in range(i, DIM):
            b[i][j] = b[j][i] = sum(map(mul, col, mc[j]))
    return b


def b_signature(w: KForm) -> tuple[int, int]:
    """Unordered signature (max, min) of the induced bilinear form; only the
    unordered pair is orbit-invariant because pullback rescales by det."""
    return _key_data(w)[1][1]


def _divides(covector, w: KForm) -> bool:
    """True iff the 1-form with these coordinates wedges w to zero, i.e.
    w = covector ^ sigma for some 2-form sigma (covector nonzero).

    Both sides are scaled to integers; the 35 coefficients of l ^ w are
    summed over the table of products e^i ^ e^K.
    """
    d = math.lcm(*(x.denominator for x in covector))
    ell = [x.numerator * (d // x.denominator) for x in covector]
    c, _ = _scaled_coefficients(w)
    product = [0] * len(_SUBSETS[4])
    for i, k, q, s in _wedge_table(1, 3):
        product[q] += s * ell[i] * c[k]
    return not any(product)


def _stabilizer_system(w: KForm) -> list[list[int]]:
    """35 x 49 system for w(Au,v,x)+w(u,Av,x)+w(u,v,Ax) = 0, scaled to
    integers by the common denominator of w; unknown A[m][p] flattened as
    m*7 + p."""
    return _stabilizer_rows(_contractions(_scaled_coefficients(w)[0]))


def _stabilizer_rows(contractions: list[list[int]]) -> list[list[int]]:
    """The stabilizer system of the form with this contraction matrix.

    For the matrix unit A = E_mp the left side is e^p ^ i_{e_m} w, so column
    m*7 + p holds the wedge of e^p with column m of the contraction matrix.
    """
    rows = [[0] * (DIM * DIM) for _ in _SUBSETS[3]]
    for p, q, k, s in _wedge_table(1, 2):
        for m, x in enumerate(contractions[q]):
            rows[k][m * DIM + p] = s * x
    return rows


def stabilizer_algebra(w: KForm) -> list[LinearMap]:
    """Exact basis of the annihilating matrix Lie algebra of w."""
    basis = kernel(_stabilizer_system(w))
    return [LinearMap([[v[m * DIM + p] for p in range(DIM)] for m in range(DIM)])
            for v in basis]


def _stab_dim(rows: list[list[int]], open_orbit: bool) -> int:
    """49 minus the rank of the stabilizer system; with ``open_orbit`` (B of
    rank 7) the minor on ``_OPEN_PIVOTS`` is tried first."""
    if open_orbit and rank([[row[j] for j in _OPEN_PIVOTS] for row in rows]) == len(rows):
        return DIM * DIM - len(rows)
    return DIM * DIM - rank([[row[j] for j in _BY_P] for row in rows])


def stabilizer_dim(w: KForm) -> int:
    """Dimension of the stabilizer algebra of w, a GL(7) invariant."""
    return _stab_dim(_stabilizer_system(w), open_orbit=False)


def compact_dim(w: KForm) -> int:
    """Dimension of the stabilizer algebra intersected with so(7), the
    antisymmetric matrices.  Only meaningful at the preferred representatives
    (the intersection is basis dependent), so ``invariant_vector`` leaves it
    out.

    so(7) is parametrized by its 21 entries a_mp, m < p, with A[m][p] = a_mp
    and A[p][m] = -a_mp, a bijection from Q^21.  The stabilizer system
    restricted to it is the 35 x 21 matrix whose (m, p) column is column
    m*7+p minus column p*7+m of the 35 x 49 system, and the intersection is
    its kernel, of dimension 21 minus its rank.
    """
    restricted = [[row[a] - row[b] for a, b in _ANTISYMMETRIC_COLUMNS]
                  for row in _stabilizer_system(w)]
    return len(_ANTISYMMETRIC_COLUMNS) - rank(restricted)


@dataclass(frozen=True)
class InvariantVector:
    ms_rank: int
    b_rank: int
    b_signature: tuple[int, int]
    stab_dim: int

    def to_json(self) -> dict:
        return {"ms_rank": self.ms_rank, "b_rank": self.b_rank,
                "b_sig": list(self.b_signature), "stab_dim": self.stab_dim}


def invariant_vector(w: KForm) -> InvariantVector:
    """The orbit invariants in one pass (see the module docstring)."""
    contractions, (b_rank, b_sig, _) = _key_data(w)
    open_orbit = b_rank == DIM
    return InvariantVector(
        ms_rank=DIM if open_orbit else _ms_rank(contractions),
        b_rank=b_rank,
        b_signature=b_sig,
        stab_dim=_stab_dim(_stabilizer_rows(contractions), open_orbit),
    )


NON_MULTISYMPLECTIC = "NonMultisymplectic"
UNKNOWN = "Unknown"


def _key_data(w: KForm) -> tuple[list[list[int]], tuple]:
    """(C, classifier key), the key read off the integer D^3 B, which has
    the inertia of B since D^3 > 0."""
    c, _ = _scaled_coefficients(w)
    contractions = _contractions(c)
    b = _induced_form(c, contractions)
    p, n, _ = _inertia(b)
    divisible = None
    if p + n == 1:
        divisible = _divides(next(row for row in b if any(row)), w)
    return contractions, (p + n, (max(p, n), min(p, n)), divisible)


# Keys of the eight canonical forms; the tests recompute them.
_CLASSIFIER_TABLE = {
    (2, (1, 1), None): 1,
    (4, (2, 2), None): 2,
    (1, (1, 0), True): 3,
    (1, (1, 0), False): 4,
    (7, (4, 3), None): 5,
    (2, (2, 0), None): 6,
    (4, (4, 0), None): 7,
    (7, (7, 0), None): 8,
}


def classify(w: KForm):
    """Orbit id (1..8), NON_MULTISYMPLECTIC, or UNKNOWN.

    Uses only invariants that are constant along orbits; the dimension of the
    compact part is excluded because it depends on the representative.  A B
    of rank 7 proves ms_rank = 7 (see the module docstring).
    """
    contractions, key = _key_data(w)
    if key[0] < DIM and _ms_rank(contractions) < DIM:
        return NON_MULTISYMPLECTIC
    return _CLASSIFIER_TABLE.get(key, UNKNOWN)


def random_invertible(rng: random.Random, spread: int = 3, max_tries: int = 100) -> LinearMap:
    """Pseudorandom invertible integer matrix, entries uniform in [-spread, spread]."""
    for _ in range(max_tries):
        g = LinearMap([[rng.randint(-spread, spread) for _ in range(DIM)]
                       for _ in range(DIM)])
        if g.is_invertible():
            return g
    raise RuntimeError("failed to draw an invertible matrix")


def _check_seed(seed) -> None:
    if type(seed) is not int or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an integer in 0..2^64-1, got {seed!r}")


def sample_orbit(orbit_id: int, seed: int) -> tuple[KForm, LinearMap]:
    """Deterministic pseudorandom element of an orbit plus the witness map.

    Seeds are integers in 0..2^64-1 fed to Python's Mersenne Twister; any
    other seed (a bool included) raises ValueError rather than being folded
    into the range; so does an orbit id that is not an int.  Only integer
    draws are used, so output is stable across platforms.
    """
    if type(orbit_id) is not int or orbit_id not in ORBIT_IDS:
        raise ValueError(f"orbit id must be 1..8, got {orbit_id!r}")
    _check_seed(seed)
    rng = random.Random(seed)
    g = random_invertible(rng)
    return pullback(g, canonical(orbit_id).form), g
