"""Exact multilinear algebra over the rationals.

Everything here works with :class:`fractions.Fraction` coefficients; no
floating point is used anywhere, so equalities like ``pullback(g, w) == w``
are decidable.  Forms and vectors live on R^7 (``DIM``), with basis vectors
indexed 1..7; ``LinearMap`` is an n x n matrix of any size, and only
``pullback`` requires n = 7.

Main objects:

* ``KForm``     -- alternating k-form, sparse map {increasing index tuple: coefficient}
* ``LinearMap`` -- n x n rational matrix, column j = image of basis vector e_j
* ``wedge``, ``interior``, ``pullback`` -- the exterior-algebra operations
* ``kernel``, ``rank`` -- exact nullspace basis and rank of a rational matrix
* ``signature`` -- exact signature of a rational symmetric matrix

``_sort_with_sign`` is the single sign routine: ``wedge`` and the
constructors take their signs and repeated-index zeros from it.  The index
tables live here too: ``_SUBSETS`` (increasing index tuples of each degree),
``_INDEX`` (their positions) and the cached ``_wedge_table`` of basis
products, read off ``wedge`` on basis monomials, so no other module knows a
sign; ``forms7`` imports them.  ``pullback`` is a table-driven wedge in
Python ints: the rows of g and the coefficients of the form are scaled to
integers by the lcm of their denominators, each index prefix of a term is
wedged with the next row through ``_wedge_table(j - 1, 1)`` once, and one
Fraction is made per nonzero output coefficient.
``_echelon`` is the single elimination routine: fraction-free (Bareiss) row
reduction in Python ints, with the rescale of a row a step leaves alone
deferred to one exact division when the row is next used.  ``rank``,
``kernel``, all determinants and ``LinearMap.inverse`` are built on it.
``_inertia`` is the single characteristic-polynomial routine: it takes a
symmetric matrix of ints and eliminates nothing, reading the inertia off
the integer characteristic polynomial (Faddeev-LeVerrier) by Descartes'
rule of signs, which is exact because a symmetric matrix has only real
eigenvalues.  Each matrix of the recursion is a polynomial in the symmetric
input, so only its upper triangle is multiplied out, and the last
coefficient is read off one trace, so a 7 x 7 matrix takes 5 half products.
``signature`` checks symmetry, scales a rational matrix to ints by the lcm
of its denominators and calls it; ``forms7`` calls it on the integer
D^3 B directly.  ``scal`` reads strings as exact fractions
``[+-]?[0-9]+(/[0-9]+)?`` and nothing else.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Scalar = Fraction

DIM = 7
_F0 = Fraction(0)


# ASCII digits only: no spaces, '_', '.', exponent or other scripts' digits
_FRACTION_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def scal(x) -> Fraction:
    """Coerce ints, strings like '-1/2', and Fractions to an exact Scalar;
    bools are refused, so a JSON ``true`` is never read as 1.  A string must
    match ``_FRACTION_STRING`` (so '1e300000' cannot ask for a huge power of
    ten), and a zero denominator such as '1/0' raises ValueError like any
    other bad string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and not _FRACTION_STRING.fullmatch(x):
        raise ValueError(f"not an exact fraction string: {x!r}")
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {x!r}") from None
    raise TypeError(f"not an exact scalar: {x!r}")


def json_int(x, what: str = "value") -> int:
    """A JSON integer taken as is; bools, floats and strings raise TypeError."""
    if type(x) is not int:
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return x


def vec(*coords) -> tuple[Fraction, ...]:
    """Build an exact coordinate vector, zero padded to length 7."""
    cs = [scal(c) for c in coords]
    if len(cs) > DIM:
        raise ValueError("too many coordinates")
    return tuple(cs + [Fraction(0)] * (DIM - len(cs)))


def basis_vector(i: int) -> tuple[Fraction, ...]:
    """Standard basis vector e_i (1-based)."""
    if not 1 <= i <= DIM:
        raise ValueError(f"basis index {i} out of range 1..{DIM}")
    return tuple(Fraction(1 if j == i else 0) for j in range(1, DIM + 1))


def _sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort indices, returning (sorted tuple, permutation sign).  A repeated
    index stops the sort with sign 0 and a partly sorted tuple callers ignore."""
    idx = list(indices)
    sign = 1
    # insertion sort (k <= 7); an entry stops beside an equal one only on a repeat
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] >= idx[j]:
            if idx[j - 1] == idx[j]:
                return tuple(idx), 0
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


class KForm:
    """Alternating k-form on R^7 with exact rational coefficients.

    ``terms`` is a read-only map from strictly increasing index tuples
    (1-based) to nonzero Fractions; the constructor is the one place that
    drops zero coefficients, so operations may pass it sums that cancel.  Any
    degree k >= 0 is allowed, but above 7 no increasing index tuple exists in
    1..7, so the zero form is the only k-form.  All operations return new
    forms.  Two forms are equal iff degree and term maps agree.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if degree < 0:
            raise ValueError(f"degree {degree} is negative")
        self.degree = degree
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, c in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index {idx} has wrong length for degree {degree}")
            if any(not 1 <= i <= DIM for i in idx):
                raise ValueError(f"index {idx} out of range 1..{DIM}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index {idx} is not strictly increasing")
            c = scal(c)
            if c:
                clean[idx] = c
        self.terms = MappingProxyType(clean)

    @classmethod
    def monomial(cls, indices: Sequence[int], coef=1) -> "KForm":
        """Coefficient times alpha_{i1} ^ ... ^ alpha_{ik}; indices in any order."""
        return cls.from_terms(len(indices), [(indices, coef)])

    @classmethod
    def from_terms(cls, degree: int, entries: Iterable[tuple[Sequence[int], object]]) -> "KForm":
        """Sum of monomials; repeated or unsorted indices handled with signs."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for indices, coef in entries:
            idx, sign = _sort_with_sign(indices)
            if sign:
                acc[idx] = acc.get(idx, 0) + sign * scal(coef)
        return cls(degree, acc)

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; rebuild from a dict
        return KForm, (self.degree, dict(self.terms))

    def __eq__(self, other) -> bool:
        return (isinstance(other, KForm) and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree, frozenset(self.terms.items())))

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        acc = dict(self.terms)
        for idx, c in other.terms.items():
            acc[idx] = acc.get(idx, 0) + c
        return KForm(self.degree, acc)

    def __neg__(self) -> "KForm":
        return KForm(self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __mul__(self, c) -> "KForm":
        c = scal(c)
        return KForm(self.degree, {i: c * v for i, v in self.terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: "KForm") -> "KForm":
        return wedge(self, other)

    __xor__ = wedge

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "terms": [{"idx": list(idx), "coef": str(c)}
                          for idx, c in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, data: Mapping) -> "KForm":
        try:
            degree = json_int(data["degree"], "degree")
            terms = {}
            for t in data["terms"]:
                idx = tuple(json_int(i, "idx entry") for i in t["idx"])
                if idx in terms:
                    raise ValueError(f"repeated idx {list(idx)}")
                terms[idx] = scal(t["coef"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed KForm JSON: {exc}") from exc
        return cls(degree, terms)

    def __repr__(self):
        if not self.terms:
            return f"KForm({self.degree}, 0)"
        parts = []
        for idx, c in sorted(self.terms.items()):
            mono = "^".join(f"a{i}" for i in idx) if idx else "1"
            if c == 1:
                parts.append(f"+ {mono}")
            elif c == -1:
                parts.append(f"- {mono}")
            elif c > 0:
                parts.append(f"+ {c}*{mono}")
            else:
                parts.append(f"- {-c}*{mono}")
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product, of degree a.degree + b.degree; graded-commutative.

    Signs come from ``_sort_with_sign``, whose sign 0 marks a repeated index,
    so a product of degree above 7 is the zero form of that degree.
    """
    acc: dict[tuple[int, ...], Fraction] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx, sign = _sort_with_sign(ia + ib)
            if sign:
                c = ca * cb
                acc[idx] = acc.get(idx, 0) + (c if sign > 0 else -c)
    return KForm(a.degree + b.degree, acc)


def interior(v: Sequence[Fraction], a: KForm) -> KForm:
    """Contraction of v into the first slot: (interior(v, a))(...) = a(v, ...).
    Each nonzero entry of v goes through ``scal``, so a float or a bool raises."""
    if a.degree == 0:
        raise ValueError("cannot contract a scalar")
    if len(v) != DIM:
        raise ValueError(f"expected a vector of length {DIM}, got {len(v)}")
    v = [scal(x) if x else _F0 for x in v]
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, c in a.terms.items():
        for t, i in enumerate(idx):
            vi = v[i - 1]
            if not vi:
                continue
            rest = idx[:t] + idx[t + 1:]
            acc[rest] = acc.get(rest, 0) + (-1) ** t * vi * c
    return KForm(a.degree - 1, acc)


class LinearMap:
    """Endomorphism of R^n as an exact matrix; column j is the image of e_j."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence[object]]):
        n = len(rows)
        grid = tuple(tuple(scal(x) for x in r) for r in rows)
        if any(len(r) != n for r in grid):
            raise ValueError("matrix must be square")
        self.rows = grid
        self.n = n

    @classmethod
    def identity(cls, n: int = DIM) -> "LinearMap":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[object]]) -> "LinearMap":
        n = len(cols)
        if any(len(c) != n for c in cols):
            raise ValueError(f"each of the {n} columns needs {n} entries")
        return cls([[scal(cols[j][i]) for j in range(n)] for i in range(n)])

    @classmethod
    def from_images(cls, images: Mapping[int, Sequence[Fraction]]) -> "LinearMap":
        """Build from 1-based assignments e_j -> vector in R^7; unspecified j
        map to e_j."""
        cols = [list(basis_vector(j)) for j in range(1, DIM + 1)]
        for j, image in images.items():
            cols[j - 1] = [scal(x) for x in image]
        return cls.from_cols(cols)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self * other)."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        ot = list(zip(*other.rows))
        return LinearMap([[sum(a * b for a, b in zip(row, col)) for col in ot]
                          for row in self.rows])

    __matmul__ = compose

    def det(self) -> Fraction:
        return _det([list(r) for r in self.rows])

    def is_invertible(self) -> bool:
        return self.det() != 0

    def inverse(self) -> "LinearMap":
        inv = _invert([list(r) for r in self.rows])
        if inv is None:
            raise ValueError("matrix is singular")
        return LinearMap(inv)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearMap) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __neg__(self) -> "LinearMap":
        return LinearMap([[-x for x in r] for r in self.rows])

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return LinearMap([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + (-other)

    def to_json(self) -> dict:
        return {"cols": [[str(self.rows[i][j]) for i in range(self.n)]
                         for j in range(self.n)]}

    @classmethod
    def from_json(cls, data: Mapping) -> "LinearMap":
        try:
            cols = data["cols"]
            return cls.from_cols([[scal(x) for x in c] for c in cols])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed LinearMap JSON: {exc}") from exc

    def __repr__(self):
        return "LinearMap([" + ", ".join(str([str(x) for x in r]) for r in self.rows) + "])"


# --- index tables and the integer pullback ------------------------------------

# increasing index tuples of each degree (lexicographic), and their positions
_SUBSETS = tuple(tuple(combinations(range(1, DIM + 1), k)) for k in range(DIM + 1))
_INDEX = {s: k for subsets in _SUBSETS for k, s in enumerate(subsets)}


@cache
def _wedge_table(p: int, q: int) -> tuple[tuple[int, int, int, int], ...]:
    """Entries (a, b, k, sign) with e^(p-subset a) ^ e^(q-subset b) =
    sign e^((p+q)-subset k), read off ``wedge`` on basis monomials.  Only
    disjoint subsets are wedged; every other product is zero."""
    table = []
    for a, s in enumerate(_SUBSETS[p]):
        for b, t in enumerate(_SUBSETS[q]):
            if set(s).isdisjoint(t):
                [(k, sign)] = wedge(KForm.monomial(s), KForm.monomial(t)).terms.items()
                table.append((a, b, _INDEX[k], int(sign)))
    return tuple(table)


def _wedge_covector(prefix: list[int], row: list[int], j: int) -> list[int]:
    """prefix ^ row over the j-subsets, for a (j-1)-form prefix over the
    (j-1)-subsets and a covector row, both in ints."""
    out = [0] * len(_SUBSETS[j])
    for a, b, k, s in _wedge_table(j - 1, 1):
        if (x := prefix[a]) and (y := row[b]):
            out[k] += s * x * y
    return out


def _scaled_pullback(g: LinearMap, a: KForm) -> tuple[dict, dict, int, int]:
    """(p, c, d, s) for a k-form a: with L the lcm of the denominators of g
    and d that of the coefficients of a, c = d a and p = d L^k g* a, as maps
    from index tuples to nonzero ints, and s = L^k.

    Row i of L g is L g* e^i, so a term c e^{i1} ^ ... ^ e^{ik} pulls back to
    c times the wedge of rows i1..ik.  Each prefix e^{i1} ^ ... ^ e^{ij} of
    a term is pulled back once, as an int vector over the j-subsets.
    """
    if g.n != DIM:
        raise ValueError("dimension mismatch")
    k = a.degree
    d = math.lcm(*(x.denominator for x in a.terms.values()))
    c = {idx: x.numerator * (d // x.denominator) for idx, x in a.terms.items()}
    scale = math.lcm(*(x.denominator for row in g.rows for x in row))
    rows = [[x.numerator * (scale // x.denominator) for x in row] for row in g.rows]
    prefixes: dict[tuple[int, ...], list[int]] = {(): [1]}
    acc: dict[tuple[int, ...], int] = {}
    for idx, x in c.items():
        for j in range(1, k + 1):
            if idx[:j] not in prefixes:
                prefixes[idx[:j]] = _wedge_covector(prefixes[idx[:j - 1]],
                                                    rows[idx[j - 1] - 1], j)
        for J, y in zip(_SUBSETS[k], prefixes[idx]):
            if y:
                acc[J] = acc.get(J, 0) + x * y
    return {J: v for J, v in acc.items() if v}, c, d, scale ** k


def pullback(g: LinearMap, a: KForm) -> KForm:
    """(g* a)(v1,...,vk) = a(g v1,...,g vk); g may be singular.

    Computed in ints by ``_scaled_pullback``; each nonzero coefficient
    becomes one Fraction at the end.
    """
    p, _, d, s = _scaled_pullback(g, a)
    return KForm(a.degree, {J: Fraction(v, d * s) for J, v in p.items()})


# --- exact dense linear algebra: one fraction-free elimination ---------------

def _echelon(m: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free row echelon form (Bareiss 1968) of a rational matrix.

    Each row is first scaled by the lcm of its denominators (a row of ints
    is taken as it is); elimination then runs in Python ints, every division
    exact.  Returns ``(rows, pivot_cols, swap_sign, row_scale)``: the
    eliminated integer rows (the first ``len(pivot_cols)`` are the echelon
    rows), the pivot column of each, the sign of the row permutation, and
    the product of the row scalings.  For a nonsingular square ``m`` the
    last pivot is ``swap_sign * row_scale * det(m)``.

    The rescale is deferred.  Bareiss step k (pivot ``p_k``, ``p_0 = 1``)
    maps a row below the pivot row y to ``(p_k x - h y) / p_(k-1)``; for
    ``h = 0`` that is only a rescale by ``p_k / p_(k-1)``, so it is skipped
    and ``age[i] = j`` records that row i is the eager row after step j.
    The skipped factors telescope to ``p_(k-1) / p_j``: a new pivot row is
    caught up by one ``x * p_(k-1) // p_j``, and an updated row takes
    ``(p_k x - h y) // p_j``.  Each quotient is an entry of the eager
    elimination, an integer, so the division is exact; and a nonzero factor
    keeps the zero pattern the pivot search reads, so the output is the
    eager one, entry for entry.
    """
    a = []
    row_scale = 1
    nc = len(m[0]) if m else 0
    for row in m:
        if len(row) != nc:
            raise ValueError(f"ragged matrix: rows of length {nc} and {len(row)}")
        if all(type(x) is int for x in row):
            a.append(list(row))
            continue
        row = [x if type(x) is int else scal(x) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        row_scale *= d
        a.append([x.numerator * (d // x.denominator) for x in row])
    nr = len(a)
    pivot_cols: list[int] = []
    pivots = [1]  # pivots[k] = p_k
    age = [0] * nr
    swap_sign = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            age[r], age[piv] = age[piv], age[r]
            swap_sign = -swap_sign
        top = a[r]
        if age[r] != r:
            s, t = pivots[r], pivots[age[r]]
            top = a[r] = top[:c] + [x * s // t for x in top[c:]]
        p = top[c]
        for i in range(r + 1, nr):
            row = a[i]
            h = row[c]
            if h:
                # Bareiss update; a row stale since step j divides by p_j
                t = pivots[age[i]]
                a[i] = row[:c] + [(p * x - h * y) // t
                                  for x, y in zip(row[c:], top[c:])]
                age[i] = r + 1
        pivots.append(p)
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols, swap_sign, row_scale


def _det(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    if n == 0:
        return Fraction(1)
    rows, pivot_cols, sign, scale = _echelon(m)
    if len(pivot_cols) < n:
        return Fraction(0)
    return Fraction(sign * rows[n - 1][n - 1], scale)


def _invert(m: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Inverse by one elimination of [m | I]; None if m is singular."""
    n = len(m)
    rows, pivot_cols, _, _ = _echelon([list(row) + [int(i == j) for j in range(n)]
                                       for i, row in enumerate(m)])
    if pivot_cols != list(range(n)):
        return None
    # back-substitute for last_pivot * m^-1, which is an integer matrix
    d = rows[n - 1][n - 1] if n else 1
    y: list[list[int]] = [[]] * n
    for k in reversed(range(n)):
        row = rows[k]
        acc = [d * v for v in row[n:]]
        for j in range(k + 1, n):
            if row[j]:
                acc = [s - row[j] * t for s, t in zip(acc, y[j])]
        y[k] = [s // row[k] for s in acc]
    return [[Fraction(v, d) for v in row] for row in y]


def kernel(m: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Exact basis of {x : m x = 0}: one primitive integer vector per free
    column (free columns ascending, first nonzero entry positive)."""
    rows, pivot_cols, _, _ = _echelon(m)
    nc = len(rows[0]) if rows else 0
    # with the free entry set to the last pivot, back substitution stays integral
    d = rows[len(pivot_cols) - 1][pivot_cols[-1]] if pivot_cols else 1
    pivots = list(zip(rows, pivot_cols))[::-1]
    basis: list[tuple[Fraction, ...]] = []
    for fc in sorted(set(range(nc)) - set(pivot_cols)):
        x = [0] * nc
        x[fc] = d
        for row, pc in pivots:
            x[pc] = -sum(row[j] * x[j] for j in range(pc + 1, nc) if x[j]) // row[pc]
        g = math.gcd(*x)
        if next(v for v in x if v) < 0:
            g = -g
        basis.append(tuple(Fraction(v // g) for v in x))
    return basis


def rank(m: Sequence[Sequence[Fraction]]) -> int:
    return len(_echelon(m)[1])


class SymmetricMatrix:
    """n x n exact symmetric matrix (used for induced bilinear forms)."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence[object]]):
        grid = tuple(tuple(scal(x) for x in r) for r in rows)
        n = len(grid)
        if any(len(r) != n for r in grid):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if grid[i][j] != grid[j][i]:
                    raise ValueError("matrix is not symmetric")
        self.rows = grid
        self.n = n

    def __eq__(self, other):
        return isinstance(other, SymmetricMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "SymmetricMatrix([" + ", ".join(str([str(x) for x in r]) for r in self.rows) + "])"


def signature(s: SymmetricMatrix | Sequence[Sequence[object]]) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) inertia of a rational symmetric
    matrix: ``s`` is checked for symmetry, scaled by the lcm of its
    denominators (a positive scale keeps the inertia) and handed to
    ``_inertia``."""
    if not isinstance(s, SymmetricMatrix):
        s = SymmetricMatrix(s)
    d = math.lcm(*(x.denominator for row in s.rows for x in row))
    return _inertia([[x.numerator * (d // x.denominator) for x in row] for row in s.rows])


def _inertia(a: list[list[int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix of ints,
    read off det(tI - a) = sum c_k t^(n-k).  Faddeev-LeVerrier, exact in
    ints: X_0 = I, P_k = a X_(k-1), c_k = -tr(P_k) / k, X_k = P_k + c_k I.
    Each P_k is a polynomial in the symmetric a, so only its upper triangle
    is computed; P_1 = a, and c_n needs only tr(a X_(n-1)) = sum a_ij X_ij,
    so n = 7 takes 5 half products and one trace.  The roots are real, so by
    Descartes' rule the sign changes among the nonzero c_k count the
    positive roots; the trailing zero c_k count the zero roots.  Symmetry is
    the caller's promise: ``signature`` checks it, ``forms7`` builds B so."""
    n = len(a)
    coeffs = [1]
    x = [[int(i == j) for j in range(n)] for i in range(n)]  # X_0
    for k in range(1, n):
        if k == 1:
            x = [row[:] for row in a]
        else:
            # x is symmetric, so column j of X_(k-1) is row j
            p = [[0] * n for _ in range(n)]
            for i, row in enumerate(a):
                for j in range(i, n):
                    p[i][j] = p[j][i] = sum(map(mul, row, x[j]))
            x = p
        c = -sum(x[i][i] for i in range(n)) // k
        coeffs.append(c)
        for i in range(n):
            x[i][i] += c
    if n:
        coeffs.append(-sum(sum(map(mul, r, t)) for r, t in zip(a, x)) // n)
    r = max(k for k, c in enumerate(coeffs) if c)  # the rank
    signs = [c > 0 for c in coeffs if c]
    pos = sum(x != y for x, y in zip(signs, signs[1:]))
    return pos, r - pos, n - r
