"""Doubling construction and the concrete composition algebras.

On the basis e_0, ..., e_(dim-1) of every algebra here the product is a
signed permutation, e_i e_j = s e_k with s = +-1, and an
:class:`AlgebraTable` stores just that.  e_0 is the unit, conjugation
negates coordinates 1..dim-1 and the norm form is diagonal, so both are read
off the table.  Seven concrete algebras are built by :func:`build_algebra`:

    R, C, H            -- the division tower (Cayley-Dickson doubling)
    Hsplit             -- split quaternions, realized by the 2x2 matrix model
    O                  -- octonions, doubling H
    Osplit             -- split octonions as quaternion pairs
    Osplit_from_Hsplit -- split octonions by doubling the split quaternions

Every doubled algebra comes from one routine, :func:`_double`: elements are
pairs (a, b) of base elements, conjugation is (a, b)~ = (a~, -b), and only
the product rule differs.  C, H, O and Osplit_from_Hsplit use the
Cayley-Dickson rule

    (a, b) (c, d) = (a c - d~ b,  d a + b c~)

and Osplit the quaternion-pair rule (a c + d b~, c b + a~ d).  The order of
the Cayley-Dickson second slot is the unique one for which x x~ = <x, x> 1
stays central once the base algebra is noncommutative; the variant with the
final product reversed fails that identity for quaternion pairs and is
rejected by the table validator.

The frozen imaginary bases at the end of this module induce the printed
representatives.  The stabilizer embeddings keep the two quaternion halves
apart, so ``stabilizers`` reads their blocks straight off quaternion
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from typing import ClassVar

from .exterior import KForm, LinearMap, scal

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class AlgebraTable:
    """Finite-dimensional algebra whose basis products are signed basis
    elements: products[i][j] = (k, s) means e_i * e_j = s * e_k, s = +-1.

    e_0 is the unit, conjugation negates every other basis element, and
    x * conj(x) = <x, x> * e_0 for the diagonal norm form ``norms``.
    """

    name: str
    dim: int
    products: tuple
    labels: tuple
    unit_index: ClassVar[int] = 0

    @cached_property
    def norms(self) -> tuple:
        """<e_i, e_i> = +-1, as e_i conj(e_i) = -e_i e_i for i > 0."""
        return tuple(row[i][1] if i == 0 else -row[i][1]
                     for i, row in enumerate(self.products))

    def basis(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, tuple(_F1 if k == i else _F0 for k in range(self.dim)))

    def unit(self) -> "AlgebraElement":
        return self.basis(self.unit_index)

    def element(self, coords) -> "AlgebraElement":
        cs = tuple(scal(c) for c in coords)
        if len(cs) != self.dim:
            raise ValueError(f"{self.name}: expected {self.dim} coordinates, got {len(cs)}")
        return AlgebraElement(self, cs)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, (_F0,) * self.dim)

    def to_json(self) -> dict:
        """The dense form: structure constants, conjugation and norm matrices."""
        def signed(k, s):
            return ["0" if m != k else str(s) for m in range(self.dim)]

        return {
            "name": self.name,
            "dim": self.dim,
            "unit_index": self.unit_index,
            "labels": list(self.labels),
            "mult": [[signed(k, s) for k, s in row] for row in self.products],
            "conj": [signed(i, 1 if i == 0 else -1) for i in range(self.dim)],
            "norm": [signed(i, n) for i, n in enumerate(self.norms)],
        }


@dataclass(frozen=True)
class AlgebraElement:
    table: AlgebraTable
    coords: tuple

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check(self.table, other)
        return AlgebraElement(self.table, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check(self.table, other)
        return AlgebraElement(self.table, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.table, tuple(-a for a in self.coords))

    def scale(self, c) -> "AlgebraElement":
        c = scal(c)
        return AlgebraElement(self.table, tuple(c * a for a in self.coords))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self.table, self, other)

    def __repr__(self):
        parts = [f"{c}*{l}" for c, l in zip(self.coords, self.table.labels) if c]
        return f"<{self.table.name}: {' + '.join(parts) if parts else '0'}>"


def _check(t: AlgebraTable, *elements: AlgebraElement) -> None:
    for x in elements:
        if x.table is not t and x.table != t:
            raise ValueError("elements belong to different algebras")


def multiply(t: AlgebraTable, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    _check(t, x, y)
    out = [_F0] * t.dim
    ys = [(j, c) for j, c in enumerate(y.coords) if c]
    for xi, row in zip(x.coords, t.products):
        if not xi:
            continue
        for j, yj in ys:
            k, s = row[j]
            if s > 0:
                out[k] += xi * yj
            else:
                out[k] -= xi * yj
    return AlgebraElement(t, tuple(out))


def conjugate(t: AlgebraTable, x: AlgebraElement) -> AlgebraElement:
    _check(t, x)
    return AlgebraElement(t, (x.coords[0], *(-c for c in x.coords[1:])))


def norm(t: AlgebraTable, x: AlgebraElement) -> Fraction:
    """<x, x>: the unit coefficient of x * conj(x)."""
    return inner(t, x, x)


def inner(t: AlgebraTable, x: AlgebraElement, y: AlgebraElement) -> Fraction:
    """sum <e_i, e_i> x_i y_i over the coordinates where both are nonzero."""
    _check(t, x, y)
    return sum((xi * yi if n > 0 else -(xi * yi)
                for xi, yi, n in zip(x.coords, y.coords, t.norms) if xi and yi), _F0)


def is_automorphism(t: AlgebraTable, g) -> bool:
    """True iff g (dim x dim matrix, column = image of basis vector) preserves
    the product on all basis pairs and fixes the unit."""
    rows = [[scal(x) for x in r] for r in getattr(g, "rows", g)]
    dim = t.dim
    if len(rows) != dim or any(len(r) != dim for r in rows):
        return False
    images = [AlgebraElement(t, tuple(rows[i][j] for i in range(dim))) for j in range(dim)]
    if images[t.unit_index].coords != t.unit().coords:
        return False
    for i in range(dim):
        for j in range(dim):
            k, s = t.products[i][j]
            lhs = images[k] if s > 0 else -images[k]
            if lhs.coords != multiply(t, images[i], images[j]).coords:
                return False
    return True


# --- construction -----------------------------------------------------------

def _table(name: str, labels: tuple, coords) -> AlgebraTable:
    """Read the table off coords(i, j), the coordinates of e_i e_j, and check
    that e_0 is a two-sided unit, that x conj(x) is central and that
    conjugation reverses products.  Checking on basis pairs is exact: each
    law is bilinear, or the polarization of a quadratic one."""
    def signed(i, j):
        nonzero = [(k, c) for k, c in enumerate(coords(i, j)) if c]
        if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
            raise ValueError(f"{name}: {labels[i]} * {labels[j]} is not a signed "
                             f"basis element")
        return nonzero[0][0], int(nonzero[0][1])

    dim = len(labels)
    t = AlgebraTable(name, dim, tuple(tuple(signed(i, j) for j in range(dim))
                                      for i in range(dim)), labels)
    if any(t.products[0][i] != (i, 1) or t.products[i][0] != (i, 1) for i in range(dim)):
        raise ValueError(f"{name}: unit is not a two-sided identity")
    for i in range(dim):
        for j in range(dim):
            ei, ej = t.basis(i), t.basis(j)
            if any((ei * _bar(ej) + ej * _bar(ei)).coords[1:]):
                raise ValueError(f"{name}: x*conj(x) is not central on {labels[i]}, {labels[j]}")
            if _bar(ei * ej) != _bar(ej) * _bar(ei):
                raise ValueError(f"{name}: conjugation is not an anti-automorphism")
    return t


def _bar(x: AlgebraElement) -> AlgebraElement:
    return conjugate(x.table, x)


def _cayley_dickson_product(a, b, c, d):
    return a * c - _bar(d) * b, d * a + b * _bar(c)


def _quaternion_pair_product(a, b, c, d):
    return a * c + d * _bar(b), c * b + _bar(a) * d


def _double(base: AlgebraTable, name: str, product, label: str) -> AlgebraTable:
    """Pairs (a, b) of base elements with (a, b)(c, d) = product(a, b, c, d)
    and conjugation (a, b)~ = (a~, -b).

    The table is read off the product on the basis pairs (e_i, 0), (0, e_i);
    the doubled copy of base label l is label.format(l), "e" for the unit.
    With the unit (e_0, 0), the conjugation is the one every table carries.
    """
    zero = base.zero()
    pairs = ([(base.basis(i), zero) for i in range(base.dim)]
             + [(zero, base.basis(i)) for i in range(base.dim)])

    def coords(i, j):
        x, y = product(*pairs[i], *pairs[j])
        return x.coords + y.coords

    labels = tuple(base.labels) + tuple(label.format(l) if l != "1" else "e"
                                        for l in base.labels)
    return _table(name, labels, coords)


def split_quaternion_coords(m) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coordinates (a, b, c, d) of a 2x2 rational matrix m = a 1 + b i + c j + d k
    in the matrix model of the split quaternions."""
    (m11, m12), (m21, m22) = [[scal(x) for x in row] for row in m]
    return ((m11 + m22) / 2, (m12 - m21) / 2, (m12 + m21) / 2, (m11 - m22) / 2)


def _build_split_quaternions() -> AlgebraTable:
    # matrix model: i = [[0,1],[-1,0]], j = [[0,1],[1,0]], k = i j = [[1,0],[0,-1]]
    mats = [LinearMap(m) for m in (((1, 0), (0, 1)), ((0, 1), (-1, 0)),
                                   ((0, 1), (1, 0)), ((1, 0), (0, -1)))]
    return _table("Hsplit", ("1", "i", "j", "k"),
                  lambda i, j: split_quaternion_coords((mats[i] @ mats[j]).rows))


ALGEBRA_KINDS = ("R", "C", "H", "Hsplit", "O", "Osplit", "Osplit_from_Hsplit")


@cache
def build_algebra(kind: str) -> AlgebraTable:
    """Return the named composition algebra (cached; tables are immutable)."""
    if kind not in ALGEBRA_KINDS:
        raise ValueError(f"unknown algebra kind {kind!r}; expected one of {ALGEBRA_KINDS}")
    if kind == "R":
        return _table("R", ("1",), lambda i, j: (_F1,))
    if kind == "C":
        return _double(build_algebra("R"), "C", _cayley_dickson_product, "{}e")
    if kind == "H":
        return _double(build_algebra("C"), "H", _cayley_dickson_product, "{}e")
    if kind == "Hsplit":
        return _build_split_quaternions()
    if kind == "O":
        return _double(build_algebra("H"), "O", _cayley_dickson_product, "{}e")
    if kind == "Osplit":
        return _double(build_algebra("H"), "Osplit", _quaternion_pair_product, "e{}")
    return _double(build_algebra("Hsplit"), "Osplit_from_Hsplit", _cayley_dickson_product,
                   "{}e")


# --- induced 3-forms ---------------------------------------------------------

def triple_form(t: AlgebraTable, basis_map) -> KForm:
    """The alternating form (a, b, c) -> <a b, c> on the listed 7 imaginary
    elements, as a KForm in the dual of that list.

    Raises if an element is not imaginary or if the result fails to alternate.
    """
    if t.dim != 8:
        raise ValueError("triple_form needs an 8-dimensional algebra")
    basis = list(basis_map)
    if len(basis) != 7:
        raise ValueError("need exactly 7 imaginary basis elements")
    for b in basis:
        if inner(t, b, t.unit()) != 0:
            raise ValueError(f"basis element {b} is not imaginary")
    vals = {}
    for p in range(7):
        for q in range(7):
            xy = multiply(t, basis[p], basis[q])
            for r in range(7):
                vals[p, q, r] = inner(t, xy, basis[r])
    # alternation check over all argument positions
    if any(vals[q, p, r] != -v or vals[p, r, q] != -v for (p, q, r), v in vals.items()):
        raise ValueError("induced trilinear form is not alternating")
    return KForm(3, {(p + 1, q + 1, r + 1): vals[p, q, r]
                     for p, q, r in combinations(range(7), 3)})


# --- frozen imaginary bases ---------------------------------------------------
# Chosen so the induced 3-forms reproduce the printed representatives exactly
# (orbit 8, orbit 5 and its variant).  Elements of the doubled algebras are
# written as pairs of quaternion coordinates.

_Z = (0, 0, 0, 0)
_ONE = (1, 0, 0, 0)
_I = (0, 1, 0, 0)
_J = (0, 0, 1, 0)
_K = (0, 0, 0, 1)


def _pair(t: AlgebraTable, a, b) -> AlgebraElement:
    return t.element(list(a) + list(b))


def octonion_form_basis() -> list:
    """Imaginary octonion basis inducing the orbit-8 representative:
    quaternion imaginary units first, then the doubled copy."""
    t = build_algebra("O")
    return [_pair(t, _I, _Z), _pair(t, _J, _Z), _pair(t, _K, _Z), _pair(t, _Z, _ONE),
            _pair(t, _Z, _I), _pair(t, _Z, _J), _pair(t, _Z, _K)]


def split_so4_basis() -> list:
    """Imaginary basis of the quaternion-pair split octonions inducing the
    orbit-5 representative (fifth element carries a sign the pair product
    forces)."""
    t = build_algebra("Osplit")
    return [_pair(t, _I, _Z), _pair(t, _J, _Z), _pair(t, _K, _Z), _pair(t, _Z, _ONE),
            _pair(t, _Z, (0, -1, 0, 0)), _pair(t, _Z, _J), _pair(t, _Z, _K)]


def split_octonion_form_basis() -> list:
    """Imaginary basis of the doubled split quaternions inducing the orbit-5
    representative, in the published interleaved order."""
    t = build_algebra("Osplit_from_Hsplit")
    return [_pair(t, _I, _Z), _pair(t, _Z, _ONE), _pair(t, _Z, _I),
            _pair(t, _J, _Z), _pair(t, _K, _Z), _pair(t, _Z, _J), _pair(t, _Z, _K)]


def split_octonion_prime_basis() -> list:
    """Imaginary basis inducing the orbit-5 variant that equals the six-term
    orbit-2 alternate plus the volume form of the first three covectors.

    This is the conjugate of the published display list {i, j, k, e, ei, ej,
    ek} (e the doubling unit, products taken in the algebra): conjugation
    negates the first four elements and cancels the sign the left products
    carry on the last three.  Verified exactly against the printed identity.
    """
    t = build_algebra("Osplit_from_Hsplit")
    return [-_pair(t, _I, _Z), -_pair(t, _J, _Z), -_pair(t, _K, _Z), -_pair(t, _Z, _ONE),
            _pair(t, _Z, _I), _pair(t, _Z, _J), _pair(t, _Z, _K)]

