"""Doubling construction and the concrete composition algebras.

An :class:`AlgebraTable` stores structure constants, the conjugation matrix,
the polarized norm form and the unit index, all over exact rationals.  Seven
concrete algebras are built by :func:`build_algebra`:

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
from functools import cache

from .exterior import KForm, LinearMap, SymmetricMatrix, polarize, scal

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class AlgebraTable:
    """Finite-dimensional algebra with conjugation and polarized norm form.

    mult[i][j][k] is the e_k coefficient of e_i * e_j; conj is a dim x dim
    matrix acting on coordinates; norm is the symmetric matrix of <x, y> with
    x * conj(x) = <x, x> * unit.
    """

    name: str
    dim: int
    mult: tuple
    conj: tuple
    norm: SymmetricMatrix
    unit_index: int
    labels: tuple

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
        return {
            "name": self.name,
            "dim": self.dim,
            "unit_index": self.unit_index,
            "labels": list(self.labels),
            "mult": [[[str(c) for c in col] for col in row] for row in self.mult],
            "conj": [[str(c) for c in row] for row in self.conj],
            "norm": [[str(c) for c in row] for row in self.norm.rows],
        }


@dataclass(frozen=True)
class AlgebraElement:
    table: AlgebraTable
    coords: tuple

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.table, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.table, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.table, tuple(-a for a in self.coords))

    def scale(self, c) -> "AlgebraElement":
        c = scal(c)
        return AlgebraElement(self.table, tuple(c * a for a in self.coords))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self.table, self, other)

    def _check(self, other: "AlgebraElement") -> None:
        if self.table is not other.table and self.table != other.table:
            raise ValueError("elements belong to different algebras")

    def __repr__(self):
        parts = [f"{c}*{l}" for c, l in zip(self.coords, self.table.labels) if c]
        return f"<{self.table.name}: {' + '.join(parts) if parts else '0'}>"


def multiply(t: AlgebraTable, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    for f in (x, y):
        if f.table is not t and f.table != t:
            raise ValueError("elements belong to different algebras")
    out = [_F0] * t.dim
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        mi = t.mult[i]
        for j, yj in enumerate(y.coords):
            if not yj:
                continue
            c = xi * yj
            for k, m in enumerate(mi[j]):
                if m:
                    out[k] += c * m
    return AlgebraElement(t, tuple(out))


def conjugate(t: AlgebraTable, x: AlgebraElement) -> AlgebraElement:
    nonzero = [(j, c) for j, c in enumerate(x.coords) if c]
    return AlgebraElement(t, tuple(sum((row[j] * c for j, c in nonzero), _F0)
                                   for row in t.conj))


def norm(t: AlgebraTable, x: AlgebraElement) -> Fraction:
    """<x, x>: the unit coefficient of x * conj(x)."""
    return inner(t, x, x)


def inner(t: AlgebraTable, x: AlgebraElement, y: AlgebraElement) -> Fraction:
    """x^T N y for the norm matrix N, summing only the products whose three
    factors are nonzero."""
    ys = [(j, c) for j, c in enumerate(y.coords) if c]
    return sum((xi * n * yj for xi, row in zip(x.coords, t.norm.rows) if xi
                for j, yj in ys if (n := row[j])), _F0)


def is_automorphism(t: AlgebraTable, g) -> bool:
    """True iff g (dim x dim matrix, column = image of basis vector) preserves
    the product on all basis pairs and fixes the unit."""
    rows = [[scal(x) for x in r] for r in getattr(g, "rows", g)]
    dim = t.dim
    if len(rows) != dim or any(len(r) != dim for r in rows):
        return False
    images = [AlgebraElement(t, tuple(rows[i][j] for i in range(dim))) for j in range(dim)]
    unit = t.unit()
    gu = images[t.unit_index]
    if gu.coords != unit.coords:
        return False
    for i in range(dim):
        for j in range(dim):
            lhs_coords = multiply(t, t.basis(i), t.basis(j)).coords
            lhs = t.zero()
            for k, c in enumerate(lhs_coords):
                if c:
                    lhs += images[k].scale(c)
            rhs = multiply(t, images[i], images[j])
            if lhs.coords != rhs.coords:
                return False
    return True


# --- construction -----------------------------------------------------------

def _table_from_mult(name, dim, mult, conj, unit_index, labels) -> AlgebraTable:
    """Assemble a table, deriving the polarized norm form, and validate it."""
    t_probe = AlgebraTable(name, dim, mult, conj, SymmetricMatrix([[0] * dim] * dim),
                           unit_index, labels)

    def n_of(coords):
        x = AlgebraElement(t_probe, coords)
        xc = multiply(t_probe, x, conjugate(t_probe, x))
        for k, c in enumerate(xc.coords):
            if k != unit_index and c:
                raise ValueError(f"{name}: x*conj(x) is not central on {coords}")
        return xc.coords[unit_index]

    table = AlgebraTable(name, dim, mult, conj, SymmetricMatrix(polarize(n_of, dim)),
                         unit_index, labels)
    _validate(table)
    return table


def _validate(t: AlgebraTable) -> None:
    unit = t.unit()
    for i in range(t.dim):
        b = t.basis(i)
        if multiply(t, unit, b).coords != b.coords or multiply(t, b, unit).coords != b.coords:
            raise ValueError(f"{t.name}: unit is not a two-sided identity")
        if conjugate(t, conjugate(t, b)).coords != b.coords:
            raise ValueError(f"{t.name}: conjugation is not an involution")
    for i in range(t.dim):
        for j in range(t.dim):
            lhs = conjugate(t, multiply(t, t.basis(i), t.basis(j)))
            rhs = multiply(t, conjugate(t, t.basis(j)), conjugate(t, t.basis(i)))
            if lhs.coords != rhs.coords:
                raise ValueError(f"{t.name}: conjugation is not an anti-automorphism")


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
    """
    zero = base.zero()
    pairs = ([(base.basis(i), zero) for i in range(base.dim)]
             + [(zero, base.basis(i)) for i in range(base.dim)])

    def coords(x, y):
        return x.coords + y.coords

    mult = tuple(tuple(coords(*product(a, b, c, d)) for c, d in pairs) for a, b in pairs)
    conj = tuple(zip(*(coords(_bar(a), -b) for a, b in pairs)))
    labels = tuple(base.labels) + tuple(label.format(l) if l != "1" else "e"
                                        for l in base.labels)
    return _table_from_mult(name, 2 * base.dim, mult, conj, base.unit_index, labels)


def _build_reals() -> AlgebraTable:
    return _table_from_mult("R", 1, ((( _F1,),),), ((_F1,),), 0, ("1",))


def split_quaternion_coords(m) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coordinates (a, b, c, d) of a 2x2 rational matrix m = a 1 + b i + c j + d k
    in the matrix model of the split quaternions."""
    (m11, m12), (m21, m22) = [[scal(x) for x in row] for row in m]
    return ((m11 + m22) / 2, (m12 - m21) / 2, (m12 + m21) / 2, (m11 - m22) / 2)


def _build_split_quaternions() -> AlgebraTable:
    # matrix model: i = [[0,1],[-1,0]], j = [[0,1],[1,0]], k = i j = [[1,0],[0,-1]]
    mats = [LinearMap(m) for m in (((1, 0), (0, 1)), ((0, 1), (-1, 0)),
                                   ((0, 1), (1, 0)), ((1, 0), (0, -1)))]
    mult = tuple(tuple(split_quaternion_coords((x @ y).rows) for y in mats) for x in mats)
    conj = ((_F1, _F0, _F0, _F0), (_F0, -_F1, _F0, _F0),
            (_F0, _F0, -_F1, _F0), (_F0, _F0, _F0, -_F1))
    return _table_from_mult("Hsplit", 4, mult, conj, 0, ("1", "i", "j", "k"))


ALGEBRA_KINDS = ("R", "C", "H", "Hsplit", "O", "Osplit", "Osplit_from_Hsplit")


@cache
def build_algebra(kind: str) -> AlgebraTable:
    """Return the named composition algebra (cached; tables are immutable)."""
    if kind not in ALGEBRA_KINDS:
        raise ValueError(f"unknown algebra kind {kind!r}; expected one of {ALGEBRA_KINDS}")
    if kind == "R":
        return _build_reals()
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
                vals[(p, q, r)] = inner(t, xy, basis[r])
    # alternation check over all argument positions
    for p in range(7):
        for q in range(7):
            for r in range(7):
                v = vals[(p, q, r)]
                if vals[(q, p, r)] != -v or vals[(p, r, q)] != -v:
                    raise ValueError("induced trilinear form is not alternating")
    terms = {}
    for p in range(7):
        for q in range(p + 1, 7):
            for r in range(q + 1, 7):
                c = vals[(p, q, r)]
                if c:
                    terms[(p + 1, q + 1, r + 1)] = c
    return KForm(3, terms)


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

