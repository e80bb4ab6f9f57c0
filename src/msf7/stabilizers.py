"""Catalog of explicit stabilizer elements, subgroup embeddings, identities.

Every entry is verified exactly: a named transformation must pull the target
form back to itself (or carry one representative to another), and every
embedding produces matrices that stabilize the advertised canonical form.
Two displayed maps required corrections, recovered by making the
verification predicate hold and recorded in the entry notes: the orbit-6
component map omits one image (the unique completion sends the sixth basis
vector to the fifth), and the first torus block rotates by the sum of the
two parameters, not its negative.

Compact subgroups are sampled at rational points (Cayley transforms,
tan-half-angle rotations, rational points on the unit quaternion sphere) so
all verification stays in exact arithmetic.

Every embedding is a block-diagonal 7x7 matrix.  The pair actions
(p, q) -> (l p r, l' q r') on doubled quaternions (orbits 8, 7, 5 and the
orbit-2 alternate) keep the halves apart, so each of their two blocks is one
sandwich p -> l p r, read off quaternion products.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import algebras
from .algebras import (
    AlgebraTable,
    build_algebra,
    conjugate,
    multiply,
    norm,
    split_quaternion_coords,
)
from .exterior import KForm, LinearMap, _scaled_pullback, pullback, scal, wedge
from .forms7 import BASIS_MAP_6, BASIS_MAP_7, _check_seed, canonical, classify, compact_dim

_F0 = Fraction(0)
_F1 = Fraction(1)


def verify_membership(g: LinearMap, w: KForm) -> bool:
    """True iff the pullback of w under g equals w exactly.

    Compared in ints: with g scaled by L to integers, g* w = w iff the
    scaled pullback equals L^3 times the scaled coefficients of w."""
    if w.degree != 3:
        raise ValueError("membership checks expect a 3-form")
    pulled, coeffs, _, scale = _scaled_pullback(g, w)
    return pulled == {idx: scale * x for idx, x in coeffs.items()}


# --- rational parametrizations ------------------------------------------------

def unit_quaternion(u1, u2, u3) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Rational point on the unit sphere of the quaternions (Cayley chart)."""
    u1, u2, u3 = scal(u1), scal(u2), scal(u3)
    d = 1 + u1 * u1 + u2 * u2 + u3 * u3
    return ((1 - u1 * u1 - u2 * u2 - u3 * u3) / d, 2 * u1 / d, 2 * u2 / d, 2 * u3 / d)


def rotation_matrix(cs: tuple[Fraction, Fraction]):
    c, s = cs
    if c * c + s * s != 1:
        raise ValueError("not a rational rotation: cos^2 + sin^2 != 1")
    return ((c, -s), (s, c))


def compose_angles(a: tuple, b: tuple) -> tuple[Fraction, Fraction]:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def negate_angle(a: tuple) -> tuple[Fraction, Fraction]:
    return (a[0], -a[1])


def cayley_so3(s1, s2, s3) -> tuple:
    """Rational special orthogonal 3x3 matrix (I - S)(I + S)^-1 for the
    antisymmetric S built from the three parameters."""
    s1, s2, s3 = scal(s1), scal(s2), scal(s3)
    S = LinearMap([[0, s1, s2], [-s1, 0, s3], [-s2, -s3, 0]])
    eye = LinearMap.identity(3)
    return ((eye - S) @ (eye + S).inverse()).rows


# --- embeddings ----------------------------------------------------------------

def _as_quaternion(t: AlgebraTable, q):
    if isinstance(q, algebras.AlgebraElement):
        return q
    coords = [scal(x) for x in q]
    if len(coords) != 4:
        raise ValueError("quaternion parameters need 4 coordinates")
    return t.element(coords)


def _block_diag(*blocks) -> LinearMap:
    """7x7 matrix with the given square blocks (lists of rows) down the
    diagonal and zeros elsewhere; raises if they do not fill it."""
    if (sum(len(blk) for blk in blocks) != 7
            or any(len(row) != len(blk) for blk in blocks for row in blk)):
        raise ValueError("blocks must be square and fill a 7x7 matrix")
    g = [[_F0] * 7 for _ in range(7)]
    r0 = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            g[r0 + i][r0:r0 + len(row)] = row
        r0 += len(blk)
    return LinearMap(g)


def _sandwich_block(t: AlgebraTable, left, right, first: int, flip: bool = False) -> list:
    """Rows of the matrix of p -> left p right on the quaternion coordinates
    first..3 of t (column j is the image of the j-th basis quaternion).

    With `flip` the basis negates coordinate 1, as the fifth element of the
    split frozen basis does.  A block from coordinate 1 on must keep the
    imaginary quaternions: an image with a unit component raises."""
    cols = [multiply(t, multiply(t, left, t.basis(j)), right).coords for j in range(first, 4)]
    if first and any(c[0] for c in cols):
        raise ValueError("map does not preserve the imaginary subspace")
    s = [-1 if flip and i == 1 else 1 for i in range(first, 4)]
    return [[s[r] * s[c] * col[i] for c, col in enumerate(cols)]
            for r, i in enumerate(range(first, 4))]


def embed_so4(a, b, split: bool = False) -> LinearMap:
    """7x7 matrix of the pair action (p, q) -> (a p a^-1, ...) of two unit
    quaternions on imaginary (split) octonions.

    Without `split` the second slot transforms as b q a^-1 and the matrix
    stabilizes the orbit-8 (and orbit-7) representatives; with `split` it
    transforms as a q b^-1 and stabilizes the orbit-5 representative.
    (a, b) and (-a, -b) give the same matrix.  The two slots are the blocks
    on e1..e3 and e4..e7.
    """
    H = build_algebra("H")
    a, b = _as_quaternion(H, a), _as_quaternion(H, b)
    if norm(H, a) != 1 or norm(H, b) != 1:
        raise ValueError("parameters must be unit quaternions")
    ai = conjugate(H, a)
    second = (_sandwich_block(H, a, conjugate(H, b), 0, flip=True) if split
              else _sandwich_block(H, b, ai, 0))
    return _block_diag(_sandwich_block(H, a, ai, 1), second)


def embed_sl2pair(a, b) -> LinearMap:
    """7x7 matrix of (p, q) -> (a p a^-1, a q b^-1) for 2x2 rational matrices
    with det a, det b = +-1 and det(ab) = 1; stabilizes the orbit-2 alternate
    (and the orbit-5 variant that differs from it by a volume form)."""
    da, db = LinearMap(a).det(), LinearMap(b).det()
    if da * da != 1 or db * db != 1:
        raise ValueError("parameters must have determinant +1 or -1")
    if da * db != 1:
        raise ValueError("determinant of the product must be 1")
    Ht = build_algebra("Hsplit")
    qa = Ht.element(split_quaternion_coords(a))
    qb = Ht.element(split_quaternion_coords(b))
    qai = conjugate(Ht, qa).scale(1 / da)
    qbi = conjugate(Ht, qb).scale(1 / db)
    return _block_diag(_sandwich_block(Ht, qa, qai, 1), _sandwich_block(Ht, qa, qbi, 0))


def embed_so3_33(A) -> LinearMap:
    """Block map fixing e1 and acting by the same rotation on e2..e4 and
    e5..e7; stabilizes the orbit-4 representative."""
    rows = [[scal(x) for x in r] for r in A]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("expected a 3x3 matrix")
    at_a = [[sum(rows[k][i] * rows[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    if at_a != [[1, 0, 0], [0, 1, 0], [0, 0, 1]]:
        raise ValueError("matrix is not orthogonal")
    if LinearMap(rows).det() != 1:
        raise ValueError("matrix must have determinant 1")
    return _block_diag([[_F1]], rows, rows)


def embed_gl2pair(a, b) -> LinearMap:
    """det(a)^-1 on e1, det(b)^-1 on e2, a on (e3,e4), b on (e5,e6),
    det(ab) on e7; stabilizes the orbit-1 representative."""
    da, db = LinearMap(a).det(), LinearMap(b).det()
    if not da or not db:
        raise ValueError("parameters must be invertible")
    return _block_diag([[1 / da]], [[1 / db]], a, b, [[da * db]])


# --- the torus realization ------------------------------------------------------

def torus_matrix(theta_cs, rho_cs) -> LinearMap:
    """Connected maximal torus of the orbit-2 alternate's compact stabilizer:
    blocks 1, R(theta+rho), R(theta), R(rho) on (f1),(f2,f3),(f4,f5),(f6,f7).

    The published display negates the first block's angle; the verification
    predicate (stabilizing the six-term alternate) forces the sign used here.
    """
    th = (scal(theta_cs[0]), scal(theta_cs[1]))
    rh = (scal(rho_cs[0]), scal(rho_cs[1]))
    for c, s in (th, rh):
        if c * c + s * s != 1:
            raise ValueError("angles must be rational rotation pairs")
    return _block_diag([[_F1]], rotation_matrix(compose_angles(th, rh)),
                       rotation_matrix(th), rotation_matrix(rh))


def torus_from_rotation_pair(cs1, cs2) -> LinearMap:
    """The torus element realized by the split pair embedding of two plane
    rotations: angles combine as (-2a, b-a, -a-b)."""
    a = (scal(cs1[0]), scal(cs1[1]))
    b = (scal(cs2[0]), scal(cs2[1]))
    theta = compose_angles(negate_angle(a), b)
    rho = compose_angles(negate_angle(a), negate_angle(b))
    return torus_matrix(theta, rho)


# --- the named-transformation catalog -------------------------------------------

@dataclass(frozen=True)
class NamedTransformation:
    name: str
    map: LinearMap
    target: tuple[int, str]
    claim: str  # "stabilizes" or "carries_to"
    note: str = ""

    def verify(self) -> bool:
        target_form = canonical(*self.target).form
        if self.claim == "stabilizes":
            return verify_membership(self.map, target_form)
        if self.claim == "carries_to":
            source = canonical(self.target[0], "standard").form
            return pullback(self.map, source) == target_form
        raise ValueError(f"unknown claim {self.claim!r}")


def catalog() -> tuple[NamedTransformation, ...]:
    return (
        NamedTransformation(
            "k1-swap-component",
            LinearMap.from_images({1: [0, 1, 0, 0, 0, 0, 0], 2: [1, 0, 0, 0, 0, 0, 0],
                                   3: [0, 0, 0, 0, 1, 0, 0], 4: [0, 0, 0, 0, 0, 1, 0],
                                   5: [0, 0, 1, 0, 0, 0, 0], 6: [0, 0, 0, 1, 0, 0, 0],
                                   7: [0, 0, 0, 0, 0, 0, -1]}),
            (1, "standard"), "stabilizes",
            "swaps the two 2-plane blocks; completes the compact part of orbit 1"),
        NamedTransformation(
            "k2-torus-second-component",
            LinearMap.from_images({1: [-1, 0, 0, 0, 0, 0, 0], 3: [0, 0, -1, 0, 0, 0, 0],
                                   4: [0, 0, 0, 0, -1, 0, 0], 5: [0, 0, 0, -1, 0, 0, 0],
                                   6: [0, 0, 0, 0, 0, 0, 1], 7: [0, 0, 0, 0, 0, 1, 0]}),
            (2, "prime"), "stabilizes",
            "second component of the maximal torus of the orbit-2 compact part"),
        NamedTransformation(
            "k2-determinant-component",
            LinearMap.from_images({3: [0, 0, -1, 0, 0, 0, 0], 4: [0, 0, 0, 0, 0, 0, 1],
                                   5: [0, 0, 0, 0, 0, 1, 0], 6: [0, 0, 0, 0, 1, 0, 0],
                                   7: [0, 0, 0, 1, 0, 0, 0]}),
            (2, "prime"), "stabilizes",
            "splits the determinant sign character of the orbit-2 stabilizer"),
        NamedTransformation(
            "k3-second-component",
            LinearMap([[(-1) ** i if i == j else 0 for j in range(1, 8)]
                       for i in range(1, 8)]),
            (3, "standard"), "stabilizes",
            "alternating sign flip; second component of the orbit-3 compact part"),
        NamedTransformation(
            "k4-second-component",
            LinearMap.from_images({1: [-1, 0, 0, 0, 0, 0, 0], 5: [0, 0, 0, 0, -1, 0, 0],
                                   6: [0, 0, 0, 0, 0, -1, 0], 7: [0, 0, 0, 0, 0, 0, -1]}),
            (4, "standard"), "stabilizes",
            "negates e1 and the second 3-block; second component of orbit 4"),
        NamedTransformation(
            "k6-second-component",
            LinearMap.from_images({1: [0, 1, 0, 0, 0, 0, 0], 2: [1, 0, 0, 0, 0, 0, 0],
                                   3: [0, 0, -1, 0, 0, 0, 0], 5: [0, 0, 0, 0, 0, 1, 0],
                                   6: [0, 0, 0, 0, 1, 0, 0], 7: [0, 0, 0, 0, 0, 0, -1]}),
            (6, "standard"), "stabilizes",
            "published display repeats the image of e5 and omits e6; the unique "
            "completion with e6 -> e5 is the one that verifies"),
        NamedTransformation(
            "orbit2-basis-change", canonical(2, "prime").change_of_basis,
            (2, "prime"), "carries_to",
            "rational form of the published basis change (the intermediate "
            "square-root scalings cancel after halving the first three vectors)"),
        NamedTransformation(
            "orbit6-alternate-map", BASIS_MAP_6.inverse(), (6, "prime"), "carries_to",
            "inverse of the published orbit-6 adjustment map"),
        NamedTransformation(
            "orbit7-alternate-map", BASIS_MAP_7.inverse(), (7, "prime"), "carries_to",
            "inverse of the published orbit-7 adjustment map"),
    )


# --- identity suite --------------------------------------------------------------

def _orbit6_reduction_form() -> KForm:
    return canonical(6).form - wedge(KForm.monomial([3]),
                                     KForm.monomial([4, 7]) - KForm.monomial([5, 6]))


def _orbit6_reduction_algebra_form() -> KForm:
    """Induced form of the quaternion-pair split octonions on the display
    basis {i, j, k, e, ie, je, ke} (doubling unit multiplied on the right)."""
    t = build_algebra("Osplit")
    qi, qj, qk, e = algebras.split_so4_basis()[:4]
    basis = [qi, qj, qk, e, multiply(t, qi, e), multiply(t, qj, e), multiply(t, qk, e)]
    return algebras.triple_form(t, basis)


_TORUS_SAMPLE_ANGLES = ((Fraction(3, 5), Fraction(4, 5)),
                        (Fraction(5, 13), Fraction(12, 13)),
                        (Fraction(8, 17), Fraction(15, 17)))


def _entry(anchor: str, ok: bool, detail: str = "") -> dict:
    return {"anchor": anchor, "status": "pass" if ok else "fail",
            **({"detail": detail} if detail else {})}


def identity_checks() -> list[dict]:
    """Evaluate every catalogued identity as exact form equality (orbit
    membership where that is the claim); returns one entry per anchor."""
    report = []

    def add(anchor: str, ok: bool, detail: str = ""):
        report.append(_entry(anchor, ok, detail))

    w = {i: canonical(i).form for i in (2, 5, 6, 7, 8)}
    w2p = canonical(2, "prime").form
    vol3 = KForm.monomial([1, 2, 3])

    add("orbit8-is-orbit7-plus-volume", w[8] == w[7] + vol3)

    shifted = w2p + vol3
    add("orbit2-alternate-volume-shift-equals-orbit5-variant",
        shifted == canonical(5, "prime").form and classify(shifted) == 5)

    red = _orbit6_reduction_form()
    add("orbit6-reduction-equals-induced-split-form",
        red == _orbit6_reduction_algebra_form() and classify(red) == 5)

    add("orbit6-alternate-representative-stays-in-orbit",
        classify(pullback(BASIS_MAP_6.inverse(), w[6])) == 6)
    add("orbit7-alternate-representative-stays-in-orbit",
        classify(pullback(BASIS_MAP_7.inverse(), w[7])) == 7)

    add("orbit2-basis-change-reproduces-alternate",
        pullback(canonical(2, "prime").change_of_basis, w[2]) == w2p)

    for tr in catalog():
        add(f"transformation-{tr.name}", tr.verify(), tr.note)

    torus_ok = all(verify_membership(torus_matrix(th, rh), w2p)
                   for th in _TORUS_SAMPLE_ANGLES for rh in _TORUS_SAMPLE_ANGLES)
    add("torus-realization-stabilizes-orbit2-alternate", torus_ok,
        "first block angle corrected to theta+rho")

    embed_torus_ok = True
    for cs1 in _TORUS_SAMPLE_ANGLES:
        for cs2 in _TORUS_SAMPLE_ANGLES:
            m = embed_sl2pair(rotation_matrix(cs1), rotation_matrix(cs2))
            embed_torus_ok &= m == torus_from_rotation_pair(cs1, cs2)
    add("torus-elements-arise-from-rotation-pairs", embed_torus_ok)

    return report


# --- full verification run --------------------------------------------------------

EXPECTED_COMPACT_DIMS = (2, 2, 9, 3, 6, 4, 6, 14)


def _preferred_representatives() -> list[KForm]:
    return [canonical(1).form, canonical(2, "prime").form, canonical(3).form,
            canonical(4).form, canonical(5).form, canonical(6).form,
            canonical(7).form, canonical(8).form]


def verify_paper(draws: int = 10, seed: int = 0) -> list[dict]:
    """Identity suite + compact dimensions + randomized embedding checks.

    Every entry carries an anchor and pass/fail status; the run is
    deterministic for a fixed seed and self-contained.  At least one draw is
    required: with none, the embedding anchors would pass unchecked.  The
    seed must lie in 0..2^64-1, as for ``sample_orbit``.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    _check_seed(seed)
    report = identity_checks()
    rng = random.Random(seed)

    for orbit_id, expected, w in zip(range(1, 9), EXPECTED_COMPACT_DIMS,
                                     _preferred_representatives()):
        got = compact_dim(w)
        report.append(_entry(f"compact-dimension-orbit-{orbit_id}", got == expected,
                             f"expected {expected}, computed {got}"))

    w1 = canonical(1).form
    w2p = canonical(2, "prime").form
    w4 = canonical(4).form
    w5 = canonical(5).form
    w7 = canonical(7).form
    w8 = canonical(8).form

    def frac():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    ok8 = ok7 = ok5 = True
    for _ in range(draws):
        a = unit_quaternion(frac(), frac(), frac())
        b = unit_quaternion(frac(), frac(), frac())
        m = embed_so4(a, b)
        ok8 &= verify_membership(m, w8)
        ok7 &= verify_membership(m, w7)
        ok5 &= verify_membership(embed_so4(a, b, split=True), w5)
    report += [_entry("embedding-so4-stabilizes-orbit8", ok8),
               _entry("embedding-so4-stabilizes-orbit7", ok7),
               _entry("embedding-so4-split-stabilizes-orbit5", ok5)]

    ok2 = True
    for _ in range(draws):
        a, b = sample_sl2pair(rng)
        ok2 &= verify_membership(embed_sl2pair(a, b), w2p)
    report.append(_entry("embedding-sl2pair-stabilizes-orbit2-alternate", ok2))

    ok4 = True
    for _ in range(draws):
        A = cayley_so3(frac(), frac(), frac())
        ok4 &= verify_membership(embed_so3_33(A), w4)
    report.append(_entry("embedding-so3-stabilizes-orbit4", ok4))

    ok1 = True
    for _ in range(draws):
        a, b = sample_gl2(rng), sample_gl2(rng)
        ok1 &= verify_membership(embed_gl2pair(a, b), w1)
    report.append(_entry("embedding-gl2pair-stabilizes-orbit1", ok1))

    return report


def sample_gl2(rng: random.Random) -> list:
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        if LinearMap(m).det():
            return m


def sample_sl2pair(rng: random.Random) -> tuple[list, list]:
    """Pair of unimodular-up-to-sign 2x2 matrices with det(ab) = 1."""

    def elem():
        m = [[_F1, _F0], [_F0, _F1]]
        for _ in range(rng.randint(1, 4)):
            t = Fraction(rng.randint(-2, 2))
            if rng.randint(0, 1):
                m = [[m[0][0] + t * m[1][0], m[0][1] + t * m[1][1]],
                     [m[1][0], m[1][1]]]
            else:
                m = [[m[0][0], m[0][1]],
                     [m[1][0] + t * m[0][0], m[1][1] + t * m[0][1]]]
        return m

    a, b = elem(), elem()
    if rng.randint(0, 1):
        # flip both determinants to -1, keeping det(ab) = 1
        a = [[a[0][0], -a[0][1]], [a[1][0], -a[1][1]]]
        b = [[b[0][0], -b[0][1]], [b[1][0], -b[1][1]]]
    return a, b
