"""Seeded input generators, op runners and answer checks for each workload.

A workload is an endless stream of *cycles*.  A cycle is a fixed sequence
of op slots (which orbit, which embedding, which topology label, ...); the
seed only fills in the random data of each slot.  Every run therefore
executes the same mix of op kinds whatever the seed, and runs are stopped
at cycle boundaries so the mix is exact.

Ops are generated as plain JSON (the package's wire formats), so they can be
hashed for the reproducibility record and handed to a fresh interpreter for
the set-up probe.  Generation does not call the package: forms are pulled
back by a local integer minor expansion and the orbit representatives are
the paper's printed ones, so the inputs of a seed stay the same from one
commit to the next and the expected answers are known by construction.

The package is imported lazily by :func:`prepare`, after generation, and
every API call goes through a module attribute looked up at call time, so
the traced run's wrappers see it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

# --- the paper's orbit representatives (1-based index triples) ---------------

ORBIT_TERMS = {
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
# alternate representative of orbit 2 ("prime" variant), fixed by the sl2 pairs
ORBIT2_PRIME_TERMS = [((1, 4, 5), 1), ((1, 6, 7), -1), ((2, 5, 7), 1),
                      ((2, 4, 6), -1), ((3, 4, 7), -1), ((3, 5, 6), -1)]

# (ms_rank, b_rank, unordered b signature, stabilizer dimension) per orbit
ORBIT_INVARIANTS = {
    1: (7, 2, (1, 1), 18), 2: (7, 4, (2, 2), 15), 3: (7, 1, (1, 0), 28),
    4: (7, 1, (1, 0), 21), 5: (7, 7, (4, 3), 14), 6: (7, 2, (2, 0), 18),
    7: (7, 4, (4, 0), 15), 8: (7, 7, (7, 0), 14),
}

NON_MULTISYMPLECTIC = "NonMultisymplectic"
DIM = 7
_TRIPLES = list(combinations(range(DIM), 3))


# --- exact helpers used only to generate inputs ------------------------------

def _det(m) -> Fraction:
    """Determinant by Fraction elimination (small matrices only)."""
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _inverse_diagonal(m) -> list[Fraction]:
    """Diagonal of the inverse of an invertible matrix (Gauss-Jordan)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[i][n + i] for i in range(n)]


def _det3(g, rows, cols) -> int:
    (a, b, c), (d, e, f), (h, i, j) = ([g[r][k] for k in cols] for r in rows)
    return a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h)


def _pullback(g, terms, scale: int = 1) -> dict:
    """Wire form of g^* w for an integer matrix g (rows), divided by scale^3.

    (g^* w)_J = sum_I w_I det(g[I, J]): the same minor expansion the package
    uses, written out independently for 0-based index triples.
    """
    out = []
    for J in _TRIPLES:
        c = sum(coef * _det3(g, [i - 1 for i in idx], J) for idx, coef in terms)
        if c:
            out.append(([j + 1 for j in J], Fraction(c, scale ** 3)))
    return _form_json(out)


def _form_json(terms) -> dict:
    return {"degree": 3, "terms": [{"idx": list(idx), "coef": str(c)} for idx, c in terms]}


def _invertible_int(rng: random.Random) -> list[list[int]]:
    while True:
        g = [[rng.randint(-3, 3) for _ in range(DIM)] for _ in range(DIM)]
        if _det(g):
            return g


def _singular_int(rng: random.Random) -> list[list[int]]:
    """Rank-deficient integer map: one column is a combination of two others."""
    g = [[rng.randint(-3, 3) for _ in range(DIM)] for _ in range(DIM)]
    k, i, j = rng.sample(range(DIM), 3)
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    for row in g:
        row[k] = a * row[i] + b * row[j]
    return g


def _rational_invertible(rng: random.Random):
    """Invertible map with entries p/q, |p| <= 3, 1 <= q <= 5, as (G, L) with
    the map equal to G / L for an integer matrix G."""
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(DIM)]
             for _ in range(DIM)]
        if _det(m):
            L = lcm(*(x.denominator for row in m for x in row))
            return [[int(x * L) for x in row] for row in m], L


# --- classify ----------------------------------------------------------------

CLASSIFY_SLOTS = (8, 1, 2, 3, 4, 5, 6, 7, NON_MULTISYMPLECTIC)


def classify_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for slot in CLASSIFY_SLOTS:
        if slot == NON_MULTISYMPLECTIC:
            g, orbit = _singular_int(rng), rng.randint(1, 8)
        else:
            g, orbit = _invertible_int(rng), slot
        ops.append({"form": _pullback(g, ORBIT_TERMS[orbit]), "expect": slot})
    return ops


# --- invariants-rational -----------------------------------------------------

INVARIANT_SLOTS = (8, 1, 2, 3, 4, 5, 6, 7)


def invariants_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for orbit in INVARIANT_SLOTS:
        g, L = _rational_invertible(rng)
        ops.append({"form": _pullback(g, ORBIT_TERMS[orbit], L), "orbit": orbit})
    return ops


# --- stabilizer-catalog ------------------------------------------------------

# (embedding, target representative); the six subgroup embeddings of the catalog
EMBEDDINGS = (("so4", 8), ("so4", 7), ("so4_split", 5), ("sl2pair", "2prime"),
              ("so3_33", 4), ("gl2pair", 1))
# Members: twelve draws of each so4 embedding, six of each other one; then
# one perturbed non-member per embedding, so one op in ten must be rejected.
# The double share of the three so4 embeddings (the dearest ops) puts the
# median op inside their cost class instead of on the edge between classes.
MEMBER_DRAWS = (12, 12, 12, 6, 6, 6)
CATALOG_SLOTS = (tuple((k, False) for k, n in enumerate(MEMBER_DRAWS) for _ in range(n))
                 + tuple((k, True) for k in range(len(EMBEDDINGS))))


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _unit_quaternion(rng: random.Random) -> list[Fraction]:
    """Rational point of the unit 3-sphere (Cayley chart)."""
    u = [_frac(rng) for _ in range(3)]
    d = 1 + sum(x * x for x in u)
    return [(1 - sum(x * x for x in u)) / d] + [2 * x / d for x in u]


def _rotation3(rng: random.Random) -> list[list[Fraction]]:
    """Rational SO(3) matrix of a rational unit quaternion."""
    w, x, y, z = _unit_quaternion(rng)
    return [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]


def _sl2pair(rng: random.Random):
    """Two integer 2x2 matrices of determinant +-1 with det(ab) = 1."""
    def elem():
        m = [[1, 0], [0, 1]]
        for _ in range(rng.randint(1, 4)):
            t = rng.randint(-2, 2)
            if rng.randint(0, 1):
                m = [[m[0][0] + t * m[1][0], m[0][1] + t * m[1][1]], m[1]]
            else:
                m = [m[0], [m[1][0] + t * m[0][0], m[1][1] + t * m[0][1]]]
        return m

    a, b = elem(), elem()
    if rng.randint(0, 1):
        a = [[a[0][0], -a[0][1]], [a[1][0], -a[1][1]]]
        b = [[b[0][0], -b[0][1]], [b[1][0], -b[1][1]]]
    return a, b


def _gl2(rng: random.Random):
    while True:
        m = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
            return m


def _strs(x):
    return [_strs(v) for v in x] if isinstance(x, (list, tuple)) else str(x)


def _embedding_params(kind: str, rng: random.Random):
    if kind in ("so4", "so4_split"):
        return [_unit_quaternion(rng), _unit_quaternion(rng)]
    if kind == "sl2pair":
        return list(_sl2pair(rng))
    if kind == "so3_33":
        return [_rotation3(rng)]
    return [_gl2(rng), _gl2(rng)]


def catalog_cycle(rng: random.Random) -> list[dict]:
    ops = []
    for k, perturbed in CATALOG_SLOTS:
        kind, target = EMBEDDINGS[k]
        ops.append({"embed": kind, "target": target, "perturbed": perturbed,
                    "params": _strs(_embedding_params(kind, rng))})
    return ops


# --- topo-search -------------------------------------------------------------

# (label, type, r2, bound, planted shell); r4 = 1 throughout.  Bounds keep
# every exhaustive box well under 1.5 s on the seed commit.  Three slots (the
# two type-1 boxes and the type-2 box in six unknowns) share the top cost
# class, so a run holds many more than ten samples of the ops that set the
# tail; the box sizes of the other slots are spread apart so that the median
# op falls inside one cost class (the type-4 NO box).
TOPO_SLOTS = (
    ("admits", 4, 3, 8, 2),
    ("no", 4, 3, 8, None),
    ("parity", 4, 2, 16, None),
    ("admits", 2, 1, 16, 3),
    ("no", 2, 1, 32, None),
    ("parity", 2, 3, 2, None),
    ("admits", 1, 2, 6, 2),
    ("no", 1, 2, 6, None),
    ("parity", 1, 2, 6, None),
)


def _cup(C, x, y) -> int:
    return sum(C[i][j] * x[i] * y[j] for i in range(len(x)) for j in range(len(y)))


def topo_value(type_id: int, C, witness) -> int:
    """The quadratic quantity each criterion sets equal to its target
    (p1 for type 1, p1 / 2 for types 2 and 4)."""
    if type_id == 4:
        (e,) = witness
        return _cup(C, e, e)
    e, f = witness
    v = _cup(C, e, e) + _cup(C, f, f)
    return v + _cup(C, e, f) if type_id == 2 else v


def _planted(rng: random.Random, dim: int, shell: int) -> list[int]:
    x = [rng.randint(-shell, shell) for _ in range(dim)]
    x[rng.randrange(dim)] = rng.choice((-shell, shell))
    return x


def _symmetric(rng: random.Random, r2: int, lo: int, hi: int) -> list[list[int]]:
    C = [[0] * r2 for _ in range(r2)]
    for i in range(r2):
        for j in range(i, r2):
            C[i][j] = C[j][i] = rng.randint(lo, hi)
    return C


def _definite(rng: random.Random, r2: int, m: int) -> list[list[int]]:
    """m times a diagonally dominant (so positive definite) integer form."""
    C = _symmetric(rng, r2, -1, 1)
    for i in range(r2):
        C[i][i] = sum(abs(C[i][j]) for j in range(r2) if j != i) + rng.randint(1, 2)
    return [[m * c for c in row] for row in C]


def _search_matrix(type_id: int, C) -> list[list[Fraction]]:
    """Symmetric matrix of the searched quadratic form in (e) or (e, f)."""
    if type_id == 4:
        return C
    off = Fraction(1, 2) if type_id == 2 else 0
    top = [row + [off * c for c in row] for row in C]
    bottom = [[off * c for c in row] + row for row in C]
    return top + bottom


def _indefinite(rng: random.Random, r2: int, even_diagonal: bool) -> list[list[int]]:
    """Symmetric form with a positive and a negative diagonal entry."""
    C = _symmetric(rng, r2, -2, 2)
    pos, neg = rng.sample(range(r2), 2)
    C[pos][pos], C[neg][neg] = rng.randint(1, 2), -rng.randint(1, 2)
    if even_diagonal:
        for i in range(r2):
            C[i][i] *= 2
    return C


def _model(r2: int, C, p1: int, w2) -> dict:
    spin = not any(w2)
    return {"name": "bench", "r2": r2, "r4": 1,
            "cup": [[[c] for c in row] for row in C], "p1": [p1], "w2": list(w2),
            "orientable": True, "spin": spin, "W3_zero": True,
            "simply_connected": True}


def _topo_op(rng: random.Random, label: str, type_id: int, r2: int, bound: int,
             shell) -> dict:
    dim = r2 if type_id == 4 else 2 * r2
    w2 = [0] * r2
    if label == "admits":
        C = _symmetric(rng, r2, -3, 3)
        while not any(map(any, C)):
            C = _symmetric(rng, r2, -3, 3)
        x = _planted(rng, dim, shell)
        witness = (x,) if type_id == 4 else (x[:r2], x[r2:])
        value = topo_value(type_id, C, witness)
        if type_id == 1:
            w2 = [(a + b) % 2 for a, b in zip(*witness)]
            p1 = value
        else:
            p1 = 2 * value
    elif label == "no":
        # every value of m * C is divisible by m, the target is not; C is
        # definite and the target small, so the exhaustion bound fits the box
        m = rng.choice((2, 3))
        C = _definite(rng, r2, m)
        inv = _inverse_diagonal(_search_matrix(type_id, C))
        while True:
            t = rng.randint(1, 12)
            if t % m and max(isqrt(int(t * v)) for v in inv) <= bound:
                break
        p1 = t if type_id == 1 else 2 * t
    elif type_id == 1:
        # values are congruent to sum C_ii w2_i mod 2; p1 has the other parity
        C = _indefinite(rng, r2, even_diagonal=False)
        w2 = [rng.randint(0, 1) for _ in range(r2)]
        wrong = (sum(C[i][i] * w2[i] for i in range(r2)) + 1) % 2
        p1 = 2 * rng.randint(-3, 3) + wrong
    else:
        # even form (all entries even for type 2, even diagonal for type 4):
        # every value is even, the target p1/2 is odd
        C = _indefinite(rng, r2, even_diagonal=True)
        if type_id == 2:
            C = [[2 * c for c in row] for row in C]
        p1 = 2 * (2 * rng.randint(-3, 3) + 1)
    return {"model": _model(r2, C, p1, w2), "type": type_id, "bound": bound,
            "label": label, "dim": dim}


def topo_cycle(rng: random.Random) -> list[dict]:
    return [_topo_op(rng, *slot) for slot in TOPO_SLOTS]


# --- preparing, running and checking ops -------------------------------------

def prepare(workload: str, op: dict):
    """Decode one op into (thunk, check): thunk() makes the timed API call,
    check(result) says whether the answer matches the op's label."""
    from msf7 import exterior, forms7, stabilizers, topology

    if workload == "classify":
        w = exterior.KForm.from_json(op["form"])
        expect = op["expect"]
        return (lambda: forms7.classify(w)), (lambda r: r == expect)

    if workload == "invariants-rational":
        w = exterior.KForm.from_json(op["form"])
        expect = ORBIT_INVARIANTS[op["orbit"]]

        def check(iv):
            return (iv.ms_rank, iv.b_rank, tuple(iv.b_signature), iv.stab_dim) == expect
        return (lambda: forms7.invariant_vector(w)), check

    if workload == "stabilizer-catalog":
        perturb = exterior.LinearMap([[2 if i == j == 0 else int(i == j)
                                       for j in range(DIM)] for i in range(DIM)])
        terms = ORBIT2_PRIME_TERMS if op["target"] == "2prime" else ORBIT_TERMS[op["target"]]
        w = exterior.KForm.from_json(_form_json(terms))
        params = _fractions(op["params"])
        kind, perturbed = op["embed"], op["perturbed"]

        def run():
            if kind == "so4":
                g = stabilizers.embed_so4(*params)
            elif kind == "so4_split":
                g = stabilizers.embed_so4(*params, split=True)
            elif kind == "sl2pair":
                g = stabilizers.embed_sl2pair(*params)
            elif kind == "so3_33":
                g = stabilizers.embed_so3_33(*params)
            else:
                g = stabilizers.embed_gl2pair(*params)
            if perturbed:
                g = g @ perturb
            return stabilizers.verify_membership(g, w)
        return run, (lambda r: r == (not perturbed))

    if workload == "topo-search":
        data = op["model"]
        type_id, bound, label = op["type"], op["bound"], op["label"]
        C = [[cell[0] for cell in row] for row in data["cup"]]
        target = data["p1"][0] if type_id == 1 else data["p1"][0] // 2
        w2 = data["w2"]

        model = topology.make_model(data)  # for verify_witness in the check

        def run():
            # like a topo-check call, the op decodes its model, then searches
            return topology.check_type(topology.make_model(data), type_id, bound)

        def check(v):
            if label == "admits":
                wit = v.witness
                return (v.status == topology.ADMITS and wit is not None
                        and topology.verify_witness(model, type_id, wit)
                        and topo_value(type_id, C, wit) == target
                        and (type_id != 1 or all((a + b - c) % 2 == 0
                                                 for a, b, c in zip(*wit, w2))))
            if label == "no":
                return v.status == topology.NO and v.witness is None
            return v.status in (topology.NO, topology.UNKNOWN) and v.witness is None
        return run, check

    raise ValueError(f"unknown workload {workload!r}")


def _fractions(x):
    return [_fractions(v) for v in x] if isinstance(x, list) else Fraction(x)


def cycle(workload: str, seed: int, index: int) -> list[dict]:
    """Ops of cycle `index` of a workload's stream; a pure function of its
    arguments (cycle -1 is the untimed warm-up)."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "classify":
        return classify_cycle(rng)
    if workload == "invariants-rational":
        return invariants_cycle(rng)
    if workload == "stabilizer-catalog":
        return catalog_cycle(rng)
    if workload == "topo-search":
        return topo_cycle(rng)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("classify", "invariants-rational", "stabilizer-catalog", "topo-search")


def box_points(op: dict) -> int:
    """Integer points in the search box of a topo-search op."""
    return (2 * op["bound"] + 1) ** op["dim"]

