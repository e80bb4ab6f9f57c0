"""Decision procedures for the existence of global 3-forms of each type.

A :class:`CohomologyModel` carries the free parts of the degree-2 and
degree-4 cohomology of a closed connected 7-manifold, the cup product
between them, the first Pontryagin vector, the mod-2 reduction of the
second Stiefel-Whitney class, and orientation/spin flags.  `check_type`
decides the published criteria:

    types 5..8  orientable and spin (all four equivalent; no search)
    type 3      integral third Stiefel-Whitney class vanishes
    type 4      spin and cup(e, e) = p1/2 for some degree-2 class e
    type 2      (simply connected) spin and cup(e,e)+cup(f,f)+cup(e,f) = p1/2
    type 1      (simply connected) e+f = w2 mod 2 and cup(e,e)+cup(f,f) = p1

Each criterion is written once as a check, `verify_witness` (through
`cup_eval`), the only test a search candidate must pass, and once as the
integer Gram matrices a_k with x^T a_k x = 2 q_k(x) that `_gram` reads off
the cup tensor; the proofs and the solve below work on these.

Searches run over integer coordinate boxes, in max-norm shells and
lexicographic order so the reported witness is deterministic and independent
of the bound.  NO is only returned with a proof: a divisibility obstruction,
an identically-zero form against a nonzero target, or a positive/negative
definite functional sum lambda_k a_k of the Gram matrices whose coordinate
bounds fall inside the searched box.  Anything else unresolved at the bound
is UNKNOWN.

Proofs are tried before the search.  An identically-zero form against a
nonzero target is NO without a search.  When a definite functional bounds
every solution by some box b <= bound, only the shells up to b are searched:
they contain every solution, so the first witness in shell order, and with
it the verdict, is the one the full box would give.

The last coordinate is solved for, not enumerated: for each prefix of the
others, x^T a_0 x = 2 t_0 is a quadratic in it with integer coefficients,
and only its integer roots (``math.isqrt``) that lie in the shell are
checked against the criterion.  Every solution in the box is still
checked, in the same order, so witnesses and verdicts are those of a full
enumeration, at about (2b+1)^d / 2d prefixes for a box of (2b+1)^d points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import product
from operator import mul

from .exterior import LinearMap, json_int, signature

ADMITS = "ADMITS"
NO = "NO"
UNKNOWN = "UNKNOWN"

DEFAULT_BOUND = 16


class HypothesisError(ValueError):
    """A theorem hypothesis (orientability / simple connectivity) is not met."""


class ModelError(ValueError):
    """Malformed or inconsistent cohomology data."""


@dataclass(frozen=True)
class CohomologyModel:
    name: str
    r2: int
    r4: int
    cup: tuple          # cup[i][j]: length-r4 integer vector for generators i, j
    p1: tuple           # length r4
    w2: tuple           # length r2, entries mod 2
    orientable: bool
    spin: bool
    W3_zero: bool
    simply_connected: bool


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: tuple | None   # tuple of coordinate tuples, present iff ADMITS
    bound_used: int
    reason: str = ""

    def to_json(self) -> dict:
        out = {"status": self.status, "bound_used": self.bound_used}
        if self.witness is not None:
            out["witness"] = [list(v) for v in self.witness]
        if self.reason:
            out["reason"] = self.reason
        return out


def _flag(data: dict, key: str) -> bool:
    value = data[key]
    if type(value) is not bool:
        raise TypeError(f"{key} must be true or false, got {value!r}")
    return value


def make_model(data: dict) -> CohomologyModel:
    """Validate raw model data (types, symmetry, lengths, flag consistency).

    Flags must be JSON booleans and every count or class coordinate a JSON
    integer; nothing is coerced.
    """
    try:
        name = str(data.get("name", "unnamed"))
        r2 = json_int(data["r2"], "r2")
        r4 = json_int(data["r4"], "r4")
        cup = tuple(tuple(tuple(json_int(x, "cup entry") for x in cell) for cell in row)
                    for row in data["cup"])
        p1 = tuple(json_int(x, "p1 entry") for x in data["p1"])
        w2 = tuple(json_int(x, "w2 entry") % 2 for x in data["w2"])
        orientable = _flag(data, "orientable")
        spin = _flag(data, "spin")
        w3_zero = _flag(data, "W3_zero")
        simply_connected = _flag(data, "simply_connected")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed cohomology model: {exc}") from exc
    if r2 < 0 or r4 < 0:
        raise ModelError("ranks must be nonnegative")
    if len(cup) != r2 or any(len(row) != r2 for row in cup):
        raise ModelError(f"cup tensor must be {r2} x {r2}")
    for i in range(r2):
        for j in range(r2):
            if len(cup[i][j]) != r4:
                raise ModelError(f"cup[{i}][{j}] must have length {r4}")
            if cup[i][j] != cup[j][i]:
                raise ModelError(f"cup tensor is not symmetric at ({i},{j})")
    if len(p1) != r4:
        raise ModelError(f"p1 must have length {r4}")
    if len(w2) != r2:
        raise ModelError(f"w2 must have length {r2}")
    if spin and any(w2):
        raise ModelError("spin model must have w2 = 0")
    if spin and not w3_zero:
        raise ModelError("spin model must have W3_zero (beta of zero is zero)")
    if simply_connected and not orientable:
        raise ModelError("a simply connected manifold is orientable")
    return CohomologyModel(name, r2, r4, cup, p1, w2, orientable, spin,
                           w3_zero, simply_connected)


def load_model(path) -> CohomologyModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file is not valid JSON: {exc}") from exc
    return make_model(data)


def bundled_model_names() -> list[str]:
    """The names ``bundled_model`` accepts, sorted."""
    root = resources.files("msf7").joinpath("models")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_model(name: str) -> CohomologyModel:
    path = resources.files("msf7").joinpath("models", f"{name}.json")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ModelError(f"no bundled model named {name!r}") from exc
    return make_model(data)


def cup_eval(model: CohomologyModel, e, f) -> tuple[int, ...]:
    """Bilinear symmetric evaluation of the cup tensor on degree-2 classes."""
    e = [json_int(x, "coordinate") for x in e]
    f = [json_int(x, "coordinate") for x in f]
    if len(e) != model.r2 or len(f) != model.r2:
        raise ValueError(f"coordinate vectors must have length {model.r2}")
    out = [0] * model.r4
    for i, ei in enumerate(e):
        if not ei:
            continue
        for j, fj in enumerate(f):
            if not fj:
                continue
            c = ei * fj
            for k, v in enumerate(model.cup[i][j]):
                out[k] += c * v
    return tuple(out)


# --- bounded search with proofs -------------------------------------------------

def _roots(a: int, l: int, c: int):
    """Integer roots of a z^2 + 2 l z + c, ascending; None when every z is one."""
    if a:
        disc = l * l - a * c
        r = math.isqrt(disc) if disc >= 0 else -1
        if r * r != disc:
            return ()
        return sorted({n // a for n in (-l - r, -l + r) if n % a == 0})
    if l:
        return (-c // (2 * l),) if c % (2 * l) == 0 else ()
    return None if c == 0 else ()


def _candidates(a, dim: int, t2: int, bound: int):
    """The vectors of max-norm <= bound, by shell then lexicographic, that can
    solve x^T a x = t2.  A prefix p turns it into a_zz z^2 + 2 l z + c = 0;
    every z of the shell is yielded when all solve it.
    """
    if dim == 0:
        yield ()
        return
    *head, last = a
    a_zz = last[-1]
    for s in range(bound + 1):
        full = range(-s, s + 1)
        for p in product(full, repeat=dim - 1):
            l = sum(map(mul, last, p))
            c = sum(pi * sum(map(mul, row, p)) for pi, row in zip(p, head)) - t2
            roots = _roots(a_zz, l, c)
            # a prefix inside the shell needs |z| = s
            low = s if max(map(abs, p), default=0) < s else 0
            for z in full if roots is None else roots:
                if low <= abs(z) <= s:
                    yield p + (z,)


def _definite_exhaustion_bound(grams, dim: int, target) -> int | None:
    """If some +-coordinate or +-sum functional of the Gram matrices is
    definite, return a box bound containing all integer solutions of
    x^T a_k x = 2 t_k for every k (None if no definite functional is found).

    A negative functional value with a positive definite form returns 0: no
    nonzero solution can exist and x = 0 is checked separately.
    """
    if dim == 0:
        return 0
    r4 = len(grams)
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
        m = [[sum(l * a[i][j] for l, a in zip(lam, grams)) for j in range(dim)]
             for i in range(dim)]
        pos, neg, null = signature(m)
        if pos != dim:
            continue
        s = 2 * sum(l * t for l, t in zip(lam, target))
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


# block (p, q) of a_k over x = e, or (e, f), is _BLOCKS[type][p][q] C_k
_BLOCKS = {4: ((2,),), 1: ((2, 0), (0, 2)), 2: ((2, 1), (1, 2))}


def _gram(model: CohomologyModel, type_id: int) -> list[list[list[int]]]:
    """For each component k, the integer a_k with x^T a_k x = 2 q_k(x), q the
    criterion's cup-square, from C_k[i][j] = cup[i][j][k]."""
    r2, blocks = model.r2, _BLOCKS[type_id]
    dim = len(blocks) * r2
    return [[[blocks[i // r2][j // r2] * model.cup[i % r2][j % r2][k] for j in range(dim)]
             for i in range(dim)] for k in range(model.r4)]


def _search(model: CohomologyModel, type_id: int, target, bound: int) -> Verdict:
    """Shared bounded search for a witness of type 1, 2 or 4 whose cup-square
    is target; a candidate is accepted only by ``verify_witness``.

    The NO proofs are tried first; a definite functional's box, when it is
    within the bound, limits the shells searched (see the module notes).
    """
    zero_form = all(v == 0 for row in model.cup for cell in row for v in cell)
    if zero_form and any(target):
        return Verdict(NO, None, bound,
                       "cup form is identically zero but the target class is not")
    r2, parts = model.r2, len(_BLOCKS[type_id])
    dim = parts * r2
    grams = _gram(model, type_id)
    box = _definite_exhaustion_bound(grams, dim, target)
    exhaustive = box is not None and box <= bound
    # component 0 steers the solve; with r4 = 0 every z solves it
    a, t2 = (grams[0], 2 * target[0]) if grams else ([[0] * dim] * dim, 0)
    for x in _candidates(a, dim, t2, box if exhaustive else bound):
        witness = tuple(x[i * r2:(i + 1) * r2] for i in range(parts))
        if verify_witness(model, type_id, witness):
            return Verdict(ADMITS, witness, bound)
    if exhaustive:
        return Verdict(NO, None, bound,
                       f"definite functional bounds all solutions by {box}; "
                       "search was exhaustive")
    return Verdict(UNKNOWN, None, bound, "bounded search inconclusive")


def _halved(p1: tuple) -> tuple | None:
    if any(v % 2 for v in p1):
        return None
    return tuple(v // 2 for v in p1)


def check_type(model: CohomologyModel, type_id: int, bound: int = DEFAULT_BOUND) -> Verdict:
    """Decide whether the model admits a global 3-form of the given type.

    Raises HypothesisError when the relevant theorem's standing hypotheses
    (orientability for types 3..8, simple connectivity for types 1 and 2)
    are not satisfied; criteria failures return NO instead.  A type id or a
    bound that is not an int (a bool or a float included) raises ValueError.
    """
    if type(type_id) is not int or type_id not in range(1, 9):
        raise ValueError(f"type must be 1..8, got {type_id!r}")
    if type(bound) is not int:
        raise ValueError(f"bound must be an integer, got {bound!r}")
    if bound < 1:
        raise ValueError("bound must be positive")

    if type_id in (1, 2):
        if not model.simply_connected:
            raise HypothesisError("theorem hypothesis not met: model is not simply connected")
    elif not model.orientable:
        raise HypothesisError("theorem hypothesis not met: model is not orientable")

    if type_id == 3:
        if model.W3_zero:
            return Verdict(ADMITS, (), bound, "integral third Stiefel-Whitney class vanishes")
        return Verdict(NO, None, bound, "integral third Stiefel-Whitney class is nonzero")
    if type_id != 1 and not model.spin:
        return Verdict(NO, None, bound, "second Stiefel-Whitney class is nonzero")
    if type_id >= 5:
        return Verdict(ADMITS, (), bound, "orientable and spin")

    if type_id == 1:
        return _search(model, 1, model.p1, bound)
    half = _halved(model.p1)
    if half is None:
        return Verdict(NO, None, bound, "p1 is not divisible by 2")
    return _search(model, type_id, half, bound)


def verify_witness(model: CohomologyModel, type_id: int, witness) -> bool:
    """Closed-loop check: substitute an ADMITS witness back into the criterion."""
    if type_id in (3, 5, 6, 7, 8):
        return True
    if type_id == 4:
        (e,) = witness
        half = _halved(model.p1)
        return half is not None and cup_eval(model, e, e) == half
    if type_id == 2:
        e, f = witness
        half = _halved(model.p1)
        got = tuple(a + b + c for a, b, c in zip(cup_eval(model, e, e),
                                                 cup_eval(model, f, f),
                                                 cup_eval(model, e, f)))
        return half is not None and got == half
    if type_id == 1:
        e, f = witness
        if sum((a + b - w) % 2 for a, b, w in zip(e, f, model.w2, strict=True)):
            return False
        got = tuple(a + b for a, b in zip(cup_eval(model, e, e),
                                          cup_eval(model, f, f)))
        return got == tuple(model.p1)
    raise ValueError(f"type must be 1..8, got {type_id}")
