"""Cohomology models and the type-existence decision procedures."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from msf7 import topology
from msf7.topology import (
    ADMITS,
    NO,
    UNKNOWN,
    HypothesisError,
    ModelError,
    Verdict,
    _definite_exhaustion_bound,
    bundled_model,
    bundled_model_names,
    check_type,
    cup_eval,
    load_model,
    make_model,
    verify_witness,
)

from conftest import _shell_vectors, reference_exhaustion_bound


def model_dict(**overrides):
    base = {"name": "test", "r2": 1, "r4": 1, "cup": [[[1]]], "p1": [0],
            "w2": [0], "orientable": True, "spin": True, "W3_zero": True,
            "simply_connected": True}
    base.update(overrides)
    return base


class TestModelLoading:
    def test_bundled_models_present(self):
        assert set(bundled_model_names()) >= {"s7", "cp3xs1", "s5xs2"}

    def test_s7_shape(self):
        m = bundled_model("s7")
        assert (m.r2, m.r4, m.spin, m.simply_connected) == (0, 0, True, True)

    def test_load_model_from_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(model_dict()))
        assert load_model(p).name == "test"

    def test_missing_file(self):
        with pytest.raises(ModelError, match="cannot read"):
            load_model("/nonexistent/model.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ModelError, match="not valid JSON"):
            load_model(p)

    def test_asymmetric_cup_rejected(self):
        data = model_dict(r2=2, cup=[[[0], [1]], [[2], [0]]], w2=[0, 0])
        with pytest.raises(ModelError, match="not symmetric"):
            make_model(data)

    def test_spin_w2_consistency(self):
        with pytest.raises(ModelError, match="w2 = 0"):
            make_model(model_dict(w2=[1]))

    def test_spin_forces_w3_zero(self):
        with pytest.raises(ModelError, match="W3_zero"):
            make_model(model_dict(W3_zero=False))

    def test_simply_connected_forces_orientable(self):
        with pytest.raises(ModelError, match="orientable"):
            make_model(model_dict(orientable=False))

    def test_missing_keys(self):
        with pytest.raises(ModelError, match="malformed"):
            make_model({"r2": 1})

    def test_bad_lengths(self):
        with pytest.raises(ModelError, match="length"):
            make_model(model_dict(p1=[1, 2]))

    @pytest.mark.parametrize("key, value", [
        ("orientable", "false"), ("spin", "false"), ("spin", 1),
        ("simply_connected", None), ("W3_zero", "true")])
    def test_flags_must_be_booleans(self, key, value):
        with pytest.raises(ModelError, match=f"{key} must be true or false"):
            make_model(model_dict(**{key: value}))

    @pytest.mark.parametrize("key, value", [
        ("r2", 1.0), ("r4", True), ("cup", [[[1.7]]]), ("p1", ["4"]),
        ("p1", "4"), ("w2", [0.0]), ("cup", [[["1"]]])])
    def test_counts_and_classes_must_be_integers(self, key, value):
        with pytest.raises(ModelError, match="must be an integer"):
            make_model(model_dict(**{key: value}))

    def test_non_object_rejected(self):
        with pytest.raises(ModelError, match="malformed"):
            make_model([1, 2])

    def test_unknown_bundle(self):
        with pytest.raises(ModelError, match="no bundled model"):
            bundled_model("t7")


class TestCupEval:
    def test_zero_inputs(self):
        m = bundled_model("cp3xs1")
        assert cup_eval(m, [0], [0]) == (0,)

    def test_bilinearity_on_projective_model(self):
        m = bundled_model("cp3xs1")
        assert cup_eval(m, [2], [2]) == (4,)

    def test_symmetry(self):
        m = make_model(model_dict(r2=2, cup=[[[1], [2]], [[2], [-3]]], w2=[0, 0]))
        for e, f in (([1, 2], [3, -1]), ([0, 5], [2, 2])):
            assert cup_eval(m, e, f) == cup_eval(m, f, e)

    def test_length_mismatch(self):
        m = bundled_model("cp3xs1")
        with pytest.raises(ValueError, match="length"):
            cup_eval(m, [1, 2], [0])
        # the type-1 congruence, tested first, reads the whole witness too
        m = make_model(model_dict(r2=2, cup=[[[1], [0]], [[0], [1]]], w2=[0, 0]))
        with pytest.raises(ValueError):
            verify_witness(m, 1, ((1, 0), (1,)))

    @pytest.mark.parametrize("coordinate", [1.9, True, "1", Fraction(1)])
    def test_non_integer_coordinate_rejected(self, coordinate):
        """Nothing is coerced: read as int, each of these would make ((x,),)
        a type-4 witness for cup = [[[1]]], p1 = 2."""
        m = make_model(model_dict(p1=[2]))
        with pytest.raises(TypeError, match="coordinate must be an integer"):
            cup_eval(m, [1], [coordinate])
        with pytest.raises(TypeError, match="coordinate must be an integer"):
            verify_witness(m, 4, ((coordinate,),))


class TestBundledVerdicts:
    def test_seven_sphere_admits_everything(self):
        m = bundled_model("s7")
        for t in range(1, 9):
            v = check_type(m, t)
            assert v.status == ADMITS
            assert verify_witness(m, t, v.witness)

    def test_projective_times_circle(self):
        m = bundled_model("cp3xs1")
        assert check_type(m, 4).status == NO
        for t in (3, 5, 6, 7, 8):
            assert check_type(m, t).status == ADMITS
        for t in (1, 2):
            with pytest.raises(HypothesisError, match="simply connected"):
                check_type(m, t)

    def test_sphere_product(self):
        m = bundled_model("s5xs2")
        for t in (1, 2, 4):
            v = check_type(m, t)
            assert v.status == ADMITS
            assert verify_witness(m, t, v.witness)

    def test_generic_types_agree_everywhere(self):
        for name in bundled_model_names():
            m = bundled_model(name)
            verdicts = {check_type(m, t).status for t in (5, 6, 7, 8)}
            assert len(verdicts) == 1


class TestCriteria:
    def test_orientability_hypothesis(self):
        m = make_model(model_dict(orientable=False, spin=False, w2=[1],
                                  W3_zero=False, simply_connected=False))
        for t in range(3, 9):
            with pytest.raises(HypothesisError, match="orientable"):
                check_type(m, t)

    def test_non_spin_generic_types_say_no(self):
        m = make_model(model_dict(spin=False, w2=[1], simply_connected=False))
        for t in (5, 6, 7, 8):
            assert check_type(m, t).status == NO

    def test_type3_tracks_integral_class(self):
        ok = make_model(model_dict(spin=False, w2=[1], W3_zero=True,
                                   simply_connected=False))
        bad = make_model(model_dict(spin=False, w2=[1], W3_zero=False,
                                    simply_connected=False))
        assert check_type(ok, 3).status == ADMITS
        assert check_type(bad, 3).status == NO

    def test_type4_divisibility_obstruction(self):
        m = make_model(model_dict(p1=[3]))
        v = check_type(m, 4)
        assert v.status == NO and "divisible" in v.reason

    def test_type4_non_spin_is_no_not_error(self):
        m = make_model(model_dict(spin=False, w2=[1], simply_connected=False))
        assert check_type(m, 4).status == NO

    def test_type4_square_obstruction(self):
        # needs a^2 = 2: impossible over the integers, proved by definiteness
        v = check_type(bundled_model("cp3xs1"), 4)
        assert v.status == NO and "exhaustive" in v.reason

    def test_type4_finds_witness(self):
        m = make_model(model_dict(p1=[8]))
        v = check_type(m, 4)
        assert v.status == ADMITS and v.witness == ((-2,),)
        assert verify_witness(m, 4, v.witness)

    def test_type2_quadratic(self):
        # e^2 + f^2 + ef with cup(h,h)=1: target 3 has witness (1,1)
        m = make_model(model_dict(p1=[6], simply_connected=True))
        v = check_type(m, 2)
        assert v.status == ADMITS
        assert verify_witness(m, 2, v.witness)

    def test_type1_congruence(self):
        # p1 = 2 with w2 = 0 forces e, f odd sums: e=1, f=1 works
        m = make_model(model_dict(p1=[2]))
        v = check_type(m, 1)
        assert v.status == ADMITS
        assert verify_witness(m, 1, v.witness)

    def test_type1_negative_target_definite_no(self):
        m = make_model(model_dict(p1=[-2]))
        v = check_type(m, 1)
        assert v.status == NO

    def test_unknown_on_indefinite_form(self):
        m = make_model(model_dict(r2=2, cup=[[[0], [1]], [[1], [0]]],
                                  p1=[2], w2=[0, 0]))
        assert check_type(m, 4, bound=4).status == UNKNOWN

    def test_zero_form_nonzero_target(self):
        m = make_model(model_dict(cup=[[[0]]], p1=[2]))
        v = check_type(m, 4)
        assert v.status == NO and "identically zero" in v.reason

    def test_monotone_bound(self):
        # witness first appears at norm 3
        m = make_model(model_dict(p1=[18]))
        low = check_type(m, 4, bound=2)
        high = check_type(m, 4, bound=5)
        assert low.status == UNKNOWN
        assert high.status == ADMITS and high.witness == ((-3,),)
        higher = check_type(m, 4, bound=16)
        assert higher.status == ADMITS and higher.witness == high.witness

    def test_spin_implies_type3_admits(self):
        for name in bundled_model_names():
            m = bundled_model(name)
            if m.spin:
                assert check_type(m, 3).status == ADMITS

    def test_argument_validation(self):
        m = bundled_model("s7")
        with pytest.raises(ValueError, match="type"):
            check_type(m, 9)
        with pytest.raises(ValueError, match="bound"):
            check_type(m, 4, bound=0)

    @pytest.mark.parametrize("type_id", [True, 5.0, 4.0])
    def test_type_ids_that_are_not_ints_rejected(self, type_id):
        with pytest.raises(ValueError, match="type must be 1..8"):
            check_type(bundled_model("s7"), type_id)

    @pytest.mark.parametrize("bound", [2.5, 3.0, True])
    def test_bounds_that_are_not_ints_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be an integer"):
            check_type(bundled_model("s7"), 4, bound)

    def test_witness_determinism_shell_order(self):
        m = bundled_model("s5xs2")
        v = check_type(m, 1)
        assert v.witness == ((0,), (0,))


class TestShellEnumeration:
    @pytest.mark.parametrize("dim", range(5))
    @pytest.mark.parametrize("bound", range(5))
    def test_matches_filtered_cube(self, dim, bound):
        """Shell-only generation gives the same sequence as filtering each
        whole cube by max-norm, so reported witnesses do not change."""
        brute = [v for s in range(bound + 1)
                 for v in product(range(-s, s + 1), repeat=dim)
                 if max(map(abs, v), default=0) == s]
        assert list(_shell_vectors(dim, bound)) == brute


def _criterion(model, type_id: int):
    """(dim, target, split, q) of the type 1, 2 or 4 search, written from
    cup_eval alone: q(x) is the criterion's cup-square of the witness split(x)."""
    r2 = model.r2

    def cup(e, f):
        return cup_eval(model, e, f)

    if type_id == 4:
        dim, target, split = r2, tuple(v // 2 for v in model.p1), (lambda x: (x,))

        def q(x):
            return cup(x, x)
    else:
        dim, split = 2 * r2, (lambda x: (x[:r2], x[r2:]))
        if type_id == 2:
            target = tuple(v // 2 for v in model.p1)

            def q(x):
                e, f = split(x)
                return tuple(map(sum, zip(cup(e, e), cup(f, f), cup(e, f))))
        else:
            target = tuple(model.p1)

            def q(x):
                e, f = split(x)
                return tuple(map(sum, zip(cup(e, e), cup(f, f))))
    return dim, target, split, q


def reference_search(model, type_id: int, bound: int) -> Verdict:
    """check_type for types 1, 2 and 4 once their search is reached: scan the
    whole box in shell order, and only then look for a proof of NO."""
    dim, target, split, q = _criterion(model, type_id)

    def ok(x):
        return type_id != 1 or all((a + b - w) % 2 == 0
                                   for a, b, w in zip(*split(x), model.w2))

    box = sorted(product(range(-bound, bound + 1), repeat=dim),
                 key=lambda x: (max(map(abs, x), default=0), x))
    for x in box:
        if q(x) == target and ok(x):
            return Verdict(ADMITS, split(x), bound)
    if not any(v for row in model.cup for cell in row for v in cell):
        if any(target):
            return Verdict(NO, None, bound,
                           "cup form is identically zero but the target class is not")
        return Verdict(UNKNOWN, None, bound,
                       "no admissible congruence representative in the box")
    proof = reference_exhaustion_bound(q, dim, model.r4, target)
    if proof is not None and proof <= bound:
        return Verdict(NO, None, bound,
                       f"definite functional bounds all solutions by {proof}; "
                       "search was exhaustive")
    return Verdict(UNKNOWN, None, bound, "bounded search inconclusive")


def _random_search_models(n: int, seed: int = 4242):
    """(model, type, bound) triples whose verdict comes from the search:
    spin with even p1 for types 2 and 4, any w2 for type 1.  Every other
    model has a planted solution of max-norm at most 2."""
    rng = random.Random(seed)
    cases = []
    for k in range(n):
        type_id = (1, 2, 4)[k % 3]
        r2, r4 = rng.choice((0, 1, 1, 2, 2)), rng.randint(1, 2)
        cup = [[None] * r2 for _ in range(r2)]
        for i in range(r2):
            for j in range(i, r2):
                cup[i][j] = cup[j][i] = [rng.randint(-2, 2) for _ in range(r4)]
        spin = type_id != 1
        dim = r2 if type_id == 4 else 2 * r2
        if k % 2:
            x = [rng.randint(-2, 2) for _ in range(dim)]
            e, f = (x, [0] * r2) if type_id == 4 else (x[:r2], x[r2:])
            model = make_model(model_dict(r2=r2, r4=r4, cup=cup, p1=[0] * r4, w2=[0] * r2))
            value = [a + b + c * (type_id == 2) for a, b, c in
                     zip(cup_eval(model, e, e), cup_eval(model, f, f), cup_eval(model, e, f))]
            p1 = [v * (2 if spin else 1) for v in value]
            w2 = [0] * r2 if spin else [(a + b) % 2 for a, b in zip(e, f)]
        else:
            p1 = [rng.randint(-6, 6) * (2 if spin else 1) for _ in range(r4)]
            w2 = [0] * r2 if spin else [rng.randint(0, 1) for _ in range(r2)]
        bound = rng.randint(1, 2 if dim > 2 else 5)
        model = make_model(model_dict(r2=r2, r4=r4, cup=cup, p1=p1, w2=w2, spin=spin))
        cases.append((model, type_id, bound))
    return cases


class TestSearchAgainstFullBox:
    def test_verdicts_match_full_box_search(self):
        statuses = set()
        for model, type_id, bound in _random_search_models(210):
            v = check_type(model, type_id, bound)
            assert v == reference_search(model, type_id, bound), (model, type_id, bound)
            statuses.add((v.status, v.reason.split()[0] if v.reason else ""))
        # the corpus reaches every outcome of the search
        assert statuses == {(ADMITS, ""), (NO, "cup"), (NO, "definite"), (UNKNOWN, "bounded")}


def _solver_branch_models(seed: int = 2718):
    """(model, type, bound) triples aimed at the branches of the last-coordinate
    solve that the full-box corpus may miss: a zero last diagonal entry (the
    linear case), a zero last row (every z or none), r4 = 0, r4 = 2 with
    component 0 zero, dim 1, and bounds up to 6 at dim <= 4."""
    rng = random.Random(seed)
    kinds = ("last_diagonal", "last_row", "r4_zero", "component0", "dim1")
    cases = []
    for k in range(150):
        kind = kinds[k % len(kinds)]
        type_id = 4 if kind == "dim1" else (1, 2, 4)[k // len(kinds) % 3]
        r2 = 1 if kind == "dim1" else rng.choice((1, 2, 2, 3) if type_id == 4 else (1, 2, 2))
        r4 = 0 if kind == "r4_zero" else 2 if kind == "component0" else rng.randint(1, 2)
        cup = [[None] * r2 for _ in range(r2)]
        for i in range(r2):
            for j in range(i, r2):
                cup[i][j] = cup[j][i] = [rng.randint(-3, 3) for _ in range(r4)]
        if kind == "last_diagonal":
            cup[-1][-1] = [0] * r4
        elif kind == "last_row":
            for i in range(r2):
                cup[i][-1] = cup[-1][i] = [0] * r4
        elif kind == "component0":
            for row in cup:
                for cell in row:
                    cell[0] = 0
        spin = type_id != 1
        dim = r2 if type_id == 4 else 2 * r2
        # a planted value half the time, a random target otherwise
        x = [rng.randint(-4, 4) for _ in range(dim)]
        e, f = (x, [0] * r2) if type_id == 4 else (x[:r2], x[r2:])
        model = make_model(model_dict(r2=r2, r4=r4, cup=cup, p1=[0] * r4, w2=[0] * r2))
        value = [a + b + c * (type_id == 2) for a, b, c in
                 zip(cup_eval(model, e, e), cup_eval(model, f, f), cup_eval(model, e, f))]
        if k % 2:
            value = [rng.randint(-9, 9) for _ in range(r4)]
        p1 = [v * (2 if spin else 1) for v in value]
        w2 = [0] * r2 if spin else [rng.randint(0, 1) for _ in range(r2)]
        if dim <= 2:
            bound = rng.randint(1, 6)
        else:
            bound = rng.randint(4, 6) if k % 4 == 0 else rng.randint(1, 3)
        model = make_model(model_dict(r2=r2, r4=r4, cup=cup, p1=p1, w2=w2, spin=spin))
        cases.append((model, type_id, bound))
    return cases


class TestGram:
    def test_gram_matches_cup_eval_and_reference_bound(self):
        """x^T a_k x is twice the criterion's k-th cup-square on a small box,
        and the proof of NO from the Gram matrices is the one the package
        computed by polarizing the criterion."""
        for model, type_id, _ in _random_search_models(210) + _solver_branch_models():
            dim, target, _, q = _criterion(model, type_id)
            grams = topology._gram(model, type_id)
            assert len(grams) == model.r4
            assert all(len(a) == dim and all(len(row) == dim for row in a) for a in grams)
            for x in _shell_vectors(dim, 2 if dim <= 2 else 1):
                got = tuple(sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, a))
                            for a in grams)
                assert got == tuple(2 * v for v in q(x)), (model, type_id, x)
            assert (_definite_exhaustion_bound(grams, dim, target)
                    == reference_exhaustion_bound(q, dim, model.r4, target)), (model, type_id)


class TestSolvedSearch:
    def test_branch_corpus_matches_full_box_search(self, monkeypatch):
        """Every branch of the last-coordinate solve is reached, and each
        verdict is the full box's."""
        branches = set()
        roots = topology._roots

        def spy(a, l, c):
            got = roots(a, l, c)
            branches.add("quadratic" if a else "linear" if l
                         else "every z" if got is None else "none")
            return got

        monkeypatch.setattr(topology, "_roots", spy)
        statuses = set()
        for model, type_id, bound in _solver_branch_models():
            v = check_type(model, type_id, bound)
            assert v == reference_search(model, type_id, bound), (model, type_id, bound)
            statuses.add(v.status)
        assert branches == {"quadratic", "linear", "every z", "none"}
        assert statuses == {ADMITS, NO, UNKNOWN}

    @pytest.mark.parametrize("p1, w2, witness", [
        (2, [0, 1], ((-1, 0), (-1, 1))),
        (7, [1, 1], ((-2, 1), (-1, 2))),
    ])
    def test_congruence_rejects_first_root(self, p1, w2, witness):
        """The smaller root of the witness's prefix solves the equation in the
        same shell but fails e + f = w2 mod 2, so the search moves on to the
        second root, as a full enumeration does."""
        model = make_model(model_dict(r2=2, cup=[[[1], [1]], [[1], [2]]], p1=[p1],
                                      w2=w2, spin=False))
        v = check_type(model, 1, 6)
        assert v == reference_search(model, 1, 6)
        assert v.witness == witness
        (e, (f1, f2)) = witness
        # the roots z of 2 z^2 + 2 f1 z + ... = p1 sum to -f1
        first = (f1, -f1 - f2)
        assert first[1] < f2
        assert max(map(abs, e + first)) == max(map(abs, e + (f1, f2)))
        assert tuple(map(sum, zip(cup_eval(model, e, e), cup_eval(model, first, first)))) == (p1,)
        assert (e[1] + first[1] - w2[1]) % 2

    def test_pell_model(self):
        """x^2 - 13 y^2 = -1 has no solution of max-norm <= 4; its least one is
        (18, 5), so the box of bound 18 first meets (-18, -5)."""
        model = make_model(model_dict(r2=2, cup=[[[1], [0]], [[0], [-13]]], p1=[-2],
                                      w2=[0, 0]))
        assert check_type(model, 4, 4) == Verdict(UNKNOWN, None, 4, "bounded search inconclusive")
        assert check_type(model, 4, 18) == Verdict(ADMITS, ((-18, -5),), 18)

    def test_cost_guard_worked_example(self, monkeypatch):
        """The type-1 model cup diag(1, -1), p1 = 2, w2 = (1, 0) has a mod-2
        obstruction the search cannot prove, so it exhausts the box of bound
        16 (33^4 = 1,185,921 points) to UNKNOWN.  Solving for the last
        coordinate checks a small fraction of them against the criterion."""
        calls = [0]
        check = topology.verify_witness

        def counted(*args):
            calls[0] += 1
            return check(*args)

        monkeypatch.setattr(topology, "verify_witness", counted)
        model = make_model(model_dict(r2=2, cup=[[[1], [0]], [[0], [-1]]], p1=[2],
                                      w2=[1, 0], spin=False))
        v = check_type(model, 1, 16)
        assert (v.status, v.reason) == (UNKNOWN, "bounded search inconclusive")
        assert calls[0] < 33 ** 4 // 100
