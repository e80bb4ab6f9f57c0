"""Transformation catalog, embeddings, torus, identity suite, verify_paper."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from msf7.algebras import (
    build_algebra,
    is_automorphism,
    multiply,
    octonion_form_basis,
)
from msf7.exterior import KForm, LinearMap
from msf7.forms7 import canonical, classify
from msf7.stabilizers import (
    _sandwich_block,
    catalog,
    cayley_so3,
    embed_gl2pair,
    embed_sl2pair,
    embed_so3_33,
    embed_so4,
    identity_checks,
    sample_gl2,
    sample_sl2pair,
    torus_from_rotation_pair,
    torus_matrix,
    unit_quaternion,
    verify_membership,
    verify_paper,
)

from conftest import (
    _pair_action,
    _sandwich,
    embed_so4_algebra_matrix,
    matrix_in_imaginary_basis,
    reference_embed_sl2pair,
    reference_embed_so4,
    rotation_cs,
    wedge_pullback,
)

rng = random.Random(424242)


def rnd_unit_quat():
    return unit_quaternion(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                           Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                           Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


class TestVerifyMembership:
    def test_published_component_maps(self):
        by_name = {t.name: t for t in catalog()}
        assert verify_membership(by_name["k1-swap-component"].map, canonical(1).form)
        assert verify_membership(by_name["k3-second-component"].map, canonical(3).form)

    def test_nilpotent_shear_is_not_in_exceptional_stabilizer(self):
        g = LinearMap.from_images({1: [1, 0, 0, 0, 0, 0, 1]})
        assert not verify_membership(g, canonical(8).form)

    def test_degree_checked(self):
        with pytest.raises(ValueError):
            verify_membership(LinearMap.identity(), KForm.monomial([1, 2]))


def _catalog_members():
    """(name, map, form) for a draw of every catalog embedding, the torus and
    each named transformation that claims to stabilize its target."""
    r = random.Random(20261018)

    def frac():
        return Fraction(r.randint(-3, 3), r.randint(1, 3))

    def quat():
        return unit_quaternion(frac(), frac(), frac())

    w = {i: canonical(i).form for i in (1, 4, 5, 7, 8)}
    w2p = canonical(2, "prime").form
    cases = []
    for k in range(3):
        a, b = quat(), quat()
        cases += [(f"so4/{k}/orbit8", embed_so4(a, b), w[8]),
                  (f"so4/{k}/orbit7", embed_so4(a, b), w[7]),
                  (f"so4-split/{k}/orbit5", embed_so4(a, b, split=True), w[5]),
                  (f"sl2pair/{k}", embed_sl2pair(*sample_sl2pair(r)), w2p),
                  (f"so3/{k}", embed_so3_33(cayley_so3(frac(), frac(), frac())), w[4]),
                  (f"gl2pair/{k}", embed_gl2pair(sample_gl2(r), sample_gl2(r)), w[1]),
                  (f"torus/{k}", torus_matrix(rotation_cs(frac()), rotation_cs(frac())), w2p)]
    cases += [(t.name, t.map, canonical(*t.target).form)
              for t in catalog() if t.claim == "stabilizes"]
    return cases


CATALOG_MEMBERS = _catalog_members()


def _perturbed(g: LinearMap, i: int, j: int, delta) -> LinearMap:
    rows = [list(row) for row in g.rows]
    rows[i][j] += delta
    return LinearMap(rows)


class TestMembershipAgainstWedgePullback:
    """verify_membership compares integer vectors; the Fraction wedge
    pullback of conftest must give the same verdict."""

    @pytest.mark.parametrize("case", CATALOG_MEMBERS, ids=lambda c: c[0])
    def test_members_agree(self, case):
        _, g, w = case
        assert verify_membership(g, w)
        assert wedge_pullback(g, w) == w

    @pytest.mark.parametrize("case", CATALOG_MEMBERS, ids=lambda c: c[0])
    def test_one_entry_perturbations_agree(self, case):
        name, g, w = case
        r = random.Random(name)
        for delta in (1, Fraction(-1, 2)):
            h = _perturbed(g, r.randrange(7), r.randrange(7), delta)
            assert verify_membership(h, w) == (wedge_pullback(h, w) == w)


class TestCatalog:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda t: t.name)
    def test_every_entry_verifies(self, entry):
        assert entry.verify()

    def test_orbit6_component_completion_is_unique(self):
        base = {1: [0, 1, 0, 0, 0, 0, 0], 2: [1, 0, 0, 0, 0, 0, 0],
                3: [0, 0, -1, 0, 0, 0, 0], 4: [0, 0, 0, 1, 0, 0, 0],
                5: [0, 0, 0, 0, 0, 1, 0], 7: [0, 0, 0, 0, 0, 0, -1]}
        w6 = canonical(6).form
        outcomes = []
        for sign in (1, -1):
            images = dict(base)
            images[6] = [0, 0, 0, 0, sign, 0, 0]
            outcomes.append(verify_membership(LinearMap.from_images(images), w6))
        assert outcomes == [True, False]


class TestEmbedSO4:
    def test_identity_parameters(self):
        one = (1, 0, 0, 0)
        assert embed_so4(one, one) == LinearMap.identity()
        assert embed_so4(one, one, split=True) == LinearMap.identity()

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit quaternion"):
            embed_so4((1, 1, 0, 0), (1, 0, 0, 0))

    def test_sign_pair_gives_same_matrix(self):
        a, b = rnd_unit_quat(), rnd_unit_quat()
        na = tuple(-x for x in a)
        nb = tuple(-x for x in b)
        assert embed_so4(a, b) == embed_so4(na, nb)

    def test_stabilizes_orbit8_and_orbit7(self):
        w8, w7 = canonical(8).form, canonical(7).form
        for _ in range(25):
            m = embed_so4(rnd_unit_quat(), rnd_unit_quat())
            assert verify_membership(m, w8)
            assert verify_membership(m, w7)

    def test_split_variant_stabilizes_orbit5(self):
        w5 = canonical(5).form
        for _ in range(25):
            m = embed_so4(rnd_unit_quat(), rnd_unit_quat(), split=True)
            assert verify_membership(m, w5)

    def test_images_are_algebra_automorphisms(self):
        for split in (False, True):
            t = build_algebra("Osplit" if split else "O")
            for _ in range(5):
                g = embed_so4_algebra_matrix(rnd_unit_quat(), rnd_unit_quat(),
                                             split=split)
                assert is_automorphism(t, g)

    def test_group_homomorphism(self):
        H = build_algebra("H")
        for split in (False, True):
            a1, b1 = rnd_unit_quat(), rnd_unit_quat()
            a2, b2 = rnd_unit_quat(), rnd_unit_quat()
            a12 = multiply(H, H.element(a1), H.element(a2)).coords
            b12 = multiply(H, H.element(b1), H.element(b2)).coords
            lhs = embed_so4(a1, b1, split=split) @ embed_so4(a2, b2, split=split)
            assert lhs == embed_so4(a12, b12, split=split)


class TestEmbedSL2Pair:
    def test_identity_pair(self):
        one = [[1, 0], [0, 1]]
        assert embed_sl2pair(one, one) == LinearMap.identity()

    def test_det_conditions_enforced(self):
        one = [[1, 0], [0, 1]]
        with pytest.raises(ValueError, match="determinant"):
            embed_sl2pair([[2, 0], [0, 1]], one)
        with pytest.raises(ValueError, match="product"):
            embed_sl2pair([[1, 0], [0, -1]], one)

    def test_stabilizes_orbit2_alternate(self):
        w2p = canonical(2, "prime").form
        for _ in range(25):
            a, b = sample_sl2pair(rng)
            assert verify_membership(embed_sl2pair(a, b), w2p)

    def test_also_fixes_orbit5_variant(self):
        w5p = canonical(5, "prime").form
        for _ in range(10):
            a, b = sample_sl2pair(rng)
            assert verify_membership(embed_sl2pair(a, b), w5p)

    def test_group_homomorphism(self):
        def mat_mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
                    for i in range(2)]

        for _ in range(5):
            a1, b1 = sample_sl2pair(rng)
            a2, b2 = sample_sl2pair(rng)
            lhs = embed_sl2pair(a1, b1) @ embed_sl2pair(a2, b2)
            assert lhs == embed_sl2pair(mat_mul(a1, a2), mat_mul(b1, b2))


class TestBlocksAgainstPairAction:
    """The block-diagonal embeddings against the pair action on doubled
    quaternions, read back through ``matrix_in_imaginary_basis``: same
    entries, same types."""

    DRAWS = 300

    def test_so4_both_forms(self):
        r = random.Random(1401)

        def frac():
            return Fraction(r.randint(-5, 5), r.randint(1, 4))

        for _ in range(self.DRAWS):
            a = unit_quaternion(frac(), frac(), frac())
            b = unit_quaternion(frac(), frac(), frac())
            for split in (False, True):
                assert (repr(embed_so4(a, b, split=split).rows)
                        == repr(reference_embed_so4(a, b, split).rows))

    def test_sl2pair(self):
        r = random.Random(1402)
        for _ in range(self.DRAWS):
            a, b = sample_sl2pair(r)
            assert repr(embed_sl2pair(a, b).rows) == repr(reference_embed_sl2pair(a, b).rows)

    def test_unit_component_rejected_like_the_pair_action(self):
        # multiplying by i on the left alone sends i to i * i = -1, off the
        # imaginary subspace
        H, O = build_algebra("H"), build_algebra("O")
        u = H.element(unit_quaternion(1, 0, 0))
        with pytest.raises(ValueError, match="does not preserve the imaginary subspace"):
            _sandwich_block(H, u, H.unit(), 1)
        fn = _pair_action(H, O, _sandwich(u, H.unit()), _sandwich(H.unit(), H.unit()))
        basis = octonion_form_basis()
        with pytest.raises(ValueError, match="does not preserve the imaginary subspace"):
            matrix_in_imaginary_basis(O, basis, [fn(x) for x in basis])


class TestEmbedSO3AndGL2:
    def test_identity_block_maps(self):
        eye3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert embed_so3_33(eye3) == LinearMap.identity()
        one = [[1, 0], [0, 1]]
        assert embed_gl2pair(one, one) == LinearMap.identity()

    def test_so3_condition_checks(self):
        with pytest.raises(ValueError, match="orthogonal"):
            embed_so3_33([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="determinant 1"):
            embed_so3_33([[1, 0, 0], [0, 1, 0], [0, 0, -1]])

    def test_gl2_invertibility_checked(self):
        with pytest.raises(ValueError, match="invertible"):
            embed_gl2pair([[1, 0], [0, 0]], [[1, 0], [0, 1]])

    def test_block_shapes_checked(self):
        one, three = [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        with pytest.raises(ValueError):
            embed_gl2pair(three, one)

    def test_cayley_rotations_stabilize_orbit4(self):
        w4 = canonical(4).form
        for _ in range(25):
            A = cayley_so3(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                           Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                           Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            assert verify_membership(embed_so3_33(A), w4)

    def test_gl2_pairs_stabilize_orbit1(self):
        w1 = canonical(1).form
        for _ in range(25):
            assert verify_membership(embed_gl2pair(sample_gl2(rng), sample_gl2(rng)), w1)


class TestTorus:
    def test_rejects_non_rotation_data(self):
        with pytest.raises(ValueError, match="rotation"):
            torus_matrix((1, 1), (1, 0))

    def test_stabilizes_orbit2_alternate(self):
        w2p = canonical(2, "prime").form
        angles = [rotation_cs(Fraction(n, d)) for n, d in ((1, 2), (2, 3), (-1, 3))]
        for th in angles:
            for rh in angles:
                assert verify_membership(torus_matrix(th, rh), w2p)

    def test_realized_by_rotation_pair_embeddings(self):
        for t1 in (Fraction(1, 2), Fraction(1, 3)):
            for t2 in (Fraction(2, 5), Fraction(-1, 2)):
                cs1, cs2 = rotation_cs(t1), rotation_cs(t2)
                a = [[cs1[0], -cs1[1]], [cs1[1], cs1[0]]]
                b = [[cs2[0], -cs2[1]], [cs2[1], cs2[0]]]
                assert embed_sl2pair(a, b) == torus_from_rotation_pair(cs1, cs2)


class TestIdentitySuite:
    def test_all_anchors_pass(self):
        report = identity_checks()
        failures = [r for r in report if r["status"] != "pass"]
        assert not failures, failures

    def test_specific_identities(self):
        assert canonical(8).form == canonical(7).form + KForm.monomial([1, 2, 3])
        shifted = canonical(2, "prime").form + KForm.monomial([1, 2, 3])
        assert classify(shifted) == 5
        assert shifted == canonical(5, "prime").form

    def test_report_shape(self):
        report = identity_checks()
        assert all(set(r) >= {"anchor", "status"} for r in report)


class TestVerifyPaper:
    def test_full_run_passes(self):
        report = verify_paper(draws=3, seed=11)
        failures = [r for r in report if r["status"] != "pass"]
        assert not failures, failures
        anchors = {r["anchor"] for r in report}
        assert "compact-dimension-orbit-8" in anchors
        assert "embedding-so4-stabilizes-orbit8" in anchors
