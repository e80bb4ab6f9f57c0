"""Composition algebras: construction, norms, induced 3-forms, automorphisms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from msf7.algebras import (
    ALGEBRA_KINDS,
    build_algebra,
    conjugate,
    inner,
    is_automorphism,
    multiply,
    norm,
    octonion_form_basis,
    split_octonion_form_basis,
    split_octonion_prime_basis,
    triple_form,
    _double,
)
from msf7.exterior import LinearMap, pullback
from msf7.forms7 import BASIS_MAP_5, canonical

from conftest import (
    coefficient,
    matrix_in_imaginary_basis,
    norm_signature,
    reference_multiply,
)


def el(t, *coords):
    return t.element(list(coords) + [0] * (t.dim - len(coords)))


class TestConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown algebra kind"):
            build_algebra("sedenions")

    def test_dimensions(self):
        dims = {"R": 1, "C": 2, "H": 4, "Hsplit": 4, "O": 8, "Osplit": 8,
                "Osplit_from_Hsplit": 8}
        for kind, d in dims.items():
            assert build_algebra(kind).dim == d

    def test_complex_square_of_doubling_unit(self):
        C = build_algebra("C")
        e = el(C, 0, 1)
        assert multiply(C, e, e).coords == el(C, -1).coords

    def test_quaternion_units(self):
        H = build_algebra("H")
        i, j, k = H.basis(1), H.basis(2), H.basis(3)
        assert multiply(H, i, i).coords == el(H, -1).coords
        assert multiply(H, i, j).coords == k.coords
        assert multiply(H, j, i).coords == (-k).coords

    def test_split_quaternion_matrix_model(self):
        Ht = build_algebra("Hsplit")
        i, j, k = Ht.basis(1), Ht.basis(2), Ht.basis(3)
        assert multiply(Ht, i, j).coords == k.coords
        # square of [[0,1],[1,0]] is the identity
        assert multiply(Ht, j, j).coords == el(Ht, 1).coords
        assert norm(Ht, j) == -1

    def test_octonion_pair_product(self):
        O = build_algebra("O")
        x = el(O, 0, 1)              # (i, 0)
        y = O.basis(4)               # (0, 1)
        # second slot of the doubling product: d a + b conj(c) = i
        assert multiply(O, x, y).coords == O.basis(5).coords

    def test_norm_signatures(self):
        assert norm_signature(build_algebra("O")) == (8, 0, 0)
        assert norm_signature(build_algebra("Osplit")) == (4, 4, 0)
        assert norm_signature(build_algebra("Osplit"), imaginary_only=True) == (3, 4, 0)
        assert norm_signature(build_algebra("Osplit_from_Hsplit")) == (4, 4, 0)
        assert norm_signature(build_algebra("Hsplit")) == (2, 2, 0)

    def test_conjugation_and_norm_examples(self):
        O = build_algebra("O")
        assert conjugate(O, O.unit()).coords == O.unit().coords
        assert norm(O, O.basis(1)) == 1
        Ht = build_algebra("Hsplit")
        assert norm(Ht, Ht.basis(2)) == -1

    def test_reversed_doubling_slot_is_rejected(self):
        # second slot a d + b conj(c) fails centrality of x*conj(x) over H
        def reversed_product(a, b, c, d):
            return a * c - conjugate(H, d) * b, a * d + b * conjugate(H, c)

        H = build_algebra("H")
        with pytest.raises(ValueError, match="not central"):
            _double(H, "broken", reversed_product, "{}e")

    def test_product_off_the_signed_basis_is_rejected(self):
        # (a, b)(c, d) = (2 a c, 0): e_0 e_0 = 2 e_0 has no place in the table
        def doubled_product(a, b, c, d):
            return (a * c).scale(2), a.table.zero()

        with pytest.raises(ValueError, match="broken: .* is not a signed basis element"):
            _double(build_algebra("C"), "broken", doubled_product, "{}e")


class TestAlgebraLaws:
    rng = random.Random(20240517)

    def rnd(self, t):
        return t.element([Fraction(self.rng.randint(-4, 4)) for _ in range(t.dim)])

    @pytest.mark.parametrize("kind", ["C", "H", "Hsplit", "O", "Osplit",
                                      "Osplit_from_Hsplit"])
    def test_norm_is_multiplicative(self, kind):
        t = build_algebra(kind)
        for _ in range(50):
            x, y = self.rnd(t), self.rnd(t)
            assert norm(t, multiply(t, x, y)) == norm(t, x) * norm(t, y)

    @pytest.mark.parametrize("kind", ["C", "H", "Hsplit", "O", "Osplit",
                                      "Osplit_from_Hsplit"])
    def test_conjugation_antiautomorphism(self, kind):
        t = build_algebra(kind)
        for _ in range(30):
            x, y = self.rnd(t), self.rnd(t)
            lhs = conjugate(t, multiply(t, x, y))
            rhs = multiply(t, conjugate(t, y), conjugate(t, x))
            assert lhs.coords == rhs.coords

    @pytest.mark.parametrize("kind", ["O", "Osplit", "Osplit_from_Hsplit"])
    def test_alternativity(self, kind):
        t = build_algebra(kind)
        for _ in range(30):
            x, y = self.rnd(t), self.rnd(t)
            xx = multiply(t, x, x)
            assert multiply(t, xx, y).coords == multiply(t, x, multiply(t, x, y)).coords
            assert multiply(t, y, xx).coords == multiply(t, multiply(t, y, x), x).coords

    def test_associativity_fails_somewhere(self):
        O = build_algebra("O")
        i, e, je = O.basis(1), O.basis(4), O.basis(6)
        lhs = multiply(O, multiply(O, i, e), je)
        rhs = multiply(O, i, multiply(O, e, je))
        assert lhs.coords != rhs.coords

    def test_norm_polarization_consistency(self):
        for kind in ALGEBRA_KINDS:
            t = build_algebra(kind)
            for _ in range(10):
                x = self.rnd(t)
                xc = multiply(t, x, conjugate(t, x))
                assert xc.coords[t.unit_index] == norm(t, x)
                assert all(c == 0 for idx, c in enumerate(xc.coords)
                           if idx != t.unit_index)

    def test_dimension_mismatch_rejected(self):
        H = build_algebra("H")
        C = build_algebra("C")
        with pytest.raises(ValueError):
            multiply(H, H.unit(), C.unit())

    def test_factors_from_another_algebra_rejected(self):
        # Hsplit's j squares to +1, H's to -1: a mixed product has no meaning
        H, Hs = build_algebra("H"), build_algebra("Hsplit")
        assert (H.basis(2) * H.basis(2)).coords == (-1, 0, 0, 0)
        with pytest.raises(ValueError, match="different algebras"):
            H.basis(2) * Hs.basis(2)
        with pytest.raises(ValueError, match="different algebras"):
            multiply(H, Hs.basis(2), Hs.basis(2))
        with pytest.raises(ValueError, match="different algebras"):
            multiply(H, H.basis(2), Hs.basis(2))
        # Hsplit's j has split norm -1, so H's norm form must not read it
        assert norm(Hs, Hs.basis(2)) == -1
        for call in (lambda: conjugate(H, Hs.basis(2)),
                     lambda: norm(H, Hs.basis(2)),
                     lambda: inner(H, Hs.basis(2), H.basis(2)),
                     lambda: inner(H, H.basis(2), Hs.basis(2))):
            with pytest.raises(ValueError, match="different algebras"):
                call()

    @pytest.mark.parametrize("kind", ALGEBRA_KINDS)
    def test_multiply_matches_the_dense_product(self, kind):
        """The signed-permutation product against the structure constants of
        to_json, on a seeded corpus of sparse, dense and fractional pairs."""
        rng = random.Random(f"multiply-{kind}")
        t = build_algebra(kind)

        def draw():
            return t.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              if rng.random() < 0.6 else 0 for _ in range(t.dim)])

        for _ in range(60):
            x, y = draw(), draw()
            got = multiply(t, x, y)
            assert got == reference_multiply(t, x, y)
            assert all(type(c) is Fraction for c in got.coords)


class TestTripleForm:
    def test_octonions_give_orbit8(self):
        O = build_algebra("O")
        assert triple_form(O, octonion_form_basis()) == canonical(8).form

    def test_split_octonions_give_orbit5(self):
        t = build_algebra("Osplit_from_Hsplit")
        assert triple_form(t, split_octonion_form_basis()) == canonical(5).form

    def test_split_octonions_give_orbit5_prime(self):
        t = build_algebra("Osplit_from_Hsplit")
        assert triple_form(t, split_octonion_prime_basis()) == canonical(5, "prime").form

    def test_stored_orbit5_change_is_the_algebra_basis_change(self):
        """BASIS_MAP_5 writes the prime basis in the standard basis's
        coordinates, so its pullback carries one induced form to the other."""
        t = build_algebra("Osplit_from_Hsplit")
        derived = matrix_in_imaginary_basis(t, split_octonion_form_basis(),
                                            split_octonion_prime_basis())
        assert derived == BASIS_MAP_5
        assert canonical(5, "prime").change_of_basis == BASIS_MAP_5

    def test_swapping_arguments_flips_sign(self):
        O = build_algebra("O")
        basis = octonion_form_basis()
        swapped = [basis[1], basis[0]] + basis[2:]
        transpose = LinearMap.from_images({1: [0, 1, 0, 0, 0, 0, 0],
                                           2: [1, 0, 0, 0, 0, 0, 0]})
        assert triple_form(O, swapped) == pullback(transpose, triple_form(O, basis))
        assert coefficient(triple_form(O, swapped), (1, 2, 3)) == \
            -coefficient(triple_form(O, basis), (1, 2, 3))

    def test_non_imaginary_basis_rejected(self):
        O = build_algebra("O")
        basis = octonion_form_basis()
        basis[0] = O.unit()
        with pytest.raises(ValueError, match="not imaginary"):
            triple_form(O, basis)

    def test_wrong_dimension_rejected(self):
        H = build_algebra("H")
        with pytest.raises(ValueError, match="8-dimensional"):
            triple_form(H, [H.basis(1)] * 7)


class TestAutomorphisms:
    def test_identity_is_automorphism(self):
        O = build_algebra("O")
        assert is_automorphism(O, LinearMap.identity(8).rows)

    def test_single_sign_flip_is_not(self):
        O = build_algebra("O")
        g = [[Fraction(int(i == j)) for j in range(8)] for i in range(8)]
        g[1][1] = Fraction(-1)
        assert not is_automorphism(O, g)

    def test_conjugation_by_unit_quaternion_on_quaternions(self):
        H = build_algebra("H")
        from msf7.stabilizers import unit_quaternion
        a = H.element(unit_quaternion(1, Fraction(1, 2), 0))
        ai = conjugate(H, a)
        cols = [multiply(H, multiply(H, a, H.basis(j)), ai).coords for j in range(4)]
        g = [[cols[j][i] for j in range(4)] for i in range(4)]
        assert is_automorphism(H, g)


class TestTwoSplitPresentations:
    def test_signed_permutation_isomorphism_exists_and_verifies(self):
        src = build_algebra("Osplit")
        dst = build_algebra("Osplit_from_Hsplit")
        # the signed permutation e2 -> f4, e3 -> f5, e4 -> f2, e5 -> -f3
        # (0-based), fixing e0, e1, e6 and e7
        image = {2: (4, 1), 3: (5, 1), 4: (2, 1), 5: (3, -1)}
        imgs = [dst.basis(image[i][0]).scale(image[i][1]) if i in image else dst.basis(i)
                for i in range(8)]
        assert imgs[src.unit_index].coords == dst.unit().coords
        for i in range(8):
            for j in range(8):
                prod = multiply(src, src.basis(i), src.basis(j))
                want = dst.zero()
                for k, c in enumerate(prod.coords):
                    if c:
                        want += imgs[k].scale(c)
                assert want.coords == multiply(dst, imgs[i], imgs[j]).coords
        # norms carry over
        for i in range(8):
            assert norm(src, src.basis(i)) == norm(dst, imgs[i])
