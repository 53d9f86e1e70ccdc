from fractions import Fraction
from math import gcd

import numpy as np

from conftest import random_wen_matrix, u_order
from torushall.bundles import (
    chern1_matrix,
    detect_jain,
    dual_lattice_generators,
    dual_pairing_matrix,
    jain_fraction,
    max_pairing_offset,
    primal_lattice_generators,
    restricted_invariants,
    total_chern,
)
from torushall.wen import (
    jain_matrix,
    validate_wen_matrix,
)


class TestChernOne:
    def test_jain_shape(self):
        for p, g in ((1, 2), (2, 2), (2, 3)):
            K = jain_matrix(p, g)
            c1 = chern1_matrix(K)
            for i in range(g):
                for j in range(g):
                    want = p * (g - 1) + 1 if i == j else -p
                    assert c1[i][j] == want

    def test_single_layer(self):
        assert chern1_matrix(validate_wen_matrix([[5]])) == ((1,),)

    def test_symmetric(self, rng):
        for _ in range(15):
            K = random_wen_matrix(rng)
            c1 = chern1_matrix(K)
            for i in range(K.g):
                for j in range(K.g):
                    assert c1[i][j] == c1[j][i]


class TestTotalChern:
    def test_rank_one(self):
        K = validate_wen_matrix([[1]])
        assert total_chern(K) == (Fraction(1), Fraction(1))

    def test_jain22_second_coefficient(self):
        K = validate_wen_matrix([[3, 2], [2, 3]])
        coeffs = total_chern(K)
        assert coeffs[2] == Fraction(10, 25) == Fraction(2, 5)

    def test_linear_coefficient_is_one(self, rng):
        for _ in range(10):
            K = random_wen_matrix(rng)
            assert total_chern(K)[1] == Fraction(1)


class TestRestrictedInvariants:
    def test_jain_slopes(self):
        for p in range(1, 7):
            for g in range(1, 7):
                inv = restricted_invariants(jain_matrix(p, g))
                assert abs(inv.slope) == jain_fraction(p, g) == Fraction(g, g * p + 1)
                assert inv.stable

    def test_single_layer_three(self):
        inv = restricted_invariants(validate_wen_matrix([[3]]))
        assert (inv.rank, inv.degree, inv.stable) == (3, -1, True)
        assert inv.slope_display == "-1/3"

    def test_non_primary_unstable(self):
        inv = restricted_invariants(validate_wen_matrix([[2, 0], [0, 2]]))
        assert (inv.rank, inv.degree) == (4, -4)
        assert not inv.stable
        assert inv.slope == Fraction(-1)
        assert inv.slope_display == "-4/4"

    def test_exactness_random(self, rng):
        for _ in range(50):
            K = random_wen_matrix(rng, gmax=5)
            inv = restricted_invariants(K)
            assert inv.slope * inv.rank == inv.degree
            assert inv.degree == -K.rho and inv.rank == K.delta
            assert inv.stable == (gcd(K.delta, K.rho) == 1)
            # stability cross-checked against the generator order of u
            assert inv.stable == (u_order(K) == K.delta)

    def test_adjugate_rows_give_u(self, rng):
        for _ in range(20):
            K = random_wen_matrix(rng)
            for i in range(K.g):
                assert sum(K.adjugate[i]) == K.delta * K.u[i]

    def test_jain_detection(self):
        assert detect_jain(jain_matrix(2, 3)) == (2, 3)
        assert detect_jain(validate_wen_matrix([[4]])) == (3, 1)
        assert detect_jain(validate_wen_matrix([[2, 0], [0, 2]])) is None
        assert detect_jain(validate_wen_matrix([[3, 1], [1, 3]])) is None


class TestDualLattice:
    def test_identity_unit_modulus(self):
        K = validate_wen_matrix([[1, 0], [0, 1]])
        gens = dual_lattice_generators(K, 1j)
        want = np.vstack([np.eye(2), 1j * np.eye(2)])
        assert np.allclose(gens, want)

    def test_single_layer_two(self):
        K = validate_wen_matrix([[2]])
        gens = dual_lattice_generators(K, 1j)
        assert np.allclose(gens, np.array([[0.5], [1j]]))

    def test_pairings_integral(self):
        tau = 0.3 + 1.1j
        for K in (
            validate_wen_matrix([[2]]),
            jain_matrix(1, 2),
            jain_matrix(2, 3),
        ):
            assert max_pairing_offset(K, tau) < 1e-12

    def test_pairing_matrix_shape(self):
        K = jain_matrix(1, 2)
        mat = dual_pairing_matrix(K, 0.3 + 1.1j)
        assert mat.shape == (4, 4)

    def test_primal_generators(self):
        K = validate_wen_matrix([[2]])
        prim = primal_lattice_generators(K, 1j)
        assert np.allclose(prim, np.array([[1.0], [2j]]))

    def test_pairings_integral_random(self, rng):
        for _ in range(10):
            K = random_wen_matrix(rng, gmax=3)
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
            assert max_pairing_offset(K, tau) < 1e-11
