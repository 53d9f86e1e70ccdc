from fractions import Fraction
from math import gcd

import pytest

from conftest import random_wen_matrix, u_order
from torushall.wen import (
    MixedParityError,
    NegativeEntryError,
    NonPositiveUError,
    NotEigenvectorError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    det_int,
    jain_matrix,
    pi_group,
    smith_normal_form,
    unimodular_inverse,
    validate_wen_datum,
    validate_wen_matrix,
)


class TestValidate:
    def test_two_layer_primary(self):
        K = validate_wen_matrix([[3, 2], [2, 3]])
        assert K.delta == 5
        assert K.rho == 2
        assert K.epsilon == -1
        assert K.primary
        assert K.u == (Fraction(1, 5), Fraction(1, 5))

    def test_single_layer(self):
        K = validate_wen_matrix([[2]])
        assert (K.delta, K.rho, K.epsilon, K.primary) == (2, 1, 1, True)
        assert K.adjugate == ((1,),)

    def test_mixed_parity_rejected(self):
        with pytest.raises(MixedParityError):
            validate_wen_matrix([[1, 0], [0, 2]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            validate_wen_matrix([[1, 2], [3, 4]])

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            validate_wen_matrix([[1, 1], [1, 1]])

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            validate_wen_matrix([[1, 3], [3, 1]])

    def test_nonpositive_u_rejected(self):
        # positive definite, odd diagonal, but K^{-1}e = (4, -1)
        with pytest.raises(NonPositiveUError):
            validate_wen_matrix([[1, 3], [3, 11]])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            validate_wen_matrix([[2, -1], [-1, 2]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_wen_matrix([[1, 2]])


class TestJainFamily:
    def test_p1_g2(self):
        K = jain_matrix(1, 2)
        assert K.entries == ((2, 1), (1, 2))
        assert (K.delta, K.rho) == (3, 2)

    def test_p1_g1(self):
        assert jain_matrix(1, 1).entries == ((2,),)
        assert jain_matrix(1, 1).delta == 2

    def test_p2_g3(self):
        K = jain_matrix(2, 3)
        assert (K.delta, K.rho) == (7, 3)
        # adjugate rows each sum to 1, so u = e/delta
        assert K.u == (Fraction(1, 7),) * 3

    def test_family_invariants(self):
        for p in range(1, 7):
            for g in range(1, 7):
                K = jain_matrix(p, g)
                assert K.delta == p * g + 1
                assert K.rho == g
                assert gcd(K.delta, K.rho) == 1 and K.primary
                assert all(x == Fraction(1, K.delta) for x in K.u)


class TestAdjugate:
    def test_jain_12(self):
        assert jain_matrix(1, 2).adjugate == ((2, -1), (-1, 2))

    def test_identity(self):
        K = validate_wen_matrix([[1, 0], [0, 1]])
        assert K.adjugate == ((1, 0), (0, 1))

    def test_twice_identity(self):
        K = validate_wen_matrix([[2, 0], [0, 2]])
        assert K.adjugate == ((2, 0), (0, 2))

    def test_product_identity_random(self, rng):
        for _ in range(25):
            K = random_wen_matrix(rng)
            g = K.g
            prod = [
                [
                    sum(K.entries[i][k] * K.adjugate[k][j] for k in range(g))
                    for j in range(g)
                ]
                for i in range(g)
            ]
            assert prod == [
                [K.delta if i == j else 0 for j in range(g)] for i in range(g)
            ]
            assert sum(sum(row) for row in K.adjugate) == K.rho


class TestDatum:
    def test_jain_multiples(self):
        for m in (1, 2, 3):
            K = jain_matrix(2, 2)
            datum = validate_wen_datum(K, (m, m))
            assert datum.d == m * K.delta
            assert datum.n == 2 * m

    def test_single_layer(self):
        K = validate_wen_matrix([[3]])
        datum = validate_wen_datum(K, (4,))
        assert datum.d == 12 and datum.n == 4

    def test_not_eigenvector(self):
        with pytest.raises(NotEigenvectorError):
            validate_wen_datum(jain_matrix(1, 2), (1, 2))

    def test_nonpositive_counts(self):
        with pytest.raises(NotEigenvectorError):
            validate_wen_datum(jain_matrix(1, 2), (0, 0))


class TestPiGroup:
    def test_single_layer_3(self):
        K = validate_wen_matrix([[3]])
        grp = pi_group(K)
        assert grp.invariant_factors == (3,)
        assert grp.elements == (
            (Fraction(0),),
            (Fraction(1, 3),),
            (Fraction(2, 3),),
        )

    def test_twice_identity(self):
        grp = pi_group(validate_wen_matrix([[2, 0], [0, 2]]))
        assert grp.invariant_factors == (2, 2)
        assert len(grp) == 4

    def test_jain_12_cyclic(self):
        grp = pi_group(jain_matrix(1, 2))
        assert grp.invariant_factors == (1, 3)
        assert len(grp) == 3

    def test_order_matches_delta_random(self, rng):
        for _ in range(20):
            K = random_wen_matrix(rng)
            grp = pi_group(K)
            prod = 1
            for f in grp.invariant_factors:
                prod *= f
            assert len(grp) == K.delta == prod

    def test_closed_under_addition(self, rng):
        K = random_wen_matrix(rng, gmax=3)
        grp = pi_group(K)
        from torushall.wen import pi_add

        for x in grp.elements:
            for y in grp.elements:
                assert pi_add(x, y) in grp.index_map


class TestUOrder:
    def test_primary_generates(self):
        K = validate_wen_matrix([[3, 2], [2, 3]])
        assert u_order(K) == 5

    def test_non_primary_partial(self):
        K = validate_wen_matrix([[2, 0], [0, 2]])
        assert u_order(K) == 2 < K.delta

    def test_single_layer(self):
        K = validate_wen_matrix([[2]])
        assert u_order(K) == 2

    def test_divides_delta_iff_primary(self, rng):
        for _ in range(25):
            K = random_wen_matrix(rng)
            order = u_order(K)
            assert K.delta % order == 0
            assert (order == K.delta) == K.primary


class TestSmithNormalForm:
    def test_known_form(self):
        diag, s, t = smith_normal_form([[2, 1], [1, 2]])
        assert diag == (1, 3)

    def test_transform_identity_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            mat = [[int(rng.integers(-5, 6)) for _ in range(n)] for _ in range(n)]
            if det_int(mat) == 0:
                continue
            diag, s, t = smith_normal_form(mat)
            assert abs(det_int(s)) == 1 and abs(det_int(t)) == 1
            prod = [
                [
                    sum(
                        s[i][a] * mat[a][b] * t[b][j]
                        for a in range(n)
                        for b in range(n)
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert prod == [
                [diag[i] if i == j else 0 for j in range(n)] for i in range(n)
            ]
            for i in range(n - 1):
                assert diag[i] >= 0 and diag[i + 1] % max(diag[i], 1) == 0

    def test_unimodular_inverse(self, rng):
        _, s, _ = smith_normal_form([[2, 1], [1, 2]])
        inv = unimodular_inverse(s)
        n = len(s)
        prod = [
            [sum(s[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]
