from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    coset_index,
    fraction_exponent,
    pi_add,
    random_wen_matrix,
    upsilon,
    upsilon_exponent,
)
from torushall.heisenberg import RepMatrices, irreducibility_norm, rep_matrices, root_of_unity
from torushall.wen import (
    jain_matrix,
    pi_group,
    validate_wen_datum,
    validate_wen_matrix,
)


# the coupling matrices of acceptance criterion 4
CRITERION_4_MATRICES = (
    [validate_wen_matrix([[k]]) for k in range(1, 13)]
    + [jain_matrix(p, g) for p, g in ((1, 2), (2, 2), (1, 4), (2, 5), (1, 11), (1, 6))]
    + [validate_wen_matrix([[2, 0], [0, 2]])]
)


def _dense_schur_sum(K):
    grp = pi_group(K)
    d = K.delta
    total = 0.0
    for a in grp.elements:
        for b in grp.elements:
            mat = np.zeros((d, d), dtype=complex)
            for i, c in enumerate(grp.elements):
                mat[coset_index(grp, pi_add(c, b)), i] = upsilon(a, c, K)
            trace = np.trace(mat)
            # gamma ranges over the delta roots of unity; |gamma trace|^2 = |trace|^2
            total += d * abs(trace) ** 2
    return total / d**3


class TestUpsilon:
    def test_zero_left_slot(self):
        K = jain_matrix(1, 2)
        grp = pi_group(K)
        zero = grp.elements[0]
        for b in grp.elements:
            assert upsilon_exponent(zero, b, K) == 0

    def test_single_layer_formula(self):
        k = 5
        K = validate_wen_matrix([[k]])
        for j in range(k):
            for l in range(k):
                e = upsilon_exponent((Fraction(j, k),), (Fraction(l, k),), K)
                assert e == (j * l) % k

    def test_symmetric(self, rng):
        # and equal to the Fraction formula, also at g = 8, delta = 497
        for K in (random_wen_matrix(rng, gmax=3), jain_matrix(62, 8)):
            grp = pi_group(K)
            for _ in range(20):
                a = grp.elements[rng.integers(0, len(grp))]
                b = grp.elements[rng.integers(0, len(grp))]
                assert upsilon_exponent(a, b, K) == upsilon_exponent(b, a, K)
                assert upsilon_exponent(a, b, K) == fraction_exponent(a, b, K)

    def test_off_lattice_rejected(self):
        K = jain_matrix(1, 2)  # delta = 3
        third = (Fraction(1, 3), Fraction(1, 3))
        for a in ((Fraction(1, 2), Fraction(0)), (Fraction(1, 9), Fraction(1, 3))):
            with pytest.raises(ValueError):
                upsilon_exponent(a, third, K)

    def test_biadditive(self, rng):
        K = random_wen_matrix(rng, gmax=3)
        grp = pi_group(K)
        for _ in range(20):
            a1, a2, b = (grp.elements[rng.integers(0, len(grp))] for _ in range(3))
            lhs = upsilon_exponent(pi_add(a1, a2), b, K)
            rhs = (upsilon_exponent(a1, b, K) + upsilon_exponent(a2, b, K)) % K.delta
            assert lhs == rhs


class TestGroupLaw:
    def test_cocycle_conditions(self, rng):
        # omega(c1,c2) omega(c1+c2,c3) = omega(c2,c3) omega(c1,c2+c3), and
        # omega(c,0) = 1 = omega(0,c), as exponents mod delta
        K = random_wen_matrix(rng, gmax=3)
        grp = pi_group(K)

        def omega(c1, c2):
            return upsilon_exponent(c1[0], c2[1], K)

        zero = (grp.elements[0], grp.elements[0])
        for _ in range(100):
            cs = []
            for _i in range(3):
                cs.append(
                    (
                        grp.elements[rng.integers(0, len(grp))],
                        grp.elements[rng.integers(0, len(grp))],
                    )
                )
            c1, c2, c3 = cs
            c12 = (pi_add(c1[0], c2[0]), pi_add(c1[1], c2[1]))
            c23 = (pi_add(c2[0], c3[0]), pi_add(c2[1], c3[1]))
            lhs = (omega(c1, c2) + omega(c12, c3)) % K.delta
            rhs = (omega(c2, c3) + omega(c1, c23)) % K.delta
            assert lhs == rhs
            assert omega(cs[0], zero) == 0 and omega(zero, cs[0]) == 0


class TestRepMatrices:
    def test_single_layer_3(self):
        K = validate_wen_matrix([[3]])
        rep = rep_matrices(validate_wen_datum(K, (1,)))
        assert rep.t1_exponents == (0, 1, 2)
        assert rep.t2_permutation == (1, 2, 0)
        t2 = rep.t2_matrix()
        want = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.array_equal(t2, want)

    def test_trivial(self):
        K = validate_wen_matrix([[1]])
        rep = rep_matrices(validate_wen_datum(K, (1,)))
        assert rep.delta == 1
        assert np.array_equal(rep.t1_matrix(), np.eye(1))
        assert np.array_equal(rep.t2_matrix(), np.eye(1))

    def test_jain22_primitive_fifth_root(self):
        K = validate_wen_matrix([[3, 2], [2, 3]])
        datum = validate_wen_datum(K, (1, 1))
        rep = rep_matrices(datum)
        # q = exp(2 pi i n/d) with n/d = rho/delta = 2/5
        assert rep.q_exponent == 2 and rep.delta == 5
        assert rep.q_is_primitive()
        assert abs(root_of_unity(rep.q_exponent, rep.delta) - np.exp(2j * np.pi * 2 / 5)) < 1e-15

    def test_exact_relations_up_to_12(self):
        data = [validate_wen_datum(validate_wen_matrix([[k]]), (1,)) for k in range(1, 13)]
        data += [
            validate_wen_datum(jain_matrix(p, g), (1,) * g)
            for p, g in [(1, 2), (2, 2), (1, 4), (2, 5), (1, 11)]
        ]
        data.append(validate_wen_datum(validate_wen_matrix([[2, 0], [0, 2]]), (1, 1)))
        for datum in data:
            rep = rep_matrices(datum)
            rep.verify_relations()
            t1, t2 = rep.t1_matrix(), rep.t2_matrix()
            d = rep.delta
            assert np.max(np.abs(t1 @ t1.conj().T - np.eye(d))) < 1e-14
            assert np.max(np.abs(t2 @ t2.conj().T - np.eye(d))) < 1e-14
            q = root_of_unity(rep.q_exponent, rep.delta)
            assert np.max(np.abs(t1 @ t2 - q * (t2 @ t1))) < 1e-13

    def test_primitive_iff_primary(self, rng):
        for _ in range(20):
            K = random_wen_matrix(rng, gmax=3)
            datum = validate_wen_datum(K, tuple(int(K.delta * x) for x in K.u))
            assert rep_matrices(datum).q_is_primitive() == K.primary


class TestVerifyRelations:
    """Hand-built representations that break one relation are each rejected."""

    @staticmethod
    def _rep(delta, q, t1, t2):
        numerators = tuple((i,) for i in range(delta))
        return RepMatrices(
            delta=delta, q_exponent=q, t1_exponents=t1, t2_permutation=t2, numerators=numerators
        )

    def test_valid_cycle_accepted(self):
        self._rep(3, 1, (0, 1, 2), (1, 2, 0)).verify_relations()

    def test_three_cycle_at_delta_four_rejected(self):
        # q = 0 and constant T1 satisfy T1 T2 = q T2 T1; only T2^4 != 1 fails
        rep = self._rep(4, 0, (0, 0, 0, 0), (1, 2, 0, 3))
        with pytest.raises(AssertionError, match="T2\\^delta"):
            rep.verify_relations()

    def test_non_permutation_rejected(self):
        with pytest.raises(AssertionError, match="permutation"):
            self._rep(3, 0, (0, 0, 0), (1, 1, 0)).verify_relations()

    @pytest.mark.parametrize("t1", [(0, 1, 5), (0, 1, 2.0), (0, 1, -1)])
    def test_t1_exponent_outside_range_rejected(self, t1):
        with pytest.raises(AssertionError, match="T1\\^delta"):
            self._rep(3, 1, t1, (1, 2, 0)).verify_relations()

    def test_broken_q_relation_rejected(self):
        with pytest.raises(AssertionError, match="T1 T2 != q T2 T1"):
            self._rep(3, 2, (0, 1, 2), (1, 2, 0)).verify_relations()

    def test_check_reports_fail_instead_of_raising(self, monkeypatch):
        from torushall import checks, heisenberg

        datum = validate_wen_datum(validate_wen_matrix([[4]]), (1,))
        broken = self._rep(4, 1, (0, 1, 2, 3), (1, 2, 0, 3))
        monkeypatch.setattr(heisenberg, "rep_matrices", lambda datum: broken)
        verdicts = {r["name"]: r["verdict"] for r in checks.check_heisenberg(datum)}
        assert verdicts["heisenberg.relations"] == "FAIL"
        assert verdicts["heisenberg.unitarity"] == "PASS"


class TestCharacterNorm:
    def test_single_layer(self):
        assert abs(irreducibility_norm(validate_wen_matrix([[2]])) - 1.0) < 1e-12

    def test_jain12(self):
        assert abs(irreducibility_norm(jain_matrix(1, 2)) - 1.0) < 1e-10

    def test_non_primary_still_irreducible(self):
        assert abs(irreducibility_norm(validate_wen_matrix([[2, 0], [0, 2]])) - 1.0) < 1e-10

    def test_matches_dense_schur_sum(self):
        # test-local oracle: (chi, chi) = delta^-3 sum |tr gamma R_b S_a|^2 over
        # all delta^3 elements, with the traces formed from dense matrices
        for K in CRITERION_4_MATRICES:
            if K.delta > 7:
                continue
            assert abs(irreducibility_norm(K) - _dense_schur_sum(K)) < 1e-12

    def test_doubled_pairing_counts_its_radical(self, monkeypatch):
        from torushall import checks, heisenberg

        exact = heisenberg.pairing_exponents
        monkeypatch.setattr(
            heisenberg,
            "pairing_exponents",
            lambda A, Bs, K: (2 * m % K.delta for m in exact(A, Bs, K)),
        )
        norm = irreducibility_norm(validate_wen_matrix([[4]]))
        assert norm == 2.0
        assert checks.record("heisenberg.character_norm", abs(norm - 1.0))["verdict"] == "FAIL"
        assert irreducibility_norm(validate_wen_matrix([[2, 0], [0, 2]])) == 4.0

    @pytest.mark.parametrize(
        "K",
        [jain_matrix(50, 2), validate_wen_matrix([[20, 0], [0, 20]])],
        ids=["jain50_2", "diag20"],
    )
    def test_exact_beyond_dense_reach(self, K):
        assert irreducibility_norm(K) == 1.0
