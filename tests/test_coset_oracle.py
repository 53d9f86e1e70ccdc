"""The integer-numerator coset algebra against the Fraction oracle of conftest.

``pi_group`` and ``rep_matrices`` carry each coset c of Pi as its numerator
vector delta c; their public Fraction values must equal, in value, type and
order, those of the Fraction enumeration in ``conftest``, and build them
only when read.
"""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from conftest import fraction_pi_group, fraction_rep_matrices, random_wen_matrix
from torushall.heisenberg import rep_matrices
from torushall.wen import jain_matrix, pi_group, validate_wen_datum, validate_wen_matrix


def _datum(K):
    """The datum with n proportional to u = K^{-1}e, in lowest terms."""
    col = [sum(row) for row in K.adjugate]
    h = gcd(*col)
    return validate_wen_datum(K, [x // h for x in col])


def _assert_matches_oracle(K):
    diag, elems = fraction_pi_group(K)
    grp = pi_group(K)
    assert grp.invariant_factors == diag
    assert grp.elements == elems
    assert all(type(x) is Fraction for c in grp.elements for x in c)
    assert grp.numerators == tuple(tuple(int(x * K.delta) for x in c) for c in elems)

    q_exp, t1, t2, basis = fraction_rep_matrices(K)
    rep = rep_matrices(_datum(K))
    assert rep.delta == K.delta
    assert rep.q_exponent == q_exp
    assert rep.t1_exponents == t1
    assert rep.t2_permutation == t2
    assert rep.basis == basis
    assert all(type(x) is Fraction for c in rep.basis for x in c)


def test_random_matrices_match_oracle():
    rng = np.random.default_rng(20241019)
    for _ in range(15):
        _assert_matches_oracle(random_wen_matrix(rng, gmax=3))


@pytest.mark.parametrize(
    "K",
    [jain_matrix(50, 2), jain_matrix(4999, 2), validate_wen_matrix([[20, 0], [0, 20]])],
    ids=["jain50_2", "jain4999_2", "diag20"],
)
def test_large_delta_matches_oracle(K):
    _assert_matches_oracle(K)


def test_fractions_built_once_on_first_read(monkeypatch):
    from torushall import heisenberg, wen

    calls = []
    real = wen.coset_fractions

    def spy(numerators, delta):
        calls.append(delta)
        return real(numerators, delta)

    monkeypatch.setattr(wen, "coset_fractions", spy)
    monkeypatch.setattr(heisenberg, "coset_fractions", spy)
    K = jain_matrix(4999, 2)
    grp = pi_group(K)
    rep = rep_matrices(_datum(K))
    assert calls == []
    assert grp.elements is grp.elements
    assert rep.basis is rep.basis
    assert calls == [K.delta, K.delta]
