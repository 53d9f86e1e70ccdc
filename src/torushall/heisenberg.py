"""Finite Heisenberg groups of magnetic translations.

The group attached to a coupling matrix K is the set Pi x Pi x Gamma_delta
with the product twisted by the pairing

    upsilon(a, b) = exp(2 pi i a' K b),

a root of unity of order dividing delta.  Roots of unity are carried as
integer exponents modulo delta throughout, so the translation relations
and the character norm are exact integer statements; complex matrices are
only materialized at the API boundary.

The representation matrices are those of the magnetic translations on the
distinguished theta basis: T1 acts diagonally with eigenvalue
upsilon(u, c) on the basis vector labelled c, and T2 permutes labels by
c -> c + u, where u = K^{-1} e.  For a primary matrix the basis is ordered
along the powers of u, which makes T1 = diag(1, q, ..., q^{delta-1}) and
T2 the full cycle, with q = exp(2 pi i rho / delta) primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .wen import PiElement, WenDatum, WenMatrix, pi_add, pi_group, pi_scale


class NonCyclicBasisOrderError(ValueError):
    """The powers of u do not exhaust the coset group of a primary matrix."""


def upsilon_exponent(a: Sequence[Fraction], b: Sequence[Fraction], K: WenMatrix) -> int:
    """Integer m with upsilon(a, b) = exp(2 pi i m / delta), exactly.

    For a and b in K^{-1}Z^g, A = delta a and B = delta b are integer vectors
    and m = delta a'K b = A'K B / delta is an integer; both are checked, in
    Python ints.
    """
    d, g = K.delta, K.g
    scaled = [divmod(x.numerator * d, x.denominator) for x in (*a, *b)]
    A, B = [q for q, _ in scaled[:g]], [q for q, _ in scaled[g:]]
    m, rem = divmod(sum(A[i] * K.entries[i][j] * B[j] for i in range(g) for j in range(g)), d)
    if rem or any(r for _, r in scaled):
        raise ValueError("arguments do not lie in K^{-1}Z^g")
    return m % d


def upsilon(a: Sequence[Fraction], b: Sequence[Fraction], K: WenMatrix) -> complex:
    """The pairing value as a complex root of unity."""
    return root_of_unity(upsilon_exponent(a, b, K), K.delta)


def root_of_unity(exponent: int, order: int) -> complex:
    return complex(np.exp(2j * np.pi * (exponent % order) / order))


@dataclass(frozen=True)
class RepMatrices:
    """Magnetic-translation matrices on the distinguished basis.

    ``t1_exponents[i]`` is the exponent of the diagonal entry of T1 at basis
    slot i, ``t2_permutation[i]`` the slot that T2 sends slot i to, and
    ``q_exponent`` the exponent of q in T1 T2 = q T2 T1 -- all modulo delta,
    all exact.
    """

    delta: int
    q_exponent: int
    t1_exponents: tuple[int, ...]
    t2_permutation: tuple[int, ...]
    basis: tuple[PiElement, ...]

    @property
    def q(self) -> complex:
        return root_of_unity(self.q_exponent, self.delta)

    def t1_matrix(self) -> np.ndarray:
        return np.diag([root_of_unity(e, self.delta) for e in self.t1_exponents])

    def t2_matrix(self) -> np.ndarray:
        mat = np.zeros((self.delta, self.delta), dtype=complex)
        for i, j in enumerate(self.t2_permutation):
            mat[j, i] = 1.0
        return mat

    def q_is_primitive(self) -> bool:
        from math import gcd

        return gcd(self.q_exponent % self.delta, self.delta) == 1

    def verify_relations(self) -> None:
        """Exact exponent-arithmetic check of the translation relations, O(delta).

        T1^delta = 1 holds when every T1 exponent is an integer in range(delta);
        T2^delta = 1 when T2 is a permutation whose cycle lengths divide delta.
        """
        d = self.delta
        t1 = self.t1_exponents
        if len(t1) != d or any(not isinstance(e, int) or not 0 <= e < d for e in t1):
            raise AssertionError("T1^delta != identity: exponents must be integers mod delta")
        perm = self.t2_permutation
        if len(perm) != d or any(not 0 <= j < d for j in perm):
            raise AssertionError("T2 is not a permutation of the delta basis slots")
        seen = [False] * d
        for start in range(d):
            if seen[start]:
                continue
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
                length += 1
            if i != start:
                raise AssertionError("T2 is not a permutation of the delta basis slots")
            if d % length:
                raise AssertionError(f"T2^delta != identity: a cycle of length {length}")
        for i in range(d):
            if t1[perm[i]] != (self.q_exponent + t1[i]) % d:
                raise AssertionError("T1 T2 != q T2 T1")


def rep_matrices(datum: WenDatum) -> RepMatrices:
    """Representation matrices of the magnetic translations.

    The basis is listed along the powers of u for a primary matrix and in
    the lexicographic coset order otherwise.  The relations are checked by
    ``RepMatrices.verify_relations``, not here.
    """
    K = datum.matrix
    u = K.u_class()
    if K.primary:
        basis = tuple(pi_scale(i, u) for i in range(K.delta))
        if len(set(basis)) != K.delta:
            raise NonCyclicBasisOrderError("u does not generate the group")
    else:
        basis = pi_group(K).elements
    index = {c: i for i, c in enumerate(basis)}
    q_exp = upsilon_exponent(u, u, K)
    if q_exp != K.rho % K.delta:
        raise AssertionError("pairing of u with itself must equal rho mod delta")
    t1 = tuple(upsilon_exponent(u, c, K) for c in basis)
    t2 = tuple(index[pi_add(c, u)] for c in basis)
    return RepMatrices(
        delta=K.delta,
        q_exponent=q_exp,
        t1_exponents=t1,
        t2_permutation=t2,
        basis=basis,
    )


def irreducibility_norm(K: WenMatrix) -> float:
    """Character norm (chi, chi) of the standard representation, exactly.

    The standard representation sends ((a, b), gamma) to gamma R_b S_a, with
    S_a = diag(upsilon(a, c)) and R_b: c -> c + b on the delta cosets c.  Its
    trace vanishes unless b = 0, where it is gamma sum_c upsilon(a, c): delta
    when upsilon(a, .) is trivial and 0 otherwise.  The mean of |trace|^2 over
    the delta^3 group elements is therefore the size of the radical
    {a : upsilon(a, c) = 1 for all c}, counted here in exponent arithmetic;
    it is 1.0 exactly when the representation is irreducible.
    """
    group = pi_group(K).elements
    return float(
        sum(all(upsilon_exponent(a, c, K) == 0 for c in group) for a in group)
    )
