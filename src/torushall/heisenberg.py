"""Finite Heisenberg groups of magnetic translations.

The group attached to a coupling matrix K is the set Pi x Pi x Gamma_delta
with the product twisted by the pairing

    upsilon(a, b) = exp(2 pi i a' K b),

a root of unity of order dividing delta.  Roots of unity are carried as
integer exponents modulo delta throughout, so the translation relations
and the character norm are exact integer statements; complex matrices are
only materialized at the API boundary.  Cosets are carried the same way,
as integer numerator vectors A = delta a (see ``torushall.wen``): the
exponent of upsilon(a, b) is A'K B / delta mod delta, and the Fraction
view ``RepMatrices.basis`` is built on first read.

The representation matrices are those of the magnetic translations on the
distinguished theta basis: T1 acts diagonally with eigenvalue
upsilon(u, c) on the basis vector labelled c, and T2 permutes labels by
c -> c + u, where u = K^{-1} e.  For a primary matrix the basis is ordered
along the powers of u, which makes T1 = diag(1, q, ..., q^{delta-1}) and
T2 the full cycle, with q = exp(2 pi i rho / delta) primitive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .wen import PiElement, WenDatum, WenMatrix, coset_fractions, pi_group


def pairing_exponents(A: Sequence[int], Bs: Iterable[Sequence[int]], K: WenMatrix) -> Iterator[int]:
    """Exponents m with upsilon(a, b) = exp(2 pi i m / delta), one per B in Bs, lazily.

    A = delta a and each B = delta b are integer vectors for a, b in
    K^{-1}Z^g, so m = delta a'K b = A'K B / delta is an integer; a non-zero
    remainder raises ``ValueError``.  The row A'K is formed once.
    """
    d, g = K.delta, K.g
    row = [sum(A[i] * K.entries[i][j] for i in range(g)) for j in range(g)]
    for B in Bs:
        m, rem = divmod(sum(x * y for x, y in zip(row, B)), d)
        if rem:
            raise ValueError("arguments do not lie in K^{-1}Z^g")
        yield m % d


def root_of_unity(exponent: int, order: int) -> complex:
    return complex(np.exp(2j * np.pi * (exponent % order) / order))


@dataclass(frozen=True)
class RepMatrices:
    """Magnetic-translation matrices on the distinguished basis.

    ``t1_exponents[i]`` is the exponent of the diagonal entry of T1 at basis
    slot i, ``t2_permutation[i]`` the slot that T2 sends slot i to, and
    ``q_exponent`` the exponent of q in T1 T2 = q T2 T1 -- all modulo delta,
    all exact.  ``numerators[i]`` is the coset at slot i as its numerator
    vector delta c.
    """

    delta: int
    q_exponent: int
    t1_exponents: tuple[int, ...]
    t2_permutation: tuple[int, ...]
    numerators: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def basis(self) -> tuple[PiElement, ...]:
        """The slot cosets as Fraction tuples c in [0, 1), built on first read."""
        return coset_fractions(self.numerators, self.delta)

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


def translation_action(
    K: WenMatrix, numerators: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """T1 exponents and T2 slot permutation on cosets listed by their numerators.

    Slot i holds the coset C_i / delta.  T1 has the exponent of
    upsilon(u, C_i / delta) there, and T2 sends slot i to the slot of
    C_i + U mod delta, where U is the numerator vector of u.
    """
    d = K.delta
    U = K.u_numerators()
    index = {c: i for i, c in enumerate(numerators)}
    t1 = tuple(pairing_exponents(U, numerators, K))
    t2 = tuple(index[tuple((x + y) % d for x, y in zip(c, U))] for c in numerators)
    return t1, t2


def rep_matrices(datum: WenDatum) -> RepMatrices:
    """Representation matrices of the magnetic translations.

    The basis is listed along the powers of u for a primary matrix and in
    the lexicographic coset order otherwise.  The relations are checked by
    ``RepMatrices.verify_relations``, not here.
    """
    K = datum.matrix
    d = K.delta
    U = K.u_numerators()
    if K.primary:
        nums = tuple(tuple(i * x % d for x in U) for i in range(d))
    else:
        nums = pi_group(K).numerators
    q_exp = next(pairing_exponents(U, (U,), K))
    if q_exp != K.rho % d:
        raise AssertionError("pairing of u with itself must equal rho mod delta")
    t1, t2 = translation_action(K, nums)
    return RepMatrices(
        delta=d,
        q_exponent=q_exp,
        t1_exponents=t1,
        t2_permutation=t2,
        numerators=nums,
    )


def irreducibility_norm(K: WenMatrix) -> float:
    """Character norm (chi, chi) of the standard representation, exactly.

    The standard representation sends ((a, b), gamma) to gamma R_b S_a, with
    S_a = diag(upsilon(a, c)) and R_b: c -> c + b on the delta cosets c.  Its
    trace vanishes unless b = 0, where it is gamma sum_c upsilon(a, c): delta
    when upsilon(a, .) is trivial and 0 otherwise.  The mean of |trace|^2 over
    the delta^3 group elements is therefore the size of the radical
    {a : upsilon(a, c) = 1 for all c}, counted here in exponent arithmetic
    on the coset numerators; it is 1.0 exactly when the representation is
    irreducible.
    """
    nums = pi_group(K).numerators
    return float(sum(not any(pairing_exponents(A, nums, K)) for A in nums))
