import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy

from torushall.heisenberg import pairing_exponents, root_of_unity
from torushall.theta import OmegaMatrix
from torushall.wen import (
    PiGroup,
    WenMatrix,
    WenValidationError,
    smith_normal_form,
    validate_wen_matrix,
)


def random_wen_matrix(
    rng: np.random.Generator, gmax: int = 4, entry_max: int = 6
) -> WenMatrix:
    """Rejection-sample a valid coupling matrix, g <= gmax, entries <= entry_max.

    Off-diagonal entries are drawn small and the diagonal is made strictly
    dominant, which guarantees positive definiteness; the u > 0 axiom is
    left to rejection.
    """
    while True:
        g = int(rng.integers(1, gmax + 1))
        parity = int(rng.integers(0, 2))  # 0 even, 1 odd
        m = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i + 1, g):
                m[i][j] = m[j][i] = int(rng.integers(0, 3))
        for i in range(g):
            row = sum(m[i][j] for j in range(g) if j != i)
            diag = row + 1 + int(rng.integers(0, 2)) * 2
            if diag % 2 != parity:
                diag += 1
            m[i][i] = min(diag, entry_max if (entry_max % 2 == parity) else entry_max - 1)
            if m[i][i] <= row:
                m[i][i] = row + (1 if (row + 1) % 2 == parity else 2)
        try:
            return validate_wen_matrix(m)
        except WenValidationError:
            continue


def u_order(K: WenMatrix) -> int:
    """Order of the coset of u = K^{-1}e in Pi: the number of distinct multiples of u."""
    u = u_class(K)
    return len({pi_scale(m, u) for m in range(K.delta)})


# ---------------------------------------------------------------------------
# Coset algebra in Fraction arithmetic: each coset c of Pi = K^{-1}Z^g / Z^g
# is a tuple of Fractions in [0, 1).  This is the direct reading of the
# formulas, kept as an oracle for the integer-numerator code of the package.


def pi_canonical(vec):
    """Reduce a rational vector to its representative in [0, 1)^g."""
    return tuple(Fraction(v) % 1 for v in vec)


def coset_index(grp: PiGroup, c) -> int:
    """The position of the coset of c in ``grp.elements``."""
    return grp.elements.index(pi_canonical(c))


def unimodular_inverse(mat):
    """Exact inverse of a matrix with determinant +-1."""
    m = sympy.Matrix(mat)
    d = m.det()
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det={d})")
    return tuple(tuple(int(d * x) for x in row) for row in m.adjugate().tolist())


def pi_add(x, y):
    return tuple((a + b) % 1 for a, b in zip(x, y))


def pi_scale(m: int, x):
    return tuple((m * a) % 1 for a in x)


def u_class(K: WenMatrix):
    """The coset of u = K^{-1}e in Pi (entries reduced to [0, 1))."""
    return pi_canonical(K.u)


def kinv_times(K: WenMatrix, vec):
    """Exact K^{-1} @ vec for an integer vector."""
    return tuple(
        Fraction(sum(K.adjugate[i][j] * vec[j] for j in range(K.g)), K.delta) for i in range(K.g)
    )


def fraction_exponent(a, b, K: WenMatrix) -> int:
    """delta a'K b mod delta in Fraction arithmetic, the formula's direct reading."""
    acc = sum(
        Fraction(a[i]) * K.entries[i][j] * Fraction(b[j]) for i in range(K.g) for j in range(K.g)
    )
    m = acc * K.delta
    assert m.denominator == 1
    return int(m) % K.delta


def upsilon_exponent(a, b, K: WenMatrix) -> int:
    """``pairing_exponents`` of one pair of rational vectors a, b in K^{-1}Z^g."""
    d, g = K.delta, K.g
    scaled = [divmod(x.numerator * d, x.denominator) for x in (*a, *b)]
    if any(r for _, r in scaled):
        raise ValueError("arguments do not lie in K^{-1}Z^g")
    A, B = [q for q, _ in scaled[:g]], [q for q, _ in scaled[g:]]
    return next(pairing_exponents(A, (B,), K))


def upsilon(a, b, K: WenMatrix) -> complex:
    """The pairing value exp(2 pi i a'K b) as a complex root of unity."""
    return root_of_unity(upsilon_exponent(a, b, K), K.delta)


def fraction_pi_group(K: WenMatrix):
    """(invariant factors, sorted cosets): Pi enumerated as frac(K^{-1} S^{-1} r) over the Smith box."""
    diag, s, _t = smith_normal_form(K.entries)
    s_inv = unimodular_inverse(s)
    elems = set()
    for r in itertools.product(*(range(d) for d in diag)):
        m = [sum(s_inv[i][j] * r[j] for j in range(K.g)) for i in range(K.g)]
        elems.add(pi_canonical(kinv_times(K, m)))
    assert len(elems) == K.delta
    return diag, tuple(sorted(elems))


def fraction_rep_matrices(K: WenMatrix):
    """(q exponent, T1 exponents, T2 permutation, basis) of the magnetic translations.

    The basis is the powers of u for a primary K and ``fraction_pi_group``'s
    order otherwise; T1 is upsilon(u, c) and T2 sends c to c + u.
    """
    u = u_class(K)
    if K.primary:
        basis = tuple(pi_scale(i, u) for i in range(K.delta))
    else:
        basis = fraction_pi_group(K)[1]
    index = {c: i for i, c in enumerate(basis)}
    t1 = tuple(fraction_exponent(u, c, K) for c in basis)
    t2 = tuple(index[pi_add(c, u)] for c in basis)
    return fraction_exponent(u, u, K), t1, t2, basis


# ---------------------------------------------------------------------------
# The theta series summed term by term over a whole box, with no term cut:
# the reference for the trimmed window of the kernel.


def untrimmed_theta_sum(omega: OmegaMatrix, a, halfwidth: int, b, z) -> np.ndarray:
    """Theta[a_j, b](z | Omega) for each characteristic a_j of a (d, g) array a, at reduced z.

    z is an (M, g) array whose heights Y^{-1} Im z lie in [-1/2, 1/2]^g.
    The box covers the term peaks -a_j - h of every such height h, widened
    by halfwidth, and every term exp(pi i ka' Omega ka + 2 pi i ka.(z + b))
    in it is summed.  Returns a (d, M) array.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    lo = np.floor(-a.max(axis=0) - 0.5) - halfwidth
    hi = np.ceil(-a.min(axis=0) + 0.5) + halfwidth
    axes = [range(int(bottom), int(top) + 1) for bottom, top in zip(lo, hi)]
    ks = np.array(list(itertools.product(*axes)))
    out = []
    for aj in a:
        ka = ks + aj[None, :]
        quad = np.einsum("ij,jk,ik->i", ka, omega.omega, ka)
        terms = 1j * np.pi * quad[:, None] + 2j * np.pi * (ka @ np.asarray(z).T)
        out.append(np.exp(terms + 2j * np.pi * (ka @ np.asarray(b))[:, None]).sum(axis=0))
    return np.stack(out)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)
