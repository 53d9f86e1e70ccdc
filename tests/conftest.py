import numpy as np
import pytest

from torushall.wen import WenMatrix, WenValidationError, pi_scale, validate_wen_matrix


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
    u = K.u_class()
    return len({pi_scale(m, u) for m in range(K.delta)})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)
