"""Exact invariants of the magnetic bundle and its restriction to a curve.

All results are exact integers or rationals derived from the coupling
matrix: the first Chern coefficient matrix is the adjugate (in units of
-i/(2t) dxi_p wedge dxi_q-bar, the scalar prefactor kept symbolic), the
total Chern class of the rank-delta semi-homogeneous bundle expands as
(1 + c1/delta)^delta, and the restriction to the diagonal curve has rank
delta, degree -rho, slope -rho/delta, and is stable exactly when
gcd(delta, rho) = 1.

The dual of the lattice Z^g + tau K Z^g under the pairing
(l, v) -> Im(sum_j l_j conj(v_j)) is (1/t)(K^{-1}Z^g + tau Z^g); the
generator matrices and the integrality of all pairings are exposed for
verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .theta import TorusParams
from .wen import IntMatrix, WenMatrix


@dataclass(frozen=True)
class BundleInvariants:
    """Rank, degree, slope, stability, and Chern data, all exact."""

    rank: int
    degree: int
    slope: Fraction
    slope_display: str  # unreduced "-rho/delta" as conventionally quoted
    stable: bool
    c1_coeff: IntMatrix
    total_chern: tuple[Fraction, ...]
    jain_params: tuple[int, int] | None  # (p, g) when K has that shape


def chern1_matrix(K: WenMatrix) -> IntMatrix:
    """Coefficients of the first Chern form: the adjugate of K.

    Units: the common prefactor -i/(2t) on dxi_p wedge conj(dxi_q) is kept
    symbolic; only the integer coefficient matrix is returned.
    """
    return K.adjugate


def total_chern(K: WenMatrix) -> tuple[Fraction, ...]:
    """Coefficients of c1^i, i = 0..min(g, delta), in (1 + c1/delta)^delta."""
    top = min(K.g, K.delta)
    return tuple(Fraction(comb(K.delta, i), K.delta**i) for i in range(top + 1))


def detect_jain(K: WenMatrix) -> tuple[int, int] | None:
    """(p, g) when K has p+1 on the diagonal and p > 0 elsewhere."""
    g = K.g
    if g == 1:
        p = K.entries[0][0] - 1
        return (p, 1) if p >= 1 else None
    offs = {K.entries[i][j] for i in range(g) for j in range(g) if i != j}
    diags = {K.entries[i][i] for i in range(g)}
    if len(offs) == 1 and len(diags) == 1:
        p = next(iter(offs))
        if p >= 1 and next(iter(diags)) == p + 1:
            return (p, g)
    return None


def restricted_invariants(K: WenMatrix) -> BundleInvariants:
    """Invariants of the restriction to the diagonally embedded curve."""
    return BundleInvariants(
        rank=K.delta,
        degree=-K.rho,
        slope=Fraction(-K.rho, K.delta),
        slope_display=f"-{K.rho}/{K.delta}",
        stable=K.primary,
        c1_coeff=chern1_matrix(K),
        total_chern=total_chern(K),
        jain_params=detect_jain(K),
    )


def jain_fraction(p: int, g: int) -> Fraction:
    """Absolute slope g/(g p + 1) of the standard family."""
    return Fraction(g, g * p + 1)


def primal_lattice_generators(K: WenMatrix, tau: TorusParams | complex) -> np.ndarray:
    """Rows: the 2g generators e_j and tau K e_j of Z^g + tau K Z^g."""
    tp = tau if isinstance(tau, TorusParams) else TorusParams(complex(tau))
    eye = np.eye(K.g, dtype=complex)
    kmat = np.array(K.entries, dtype=float)
    return np.vstack([eye, tp.tau * kmat.T @ eye])


def dual_lattice_generators(K: WenMatrix, tau: TorusParams | complex) -> np.ndarray:
    """Rows: the 2g generators (1/t) K^{-1} e_j and (tau/t) e_j of the dual.

    Each entry of K^{-1} e_j is an adjugate entry over delta, rounded once,
    before the single division by t.
    """
    tp = tau if isinstance(tau, TorusParams) else TorusParams(complex(tau))
    first = np.array(K.adjugate, dtype=float).T / K.delta
    second = tp.tau * np.eye(K.g, dtype=complex)
    return np.vstack([first, second]) / tp.t


def dual_pairing_matrix(K: WenMatrix, tau: TorusParams | complex) -> np.ndarray:
    """Im(sum_j l_j conj(gamma_j)) for every dual/primal generator pair."""
    duals = dual_lattice_generators(K, tau)
    primals = primal_lattice_generators(K, tau)
    return np.imag(duals @ primals.conj().T)


def max_pairing_offset(K: WenMatrix, tau: TorusParams | complex) -> float:
    """Largest distance of any generator pairing from the nearest integer."""
    pairings = dual_pairing_matrix(K, tau)
    return float(np.max(np.abs(pairings - np.rint(pairings))))
