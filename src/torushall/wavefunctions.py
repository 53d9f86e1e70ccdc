"""Many-body torus wave functions and their magnetic-translation action.

Building blocks, for a datum (K, n) with K n = d e on the torus of modulus
tau and boundary parameter xi:

* center-of-mass basis H_c(w) = Theta[c, 0](K w + xi | tau K); for one
  layer, K = [[k]] and c = (j-1)/k, it is the one-particle basis
  theta[(j-1)/k, 0](k w + xi | k tau),
* coincidence factor   D = prod_k prod_{p<q} v(z_p^k - z_q^k)^{K_kk}
                         * prod_{k<l} prod_{p,q} v(z_p^k - z_q^l)^{K_kl},
  with v the odd theta function, vanishing on every coupled diagonal,
* the many-body wave function Phi_c = H_c(w) * D, labelled by cosets c;
  ``phi_values`` evaluates it for many cosets and configurations at once.

Shifting any single coordinate by 1 multiplies Phi_c by the sector sign
(+1 or -1 depending on d and the diagonal parity of K); shifting by tau
multiplies by the same sign times exp(-2 pi i xi_k) phi(z)^d with
phi(z) = exp(-pi i tau - 2 pi i z).

The magnetic translations move every coordinate by 1/d (T1) or tau/d (T2);
on the Phi basis T1 acts diagonally with eigenvalue upsilon(u, c) and T2
permutes c -> c + u.  All four laws are measured by ``covariance_residual``.

A configuration is an (n,) complex array and a batch of them an (M, n)
array, each row in layer order: the n_1 coordinates of layer 1 first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .heisenberg import root_of_unity, translation_action
from .theta import OmegaMatrix, TorusParams, _theta_sum, theta_odd_batch
from .wen import PiElement, WenDatum, pi_group


class ShapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class WaveFunctionSpec:
    """Datum, boundary parameter xi, and modulus bundled for evaluation."""

    datum: WenDatum
    xi: tuple[complex, ...]
    torus: TorusParams

    def __post_init__(self) -> None:
        if len(self.xi) != self.datum.matrix.g:
            raise ShapeMismatchError("xi must have one entry per layer")

    @property
    def g(self) -> int:
        return self.datum.matrix.g

    def omega(self) -> OmegaMatrix:
        """Omega = tau K of the center basis, built once per spec."""
        return self._omega

    @functools.cached_property
    def _omega(self) -> OmegaMatrix:
        K = np.array(self.datum.matrix.entries, dtype=float)
        return OmegaMatrix.create(self.torus.tau * K)

    def sector_sign(self) -> int:
        """Sign picked up when one coordinate moves by a lattice vector.

        Equals epsilon(K) * (-1)^d: each coordinate sits in d - K_kk odd
        theta factors, and the diagonal entries all share one parity.
        """
        return self.datum.matrix.epsilon * (-1) ** self.datum.d


def center_basis_batch(
    spec: WaveFunctionSpec, c: PiElement, w, tol: float = 1e-12
) -> np.ndarray:
    """H_c at an (M, g) array of center points."""
    return center_basis_values(spec, (c,), w, tol)[0]


def center_basis_values(
    spec: WaveFunctionSpec, cs: Sequence[PiElement], w, tol: float = 1e-12
) -> np.ndarray:
    """Every H_c, c in cs, at an (M, g) array of center points, in one lattice sum."""
    ww = np.asarray(w, dtype=complex)
    K = np.array(spec.datum.matrix.entries, dtype=float)
    arg = ww @ K.T + np.asarray(spec.xi, dtype=complex)[None, :]
    return _theta_sum(spec.omega(), cs, arg, tol)


def jastrow_batch(
    datum: WenDatum,
    tau: TorusParams | complex,
    layers: Sequence[np.ndarray],
    tol: float = 1e-12,
) -> np.ndarray:
    """D at a batch of configurations, one (M, n_k) array per layer.

    Every coupled pair difference goes into one odd-theta evaluation.
    """
    z = np.concatenate(layers, axis=1)
    owner = np.repeat(np.arange(datum.matrix.g), [layer.shape[1] for layer in layers])
    p, q = np.triu_indices(z.shape[1], 1)
    power = np.array(datum.matrix.entries)[owner[p], owner[q]]
    p, q, power = p[power != 0], q[power != 0], power[power != 0]
    return np.prod(theta_odd_batch(z[:, p] - z[:, q], tau, tol) ** power, axis=1)


def phi_values(
    spec: WaveFunctionSpec, cosets: Sequence[PiElement], z, tol: float = 1e-12
) -> np.ndarray:
    """Every Phi_c = H_c(w) * D, c in cosets, at an (M, n) array z in layer order.

    Returns a (len(cosets), M) array from one lattice sum for the centers
    and one odd-theta call for the coupled pairs.
    """
    z = np.asarray(z, dtype=complex)
    layers = np.split(z, np.cumsum(spec.datum.n_vec)[:-1], axis=1)
    w = np.stack([layer.sum(axis=1) for layer in layers], axis=-1)
    return center_basis_values(spec, cosets, w, tol) * jastrow_batch(
        spec.datum, spec.torus, layers, tol
    )


def kvw_wavefunction(spec: WaveFunctionSpec, c: PiElement, config, tol: float = 1e-12) -> complex:
    """Phi_c = H_c(w) * D at one configuration, an (n,) array in layer order."""
    z = np.asarray(config, dtype=complex)
    if z.shape != (spec.datum.n,):
        raise ShapeMismatchError(f"configuration shape {z.shape} is not ({spec.datum.n},)")
    return complex(phi_values(spec, (c,), z[None, :], tol)[0, 0])


def covariance_residual(base, moved, factor=1.0, action=None, delta: int = 1) -> np.ndarray:
    """Defect of the covariance law  moved = factor * (A base), elementwise.

    base holds Phi at z, and moved the transformed function at the same
    configurations.  The action A = (exponents, permutation), in the form
    ``translation_action`` returns them, sends row i of base to
    exp(2 pi i e_i / delta) base[s_i]; None is the identity.  The defect is
    |lhs - rhs| / max(1, |lhs|, |rhs|), so a NaN value gives a NaN defect.
    """
    if action is not None:
        exponents, perm = action
        base = np.array([root_of_unity(e, delta) for e in exponents])[:, None] * base[list(perm)]
    want = factor * base
    return np.abs(moved - want) / np.maximum(1.0, np.maximum(np.abs(moved), np.abs(want)))


def magnetic_residuals(spec: WaveFunctionSpec, z, tol: float = 1e-12) -> tuple[np.ndarray, ...]:
    """Defects of T1 Phi_c = upsilon(u, c) Phi_c and T2 Phi_c = Phi_{c + u} at an (M, n) array z.

    (T Phi)(z) = factor * Phi(z + step).  T1 steps every coordinate by 1/d
    with factor 1.  T2 steps by tau/d, and its factor is the product of the
    one-particle prefactors exp((2 pi i xi_k + pi i tau)/d) exp(2 pi i z),
    which collapses to exp(2 pi i (u, xi) + pi i tau n/d) exp(2 pi i sum z).
    Returns the T1 and T2 (delta, M) arrays of ``covariance_residual`` over
    the cosets c of ``pi_group``.
    """
    z = np.asarray(z, dtype=complex)
    K, d, tau = spec.datum.matrix, spec.datum.d, spec.torus.tau
    grp = pi_group(K)
    t1, t2 = translation_action(K, grp.numerators)
    nvec = np.asarray(spec.datum.n_vec, dtype=float)
    xi = np.asarray(spec.xi, dtype=complex)
    t2_factor = np.exp(
        (2j * np.pi * (nvec @ xi) + 1j * np.pi * tau * spec.datum.n) / d
        + 2j * np.pi * z.sum(axis=1)
    )
    base = phi_values(spec, grp.elements, z, tol)
    rows = ((1.0 / d, 1.0, (t1, range(K.delta))), (tau / d, t2_factor, ((0,) * K.delta, t2)))
    out = []
    for step, factor, action in rows:
        moved = factor * phi_values(spec, grp.elements, z + step, tol)
        out.append(covariance_residual(base, moved, action=action, delta=K.delta))
    return tuple(out)


def magnetic_action_residual(
    spec: WaveFunctionSpec, c: PiElement, which: str, configs, tol: float = 1e-12
) -> float:
    """Largest ``magnetic_residuals`` defect of coset c under T1 or T2 over (M, n) configs.

    c is found by its numerator delta c mod delta; a c outside K^{-1}Z^g
    raises ``ValueError``.
    """
    K = spec.datum.matrix
    nums = pi_group(K).numerators
    scaled = [Fraction(x) * K.delta for x in c]
    key = tuple(int(x) % K.delta for x in scaled)
    if any(x.denominator != 1 for x in scaled) or key not in nums:
        raise ValueError(f"c = {tuple(str(x) for x in c)} does not lie in K^-1 Z^g")
    residuals = magnetic_residuals(spec, configs, tol)
    return float(np.max(residuals[("t1", "t2").index(which)][nums.index(key)]))


def random_configuration(spec: WaveFunctionSpec, rng: np.random.Generator) -> np.ndarray:
    """An (n,) configuration uniform on the unit cell: z = x + tau y; each layer draws x, then y."""
    return np.concatenate(
        [rng.random(nk) + spec.torus.tau * rng.random(nk) for nk in spec.datum.n_vec]
    )
