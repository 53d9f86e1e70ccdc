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
permutes c -> c + u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .heisenberg import upsilon
from .theta import OmegaMatrix, TorusParams, _theta_sum, theta_odd_batch, truncation_plan
from .wen import PiElement, WenDatum, pi_add, pi_group


class ShapeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Configuration:
    """Particle coordinates grouped by layer; sizes must match the datum."""

    layers: tuple[tuple[complex, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)


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
    omega = spec.omega()
    plan = truncation_plan(omega, cs, tol)
    return _theta_sum(omega, plan, np.zeros(spec.g), arg).T


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


def configuration_array(configs: Sequence[Configuration]) -> np.ndarray:
    """The (M, n) coordinates of M configurations, each row in layer order."""
    return np.array([sum(config.layers, ()) for config in configs], dtype=complex)


def kvw_wavefunction(
    spec: WaveFunctionSpec, c: PiElement, config: Configuration, tol: float = 1e-12
) -> complex:
    """Phi_c = H_c(w) * D at one configuration."""
    if config.sizes != spec.datum.n_vec:
        raise ShapeMismatchError(
            f"configuration sizes {config.sizes} do not match n = {spec.datum.n_vec}"
        )
    return complex(phi_values(spec, (c,), configuration_array([config]), tol)[0, 0])


def lattice_shift_factor(spec: WaveFunctionSpec, k, z, direction: str):
    """Predicted multiplier of Phi_c when z_p^(k) moves by 1 or by tau; k and z may be arrays."""
    eps = spec.sector_sign()
    if direction == "1":
        return complex(eps)
    if direction == "tau":
        phi = np.exp(-1j * np.pi * spec.torus.tau - 2j * np.pi * z)
        xi = np.asarray(spec.xi, dtype=complex)[k]
        return eps * np.exp(-2j * np.pi * xi) * phi**spec.datum.d
    raise ValueError("direction must be '1' or 'tau'")


def magnetic_translation(spec: WaveFunctionSpec, which: str, z) -> tuple[np.ndarray, np.ndarray]:
    """T1 or T2 at an (M, n) array z: (T Phi)(z) = factor * Phi(moved).

    Returns (moved, factor).  T1 shifts every coordinate by 1/d with factor
    1.  T2 shifts every coordinate by tau/d, and its factor is the product of
    the one-particle prefactors exp((2 pi i xi_k + pi i tau)/d) exp(2 pi i z),
    which collapses to exp(2 pi i (u, xi) + pi i tau n/d) exp(2 pi i sum z).
    """
    z = np.asarray(z, dtype=complex)
    d = spec.datum.d
    if which == "t1":
        return z + 1.0 / d, np.ones(z.shape[0])
    if which == "t2":
        nvec = np.asarray(spec.datum.n_vec, dtype=float)
        xi = np.asarray(spec.xi, dtype=complex)
        factor = np.exp(
            (2j * np.pi * (nvec @ xi) + 1j * np.pi * spec.torus.tau * spec.datum.n) / d
            + 2j * np.pi * z.sum(axis=1)
        )
        return z + spec.torus.tau / d, factor
    raise ValueError("which must be 't1' or 't2'")


def magnetic_residuals(spec: WaveFunctionSpec, z, tol: float = 1e-12) -> tuple[np.ndarray, ...]:
    """Defects of T1 Phi_c = upsilon(u, c) Phi_c and T2 Phi_c = Phi_{c + u} at an (M, n) array z.

    Returns the T1 and T2 (delta, M) arrays of |lhs - rhs| / max(1, |lhs|, |rhs|)
    over the cosets c of ``pi_group``; a NaN value gives a NaN residual.
    """
    K = spec.datum.matrix
    u = K.u_class()
    grp = pi_group(K)
    base = phi_values(spec, grp.elements, z, tol)
    rhs = (
        np.array([upsilon(u, c, K) for c in grp.elements])[:, None] * base,
        base[[grp.index_of(pi_add(c, u)) for c in grp.elements]],
    )
    out = []
    for which, want in zip(("t1", "t2"), rhs):
        moved, factor = magnetic_translation(spec, which, z)
        got = factor * phi_values(spec, grp.elements, moved, tol)
        out.append(np.abs(got - want) / np.maximum(1.0, np.maximum(np.abs(got), np.abs(want))))
    return tuple(out)


def magnetic_action_residual(
    spec: WaveFunctionSpec,
    c: PiElement,
    which: str,
    configs: Sequence[Configuration],
    tol: float = 1e-12,
) -> float:
    """Largest ``magnetic_residuals`` defect of coset c under T1 or T2 over configs."""
    residuals = magnetic_residuals(spec, configuration_array(configs), tol)
    slot = pi_group(spec.datum.matrix).index_of(c)
    return float(np.max(residuals[("t1", "t2").index(which)][slot]))


def random_configuration(spec: WaveFunctionSpec, rng: np.random.Generator) -> Configuration:
    """A configuration drawn uniformly from the unit cell: z = x + tau y, x and y in [0, 1)."""
    layers = []
    for nk in spec.datum.n_vec:
        pts = rng.random(nk) + spec.torus.tau * rng.random(nk)
        layers.append(tuple(complex(z) for z in pts))
    return Configuration(tuple(layers))
