"""Error-bounded evaluation of theta functions with real characteristics.

One variable:

    theta[a,b](z | tau) = sum_{k in Z} exp(pi i tau (k+a)^2 + 2 pi i (k+a)(z+b))

g variables, for a symmetric Omega with positive-definite imaginary part:

    Theta[a,b](z | Omega) = sum_{k in Z^g} exp(pi i (k+a)' Omega (k+a)
                                               + 2 pi i (k+a)' (z+b))

Truncation strategy: term magnitudes are a Gaussian in k centred at
mu = -a - Im(Omega)^{-1} Im(z).  Summation runs over the axis-aligned
integer box of halfwidth r around mu, where r is the smallest integer
making the infinity-norm shell bound

    sum_{j >= r} 2 g (2j+1)^{g-1} exp(-pi lambda_min j^2)

fall below tol/4 (lambda_min the smallest eigenvalue of Im(Omega); the
extra factor 2 is the safety margin on the tol/2 budget).  The bound is
relative to the largest term, of modulus exp(pi y' Im(Omega)^{-1} y) with
y = Im(z); near a zero of Theta that is far above |Theta|.  Characteristics
are used exactly as given; nothing is reduced modulo 1.

The series is truncated and summed in one place.  `lattice_terms` builds
the window of a `TruncationPlan` around a range of peak centres and returns
the shifted lattice points k + a with their coefficients
exp(pi i (k+a)' Omega (k+a) + 2 pi i (k+a)' b); the private kernel
`_theta_sum` multiplies those coefficients by the phases exp(2 pi i (k+a)' z)
of a batch of points, one window shared by the whole batch and sized from
the range of Im(z) in it.  `riemann_theta_batch` is that kernel, and
`jacobi_theta_batch` is its g = 1 case with Omega = [[tau]].  The
center-of-mass Gram quadrature takes its window and coefficients from
`lattice_terms` as well and evaluates the phases on a product grid.  No tol
below MIN_TOL = 1e-14 is accepted: below it, rounding in double arithmetic
alone can exceed the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class NonconvergentModulusError(ValueError):
    """Im(tau) <= 0: the theta series does not converge."""


class AsymmetricOmegaError(ValueError):
    pass


class ImagNotPositiveDefiniteError(ValueError):
    pass


class ToleranceTooSmallError(ValueError):
    """tol below MIN_TOL: rounding in double arithmetic alone can exceed it."""


MIN_TOL = 1e-14
_CHUNK = 1 << 21  # max term-matrix entries per chunk


@dataclass(frozen=True)
class TorusParams:
    """Modulus tau = s + i t of the torus, with t > 0."""

    tau: complex

    def __post_init__(self) -> None:
        if not (self.tau.imag > 0):
            raise NonconvergentModulusError(f"Im(tau) = {self.tau.imag} must be positive")

    @property
    def t(self) -> float:
        return self.tau.imag

    @property
    def s(self) -> float:
        return self.tau.real


@dataclass(frozen=True)
class ThetaCharacteristics:
    """Real characteristic vectors (a, b); kept exactly as given."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have equal length")
        if not all(math.isfinite(x) for x in self.a + self.b):
            raise ValueError("characteristics must be finite")

    @property
    def g(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class OmegaMatrix:
    """Symmetric period matrix with positive-definite imaginary part.

    Stores the lower Cholesky factor of Im(Omega) and its smallest
    eigenvalue, which drive the truncation bound.
    """

    omega: np.ndarray
    imag_cholesky: np.ndarray = field(compare=False)
    lambda_min: float = field(compare=False)

    @classmethod
    def create(cls, omega: Sequence[Sequence[complex]]) -> "OmegaMatrix":
        om = np.asarray(omega, dtype=complex)
        if om.ndim != 2 or om.shape[0] != om.shape[1]:
            raise ValueError("Omega must be a square matrix")
        scale = max(1.0, float(np.max(np.abs(om))))
        if float(np.max(np.abs(om - om.T))) > 1e-14 * scale:
            raise AsymmetricOmegaError("Omega is not symmetric")
        om = (om + om.T) / 2
        y = om.imag
        try:
            chol = np.linalg.cholesky(y)
        except np.linalg.LinAlgError as exc:
            raise ImagNotPositiveDefiniteError(
                "Im(Omega) is not positive definite"
            ) from exc
        lam = float(np.min(np.linalg.eigvalsh(y)))
        om.setflags(write=False)
        chol.setflags(write=False)
        return cls(omega=om, imag_cholesky=chol, lambda_min=lam)

    @property
    def g(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class TruncationPlan:
    """Integer window that keeps the discarded theta tail below tol/2."""

    halfwidth: int
    radius: float  # ellipsoid radius in the Im(Omega) metric
    lambda_min: float
    g: int
    a: tuple[float, ...]
    tol: float


def _tail_halfwidth(lambda_min: float, g: int, tol: float) -> int:
    """Smallest integer r whose infinity-norm shell tail is below tol/4."""
    if lambda_min <= 0:
        raise ImagNotPositiveDefiniteError("need a positive smallest eigenvalue")
    target = tol / 4.0
    # for r^2 below r2 the first tail term alone, 2 g exp(-pi lambda_min r^2), exceeds target
    r2 = math.log(2 * g / target) / (math.pi * lambda_min)
    r = max(1, math.floor(math.sqrt(max(r2, 0.0))))
    while r < 100000:
        j = np.arange(r, r + 256, dtype=float)
        tail = float(np.sum(2 * g * (2 * j + 1) ** (g - 1) * np.exp(-np.pi * lambda_min * j * j)))
        if tail < target:
            return r
        r += 1
    raise RuntimeError("truncation search did not converge")


def truncation_plan(omega: OmegaMatrix, a: Sequence[float], tol: float) -> TruncationPlan:
    """Shared summation window for Theta[a, .](. | Omega) at tolerance tol."""
    if tol < MIN_TOL:
        raise ToleranceTooSmallError(f"tol = {tol:g} is below the minimum {MIN_TOL:g}")
    g = omega.g
    r = _tail_halfwidth(omega.lambda_min, g, tol)
    return TruncationPlan(
        halfwidth=r + 1,
        radius=float(r * math.sqrt(omega.lambda_min)),
        lambda_min=omega.lambda_min,
        g=g,
        a=tuple(float(x) for x in a),
        tol=tol,
    )


def lattice_terms(
    omega: OmegaMatrix,
    plan: TruncationPlan,
    b,
    center_lo: Sequence[float],
    center_hi: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Shifted lattice points k + a of the plan's window, with coefficients.

    The window is the integer box covering term peaks in [center_lo,
    center_hi], widened by the plan's halfwidth; a is the plan's
    characteristic.  Returns ka, an (N, g) array of the points k + a in
    row-major box order, and coeff, exp(pi i ka' Omega ka + 2 pi i ka . b)
    for each of them; b may be complex.
    """
    hw = plan.halfwidth
    axes = [
        np.arange(math.floor(lo) - hw, math.ceil(hi) + hw + 1, dtype=float)
        for lo, hi in zip(center_lo, center_hi)
    ]
    ks = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, plan.g)
    ka = ks + np.asarray(plan.a)[None, :]
    quad = np.einsum("ij,jk,ik->i", ka, omega.omega, ka)
    coeff = np.exp(1j * np.pi * quad + 2j * np.pi * (ka @ np.asarray(b)))
    return ka, coeff


def _theta_sum(omega: OmegaMatrix, plan: TruncationPlan, b, z: np.ndarray) -> np.ndarray:
    """Theta[plan.a, b](z | Omega) at an (M, g) array z, one window for all points."""
    out = np.empty(z.shape[0], dtype=complex)
    if not out.size:
        return out
    centers = -np.asarray(plan.a)[None, :] - np.linalg.solve(omega.omega.imag, z.imag.T).T
    ka, coeff = lattice_terms(omega, plan, b, centers.min(axis=0), centers.max(axis=0))
    step = max(1, _CHUNK // ka.shape[0])
    for s in range(0, z.shape[0], step):
        out[s : s + step] = np.exp(2j * np.pi * (z[s : s + step] @ ka.T)) @ coeff
    return out


# ---------------------------------------------------------------------------
# one-variable series: the g = 1 case with Omega = [[tau]]


def jacobi_theta_batch(
    a: float, b: float, z, tau: TorusParams | complex, tol: float = 1e-12
) -> np.ndarray:
    """theta[a,b] at an array of points z, one shared summation window."""
    tp = tau if isinstance(tau, TorusParams) else TorusParams(complex(tau))
    zz = np.asarray(z, dtype=complex)
    # TorusParams has checked Im tau > 0, so the 1 x 1 factors are direct
    omega = OmegaMatrix(np.array([[tp.tau]]), np.array([[math.sqrt(tp.t)]]), tp.t)
    plan = truncation_plan(omega, (a,), tol)
    return _theta_sum(omega, plan, np.array([float(b)]), zz.reshape(-1, 1)).reshape(zz.shape)


def jacobi_theta(
    a: float, b: float, z: complex, tau: TorusParams | complex, tol: float = 1e-12
) -> complex:
    """theta[a,b](z | tau) with truncation error below tol."""
    return complex(jacobi_theta_batch(a, b, np.asarray([z]), tau, tol)[0])


def theta_odd(z: complex, tau: TorusParams | complex, tol: float = 1e-12) -> complex:
    """The odd theta function theta[1/2,1/2](z | tau); vanishes at z = 0."""
    return jacobi_theta(0.5, 0.5, z, tau, tol)


def theta_odd_batch(z, tau: TorusParams | complex, tol: float = 1e-12) -> np.ndarray:
    return jacobi_theta_batch(0.5, 0.5, z, tau, tol)


# ---------------------------------------------------------------------------
# g-variable series


def riemann_theta_batch(
    chars: ThetaCharacteristics,
    z,
    omega: OmegaMatrix,
    tol: float = 1e-12,
    plan: TruncationPlan | None = None,
) -> np.ndarray:
    """Theta[a,b] at an (M, g) array of points, one shared window."""
    zz = np.atleast_2d(np.asarray(z, dtype=complex))
    if zz.shape[1] != omega.g or chars.g != omega.g:
        raise ValueError("dimension mismatch between z, Omega, characteristics")
    if plan is None:
        plan = truncation_plan(omega, chars.a, tol)
    elif plan.a != tuple(float(x) for x in chars.a):
        raise ValueError("the truncation plan was made for other characteristics")
    return _theta_sum(omega, plan, np.asarray(chars.b, dtype=float), zz)


def riemann_theta(
    chars: ThetaCharacteristics,
    z,
    omega: OmegaMatrix,
    tol: float = 1e-12,
) -> complex:
    """Theta[a,b](z | Omega) with truncation error below tol."""
    return complex(riemann_theta_batch(chars, z, omega, tol)[0])
