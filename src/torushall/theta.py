"""Error-bounded evaluation of theta functions with real characteristics.

One variable:

    theta[a,b](z | tau) = sum_{k in Z} exp(pi i tau (k+a)^2 + 2 pi i (k+a)(z+b))

g variables, for a symmetric Omega with positive-definite imaginary part:

    Theta[a,b](z | Omega) = sum_{k in Z^g} exp(pi i (k+a)' Omega (k+a)
                                               + 2 pi i (k+a)' (z+b))

Lattice reduction (Deconinck, Heil, Bobenko, van Hoeij and Schmies, Math.
Comp. 73, 2004): with Y = Im(Omega), m = rint(Y^{-1} Im z), z' = z - Omega m,

    Theta[a,b](z | Omega) = exp(-pi i m' (z + z' + 2b)) Theta[a,b](z' | Omega).

The factor does not depend on a and carries the size of the value, about
exp(pi y' Y^{-1} y) with y = Im z, so it overflows only where the value
does.  The reduced heights Y^{-1} Im z' lie in [-1/2, 1/2]^g, where the
terms neither overflow nor underflow against each other.

Truncation: the reduced terms are a Gaussian in k centred at
mu = -a - Y^{-1} Im z'.  Summation runs over the integer box of halfwidth r
around the range of mu over all reduced heights in [-1/2, 1/2]^g, so that a
value does not depend on the other points of its batch; r is the smallest
integer making the shell bound
sum_{j >= r} 2 g (2j+1)^{g-1} exp(-pi lambda_min j^2) fall below tol/4
(lambda_min the smallest eigenvalue of Y; the factor 2 is the safety margin
on the tol/2 budget).  The bound is relative to the largest term, of
modulus exp(pi y' Y^{-1} y); near a zero of Theta that is far above |Theta|.
Characteristics are used exactly as given, not reduced modulo 1.

The series is truncated and summed in one place.  `lattice_terms` builds
the box of a `TruncationPlan` with the coefficients
exp(pi i (k+a)' Omega (k+a) + 2 pi i (k+a)' b) of each of the plan's
characteristics a.  The kernel `_theta_sum` evaluates all of them at once:
Theta[a,b](z') = exp(2 pi i a' z') sum_k coeff_a(k) exp(2 pi i k' z'), and
the phases exp(2 pi i k' z') are shared.  Per axis they cost two `exp` per
point; the other powers are repeated products, combined on the box as a
product grid.  One (points x terms) @ (terms x characteristics) product
then sums every characteristic; chunks of points keep the phase matrix
near 2^16 entries.  `riemann_theta_batch` is the kernel for one
characteristic, `jacobi_theta_batch` its g = 1 case with Omega = [[tau]].
The center-of-mass Gram takes its box from `lattice_terms` too.  No tol
below MIN_TOL = 1e-14 is accepted: below it, rounding in double arithmetic
alone can exceed the bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class NonconvergentModulusError(ValueError):
    """Im(tau) <= 0 or tau not finite: the theta series does not converge."""


class AsymmetricOmegaError(ValueError):
    pass


class ImagNotPositiveDefiniteError(ValueError):
    pass


class ToleranceTooSmallError(ValueError):
    """tol below MIN_TOL, where rounding in double arithmetic alone can exceed it, or not finite."""


MIN_TOL = 1e-14
_CHUNK = 1 << 16  # phase-matrix entries per chunk of points


@dataclass(frozen=True)
class TorusParams:
    """Modulus tau = s + i t of the torus, with t > 0."""

    tau: complex

    def __post_init__(self) -> None:
        if not (self.tau.imag > 0 and cmath.isfinite(self.tau)):
            raise NonconvergentModulusError(f"tau = {self.tau} must be finite with Im(tau) > 0")

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

    Stores the smallest eigenvalue of Im(Omega), which drives the
    truncation bound.
    """

    omega: np.ndarray
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
        lam = float(np.min(np.linalg.eigvalsh(om.imag)))
        if not lam > 0:
            raise ImagNotPositiveDefiniteError("Im(Omega) is not positive definite")
        om.setflags(write=False)
        return cls(omega=om, lambda_min=lam)

    @property
    def g(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class TruncationPlan:
    """Integer window that keeps the discarded theta tail below tol/2 for each of ``a``."""

    halfwidth: int
    g: int
    a: tuple[tuple[float, ...], ...]


def _tail_halfwidth(lambda_min: float, g: int, tol: float) -> int:
    """Smallest integer r whose infinity-norm shell tail is below tol/4."""
    if lambda_min <= 0:
        raise ImagNotPositiveDefiniteError("need a positive smallest eigenvalue")
    target = tol / 4.0
    # for r^2 below r2 the first tail term alone, 2 g exp(-pi lambda_min r^2), exceeds target
    r2 = math.log(2 * g / target) / (math.pi * lambda_min)
    r = max(1, math.floor(math.sqrt(max(r2, 0.0))))
    while r < 100000:
        # the shells j = r .. r + 255; the terms are log-concave in j, so a term
        # below 1e-17 of the partial sum is past the peak and the rest cannot show
        tail = 0.0
        for j in range(r, r + 256):
            term = 2 * g * (2 * j + 1) ** (g - 1) * math.exp(-math.pi * lambda_min * j * j)
            tail += term
            if tail >= target or term < 1e-17 * tail:
                break
        if tail < target:
            return r
        r += 1
    raise RuntimeError("truncation search did not converge")


def truncation_plan(omega: OmegaMatrix, a, tol: float) -> TruncationPlan:
    """Shared window for Theta[a, .](. | Omega) at tol; a: one characteristic or (d, g)."""
    if not MIN_TOL <= tol < math.inf:
        raise ToleranceTooSmallError(f"tol = {tol:g} must be finite and at least {MIN_TOL:g}")
    g = omega.g
    chars = np.atleast_2d(np.asarray(a, dtype=float))
    if chars.shape[1] != g:
        raise ValueError(f"characteristics must have g = {g} entries each")
    return TruncationPlan(
        halfwidth=_tail_halfwidth(omega.lambda_min, g, tol) + 1,
        g=g,
        a=tuple(tuple(float(x) for x in row) for row in chars),
    )


def lattice_terms(
    omega: OmegaMatrix,
    plan: TruncationPlan,
    b,
    center_lo: Sequence[float],
    center_hi: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Integer points of the plan's window, with coefficients per characteristic.

    The window is the integer box covering term peaks in [center_lo,
    center_hi], widened by the plan's halfwidth.  Returns ks, its (N, g)
    integer points in row-major order (ks[0] and ks[-1] are the corners),
    and coeff, (N, d) with column j exp(pi i ka' Omega ka + 2 pi i ka . b)
    at ka = k + a_j for the plan's characteristics a_j; b may be complex.
    """
    hw = plan.halfwidth
    axes = [
        np.arange(math.floor(lo) - hw, math.ceil(hi) + hw + 1, dtype=float)
        for lo, hi in zip(center_lo, center_hi)
    ]
    ks = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, plan.g)
    coeff = np.empty((ks.shape[0], len(plan.a)), dtype=complex)
    for j, a in enumerate(plan.a):
        ka = ks + np.asarray(a)[None, :]
        quad = np.einsum("ij,jk,ik->i", ka, omega.omega, ka)
        coeff[:, j] = np.exp(1j * np.pi * quad + 2j * np.pi * (ka @ np.asarray(b)))
    return ks, coeff


def _axis_powers(z: np.ndarray, lo: float, count: int) -> np.ndarray:
    """exp(2 pi i k z), k = lo .. lo + count - 1, as products outward from the middle power."""
    mid = count // 2
    u = np.exp(2j * np.pi * z)
    out = np.empty((z.shape[0], count), dtype=complex)
    out[:, mid + 1 :] = u[:, None]
    out[:, :mid] = (1 / u)[:, None]
    out[:, mid] = np.exp(2j * np.pi * (lo + mid) * z)
    np.multiply.accumulate(out[:, mid:], axis=1, out=out[:, mid:])
    np.multiply.accumulate(out[:, mid::-1], axis=1, out=out[:, mid::-1])
    return out


def _theta_sum(omega: OmegaMatrix, plan: TruncationPlan, b, z: np.ndarray) -> np.ndarray:
    """Theta[a, b](z | Omega) for every characteristic a of the plan.

    z is an (M, g) array and b a real g-vector; returns an (M, d) array.
    """
    a = np.asarray(plan.a)
    out = np.empty((z.shape[0], a.shape[0]), dtype=complex)
    if not out.size:
        return out
    heights = np.linalg.solve(omega.omega.imag, z.imag.T).T
    m = np.rint(heights)
    zr = z - m @ omega.omega
    factor = np.exp(-1j * np.pi * np.sum(m * (z + zr + 2 * b), axis=1))
    # term peaks -a - reduced for every reduced height in [-1/2, 1/2]^g, so that
    # the window, and with it each value, does not depend on the other points
    peaks = (-a.max(0) - 0.5, -a.min(0) + 0.5)
    ks, coeff = lattice_terms(omega, plan, b, *peaks)
    lo, counts = ks[0], (ks[-1] - ks[0] + 1).astype(int)
    step = max(1, _CHUNK // ks.shape[0])
    for s in range(0, z.shape[0], step):
        zc = zr[s : s + step]
        phases = _axis_powers(zc[:, 0], lo[0], counts[0])
        for i in range(1, plan.g):
            axis = _axis_powers(zc[:, i], lo[i], counts[i])
            phases = (phases[:, :, None] * axis[:, None, :]).reshape(zc.shape[0], -1)
        out[s : s + step] = (phases @ coeff) * np.exp(2j * np.pi * (zc @ a.T))
    out *= factor[:, None]
    return out


# ---------------------------------------------------------------------------
# one-variable series: the g = 1 case with Omega = [[tau]]


def jacobi_theta_batch(
    a: float, b: float, z, tau: TorusParams | complex, tol: float = 1e-12
) -> np.ndarray:
    """theta[a,b] at an array of points z, one shared summation window."""
    tp = tau if isinstance(tau, TorusParams) else TorusParams(complex(tau))
    zz = np.asarray(z, dtype=complex)
    # TorusParams has checked Im tau > 0, which is all OmegaMatrix.create would check
    omega = OmegaMatrix(np.array([[tp.tau]]), tp.t)
    plan = truncation_plan(omega, (a,), tol)
    return _theta_sum(omega, plan, np.array([float(b)]), zz.reshape(-1, 1))[:, 0].reshape(zz.shape)


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
) -> np.ndarray:
    """Theta[a,b] at an (M, g) array of points, one shared window."""
    zz = np.atleast_2d(np.asarray(z, dtype=complex))
    if zz.shape[1] != omega.g or chars.g != omega.g:
        raise ValueError("dimension mismatch between z, Omega, characteristics")
    plan = truncation_plan(omega, chars.a, tol)
    return _theta_sum(omega, plan, np.asarray(chars.b, dtype=float), zz)[:, 0]


def riemann_theta(
    chars: ThetaCharacteristics,
    z,
    omega: OmegaMatrix,
    tol: float = 1e-12,
) -> complex:
    """Theta[a,b](z | Omega) with truncation error below tol."""
    return complex(riemann_theta_batch(chars, z, omega, tol)[0])
