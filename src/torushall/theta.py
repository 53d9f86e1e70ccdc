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
mu = -a - Y^{-1} Im z'.  The box has halfwidth r around the range of
mu over all reduced heights in [-1/2, 1/2]^g, so that a value does not
depend on the other points of its batch; r is the smallest integer making
the shell bound sum_{j >= r} 2 g (2j+1)^{g-1} exp(-pi lambda_min j^2) fall
below tol/8 (lambda_min the smallest eigenvalue of Y).  Most of that box is
far out on the Gaussian: at reduced height h, term k has modulus
exp(-pi |k + a + h|_Y^2) times the largest, and |h|_Y <= rho with
rho = sqrt(sum_ij |Y_ij|)/2, so the terms outside the ellipsoid
|k + a|_Y < rho + s, s = sqrt(log(8 N / tol) / pi) for a box of N terms,
add at most tol/8 together.  The window is the box cut to the bounding
box of these ellipsoids, and the terms outside them get exact zero
coefficients, which also keeps subnormal products out of the sum.  Shell
tail and cut stay below tol/4, a factor 2 inside the tol/2 budget.  The
bound is relative to the largest term, of modulus exp(pi y' Y^{-1} y);
near a zero of Theta that is far above |Theta|.  Characteristics are used
exactly as given, not reduced modulo 1.

The series is truncated and summed in one place.  For real b,
Theta[a,b](z) = Theta[a,0](z + b) term by term, so the entry points pass
z + b and the kernel `_theta_sum(omega, a, z, tol)` sums Theta[a_j,0] for
every characteristic a_j at once:
Theta[a,0](z') = sum_k coeff_a(k) exp(2 pi i (k+a)' z').  With the
window's first corner lo, its counts N_i and mid = N // 2, each phase
splits into exp(2 pi i (a + lo + mid)' z') times the product over the axes
of u_i^(k_i - lo_i - mid_i), u_i = exp(2 pi i z'_i).  So a point costs
g + d complex `exp`: one u_i per axis, and one prefactor per
characteristic that folds the middle phase into the reduction factor.
The powers of u_i form one (N_i x points) table per axis, built outward
from the middle one row product at a time.  The coefficients, as
(d N_1 ... N_{g-1}) x N_g, are multiplied by the last axis's table and
each remaining axis is contracted in turn, so the (terms x points) grid of
the whole box is never formed; the values come out as (d, M).  The points
go in chunks, each reduced on its own, that keep the largest temporary
(the first contraction or one table) near 2^16 entries.

`_window` builds the window once per value of (Omega, characteristics,
tol), in a bounded cache: its first corner, counts, middle phases and the
read-only coefficients exp(pi i (k+a)' Omega (k+a)), zero for the terms
cut.  The kernel reads it, so the replicates of a QMC Gram build it once,
and so does the center-of-mass Gram, which takes the window's terms for
its heights moved into [-1/2, 1/2]^g: `gram_center` and
`center_basis_values` share one window per (tau K, cosets, tol).
`riemann_theta_batch` is the kernel for one characteristic,
`jacobi_theta_batch` its g = 1 case with Omega = [[tau]].  No tol
below MIN_TOL = 1e-14 is accepted: below it, rounding in double arithmetic
alone can exceed the bound.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
_CHUNK = 1 << 16  # entries of the largest temporary per chunk of points


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


@dataclass(frozen=True, eq=False)
class OmegaMatrix:
    """Symmetric period matrix with positive-definite imaginary part.

    Stores the smallest eigenvalue of Y = Im(Omega), which drives the
    truncation bound, and Y^{-1}, which reduces the arguments.  Equal and
    hashed by the entries of Omega, so that a window is cached by value.
    """

    omega: np.ndarray
    lambda_min: float
    yinv: np.ndarray

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
        yinv = np.linalg.inv(om.imag)
        om.setflags(write=False)
        yinv.setflags(write=False)
        return cls(omega=om, lambda_min=lam, yinv=yinv)

    def __eq__(self, other) -> bool:
        # complex g x g entries: equal bytes mean equal g and equal entries
        return isinstance(other, OmegaMatrix) and self.omega.tobytes() == other.omega.tobytes()

    def __hash__(self) -> int:
        return hash(self.omega.tobytes())

    @property
    def g(self) -> int:
        return self.omega.shape[0]


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


# the windows kept, by value of (Omega, characteristics, tol); bounded, because
# callers such as the law checks draw a new Omega for every sample
_WINDOWS = 64


class _Window(NamedTuple):
    """The window at tol for (Omega, characteristics), read-only.

    Its terms are k = lo + (i_1, ..., i_g), 0 <= i_n < counts[n], in
    row-major order.  Row j of phase is 2 pi i (a_j + lo + mid),
    mid = counts // 2, so that the middle term's phase is exp(phase[j] . z).
    coeff, (d, N), holds exp(pi i ka' Omega ka) at ka = k + a_j, exact zeros
    for the terms cut.
    """

    lo: tuple[int, ...]
    counts: tuple[int, ...]
    phase: np.ndarray
    coeff: np.ndarray


@functools.lru_cache(maxsize=_WINDOWS)
def _window(omega: OmegaMatrix, a: tuple[tuple[float, ...], ...], tol: float) -> _Window:
    """The window of every lattice sum at heights Y^{-1} Im z in [-1/2, 1/2]^g, built on a miss.

    At height h, term ka has modulus exp(-pi |ka + h|_Y^2) times exp(pi |h|_Y^2),
    the largest any term has there, and |h|_Y <= rho = sqrt(sum |Y_ij|) / 2.
    The box, of N points, covers every peak -a_j - h widened by the halfwidth
    whose shell tail is below tol/8; inside it, (k, a_j) is cut where
    Re(pi i ka' Omega ka) <= -pi (rho + s)^2, as there the term is below eps
    times the largest, eps = exp(-pi s^2) = tol / (8 N).
    """
    if not MIN_TOL <= tol < math.inf:
        raise ToleranceTooSmallError(f"tol = {tol:g} must be finite and at least {MIN_TOL:g}")
    g = omega.g
    chars = np.array(a, dtype=float)
    if chars.shape[1] != g:
        raise ValueError(f"characteristics must have g = {g} entries each")
    # the shell tail at tol/8: _tail_halfwidth bounds it by a quarter of its tol
    hw = _tail_halfwidth(omega.lambda_min, g, tol / 2) + 1
    cmin, cmax = (-chars).min(axis=0).tolist(), (-chars).max(axis=0).tolist()
    lo = [math.floor(c - 0.5) - hw for c in cmin]
    hi = [math.ceil(c + 0.5) + hw for c in cmax]
    size = math.prod(top - bottom + 1 for bottom, top in zip(lo, hi))
    rho = 0.5 * math.sqrt(np.abs(omega.omega.imag).sum())
    radius = rho + math.sqrt(math.log(8 * size / tol) / math.pi)
    # the box cut to the bounding box of the kept ellipsoids
    reach = (radius * np.sqrt(omega.yinv.diagonal())).tolist()
    lo = tuple(max(bottom, math.ceil(c - r)) for bottom, c, r in zip(lo, cmin, reach))
    hi = [min(top, math.floor(c + r)) for top, c, r in zip(hi, cmax, reach)]
    counts = tuple(top - bottom + 1 for bottom, top in zip(lo, hi))
    ka = (np.indices(counts).reshape(g, -1).T + lo)[None, :, :] + chars[:, None, :]
    expo = 1j * np.pi * np.einsum("dni,ij,dnj->dn", ka, omega.omega, ka)
    expo[expo.real <= -math.pi * radius**2] = -np.inf
    middle = [bottom + n // 2 for bottom, n in zip(lo, counts)]
    phase = np.array([[2j * math.pi * (x + c) for x, c in zip(aj, middle)] for aj in a])
    coeff = np.exp(expo)
    for arr in (phase, coeff):
        arr.setflags(write=False)
    return _Window(lo, counts, phase, coeff)


def _axis_powers(u: np.ndarray, count: int) -> np.ndarray:
    """u^(k - mid), k = 0 .. count - 1 and mid = count // 2, as a (count, M) array.

    Row mid is ones; each other row is its neighbour towards the middle
    times u or 1/u, one contiguous row at a time.
    """
    mid = count // 2
    out = np.empty((count, u.shape[0]), dtype=complex)
    out[mid] = 1
    for k in range(mid + 1, count):
        np.multiply(out[k - 1], u, out=out[k])
    if mid:
        inv = 1 / u
        for k in range(mid - 1, -1, -1):
            np.multiply(out[k + 1], inv, out=out[k])
    return out


def _theta_sum(omega: OmegaMatrix, a, z: np.ndarray, tol: float) -> np.ndarray:
    """Theta[a_j, 0](z | Omega) for each characteristic a_j of a, one or a (d, g) array.

    z is an (M, g) array; returns a (d, M) array.  Theta[a, b](z) for a
    real b is Theta[a, 0](z + b).  Per chunk of points: its own reduction,
    g + d complex exp per point, then one axis contracted at a time, the last first.
    """
    chars = np.atleast_2d(np.asarray(a, dtype=float))
    # one window for every reduced height in [-1/2, 1/2]^g, so that each value
    # does not depend on the other points
    win = _window(omega, tuple(map(tuple, chars.tolist())), tol)
    counts, rows = win.counts, win.coeff.reshape(-1, win.counts[-1])
    out = np.empty((win.coeff.shape[0], z.shape[0]), dtype=complex)
    # the largest temporary per point: the first contraction or one power table
    step = max(1, _CHUNK // max(rows.shape[0], *counts))
    for s in range(0, z.shape[0], step):
        zc = z[s : s + step].T
        m = np.rint(omega.yinv @ zc.imag)
        # einsum, unlike BLAS, rounds a point alike in every batch
        zr = zc - np.einsum("ij,jm->im", omega.omega, m)
        u = np.exp(2j * np.pi * zr)
        # exp(-pi i m'(z + z')) exp(2 pi i (a_j + lo + mid) . z'), taken before the
        # product: on AVX-512 OpenBLAS a complex exp straight after a complex
        # matrix product runs about 12 times slower
        pref = np.exp(
            np.einsum("ji,im->jm", win.phase, zr) - 1j * np.pi * (m * (zc + zr)).sum(axis=0)
        )
        acc = rows @ _axis_powers(u[-1], counts[-1])
        for i in range(omega.g - 2, -1, -1):
            table = _axis_powers(u[i], counts[i])
            acc = np.einsum("anm,nm->am", acc.reshape(-1, counts[i], acc.shape[1]), table)
        out[:, s : s + step] = acc * pref
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
    omega = OmegaMatrix(np.array([[tp.tau]]), tp.t, np.array([[1 / tp.t]]))
    return _theta_sum(omega, (a,), zz.reshape(-1, 1) + float(b), tol)[0].reshape(zz.shape)


def jacobi_theta(
    a: float, b: float, z: complex, tau: TorusParams | complex, tol: float = 1e-12
) -> complex:
    """theta[a,b](z | tau) with truncation error below tol."""
    return complex(jacobi_theta_batch(a, b, np.asarray([z]), tau, tol)[0])


def theta_odd_batch(z, tau: TorusParams | complex, tol: float = 1e-12) -> np.ndarray:
    """The odd theta function theta[1/2,1/2](z | tau) at an array of points; vanishes at z = 0."""
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
    return _theta_sum(omega, chars.a, zz + np.asarray(chars.b), tol)[0]


def riemann_theta(
    chars: ThetaCharacteristics,
    z,
    omega: OmegaMatrix,
    tol: float = 1e-12,
) -> complex:
    """Theta[a,b](z | Omega) with truncation error below tol."""
    return complex(riemann_theta_batch(chars, z, omega, tol)[0])
