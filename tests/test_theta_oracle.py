"""Theta values against an independent high-precision reference.

The identity tests in test_theta.py (quasi-periodicity, oddness,
factorization) hold for any truncation of the series, so they cannot see a
window that is too small.  These tests check the error bound itself,

    |theta - theta_ref| <= tol * max(|theta_ref|, P),   P = exp(pi y' Y^-1 y),

with y = Im z, Y = Im Omega, and theta_ref from mpmath.jtheta for g = 1 and
from a 50-digit direct lattice sum for g = 2 and 3.  P >= 1 is the modulus
of the largest term: the window bounds the discarded tail relative to it,
and double rounding of the terms is relative to it too.  Near a zero of
theta, |theta| is far below P, and tol * max(1, |theta_ref|) is not kept:
jacobi_theta(0.5, 0, -0.3125+1j, -0.40625+0.5j, tol=1e-14) is 4.5e-13 from
the reference, with |theta| < 1 and P = exp(2 pi).

Inputs are drawn from Im tau in [0.5, 2], |Re tau|, |Re z|, |a|, |b| <= 0.5
and |Im z| <= 1, with Omega drawn by checks.random_omega.

Large Im z is drawn separately: |Im z| <= 20 and Im tau in [0.3, 2], kept
to pi y' Y^-1 y < 690 so that the value is representable.  There the bound
is checked at tol = 1e-12 only.  The value's size exp(pi y' Y^-1 y) comes
from an exponent of up to 690 whose own double rounding, about 690 * eps,
is already above 1e-14 relative; at tol = 1e-14 the lattice-reduced sum
measures up to about 12 times the bound there.
"""

import math

import mpmath
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from torushall.checks import random_omega
from torushall.theta import ThetaCharacteristics, jacobi_theta, riemann_theta

TOLS = (1e-12, 1e-14)
DPS = 50

half = st.floats(-0.5, 0.5)
im_z = st.floats(-1.0, 1.0)
big_im_z = st.floats(-20.0, 20.0)
MAX_EXPONENT = 690.0  # pi y' Y^-1 y below log(max double) ~ 709.8


def jacobi_reference(a: float, b: float, z: complex, tau: complex) -> mpmath.mpc:
    """theta[a,b](z | tau) = exp(pi i a^2 tau + 2 pi i a (z+b)) theta_3(pi (z+b+a tau), q)."""
    with mpmath.workdps(DPS):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        z, tau = mpmath.mpc(z), mpmath.mpc(tau)
        pi_i = mpmath.pi * 1j
        pref = mpmath.exp(pi_i * a * a * tau + 2 * pi_i * a * (z + b))
        return pref * mpmath.jtheta(3, mpmath.pi * (z + b + a * tau), mpmath.exp(pi_i * tau))


def lattice_reference(a, b, z, omega: np.ndarray) -> mpmath.mpc:
    """Direct lattice sum at 50 digits over an ellipsoid around the peak term.

    |term(k)| = exp(pi y'Y^-1 y - pi (k-mu)'Y(k-mu)) with mu = -a - Y^-1 y, so
    every term left out of the ellipsoid (k-mu)'Y(k-mu) <= y'Y^-1 y + 40 is
    below 1e-54 of the largest, far under the double-precision tolerance.
    """
    g = len(a)
    y = np.asarray(z).imag
    ymat = omega.imag
    yinv = np.linalg.inv(ymat)
    mu = -np.asarray(a) - yinv @ y
    r2 = float(y @ yinv @ y) + 40.0
    half_axes = np.sqrt(r2 * np.diag(yinv))
    axes = [np.arange(math.floor(m - h), math.ceil(m + h) + 1) for m, h in zip(mu, half_axes)]
    ks = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    dist = np.einsum("ij,jk,ik->i", ks - mu, ymat, ks - mu)
    ks = ks[dist <= r2 + 1.0]
    with mpmath.workdps(DPS):
        om = [[mpmath.mpc(complex(omega[i, j])) for j in range(g)] for i in range(g)]
        shift = [mpmath.mpc(complex(z[i])) + mpmath.mpf(b[i]) for i in range(g)]
        aa = [mpmath.mpf(x) for x in a]
        pi_i = mpmath.pi * 1j
        total = mpmath.mpc(0)
        for k in ks:
            v = [int(k[i]) + aa[i] for i in range(g)]
            quad = mpmath.fsum(v[i] * om[i][j] * v[j] for i in range(g) for j in range(g))
            lin = mpmath.fsum(v[i] * shift[i] for i in range(g))
            total += mpmath.exp(pi_i * quad + 2 * pi_i * lin)
        return total


def assert_within(got: complex, ref: mpmath.mpc, tol: float, peak: float) -> None:
    err = float(abs(mpmath.mpc(got) - ref))
    scale = max(float(abs(ref)), peak)
    assert err <= tol * scale, f"error {err:.3e} > {tol:.0e} * {scale:.3e}"


def _check_jacobi(a, b, re_z, im_z, re_tau, im_tau, tols):
    z, tau = complex(re_z, im_z), complex(re_tau, im_tau)
    ref = jacobi_reference(a, b, z, tau)
    peak = math.exp(math.pi * im_z**2 / im_tau)
    for tol in tols:
        assert_within(jacobi_theta(a, b, z, tau, tol), ref, tol, peak)


@settings(max_examples=40, deadline=None)
@given(
    a=half, b=half, re_z=half, im_z=im_z, re_tau=half, im_tau=st.floats(0.5, 2.0)
)
def test_jacobi_within_tol_of_mpmath(a, b, re_z, im_z, re_tau, im_tau):
    _check_jacobi(a, b, re_z, im_z, re_tau, im_tau, TOLS)


@settings(max_examples=40, deadline=None)
@given(
    a=half, b=half, re_z=half, im_z=big_im_z, re_tau=half, im_tau=st.floats(0.3, 2.0)
)
def test_jacobi_large_im_z_within_tol_of_mpmath(a, b, re_z, im_z, re_tau, im_tau):
    assume(math.pi * im_z**2 / im_tau < MAX_EXPONENT)
    _check_jacobi(a, b, re_z, im_z, re_tau, im_tau, (1e-12,))


def test_jacobi_pinned_large_value():
    # |theta| ~ 1e110; unreduced, the phases exp(2 pi i (k+a) z) overflow here
    got = jacobi_theta(0.3, 0.1, 0.2 + 9j, 1j)
    assert_within(got, jacobi_reference(0.3, 0.1, 0.2 + 9j, 1j), 1e-12, math.exp(81 * math.pi))
    assert 1e109 < abs(got) < 1e111


def _riemann_case(g: int, heights=im_z):
    vec = st.lists(half, min_size=g, max_size=g)
    return dict(
        seed=st.integers(0, 2**32 - 1),
        a=vec,
        b=vec,
        re_z=vec,
        im_z=st.lists(heights, min_size=g, max_size=g),
    )


def _check_riemann(seed, a, b, re_z, im_z, tols=TOLS):
    om = random_omega(np.random.default_rng(seed), len(a))
    y = np.array(im_z)
    exponent = math.pi * y @ np.linalg.solve(om.omega.imag, y)
    assume(exponent < MAX_EXPONENT)
    chars = ThetaCharacteristics(a=tuple(a), b=tuple(b))
    z = np.array(re_z) + 1j * y
    ref = lattice_reference(a, b, z, om.omega)
    for tol in tols:
        assert_within(riemann_theta(chars, z, om, tol), ref, tol, math.exp(exponent))


@settings(max_examples=15, deadline=None)
@given(**_riemann_case(2))
def test_riemann_g2_within_tol_of_lattice_sum(seed, a, b, re_z, im_z):
    _check_riemann(seed, a, b, re_z, im_z)


@settings(max_examples=8, deadline=None)
@given(**_riemann_case(3))
def test_riemann_g3_within_tol_of_lattice_sum(seed, a, b, re_z, im_z):
    _check_riemann(seed, a, b, re_z, im_z)


@settings(max_examples=15, deadline=None)
@given(**_riemann_case(2, big_im_z))
def test_riemann_g2_large_im_z_within_tol_of_lattice_sum(seed, a, b, re_z, im_z):
    _check_riemann(seed, a, b, re_z, im_z, (1e-12,))
