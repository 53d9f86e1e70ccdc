import math
from dataclasses import replace

import numpy as np
import pytest

from torushall.theta import (
    MIN_TOL,
    AsymmetricOmegaError,
    ImagNotPositiveDefiniteError,
    NonconvergentModulusError,
    OmegaMatrix,
    ThetaCharacteristics,
    ToleranceTooSmallError,
    _theta_sum,
    jacobi_theta,
    jacobi_theta_batch,
    riemann_theta,
    riemann_theta_batch,
    theta_odd,
    theta_odd_batch,
    truncation_plan,
)

# Frozen oracle values: direct lattice sums at 40-digit arithmetic with
# window +-60 (tail < 1e-35), rounded to double precision.
ORACLE_1D = [
    # (a, b, z, tau, value)
    (0.0, 0.0, 0j, 1j, 1.086434811213308 + 0j),
    (0.0, 0.0, 0.3 + 0.4j, 0.2 + 1.3j, 1.063138621608144 - 0.1969151486778959j),
    (0.5, 0.5, 0.25 - 0.1j, 1.1j, -0.6248703884156932 + 0.1910090251389784j),
    (0.3, -0.2, -0.7 + 0.45j, 0.6 + 0.8j, 0.3030254636978512 - 2.3710034932330574j),
]

OMEGA_G2 = np.array([[1.1j, 0.5 + 0.2j], [0.5 + 0.2j, 0.3 + 0.9j]])
ORACLE_G2 = (
    (0.25, -0.5),
    (0.1, 0.7),
    np.array([0.2 - 0.3j, -0.4 + 0.15j]),
    0.9083602826562810 - 0.4710566676653291j,
)


def _residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


class TestJacobiTheta:
    @pytest.mark.parametrize("a,b,z,tau,value", ORACLE_1D)
    def test_oracle_values(self, a, b, z, tau, value):
        got = jacobi_theta(a, b, z, tau, tol=1e-14)
        assert abs(got - value) < 1e-13

    def test_quasi_periodicity(self, rng):
        for _ in range(100):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            a, b = rng.uniform(-0.5, 0.5, size=2)
            base = jacobi_theta(a, b, z, tau)
            shift1 = jacobi_theta(a, b, z + 1, tau)
            assert _residual(shift1, np.exp(2j * np.pi * a) * base) < 1e-11
            shift_tau = jacobi_theta(a, b, z + tau, tau)
            fac = np.exp(-2j * np.pi * (z + b) - 1j * np.pi * tau)
            assert _residual(shift_tau, fac * base) < 1e-11

    def test_zero_at_shifted_point(self, rng):
        # theta[a,b] vanishes at (1+tau)/2 - (a tau + b)
        for _ in range(50):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
            a, b = rng.uniform(-0.5, 0.5, size=2)
            p = (1 + tau) / 2 - (a * tau + b)
            assert abs(jacobi_theta(a, b, p, tau, tol=1e-13)) < 100 * 1e-13

    def test_batch_matches_scalar(self, rng):
        tau = 0.1 + 0.8j
        zs = rng.uniform(-1, 1, size=20) + 1j * rng.uniform(-1, 1, size=20)
        batch = jacobi_theta_batch(0.25, -0.4, zs, tau)
        for z, v in zip(zs, batch):
            assert abs(v - jacobi_theta(0.25, -0.4, z, tau)) < 1e-13

    def test_value_independent_of_batch(self):
        # at small Im tau the window's edge terms reach about 1e-7 at tol = 1e-3,
        # so a window sized from the batch's own heights would move the value
        t = 0.05
        low, high = 0.3 - 0.49j * t, -0.2 + 0.49j * t  # reduced heights -0.49 and +0.49
        for a in (0.0, 0.3):
            alone = jacobi_theta_batch(a, 0.1, [low], 1j * t, tol=1e-3)[0]
            batched = jacobi_theta_batch(a, 0.1, [low, high], 1j * t, tol=1e-3)[0]
            # the largest term has modulus about 1 here
            assert abs(alone - batched) < 1e-14

    def test_rejects_bad_modulus(self):
        with pytest.raises(NonconvergentModulusError):
            jacobi_theta(0, 0, 0, 1.0 - 0.5j)

    def test_rejects_non_finite_modulus_and_tol(self):
        for tau in (complex(0, math.inf), complex(math.nan, 1)):
            with pytest.raises(NonconvergentModulusError):
                jacobi_theta(0, 0, 0, tau)
        for tol in (math.nan, math.inf):
            with pytest.raises(ToleranceTooSmallError):
                jacobi_theta(0, 0, 0, 1j, tol=tol)

    def test_rejects_too_small_tol(self):
        with pytest.raises(ValueError):
            jacobi_theta(0, 0, 0, 1j, tol=1e-16)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_one_minimum_tol_for_every_g(self, g):
        # 1e-15 was accepted at g = 1, where double rounding alone exceeds it
        om = OmegaMatrix.create(1j * np.eye(g))
        chars = ThetaCharacteristics(a=(0.1,) * g, b=(0.2,) * g)
        evaluators = [lambda tol: riemann_theta(chars, np.zeros(g), om, tol)]
        if g == 1:
            evaluators.append(lambda tol: jacobi_theta(0.1, 0.2, 0, 1j, tol))
        for evaluate in evaluators:
            with pytest.raises(ToleranceTooSmallError):
                evaluate(1e-15)
            evaluate(MIN_TOL)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: jacobi_theta_batch(0.1, 0.2, np.empty(0), 1j),
        lambda: riemann_theta_batch(
            ThetaCharacteristics(a=(0.1, 0.2), b=(0.0, 0.3)),
            np.empty((0, 2)),
            OmegaMatrix.create(OMEGA_G2),
        ),
    ],
    ids=["jacobi", "riemann"],
)
def test_empty_batch_gives_empty_array(evaluate):
    out = evaluate()
    assert out.shape == (0,) and out.dtype == complex


class TestOddTheta:
    def test_zero_at_origin(self):
        assert abs(theta_odd(0, 1j)) < 1e-14
        assert abs(theta_odd(0, 0.3 + 0.7j)) < 1e-14

    def test_check_takes_zero_at_every_sampled_tau(self, monkeypatch):
        from torushall import checks

        batch_taus, zero_taus = [], []
        real = checks.theta_odd_batch

        def spy(z, tau, tol=1e-12):
            batch_taus.append(tau)
            if 0 in z:
                zero_taus.append(tau)
            return real(z, tau, tol)

        monkeypatch.setattr(checks, "theta_odd_batch", spy)
        checks.check_theta_laws(seed=1, samples=5)
        assert len(batch_taus) == 5
        assert zero_taus == batch_taus

    def test_odd(self, rng):
        for _ in range(100):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(theta_odd(z, tau) + theta_odd(-z, tau)) < 1e-12

    def test_antiperiodic(self, rng):
        for _ in range(20):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            assert _residual(theta_odd(z + 1, 1j), -theta_odd(z, 1j)) < 1e-12

    def test_batch(self):
        zs = np.array([0.1, 0.2 + 0.3j, -0.4j])
        batch = theta_odd_batch(zs, 1j)
        for z, v in zip(zs, batch):
            assert abs(v - theta_odd(z, 1j)) < 1e-14


class TestRiemannTheta:
    def test_oracle_g2(self):
        a, b, z, value = ORACLE_G2
        chars = ThetaCharacteristics(a=a, b=b)
        om = OmegaMatrix.create(OMEGA_G2)
        assert abs(riemann_theta(chars, z, om, tol=1e-13) - value) < 1e-12

    def test_matches_jacobi_at_g1(self, rng):
        for _ in range(100):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            a, b = rng.uniform(-0.5, 0.5, size=2)
            om = OmegaMatrix.create([[tau]])
            chars = ThetaCharacteristics(a=(a,), b=(b,))
            got = riemann_theta(chars, [z], om)
            want = jacobi_theta(a, b, z, tau)
            assert abs(got - want) < 1e-12

    def test_diagonal_factorization(self, rng):
        for g in (2, 3):
            for _ in range(10):
                diag = rng.uniform(-0.4, 0.4, size=g) + 1j * rng.uniform(0.6, 1.6, size=g)
                om = OmegaMatrix.create(np.diag(diag))
                chars = ThetaCharacteristics(
                    a=tuple(rng.uniform(-0.5, 0.5, size=g)),
                    b=tuple(rng.uniform(-0.5, 0.5, size=g)),
                )
                z = rng.uniform(-0.5, 0.5, size=g) + 1j * rng.uniform(-0.5, 0.5, size=g)
                whole = riemann_theta(chars, z, om)
                parts = 1.0 + 0.0j
                for j in range(g):
                    parts *= jacobi_theta(chars.a[j], chars.b[j], z[j], complex(diag[j]))
                assert abs(whole - parts) / max(1.0, abs(whole)) < 1e-11

    def test_quasi_periodicity_g2(self, rng):
        om = OmegaMatrix.create(OMEGA_G2)
        chars = ThetaCharacteristics(a=(0.25, -0.5), b=(0.1, 0.7))
        a = np.asarray(chars.a)
        b = np.asarray(chars.b)
        for _ in range(25):
            z = rng.uniform(-0.5, 0.5, size=2) + 1j * rng.uniform(-0.5, 0.5, size=2)
            l = rng.integers(-1, 2, size=2).astype(float)
            base = riemann_theta(chars, z, om)
            lhs = riemann_theta(chars, z + l, om)
            assert _residual(lhs, np.exp(2j * np.pi * (a @ l)) * base) < 1e-10
            lhs = riemann_theta(chars, z + om.omega @ l, om)
            fac = np.exp(-2j * np.pi * (l @ (z + b)) - 1j * np.pi * (l @ om.omega @ l))
            assert _residual(lhs, fac * base) < 1e-10

    def test_batch_matches_scalar(self, rng):
        om = OmegaMatrix.create(OMEGA_G2)
        chars = ThetaCharacteristics(a=(0.1, 0.2), b=(0.0, -0.3))
        zs = rng.uniform(-0.5, 0.5, size=(15, 2)) + 1j * rng.uniform(-0.5, 0.5, size=(15, 2))
        batch = riemann_theta_batch(chars, zs, om)
        for z, v in zip(zs, batch):
            assert abs(v - riemann_theta(chars, z, om)) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricOmegaError):
            OmegaMatrix.create([[1j, 0.5], [0.2, 1j]])

    def test_rejects_indefinite_imag(self):
        with pytest.raises(ImagNotPositiveDefiniteError):
            OmegaMatrix.create([[1j, 0], [0, -1j]])


class TestTruncationPlan:
    def test_radius_scale(self):
        om = OmegaMatrix.create(1j * np.eye(2))
        plan = truncation_plan(om, (0.0, 0.0), 1e-13)
        # solving exp(-pi R^2) = 1e-13 gives R ~ 3.08; the integer window
        # sits just above, plus one cell of margin
        assert 4 <= plan.halfwidth <= 7

    def test_monotone_in_tol(self):
        om = OmegaMatrix.create(1j * np.eye(2))
        loose = truncation_plan(om, (0.0, 0.0), 1e-3)
        tight = truncation_plan(om, (0.0, 0.0), 1e-13)
        assert loose.halfwidth < tight.halfwidth

    def test_tail_halfwidth_matches_vector_sum(self):
        # the scalar search returns the r of the 256-shell numpy tail it replaced
        import math

        from torushall.theta import _tail_halfwidth

        def reference(lam, g, tol):
            target = tol / 4.0
            r = max(1, math.floor(math.sqrt(max(math.log(2 * g / target) / (math.pi * lam), 0.0))))
            while True:
                j = np.arange(r, r + 256, dtype=float)
                tail = np.sum(2 * g * (2 * j + 1) ** (g - 1) * np.exp(-np.pi * lam * j * j))
                if tail < target:
                    return r
                r += 1

        for lam in np.geomspace(0.05, 50, 60):
            for g in range(1, 9):
                for tol in (1e-14, 1e-12, 1e-8, 1e-3):
                    assert _tail_halfwidth(lam, g, tol) == reference(lam, g, tol)

    def test_near_singular_finite(self):
        om = OmegaMatrix.create(1j * np.diag([1e-3, 1.0]))
        plan = truncation_plan(om, (0.0, 0.0), 1e-10)
        assert isinstance(plan.halfwidth, int) and plan.halfwidth < 10000

    def test_doubling_window_self_consistent(self, rng):
        # enlarging the summation window must not move the value by more
        # than the requested tolerance
        om = OmegaMatrix.create(OMEGA_G2)
        chars = ThetaCharacteristics(a=(0.25, -0.5), b=(0.1, 0.7))
        tol = 1e-12
        plan = truncation_plan(om, chars.a, tol)
        wide = replace(plan, halfwidth=2 * plan.halfwidth)
        b = np.asarray(chars.b)
        for _ in range(10):
            z = rng.uniform(-0.5, 0.5, size=2) + 1j * rng.uniform(-0.5, 0.5, size=2)
            v1 = _theta_sum(om, plan, b, z[None, :])[0, 0]
            v2 = _theta_sum(om, wide, b, z[None, :])[0, 0]
            assert v1 == riemann_theta_batch(chars, z[None, :], om, tol)[0]
            assert abs(v1 - v2) < tol
