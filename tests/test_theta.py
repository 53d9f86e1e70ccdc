import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import untrimmed_theta_sum
from torushall.checks import random_omega
from torushall.theta import (
    MIN_TOL,
    AsymmetricOmegaError,
    ImagNotPositiveDefiniteError,
    NonconvergentModulusError,
    OmegaMatrix,
    ThetaCharacteristics,
    ToleranceTooSmallError,
    _axis_powers,
    _tail_halfwidth,
    _theta_sum,
    _window,
    jacobi_theta,
    jacobi_theta_batch,
    riemann_theta,
    riemann_theta_batch,
    theta_odd_batch,
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
        assert abs(jacobi_theta(0.5, 0.5, 0, 1j)) < 1e-14
        assert abs(jacobi_theta(0.5, 0.5, 0, 0.3 + 0.7j)) < 1e-14

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
            assert abs(jacobi_theta(0.5, 0.5, z, tau) + jacobi_theta(0.5, 0.5, -z, tau)) < 1e-12

    def test_antiperiodic(self, rng):
        for _ in range(20):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            moved, base = jacobi_theta(0.5, 0.5, z + 1, 1j), jacobi_theta(0.5, 0.5, z, 1j)
            assert _residual(moved, -base) < 1e-12

    def test_batch(self):
        zs = np.array([0.1, 0.2 + 0.3j, -0.4j])
        batch = theta_odd_batch(zs, 1j)
        for z, v in zip(zs, batch):
            assert abs(v - jacobi_theta(0.5, 0.5, z, 1j)) < 1e-14


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
    """The window's truncation: the shell-tail halfwidth and the box it spans."""

    @staticmethod
    def _halfwidths(om, tol):
        # the shell-tail halfwidth the window is built from, and the window's
        # own reach from the peak of a = 0 after the ellipsoid cut
        win = _window(om, ((0.0,) * om.g,), tol)
        reach = max(-min(win.lo), max(lo + n - 1 for lo, n in zip(win.lo, win.counts)))
        return _tail_halfwidth(om.lambda_min, om.g, tol / 2) + 1, reach

    def test_radius_scale(self):
        om = OmegaMatrix.create(1j * np.eye(2))
        # solving exp(-pi R^2) = 1e-13 gives R ~ 3.08; the integer window
        # sits just above, plus one cell of margin
        for halfwidth in self._halfwidths(om, 1e-13):
            assert 4 <= halfwidth <= 7

    def test_monotone_in_tol(self):
        om = OmegaMatrix.create(1j * np.eye(2))
        for loose, tight in zip(self._halfwidths(om, 1e-3), self._halfwidths(om, 1e-13)):
            assert loose < tight

    def test_tail_halfwidth_matches_vector_sum(self):
        # the scalar search returns the r of the 256-shell numpy tail it replaced
        import math

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
        for halfwidth in self._halfwidths(om, 1e-10):
            assert isinstance(halfwidth, int) and halfwidth < 10000

    def test_doubling_window_self_consistent(self, rng):
        # doubling the halfwidth of the summation box, with no term cut, must
        # not move the value by more than the requested tolerance
        om = OmegaMatrix.create(OMEGA_G2)
        chars = ThetaCharacteristics(a=(0.25, -0.5), b=(0.1, 0.7))
        tol = 1e-12
        wide = 2 * (_tail_halfwidth(om.lambda_min, om.g, tol / 2) + 1)
        for _ in range(10):
            heights = rng.uniform(-0.5, 0.5, size=2)
            z = rng.uniform(-0.5, 0.5, size=2) + 1j * (om.omega.imag @ heights)
            v1 = _theta_sum(om, chars.a, (z + chars.b)[None, :], tol)[0, 0]
            v2 = untrimmed_theta_sum(om, chars.a, wide, chars.b, z[None, :])[0, 0]
            assert v1 == riemann_theta_batch(chars, z[None, :], om, tol)[0]
            assert abs(v1 - v2) < tol


class TestWindow:
    """The kernel's window: the shell-tail box cut to the terms that can reach tol."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        g=st.integers(1, 3),
        d=st.integers(1, 3),
        tol=st.sampled_from((1e-12, 1e-8, 1e-3)),
        data=st.data(),
    )
    def test_within_tol_of_untrimmed_box(self, seed, g, d, tol, data):
        # every term cut is below tol / (8 N) of the largest, so the cut moves
        # a value by less than tol/8 of the largest term
        def vec(lo, hi):
            return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=g, max_size=g)))

        chars = [tuple(vec(-0.5, 0.5)) for _ in range(d)]
        b = vec(-0.5, 0.5)
        z = vec(-0.5, 0.5) + 1j * vec(-20.0, 20.0)
        om = random_omega(np.random.default_rng(seed), g)
        y = om.omega.imag
        # reduce first, so that both sums see one point with heights in (-1/2, 1/2)^g
        zr = z - om.omega @ np.rint(np.linalg.solve(y, z.imag))
        heights = np.linalg.solve(y, zr.imag)
        assume(np.all(np.abs(heights) < 0.5 - 1e-9))
        got = _theta_sum(om, chars, (zr + b)[None, :], tol)[:, 0]
        halfwidth = _tail_halfwidth(om.lambda_min, g, tol / 2) + 1
        want = untrimmed_theta_sum(om, chars, halfwidth, b, zr[None, :])[:, 0]
        peak = math.exp(math.pi * heights @ y @ heights)
        assert np.max(np.abs(got - want)) <= tol / 8 * peak

    def test_g3_against_untrimmed_box(self, rng):
        # three axes contracted one at a time, several characteristics and points
        om = random_omega(rng, 3)
        chars = ((0.0, 0.0, 0.0), (0.25, -0.5, 1 / 3), (-0.4, 0.1, 0.45))
        heights = rng.uniform(-0.5, 0.5, size=(9, 3))
        zs = rng.uniform(-0.5, 0.5, size=(9, 3)) + 1j * heights @ om.omega.imag
        got = _theta_sum(om, chars, zs, 1e-12)
        halfwidth = _tail_halfwidth(om.lambda_min, om.g, 1e-12 / 2) + 1
        want = untrimmed_theta_sum(om, chars, halfwidth, (0.0, 0.0, 0.0), zs)
        peak = np.exp(np.pi * np.einsum("mi,ij,mj->m", heights, om.omega.imag, heights))
        assert got.shape == (3, 9)
        assert np.all(np.abs(got - want) <= 1e-12 / 8 * peak)

    @staticmethod
    def _odd_window():
        return _window(OmegaMatrix.create([[1j]]), ((0.5,),), 1e-12)

    @staticmethod
    def _jain_center_window():
        # the center basis of jain(1,2) at tau = i: Theta[c, 0](. | i K) over the 3 cosets
        om = OmegaMatrix.create(1j * np.array([[2.0, 1.0], [1.0, 2.0]]))
        return _window(om, ((0.0, 0.0), (1 / 3, 1 / 3), (2 / 3, 2 / 3)), 1e-12)

    def test_term_counts(self):
        # the untrimmed boxes held 12 and 196 terms
        assert self._odd_window().coeff.shape[1] <= 8
        assert self._jain_center_window().coeff.shape[1] <= 100

    def test_no_subnormal_coefficient(self):
        # subnormal coefficients slow the (terms x points) product several-fold;
        # the untrimmed jain(1,2) box held one of 1.03e-312
        for win in (self._odd_window(), self._jain_center_window()):
            kept = np.abs(win.coeff[win.coeff != 0])
            assert kept.min() >= np.finfo(float).tiny


class TestWindowCache:
    def test_bounded(self):
        rng = np.random.default_rng(11)
        for i in range(1000):
            om = random_omega(rng, 1 + i % 2)
            chars = ThetaCharacteristics(a=(0.1,) * om.g, b=(0.2,) * om.g)
            riemann_theta_batch(chars, np.zeros((1, om.g)), om)
        info = _window.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_read_only(self):
        win = _window(OmegaMatrix.create(OMEGA_G2), ((0.25, -0.5),), 1e-12)
        assert isinstance(win.counts, tuple)
        for arr in (win.phase, win.coeff):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_cold_and_warm_bit_identical(self, rng):
        chars = ThetaCharacteristics(a=(0.25, -0.5), b=(0.1, 0.7))
        zs = rng.uniform(-0.5, 0.5, size=(7, 2)) + 1j * rng.uniform(-3, 3, size=(7, 2))
        _window.cache_clear()
        cold = riemann_theta_batch(chars, zs, OmegaMatrix.create(OMEGA_G2))
        # an equal Omega built again finds the window by value
        warm = riemann_theta_batch(chars, zs, OmegaMatrix.create(OMEGA_G2))
        info = _window.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert cold.tobytes() == warm.tobytes()

    @staticmethod
    def _reduced_points(om, rng):
        # five points with heights in (-1/2, 1/2)^g, and the box halfwidth the window is cut from
        heights = rng.uniform(-0.3, 0.3, size=(5, om.g))
        zs = rng.uniform(-0.5, 0.5, size=(5, om.g)) + 1j * heights @ om.omega.imag
        return zs, _tail_halfwidth(om.lambda_min, om.g, 1e-12 / 2) + 1

    def test_b_rides_in_z(self, rng):
        # Theta[a, b](z) = Theta[a, 0](z + b): two values of b share one window
        om = OmegaMatrix.create(OMEGA_G2)
        zs, halfwidth = self._reduced_points(om, rng)
        _window.cache_clear()
        for b in ((0.1, 0.7), (-0.45, 0.2)):
            got = riemann_theta_batch(ThetaCharacteristics(a=(0.25, -0.5), b=b), zs, om)
            want = untrimmed_theta_sum(om, (0.25, -0.5), halfwidth, b, zs)[0]
            assert np.max(np.abs(got - want)) < 1e-12
        info = _window.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_characteristic_sets_kept_apart(self, rng):
        # one Omega, two sets of characteristics in turn: the window is keyed by a too
        om = OmegaMatrix.create(OMEGA_G2)
        zs, halfwidth = self._reduced_points(om, rng)
        for chars in (((0.0, 0.0), (0.5, 0.25)), ((1 / 3, 1 / 3), (-0.2, 0.4))):
            got = _theta_sum(om, chars, zs, 1e-12)
            want = untrimmed_theta_sum(om, chars, halfwidth, (0.0, 0.0), zs)
            assert got.shape == (2, 5)
            assert np.max(np.abs(got - want)) < 1e-12


class TestKernel:
    """The kernel's parts: the power tables and the chunks of points."""

    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    def test_axis_powers(self, count, rng):
        # reduced points: heights in [-1/2, 1/2] at Im tau up to 2
        z = rng.uniform(-1, 1, size=50) + 1j * rng.uniform(-1, 1, size=50)
        got = _axis_powers(np.exp(2j * np.pi * z), count)
        powers = np.arange(count) - count // 2
        want = np.exp(2j * np.pi * powers[:, None] * z[None, :])
        assert got.shape == (count, 50)
        assert np.all(got[count // 2] == 1)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_chunks_match_single_points(self, g, rng, monkeypatch):
        # a batch over at least three chunks, the last one ragged, with heights
        # over several periods: each chunk reduces its own points
        from torushall import theta

        om = random_omega(rng, g)
        chars = tuple(tuple(rng.uniform(-0.5, 0.5, size=g)) for _ in range(3))
        heights = rng.uniform(-3, 3, size=(11, g))
        zs = rng.uniform(-2, 2, size=(11, g)) + 1j * heights @ om.omega.imag
        win = _window(om, chars, 1e-12)
        monkeypatch.setattr(theta, "_CHUNK", 3 * max(win.coeff.size // win.counts[-1], *win.counts))
        sizes = []

        def recorded(u, count):
            sizes.append(u.shape[0])
            return _axis_powers(u, count)

        monkeypatch.setattr(theta, "_axis_powers", recorded)
        got = _theta_sum(om, chars, zs, 1e-12)
        assert sizes[::g] == [3, 3, 3, 2]
        m = np.rint(heights)
        assert sum(np.any(m[s : s + 3] != 0) for s in range(0, 11, 3)) >= 2
        peak = np.exp(np.pi * np.einsum("mi,ij,mj->m", heights, om.omega.imag, heights))
        for i, z in enumerate(zs):
            one = _theta_sum(om, chars, z[None, :], 1e-12)[:, 0]
            assert np.all(np.abs(got[:, i] - one) <= 1e-15 * peak[i])
