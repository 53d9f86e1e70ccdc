import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from torushall.gram import (
    DEFAULT_BUDGET,
    QuadratureSpec,
    SamplingBudgetExceededError,
    _log_height_weight,
    gram_center,
    gram_manybody,
    kappa_closed_form,
)
from torushall.theta import (
    OmegaMatrix,
    ThetaCharacteristics,
    TorusParams,
    riemann_theta_batch,
)
from torushall.wavefunctions import WaveFunctionSpec
from torushall.wen import (
    jain_matrix,
    pi_add,
    pi_group,
    validate_wen_datum,
    validate_wen_matrix,
)

TAU = TorusParams(0.2 + 0.9j)


def center_fn(K, xi, tau, c):
    """Vectorized H_c for feeding the generic inner product."""
    km = np.array(K.entries, dtype=float)
    om = OmegaMatrix.create(tau.tau * km)
    chars = ThetaCharacteristics(a=tuple(float(x) for x in c), b=(0.0,) * K.g)
    xiv = np.asarray(xi, dtype=complex)

    def fn(z):
        return riemann_theta_batch(chars, z @ km.T + xiv[None, :], om)

    return fn


def weight(kmat, xi, z, tau=TAU):
    """The metric weight exp(-2 pi t (y'K y + 2 a.y)) at an (..., g) array of points z."""
    y = np.asarray(z, dtype=complex).imag / tau.t
    return np.exp(_log_height_weight(kmat, xi, tau, y))


def inner_product_center(K, xi, tau, f1, f2, p):
    """Midpoint-rule estimate of the weighted scalar product on the full p^{2g} grid.

    f1, f2 take an (M, g) array of points z = x + tau y and return (M,)
    values; they are evaluated at every node, which makes this the direct
    reference for the center Gram's residue sums.
    """
    nodes = (np.arange(p) + 0.5) / p
    grid = np.stack(np.meshgrid(*([nodes] * K.g), indexing="ij"), axis=-1).reshape(-1, K.g)
    wy = np.exp(_log_height_weight(K.entries, xi, tau, grid)) / p ** (2 * K.g)
    z = (grid[None, :, :] + tau.tau * grid[:, None, :]).reshape(-1, K.g)
    v = (f1(z) * np.conj(f2(z))).reshape(grid.shape[0], -1)
    return complex(wy @ v.sum(axis=1))


def rule_points(report, K):
    """Per-axis points of a center Gram report's midpoint rule."""
    p = round(report.total_points ** (1 / (2 * K.g)))
    assert p ** (2 * K.g) == report.total_points
    return p


class TestMetricWeights:
    def test_unit_at_zero_height(self, rng):
        xs = rng.uniform(-2, 2, size=8)
        assert np.allclose(weight([[3]], (0.2 + 0.1j,), xs[:, None]), 1.0)
        K = jain_matrix(1, 2)
        z = np.stack([xs[:4], xs[4:]], axis=-1).astype(complex)
        assert np.allclose(weight(K.entries, (0.1, 0.2j), z), 1.0)

    def test_height_shift_ratio(self, rng):
        k, xi = 3, 0.4 * TAU.tau + 0.1
        a = 0.4
        for _ in range(10):
            x, y = rng.uniform(-0.5, 0.5, size=2)
            z = np.array([[x + TAU.tau * y]])
            z_up = np.array([[x + TAU.tau * (y + 1)]])
            ratio = weight([[k]], (xi,), z_up) / weight([[k]], (xi,), z)
            want = np.exp(-2 * np.pi * TAU.t * (2 * k * y + 2 * a + k))
            assert abs(ratio[0] / want - 1) < 1e-10

    def test_g1_specializes(self, rng):
        # at g = 1 the weight is exp(-2 pi k t y^2 - 4 pi a t y), xi = b + tau a
        k, xi = 3, 0.2 + 0.1j
        ys = rng.uniform(-1, 1, size=6)
        zs = rng.uniform(-1, 1, size=6) + TAU.tau * ys
        a = xi.imag / TAU.t
        want = np.exp(-2 * np.pi * k * TAU.t * ys**2 - 4 * np.pi * a * TAU.t * ys)
        assert np.allclose(weight([[k]], (xi,), zs[:, None]), want)

    def test_one_particle_density_periodic(self, rng):
        # |h_j|^2 h is invariant under x -> x+1 and y -> y+1; the one-particle
        # basis h_j is the center basis H_c of K = [[k]] at c = (j-1)/k
        K = validate_wen_matrix([[2]])
        xi = (0.3 * TAU.tau + 0.2,)
        for c in pi_group(K).elements:
            fn = center_fn(K, xi, TAU, c)
            x, y = rng.uniform(-0.4, 0.4, size=2)

            def density(xx, yy):
                z = np.array([[xx + TAU.tau * yy]])
                return abs(fn(z)[0]) ** 2 * float(weight(K.entries, xi, z)[0])

            base = density(x, y)
            assert abs(density(x + 1, y) / base - 1) < 1e-10
            assert abs(density(x, y + 1) / base - 1) < 1e-10

    def test_center_density_periodic(self, rng):
        K = jain_matrix(1, 2)
        xi = (0.1 + 0.2j, -0.05 + 0.15j)
        c = pi_group(K).elements[1]
        fn = center_fn(K, xi, TAU, c)
        x = rng.uniform(-0.4, 0.4, size=2)
        y = rng.uniform(-0.4, 0.4, size=2)

        def density(xx, yy):
            z = (xx + TAU.tau * yy)[None, :]
            return abs(fn(z)[0]) ** 2 * float(weight(K.entries, xi, z)[0])

        base = density(x, y)
        for shift in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            assert abs(density(x + shift, y) / base - 1) < 1e-9
            assert abs(density(x, y + shift) / base - 1) < 1e-9


class TestKappa:
    def test_delta_two_unit_modulus(self):
        K = validate_wen_matrix([[2]])
        assert abs(kappa_closed_form(K, (0j,), TorusParams(1j)) - 0.5) < 1e-15

    def test_zero_height_prefactor(self):
        # with a = 0 only the Gaussian prefactor survives
        K = jain_matrix(1, 2)
        t = 1.3
        got = kappa_closed_form(K, (0.3, 0.7), TorusParams(1j * t))
        assert abs(got - (2 * t) ** (-1.0) * 3 ** (-0.5)) < 1e-15

    def test_quadrature_oracle_with_height(self):
        # quadrature is the independent oracle for the closed form
        K = jain_matrix(1, 2)
        tau = TorusParams(1j)
        xi = tuple(np.array([0.5, 0.0]) * tau.tau)  # a = (1/2, 0)
        report = gram_center(K, xi, tau)
        assert report.kappa_rel_err < 1e-6


class TestInnerProductCenter:
    def test_orthogonality_g1(self):
        K = validate_wen_matrix([[2]])
        tau = TorusParams(1j)
        xi = (0.1 + 0.2j,)
        grp = pi_group(K)
        fns = [center_fn(K, xi, tau, c) for c in grp.elements]
        # p coprime to delta: at a multiple of delta the grid is invariant under
        # the magnetic translations and g01 would vanish whatever p
        g00 = inner_product_center(K, xi, tau, fns[0], fns[0], 31)
        g01 = inner_product_center(K, xi, tau, fns[0], fns[1], 31)
        assert abs(g01) / abs(g00) < 1e-8
        assert g00.real > 0 and abs(g00.imag) < 1e-12

    def test_matches_fast_path(self):
        K = validate_wen_matrix([[3]])
        tau = TAU
        xi = (0.2 + 0.1j,)
        grp = pi_group(K)
        report = gram_center(K, xi, tau)
        fns = [center_fn(K, xi, tau, c) for c in grp.elements]
        p = rule_points(report, K)
        for i in range(3):
            for j in range(3):
                direct = inner_product_center(K, xi, tau, fns[i], fns[j], p)
                assert abs(direct - report.matrix[i, j]) < 1e-12

    def test_matches_fast_path_two_layers(self):
        # g = 2 matches frequency residues and wrap signs on both axes
        K = jain_matrix(1, 2)
        tau = TorusParams(0.3 + 1.1j)
        xi = (0.15 + 0.1j, -0.2 + 0.25j)  # nonzero a and b on both axes
        report = gram_center(K, xi, tau)
        p = rule_points(report, K)
        fns = [center_fn(K, xi, tau, c) for c in pi_group(K).elements]
        for i in range(3):
            for j in range(3):
                direct = inner_product_center(K, xi, tau, fns[i], fns[j], p)
                assert abs(direct - report.matrix[i, j]) < 1e-12

    @pytest.mark.parametrize("rows,p", [([[3]], 4), ([[3, 2], [2, 3]], 3)])
    def test_matches_fast_path_unconverged(self, rows, p):
        # far below the rule's p the aliased pairs are large, so their residue
        # match and wrap sign must agree with the full grid
        from torushall.gram import _center_terms, _gram_center_at

        K = validate_wen_matrix(rows)
        xi = (0.15 + 0.1j, -0.2 + 0.25j)[: K.g]
        cs = pi_group(K).elements
        fast = _gram_center_at(K, xi, TAU, cs, _center_terms(K, xi, TAU, cs, 1e-12), p)
        assert np.max(np.abs(fast - gram_center(K, xi, TAU).matrix)) > 1e-4 * abs(fast[0, 0])
        fns = [center_fn(K, xi, TAU, c) for c in cs]
        for i in range(len(cs)):
            for j in range(len(cs)):
                direct = inner_product_center(K, xi, TAU, fns[i], fns[j], p)
                assert abs(direct - fast[i, j]) < 1e-12


class TestGramCenter:
    def test_scalar_single_layer(self):
        K = validate_wen_matrix([[3]])
        report = gram_center(K, (0.05 + 0.1j,), TorusParams(1j))
        assert report.offdiag_ratio < 1e-8
        assert report.diag_spread < 1e-8
        assert report.kappa_rel_err < 1e-6

    def test_non_primary_still_orthogonal(self):
        K = validate_wen_matrix([[2, 0], [0, 2]])
        report = gram_center(K, (0.1 + 0.05j, -0.02 + 0.08j), TAU)
        assert report.offdiag_ratio < 1e-8
        assert report.diag_spread < 1e-8
        assert report.kappa_rel_err < 1e-6

    def test_trivial_rank_one(self):
        K = validate_wen_matrix([[1]])
        report = gram_center(K, (0.1j,), TorusParams(1j))
        assert report.matrix.shape == (1, 1)
        assert report.matrix[0, 0].real > 0

    def test_hermitian_within_error(self):
        K = jain_matrix(1, 2)
        report = gram_center(K, (0.1, 0.2j), TorusParams(1j))
        assert report.hermiticity < 1e-12

    @staticmethod
    def _gram_center_in_order(monkeypatch, K, xi, order):
        # gram_center takes its basis order from pi_group
        from torushall import gram

        monkeypatch.setattr(gram, "pi_group", lambda _: SimpleNamespace(elements=order))
        return gram_center(K, xi, TorusParams(1j))

    @classmethod
    def _assert_permutes(cls, monkeypatch, K, xi):
        # re-ordering the basis by c -> c + u permutes the same estimates
        grp = pi_group(K)
        u = K.u_class()
        base = cls._gram_center_in_order(monkeypatch, K, xi, grp.elements)
        shifted = tuple(pi_add(c, u) for c in grp.elements)
        perm = [grp.index_of(c) for c in shifted]
        moved = cls._gram_center_in_order(monkeypatch, K, xi, shifted)
        assert perm != list(range(K.delta))
        for i in range(K.delta):
            for j in range(K.delta):
                assert moved.matrix[i, j] == base.matrix[perm[i], perm[j]]

    def test_permuted_basis_permutes_estimates(self, monkeypatch):
        self._assert_permutes(monkeypatch, validate_wen_matrix([[3]]), (0.1 + 0.2j,))

    def test_permuted_basis_permutes_estimates_two_layers(self, monkeypatch):
        # the README datum: each coset's residue sums are paired by basis value
        K = validate_wen_matrix([[3, 2], [2, 3]])
        self._assert_permutes(monkeypatch, K, (0.1 + 0.2j, 0j))

    @pytest.mark.parametrize(
        "rows,tau",
        [([[1]], 0.2 + 0.3j), ([[2]], 0.1 + 0.25j), ([[3]], 0.15j), ([[12]], 3j)],
    )
    def test_rule_points_coprime_and_converged(self, rows, tau):
        # small Im tau needs the x-aliasing term of the bound, large Im tau the
        # y term; y-aliasing shows in the diagonal spread, since the mean over
        # the cosets is a 1/delta-periodic sum that the rule integrates exactly
        K = validate_wen_matrix(rows)
        report = gram_center(K, (0.1 + 0.05j,), TorusParams(tau))
        assert report.scheme == "trapezoid"
        assert math.gcd(rule_points(report, K), K.delta) == 1
        assert report.kappa_rel_err < 1e-10
        assert max(report.offdiag_ratio, report.diag_spread) < 1e-10

    def test_repeated_coset_fails_orthogonality(self, monkeypatch):
        # a basis function paired with itself off the diagonal must not read as orthogonal
        from torushall.checks import gram_center_records

        K = validate_wen_matrix([[3, 2], [2, 3]])
        cs = pi_group(K).elements
        report = self._gram_center_in_order(monkeypatch, K, (0.1 + 0.2j, 0j), cs + cs[1:2])
        orthogonal = gram_center_records(report)[0]
        assert orthogonal["name"] == "gram.center_orthogonal"
        assert orthogonal["verdict"] == "FAIL"
        assert abs(report.offdiag_ratio - 1) < 1e-12

    def test_memory_bounded_by_budget_three_layers(self):
        # at large Im tau p grows while the lattice terms are few: the residue
        # sums keep one row per occurring residue, not p^g rows per coset
        K = validate_wen_matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        tracemalloc.start()
        try:
            report = gram_center(K, (0.1 + 0.05j, 0j, 0j), TorusParams(11j))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule_points(report, K) == 19
        assert peak < DEFAULT_BUDGET * np.dtype(complex).itemsize
        assert report.kappa_rel_err < 1e-10
        assert max(report.offdiag_ratio, report.diag_spread) < 1e-10

    def test_forced_coarse_rule_fails_a_record(self, monkeypatch):
        # every p coprime to delta integrates the mean diagonal exactly, so at
        # a forced p = 11 the y-aliasing of K = [[12]] at tau = 3i shows only
        # in the diagonal spread (about 2e-2); the records must report it
        from torushall import gram
        from torushall.checks import gram_center_records

        monkeypatch.setattr(gram, "_rule_points", lambda *args: (11, 13))
        K = validate_wen_matrix([[12]])
        report = gram_center(K, (0.1 + 0.05j,), TorusParams(3j))
        failed = [r["name"] for r in gram_center_records(report) if r["verdict"] == "FAIL"]
        assert failed == ["gram.center_scalar"]
        assert report.diag_spread > 1e-2

    def test_doubling_shift_small(self):
        K = validate_wen_matrix([[2]])
        report = gram_center(K, (0j,), TorusParams(1j))
        assert report.doubling_shift < 1e-10


class TestGramManybody:
    def test_two_particle_scalar_qmc(self):
        K = validate_wen_matrix([[2]])
        datum = validate_wen_datum(K, (2,))
        spec = WaveFunctionSpec(datum=datum, xi=(0j,), torus=TorusParams(1j))
        quad = QuadratureSpec(scheme="qmc", samples=1 << 16, replicates=8, seed=3)
        report = gram_manybody(spec, quad)
        assert report.scalar_pass
        assert report.offdiag_sigmas < 3.0
        assert report.diag_pair_sigmas < 3.0
        assert max(report.offdiag_ratio, report.diag_spread) < 0.02

    def test_qmc_matches_tensor(self):
        K = validate_wen_matrix([[2]])
        datum = validate_wen_datum(K, (2,))
        spec = WaveFunctionSpec(datum=datum, xi=(0.1 + 0.1j,), torus=TorusParams(1j))
        tens = gram_manybody(spec, QuadratureSpec(scheme="tensor-gauss", points_per_axis=20))
        qmcr = gram_manybody(spec, QuadratureSpec(scheme="qmc", samples=1 << 16, replicates=8))
        for i in range(2):
            for j in range(2):
                tol = 5 * max(qmcr.stderr[i, j], 1e-6)
                assert abs(tens.matrix[i, j] - qmcr.matrix[i, j]) < tol

    def test_trivial_dimension(self):
        K = validate_wen_matrix([[1]])
        datum = validate_wen_datum(K, (1,))
        spec = WaveFunctionSpec(datum=datum, xi=(0j,), torus=TorusParams(1j))
        report = gram_manybody(spec, QuadratureSpec(scheme="qmc", samples=1 << 12, replicates=4))
        assert report.matrix.shape == (1, 1)
        assert report.scalar_pass

    def test_deterministic_for_seed(self):
        K = validate_wen_matrix([[2]])
        datum = validate_wen_datum(K, (2,))
        spec = WaveFunctionSpec(datum=datum, xi=(0j,), torus=TorusParams(1j))
        quad = QuadratureSpec(scheme="qmc", samples=1 << 13, replicates=4, seed=11)
        r1 = gram_manybody(spec, quad)
        r2 = gram_manybody(spec, quad)
        assert np.array_equal(r1.matrix, r2.matrix)
        assert np.array_equal(r1.stderr, r2.stderr)

    def test_auto_picks_tensor_for_small_dim(self):
        K = validate_wen_matrix([[1]])
        datum = validate_wen_datum(K, (1,))
        spec = WaveFunctionSpec(datum=datum, xi=(0j,), torus=TorusParams(1j))
        report = gram_manybody(spec, QuadratureSpec(points_per_axis=16))
        assert report.scheme == "tensor-gauss"

    def test_budget_guard(self):
        K = validate_wen_matrix([[2]])
        datum = validate_wen_datum(K, (2,))
        spec = WaveFunctionSpec(datum=datum, xi=(0j,), torus=TorusParams(1j))
        with pytest.raises(SamplingBudgetExceededError):
            gram_manybody(spec, QuadratureSpec(scheme="qmc", samples=1 << 30, budget=1 << 20))

    def test_nan_values_fail_every_record(self, monkeypatch):
        # one NaN value per sample must not leave a statistic that reads as a pass
        from torushall import checks, gram

        original = gram._manybody_values

        def with_nan(spec, pts, basis, tol):
            weight, values = original(spec, pts, basis, tol)
            values[1, 0] = np.nan
            return weight, values

        monkeypatch.setattr(gram, "_manybody_values", with_nan)
        K = validate_wen_matrix([[3]])
        spec = WaveFunctionSpec(
            datum=validate_wen_datum(K, (1,)), xi=(0j,), torus=TorusParams(1j)
        )
        quad = QuadratureSpec(scheme="qmc", samples=1 << 10, replicates=4)
        report = gram_manybody(spec, quad)
        assert np.isnan(report.offdiag_sigmas) and np.isnan(report.diag_pair_sigmas)
        assert report.scalar_pass is False
        verdicts = [r["verdict"] for r in checks.gram_manybody_records(report)]
        assert verdicts == ["FAIL", "FAIL"]

    @pytest.mark.parametrize("m,n", [(3, 6), (2, 7)])
    def test_laughlin_gram_finite(self, m, n):
        # these sizes reach theta arguments whose unreduced phases overflow
        spec = WaveFunctionSpec(
            datum=validate_wen_datum(validate_wen_matrix([[m]]), (n,)),
            xi=(0j,),
            torus=TorusParams(1j),
        )
        report = gram_manybody(spec, QuadratureSpec(scheme="qmc", samples=1 << 13, seed=0))
        gmat = report.matrix
        assert np.all(np.isfinite(gmat)) and np.all(np.isfinite(report.stderr))
        assert np.max(np.abs(gmat - gmat.conj().T)) <= 1e-12 * np.max(np.abs(gmat))

    def test_values_finite_over_unit_cell(self):
        from torushall.gram import _manybody_basis, _manybody_values

        spec = WaveFunctionSpec(
            datum=validate_wen_datum(validate_wen_matrix([[3]]), (6,)),
            xi=(0j,),
            torus=TorusParams(1j),
        )
        pts = np.random.default_rng(0).random((4096, 12))
        weight, values = _manybody_values(spec, pts, _manybody_basis(spec), 1e-12)
        assert np.all(np.isfinite(weight)) and np.all(np.isfinite(values))

    def test_two_layer_scalar(self):
        # three-dimensional basis over a 4-dimensional sample space
        K = jain_matrix(1, 2)
        datum = validate_wen_datum(K, (1, 1))
        rng = np.random.default_rng(5)
        xi = tuple(rng.normal(size=2) * 0.2 + 1j * rng.normal(size=2) * 0.2)
        spec = WaveFunctionSpec(datum=datum, xi=xi, torus=TorusParams(1j))
        quad = QuadratureSpec(scheme="qmc", samples=1 << 20, replicates=16, seed=7)
        report = gram_manybody(spec, quad)
        assert report.total_points >= 10**6
        assert max(report.offdiag_ratio, report.diag_spread) < 0.05
        assert report.scalar_pass
