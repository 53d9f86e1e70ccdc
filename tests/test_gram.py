import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import coset_index, pi_add, u_class
from torushall.gram import (
    DEFAULT_BUDGET,
    QuadratureSpec,
    SamplingBudgetExceededError,
    _log_height_weight,
    gram_center,
    gram_manybody,
    kappa_closed_form,
)
from torushall.heisenberg import rep_matrices
from torushall.theta import (
    OmegaMatrix,
    ThetaCharacteristics,
    TorusParams,
    riemann_theta_batch,
)
from torushall.wavefunctions import WaveFunctionSpec
from torushall.wen import (
    jain_matrix,
    pi_group,
    validate_wen_datum,
    validate_wen_matrix,
)

TAU = TorusParams(0.2 + 0.9j)
README_K = [[3, 2], [2, 3]]
K_G3 = [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
# xi, by g, with K^-1 a outside [-1/2, 1/2]^g at Im tau 0.9 and 1.1; at 1.1,
# K^-1 a is (0.55, -0.45) for README_K and (0.6, -0.3, -0.3) for K_G3 and for
# [[3, 2, 2], [2, 3, 2], [2, 2, 3]]
XI_FAR = {2: (0.2 + 0.825j, -0.1 - 0.275j), 3: (0.1 + 0.66j, -0.2 - 0.33j, 0.05 - 0.33j)}


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

    @pytest.mark.parametrize(
        "rows,xi",
        [
            pytest.param([[2, 1], [1, 2]], (0.15 + 0.1j, -0.2 + 0.25j), id="jain12"),
            pytest.param(README_K, (0.1 + 0.9j, -0.3 + 0.7j), id="readme"),
            pytest.param(README_K, XI_FAR[2], id="readme-far"),
            pytest.param(K_G3, XI_FAR[3], id="g3-far"),
        ],
    )
    def test_matches_fast_path_two_layers(self, rows, xi):
        # g >= 2 matches frequency residues and wrap signs on every axis, with
        # nonzero a and b on each; for the far xi the heights y + K^-1 a of
        # every node lie outside [-1/2, 1/2]^g before the rule moves them
        K = validate_wen_matrix(rows)
        tau = TorusParams(0.3 + 1.1j)
        report = gram_center(K, xi, tau)
        p = rule_points(report, K)
        fns = [center_fn(K, xi, tau, c) for c in pi_group(K).elements]
        for i in range(len(fns)):
            for j in range(len(fns)):
                direct = inner_product_center(K, xi, tau, fns[i], fns[j], p)
                assert abs(direct - report.matrix[i, j]) < 1e-12

    @pytest.mark.parametrize(
        "rows,p,xi",
        [
            pytest.param([[3]], 4, (0.15 + 0.1j,), id="rows0-4"),
            pytest.param(README_K, 3, (0.15 + 0.1j, -0.2 + 0.25j), id="rows1-3"),
            pytest.param(README_K, 3, (0.1 + 0.9j, -0.3 + 0.7j), id="readme-3"),
            pytest.param(README_K, 3, XI_FAR[2], id="readme-far-3"),
            pytest.param([[3, 2, 2], [2, 3, 2], [2, 2, 3]], 3, XI_FAR[3], id="g3-far-3"),
        ],
    )
    def test_matches_fast_path_unconverged(self, rows, p, xi):
        # far below the rule's p the aliased pairs are large, so their residue
        # match and wrap sign must agree with the full grid
        from torushall.gram import _center_terms, _gram_center_at

        K = validate_wen_matrix(rows)
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
        u = u_class(K)
        base = cls._gram_center_in_order(monkeypatch, K, xi, grp.elements)
        shifted = tuple(pi_add(c, u) for c in grp.elements)
        perm = [coset_index(grp, c) for c in shifted]
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

        monkeypatch.setattr(gram, "_rule_points", lambda *args: (11, 1.0))
        K = validate_wen_matrix([[12]])
        report = gram_center(K, (0.1 + 0.05j,), TorusParams(3j))
        failed = [r["name"] for r in gram_center_records(report) if r["verdict"] == "FAIL"]
        assert failed == ["gram.center_scalar"]
        assert report.diag_spread > 1e-2

    def test_report_keeps_formed_gram(self):
        # the report carries the Gram exactly as formed, down to the -0.0
        # imaginary parts that this K's off-diagonal entries have
        from torushall import gram

        K = validate_wen_matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        tp = TorusParams(1j)
        xi = (0j,) * 3
        report = gram_center(K, xi, tp)
        cs = pi_group(K).elements
        p, _ = gram._rule_points(K.entries, K.delta, tp.t, 1e-12)
        formed = gram._gram_center_at(K, xi, tp, cs, gram._center_terms(K, xi, tp, cs, 1e-12), p)
        assert np.signbit(formed.imag).any()
        assert report.matrix.tobytes() == formed.tobytes()

    def test_keeps_only_terms_that_reach_tol(self):
        # the window is cut like the theta kernel's: the README datum's
        # untrimmed boxes held 169 terms per coset
        from torushall import gram

        K = validate_wen_matrix([[3, 2], [2, 3]])
        cs = pi_group(K).elements
        terms = gram._center_terms(K, (0.1 + 0.2j, 0j), TorusParams(1j), cs, 1e-12)
        assert max(m.shape[0] for m, _ in terms) <= 50

    def test_one_window_shared_with_center_basis(self):
        # one window serves every coset of the Gram, and the center basis of
        # the same K, tau, cosets and tol then reads it from the cache
        from torushall.theta import _window
        from torushall.wavefunctions import center_basis_values

        K = validate_wen_matrix(README_K)
        xi, tp = (0.1 + 0.2j, 0j), TorusParams(1j)
        _window.cache_clear()
        gram_center(K, xi, tp, tol=1e-12)
        info = _window.cache_info()
        assert (info.misses, info.hits) == (1, 0)
        spec = WaveFunctionSpec(datum=validate_wen_datum(K, (1, 1)), xi=xi, torus=tp)
        center_basis_values(spec, pi_group(K).elements, np.zeros((4, 2)), 1e-12)
        info = _window.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_aliasing_bound_small(self):
        K = validate_wen_matrix([[2]])
        report = gram_center(K, (0j,), TorusParams(1j))
        assert report.aliasing_bound < 1e-12 / 4

    def test_readme_datum_formed_once(self, monkeypatch):
        # the Gram is formed at its a-priori p alone, with no check grid
        from torushall import gram

        seen = []
        real = gram._gram_center_at

        def spy(K, xi, tp, cs, terms, p):
            seen.append(p)
            return real(K, xi, tp, cs, terms, p)

        monkeypatch.setattr(gram, "_gram_center_at", spy)
        K = validate_wen_matrix([[3, 2], [2, 3]])
        report = gram_center(K, (0.1 + 0.2j, 0j), TorusParams(1j))
        assert seen == [7]
        assert report.total_points == 7**4
        assert report.aliasing_bound < 2.5e-13


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

    def test_qmc_matches_trapezoid(self):
        K = validate_wen_matrix([[2]])
        datum = validate_wen_datum(K, (2,))
        spec = WaveFunctionSpec(datum=datum, xi=(0.1 + 0.1j,), torus=TorusParams(1j))
        trap = gram_manybody(spec, QuadratureSpec(scheme="trapezoid"))
        qmcr = gram_manybody(spec, QuadratureSpec(scheme="qmc", samples=1 << 16, replicates=8))
        for i in range(2):
            for j in range(2):
                tol = 5 * max(qmcr.stderr[i, j], 1e-6)
                assert abs(trap.matrix[i, j] - qmcr.matrix[i, j]) < tol

    @pytest.mark.parametrize(
        "rows,n_vec,xi",
        [([[2]], (2,), (0j,)), ([[3, 2], [2, 3]], (1, 1), (0.1 + 0.2j, 0j))],
        ids=["k2-n2", "readme"],
    )
    def test_trapezoid_p_coprime_to_flux(self, rows, n_vec, xi):
        # for p a multiple of d the grid is invariant under the magnetic
        # translations and the off-diagonal entries vanish unconverged
        datum = validate_wen_datum(validate_wen_matrix(rows), n_vec)
        spec = WaveFunctionSpec(datum=datum, xi=xi, torus=TorusParams(1j))
        report = gram_manybody(spec, QuadratureSpec(scheme="trapezoid"))
        p = round(report.total_points ** (1 / (2 * datum.n)))
        assert p ** (2 * datum.n) == report.total_points
        assert math.gcd(p, datum.d) == 1
        assert report.aliasing_bound < 1e-12
        assert max(report.offdiag_ratio, report.diag_spread) < 1e-10

    def test_readme_datum_rule_points(self, monkeypatch):
        # the a-priori p of the form 5 I_2 at tau = i, the only p formed
        from torushall import gram

        seen = []
        real = gram._gram_manybody_at

        def spy(spec, basis, p, tol):
            seen.append(p)
            return real(spec, basis, p, tol)

        monkeypatch.setattr(gram, "_gram_manybody_at", spy)
        datum = validate_wen_datum(validate_wen_matrix([[3, 2], [2, 3]]), (1, 1))
        spec = WaveFunctionSpec(datum=datum, xi=(0.1 + 0.2j, 0j), torus=TorusParams(1j))
        report = gram_manybody(spec, QuadratureSpec(scheme="trapezoid"))
        assert seen == [11]
        assert report.total_points == 11**4
        assert max(report.offdiag_ratio, report.diag_spread) <= 1e-10

    @pytest.mark.parametrize(
        "k,xi,tau",
        [(2, 0.1 + 0.05j, 1j), (3, 0.2 + 0.1j, 0.2 + 0.9j), (5, 0.1j, 2j), (12, 0.1 + 0.05j, 3j)],
    )
    def test_one_particle_matches_center(self, k, xi, tau):
        # for K = [[k]] and n = (1,) the flux number is k and Phi_c = H_c, so
        # both rules size the same grid for the same Gram
        K = validate_wen_matrix([[k]])
        spec = WaveFunctionSpec(
            datum=validate_wen_datum(K, (1,)), xi=(xi,), torus=TorusParams(tau)
        )
        many = gram_manybody(spec, QuadratureSpec(scheme="trapezoid"))
        center = gram_center(K, (xi,), TorusParams(tau))
        assert many.basis_labels == center.basis_labels
        assert many.total_points == center.total_points
        assert np.max(np.abs(many.matrix - center.matrix)) <= 1e-12 * center.kappa_ref

    def test_forced_coarse_trapezoid_fails_scalar(self, monkeypatch):
        # an unconverged p must fail the record, not pass it by construction
        from torushall import gram
        from torushall.checks import gram_manybody_records

        monkeypatch.setattr(gram, "_rule_points", lambda *args: (3, 1.0))
        datum = validate_wen_datum(validate_wen_matrix([[3, 2], [2, 3]]), (1, 1))
        spec = WaveFunctionSpec(datum=datum, xi=(0.1 + 0.2j, 0j), torus=TorusParams(1j))
        report = gram_manybody(spec, QuadratureSpec(scheme="trapezoid"))
        assert report.total_points == 3**4
        verdicts = {r["name"]: r["verdict"] for r in gram_manybody_records(report)}
        assert verdicts == {"gram.manybody_scalar": "FAIL"}
        assert report.scalar_pass is False

    @pytest.mark.parametrize(
        "rows,primary",
        [([[3, 2], [2, 3]], True), ([[2, 0], [0, 2]], False)],
        ids=["primary", "non-primary"],
    )
    def test_basis_order_from_rep_matrices(self, rows, primary):
        K = validate_wen_matrix(rows)
        assert K.primary == primary
        datum = validate_wen_datum(K, (1, 1))
        spec = WaveFunctionSpec(datum=datum, xi=(0j, 0j), torus=TorusParams(1j))
        report = gram_manybody(spec, QuadratureSpec(scheme="qmc", samples=1 << 10, replicates=4))
        labels = tuple(
            "(" + ", ".join(str(x) for x in c) + ")" for c in rep_matrices(datum).basis
        )
        assert report.basis_labels == labels

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

    def test_replicates_share_windows(self):
        # the center basis and the odd theta each build one window, which all
        # 16 replicates of the Gram then read from the cache
        from torushall.theta import _window

        datum = validate_wen_datum(jain_matrix(1, 2), (1, 1))
        spec = WaveFunctionSpec(datum=datum, xi=(0j, 0j), torus=TorusParams(1j))
        _window.cache_clear()
        gram_manybody(spec, QuadratureSpec(scheme="qmc", samples=1 << 10, replicates=16))
        info = _window.cache_info()
        assert (info.misses, info.hits) == (2, 30)

    @pytest.mark.parametrize("replicates", [1, 0, -3])
    def test_rejects_fewer_than_two_replicates(self, replicates):
        # the replicate standard error divides by replicates - 1: one replicate
        # would give a NaN stderr and a NaN sigma verdict
        with pytest.raises(ValueError, match="replicate standard error"):
            QuadratureSpec(scheme="qmc", samples=1 << 10, replicates=replicates)

    def test_auto_picks_trapezoid_for_small_dim(self):
        K = validate_wen_matrix([[1]])
        datum = validate_wen_datum(K, (1,))
        spec = WaveFunctionSpec(datum=datum, xi=(0j,), torus=TorusParams(1j))
        report = gram_manybody(spec, QuadratureSpec())
        assert report.scheme == "trapezoid"

    def test_auto_picks_qmc_for_three_particles(self):
        K = validate_wen_matrix([[1]])
        datum = validate_wen_datum(K, (3,))
        spec = WaveFunctionSpec(datum=datum, xi=(0j,), torus=TorusParams(1j))
        report = gram_manybody(spec, QuadratureSpec(samples=1 << 10, replicates=4))
        assert report.scheme == "qmc"

    def test_budget_guard(self, monkeypatch):
        from torushall import gram

        def unformed(*args):
            raise AssertionError("formed a grid over the budget")

        K = validate_wen_matrix([[2]])
        datum = validate_wen_datum(K, (2,))
        spec = WaveFunctionSpec(datum=datum, xi=(0j,), torus=TorusParams(1j))
        with pytest.raises(SamplingBudgetExceededError):
            gram_manybody(spec, QuadratureSpec(scheme="qmc", samples=2 * DEFAULT_BUDGET))
        # ten particles are over it before the rule forms its (2r - 1)^10 box
        # of aliasing frequencies or any p^20 grid
        spec = WaveFunctionSpec(
            datum=validate_wen_datum(K, (10,)), xi=(0j,), torus=TorusParams(1j)
        )
        monkeypatch.setattr(gram, "_tensor_grid", unformed)
        monkeypatch.setattr(gram, "_gram_manybody_at", unformed)
        with pytest.raises(SamplingBudgetExceededError):
            gram_manybody(spec, QuadratureSpec(scheme="trapezoid"))

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
        from torushall.gram import _manybody_values

        spec = WaveFunctionSpec(
            datum=validate_wen_datum(validate_wen_matrix([[3]]), (6,)),
            xi=(0j,),
            torus=TorusParams(1j),
        )
        pts = np.random.default_rng(0).random((4096, 12))
        weight, values = _manybody_values(spec, pts, rep_matrices(spec.datum).basis, 1e-12)
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


def _relative_shift(gmat, ref):
    """Largest entry difference of a Gram from a reference, over the reference's mean diagonal."""
    return np.max(np.abs(gmat - ref)) / np.mean(np.real(np.diag(ref)))


def _reference_p(p, modulus):
    """The first integer at least 6 above p that is coprime to modulus."""
    return next(q for q in itertools.count(p + 6) if math.gcd(q, modulus) == 1)


class TestAliasingBound:
    """The a-priori aliasing bound of ``_rule_points`` against a finer reference rule.

    The rule is sized at the target itself (the _RULE_TOL_MAX cap lifted),
    so that p is as small as the bound allows; the reference Gram is the
    same midpoint rule at a p coprime to the modulus and at least 6 above.
    Small Im tau needs the x family of the bound, large Im tau the y family.
    """

    TARGETS = [1e-4, 1e-8]

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize(
        "rows,xi,tau",
        [
            ([[3, 2], [2, 3]], (0.1 + 0.2j, 0j), 1j),
            ([[12]], (0.1 + 0.05j,), 3j),
        ],
        ids=["readme", "k12-3i"],
    )
    def test_center(self, monkeypatch, rows, xi, tau, target):
        from torushall import gram

        monkeypatch.setattr(gram, "_RULE_TOL_MAX", 1.0)
        K = validate_wen_matrix(rows)
        tp = TorusParams(tau)
        cs = pi_group(K).elements
        terms = gram._center_terms(K, xi, tp, cs, 1e-12)
        p, bound = gram._rule_points(K.entries, K.delta, tp.t, target)
        assert bound < target / 4
        gmat = gram._gram_center_at(K, xi, tp, cs, terms, p)
        ref = gram._gram_center_at(K, xi, tp, cs, terms, _reference_p(p, K.delta))
        assert _relative_shift(gmat, ref) <= bound

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize(
        "rows,n_vec,xi,tau",
        [
            ([[3, 2], [2, 3]], (1, 1), (0.1 + 0.2j, 0j), 1j),
            ([[2, 1], [1, 2]], (1, 1), (0.1 + 0.2j, 0j), 0.3 + 1.1j),
            ([[2]], (2,), (0.1 + 0.05j,), 0.4j),
            ([[2]], (2,), (0.1 + 0.05j,), 3j),
            ([[3]], (2,), (0.1 + 0.05j,), 0.5j),
            ([[3]], (2,), (0.1 + 0.05j,), 2j),
            ([[4]], (1,), (0.1 + 0.05j,), 3j),
        ],
        ids=["readme", "jain12", "k2n2-0.4i", "k2n2-3i", "k3n2-0.5i", "k3n2-2i", "k4n1-3i"],
    )
    def test_manybody(self, monkeypatch, rows, n_vec, xi, tau, target):
        from torushall import gram

        monkeypatch.setattr(gram, "_RULE_TOL_MAX", 1.0)
        datum = validate_wen_datum(validate_wen_matrix(rows), n_vec)
        spec = WaveFunctionSpec(datum=datum, xi=xi, torus=TorusParams(tau))
        basis = rep_matrices(datum).basis
        n, d = datum.n, datum.d
        p, bound = gram._rule_points(d * np.eye(n), d, spec.torus.t, target)
        assert bound < target / 4
        gmat = gram._gram_manybody_at(spec, basis, p, 1e-12)
        ref = gram._gram_manybody_at(spec, basis, _reference_p(p, d), 1e-12)
        assert _relative_shift(gmat, ref) <= bound
