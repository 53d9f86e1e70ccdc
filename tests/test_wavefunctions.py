from fractions import Fraction

import numpy as np
import pytest

from conftest import pi_add, u_class, upsilon
from torushall import checks
from torushall.theta import (
    ThetaCharacteristics,
    TorusParams,
    jacobi_theta,
    riemann_theta_batch,
    theta_odd,
    theta_odd_batch,
)
from torushall.wavefunctions import (
    ShapeMismatchError,
    WaveFunctionSpec,
    center_basis_batch,
    center_basis_values,
    jastrow_batch,
    kvw_wavefunction,
    magnetic_action_residual,
    phi_values,
    random_configuration,
)
from torushall.wen import (
    pi_group,
    validate_wen_datum,
    validate_wen_matrix,
)

TAU = TorusParams(0.2 + 0.9j)


def _residual(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _spec(kmat, nvec, xi, tau=TAU):
    K = validate_wen_matrix(kmat)
    datum = validate_wen_datum(K, nvec)
    return WaveFunctionSpec(datum=datum, xi=tuple(xi), torus=tau)


def center_basis(spec, c, w):
    """H_c at one center point w."""
    return complex(center_basis_batch(spec, c, np.asarray(w, dtype=complex)[None, :])[0])


def layers_of(datum, config):
    """The (1, n_k) coordinates of each layer of one (n,) configuration."""
    z = np.asarray(config, dtype=complex)[None, :]
    return np.split(z, np.cumsum(datum.n_vec)[:-1], axis=1)


def jastrow(datum, config):
    """The coincidence factor D at one configuration, on the module's torus."""
    return complex(jastrow_batch(datum, TAU, layers_of(datum, config))[0])


def shift_one(datum, config, k, p, step):
    """The configuration with z_p of layer k moved by step."""
    moved = np.array(config, dtype=complex)
    moved[sum(datum.n_vec[:k]) + p] += step
    return moved


def translate(spec, which, z):
    """T1 or T2 at an (M, n) array z as (moved, factor): (T Phi)(z) = factor * Phi(moved).

    T1 moves every coordinate by 1/d with factor 1; T2 moves it by tau/d with
    the product of the one-particle factors exp((2 pi i xi_k + pi i tau)/d + 2 pi i z).
    """
    z = np.asarray(z, dtype=complex)
    d = spec.datum.d
    if which == "t1":
        return z + 1.0 / d, np.ones(z.shape[0])
    owner = np.repeat(np.arange(spec.g), spec.datum.n_vec)
    xi = np.asarray(spec.xi, dtype=complex)[owner]
    one_particle = np.exp((2j * np.pi * xi + 1j * np.pi * spec.torus.tau) / d + 2j * np.pi * z)
    return z + spec.torus.tau / d, np.prod(one_particle, axis=1)


def shift_factor(spec, k, z, step):
    """The predicted multiplier of Phi_c when z = z_p^(k) moves by 1 or by tau."""
    eps = spec.sector_sign()
    if step == 1.0:
        return eps
    phi = np.exp(-1j * np.pi * spec.torus.tau - 2j * np.pi * z)
    return eps * np.exp(-2j * np.pi * spec.xi[k]) * phi**spec.datum.d


def single_layer_reference(m, xi, tau, j, zs):
    """theta[(j-1)/m, 0](m w + xi | m tau) times the pair loop prod_{p<q} v(z_p - z_q)^m.

    The single-layer wave function written out term by term: a reference
    for kvw_wavefunction at g = 1 that shares no batching with it.
    """
    center = jacobi_theta((j - 1) / m, 0.0, m * sum(zs) + xi, TorusParams(m * tau.tau))
    d = 1.0 + 0.0j
    for p in range(len(zs)):
        for q in range(p + 1, len(zs)):
            d *= theta_odd(zs[p] - zs[q], tau) ** m
    return center * d


class TestOneParticleBasis:
    """The one-particle basis h_j(z) = theta[(j-1)/k, 0](k z + xi | k tau) is H_c of K = [[k]]."""

    @staticmethod
    def _h(k, xi, j, z):
        spec = _spec([[k]], (1,), (xi,))
        return center_basis(spec, pi_group(spec.datum.matrix).elements[j - 1], [z])

    def test_k1_reduces_to_plain_theta(self, rng):
        xi = 0.2 + 0.3j
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            got = self._h(1, xi, 1, z)
            want = jacobi_theta(0, 0, z + xi, TAU)
            assert abs(got - want) < 1e-13

    def test_periodic_in_unit_shift(self, rng):
        k, xi = 3, 0.1 - 0.2j
        for j in (1, 2, 3):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            assert _residual(self._h(k, xi, j, z + 1), self._h(k, xi, j, z)) < 1e-12

    def test_fractional_shift_eigenvalue(self, rng):
        # moving z by 1/k scales h_j by exp(2 pi i (j-1)/k)
        k, xi = 4, 0.3j
        for j in range(1, k + 1):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            got = self._h(k, xi, j, z + 1.0 / k)
            want = np.exp(2j * np.pi * (j - 1) / k) * self._h(k, xi, j, z)
            assert _residual(got, want) < 1e-12


class TestCenterBasis:
    def test_g1_matches_one_particle(self, rng):
        spec = _spec([[3]], (1,), (0.15 + 0.25j,))
        grp = pi_group(spec.datum.matrix)
        for j, c in enumerate(grp.elements, start=1):
            w = np.array([complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))])
            got = center_basis(spec, c, w)
            want = jacobi_theta((j - 1) / 3, 0.0, 3 * w[0] + spec.xi[0], TorusParams(3 * TAU.tau))
            assert abs(got - want) < 1e-12

    def test_integer_periodicity(self, rng):
        spec = _spec([[2, 1], [1, 2]], (1, 1), (0.1j, 0.2))
        grp = pi_group(spec.datum.matrix)
        for c in grp.elements:
            w = rng.uniform(-0.5, 0.5, size=2) + 1j * rng.uniform(-0.3, 0.3, size=2)
            l = rng.integers(-2, 3, size=2).astype(float)
            assert _residual(center_basis(spec, c, w + l), center_basis(spec, c, w)) < 1e-11

    def test_shift_action_eigenvalue(self, rng):
        # H_c(w + a) = upsilon(a, c) H_c(w) for a in the coset group
        spec = _spec([[2, 1], [1, 2]], (1, 1), (0.1 + 0.2j, -0.1 + 0.1j))
        K = spec.datum.matrix
        grp = pi_group(K)
        for a in grp.elements:
            for c in grp.elements:
                w = rng.uniform(-0.5, 0.5, size=2) + 1j * rng.uniform(-0.3, 0.3, size=2)
                lhs = center_basis(spec, c, w + np.array([float(x) for x in a]))
                rhs = upsilon(a, c, K) * center_basis(spec, c, w)
                assert _residual(lhs, rhs) < 1e-11


class TestJastrow:
    def test_vanishes_at_coincidence(self):
        K = validate_wen_matrix([[2]])
        datum = validate_wen_datum(K, (3,))
        z = 0.3 + 0.1j
        config = [z, z, 0.7 - 0.2j]
        assert abs(jastrow(datum, config)) < 1e-12

    def test_single_layer_matches_direct_product(self, rng):
        m, n = 3, 3
        K = validate_wen_matrix([[m]])
        datum = validate_wen_datum(K, (n,))
        zs = rng.uniform(-0.5, 0.5, size=n) + 1j * rng.uniform(-0.3, 0.3, size=n)
        config = zs
        want = 1.0 + 0j
        for p in range(n):
            for q in range(p + 1, n):
                want *= theta_odd(zs[p] - zs[q], TAU) ** m
        assert _residual(jastrow(datum, config), want) < 1e-12

    def test_swap_sign(self, rng):
        for m in (2, 3):
            K = validate_wen_matrix([[m]])
            datum = validate_wen_datum(K, (2,))
            z1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            z2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            plain = jastrow(datum, [z1, z2])
            swapped = jastrow(datum, [z2, z1])
            assert _residual(swapped, (-1.0) ** m * plain) < 1e-12

    def test_shape_mismatch(self):
        spec = _spec([[2]], (2,), (0j,))
        c = pi_group(spec.datum.matrix).elements[0]
        with pytest.raises(ShapeMismatchError):
            kvw_wavefunction(spec, c, [0.1 + 0j])


class TestKvwWavefunction:
    def test_g1_equals_single_layer_form(self, rng):
        m, n = 2, 3
        spec = _spec([[m]], (n,), (0.1 + 0.2j,))
        grp = pi_group(spec.datum.matrix)
        for j, c in enumerate(grp.elements, start=1):
            config = random_configuration(spec, rng)
            got = kvw_wavefunction(spec, c, config)
            want = single_layer_reference(m, spec.xi[0], spec.torus, j, config)
            assert _residual(got, want) < 1e-12

    def test_factorizes_exactly(self, rng):
        spec = _spec([[2, 1], [1, 2]], (2, 2), (0.05j, 0.1))
        c = pi_group(spec.datum.matrix).elements[1]
        config = random_configuration(spec, rng)
        whole = kvw_wavefunction(spec, c, config)
        w = [layer.sum() for layer in layers_of(spec.datum, config)]
        parts = center_basis(spec, c, w) * jastrow(spec.datum, config)
        assert abs(whole - parts) <= 1e-12 * max(1.0, abs(whole))

    @pytest.mark.parametrize(
        "kmat,nvec",
        [([[2]], (2,)), ([[3]], (2,)), ([[2, 1], [1, 2]], (1, 1))],
    )
    def test_lattice_shift_laws(self, kmat, nvec, rng):
        spec = _spec(kmat, nvec, tuple(0.1 + 0.1j for _ in nvec))
        grp = pi_group(spec.datum.matrix)
        for _ in range(20):
            config = random_configuration(spec, rng)
            c = grp.elements[rng.integers(0, len(grp))]
            k = int(rng.integers(0, len(nvec)))
            p = int(rng.integers(0, nvec[k]))
            base = kvw_wavefunction(spec, c, config)
            z = layers_of(spec.datum, config)[k][0, p]
            for step in (1.0, spec.torus.tau):
                got = kvw_wavefunction(spec, c, shift_one(spec.datum, config, k, p, step))
                assert _residual(got, shift_factor(spec, k, z, step) * base) < 1e-9

    def test_sector_signs(self):
        # even diagonal: sign (-1)^d; odd diagonal: -(-1)^d
        assert _spec([[2]], (2,), (0j,)).sector_sign() == 1  # d = 4
        assert _spec([[2, 1], [1, 2]], (1, 1), (0j, 0j)).sector_sign() == -1  # d = 3
        assert _spec([[3]], (1,), (0j,)).sector_sign() == 1  # d = 3, odd diag
        assert _spec([[3]], (2,), (0j,)).sector_sign() == -1  # d = 6, odd diag

    def test_vanishes_on_coupled_diagonal(self, rng):
        spec = _spec([[2, 1], [1, 2]], (1, 1), (0.1j, 0.05))
        z = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
        config = [z, z]
        for c in pi_group(spec.datum.matrix).elements:
            assert abs(kvw_wavefunction(spec, c, config)) < 1e-10


class TestHaldaneRezayi:
    """The single-layer wave function: kvw_wavefunction of K = [[m]]."""

    @staticmethod
    def _phi(m, xi, j, zs):
        spec = _spec([[m]], (len(zs),), (xi,))
        c = pi_group(spec.datum.matrix).elements[j - 1]
        return kvw_wavefunction(spec, c, zs)

    def test_symmetry_by_parity(self, rng):
        xi = 0.2 - 0.1j
        for m, sign in ((2, 1.0), (3, -1.0)):
            zs = rng.uniform(-0.5, 0.5, size=3) + 1j * rng.uniform(-0.3, 0.3, size=3)
            plain = self._phi(m, xi, 1, zs)
            swapped = self._phi(m, xi, 1, [zs[1], zs[0], zs[2]])
            assert _residual(swapped, sign * plain) < 1e-11

    def test_single_particle_is_center_only(self, rng):
        m, xi = 3, 0.1 + 0.2j
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
        for j in (1, 2, 3):
            got = self._phi(m, xi, j, [z])
            want = jacobi_theta((j - 1) / m, 0, m * z + xi, TorusParams(m * TAU.tau))
            assert abs(got - want) < 1e-13

    def test_vanishing_order_on_diagonal(self):
        # log-log slope of |Phi| against the diagonal offset approximates m
        m, xi = 2, 0.1 + 0.1j
        z0 = 0.21 + 0.13j
        hs = np.array([10.0**-e for e in (2.0, 2.5, 3.0, 3.5)])
        vals = np.array([abs(self._phi(m, xi, 1, [z0, z0 + h])) for h in hs])
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert abs(slope - m) < 0.1


class TestMagneticAction:
    def test_t1_eigenvalue_constant(self, rng):
        spec = _spec([[2]], (2,), (0.1 + 0.2j,))
        K = spec.datum.matrix
        u = u_class(K)
        for c in pi_group(K).elements:
            ratios = []
            for _ in range(5):
                config = random_configuration(spec, rng)
                base = kvw_wavefunction(spec, c, config)
                moved, factor = translate(spec, "t1", config[None, :])
                ratios.append(factor[0] * phi_values(spec, (c,), moved)[0, 0] / base)
            assert np.std(ratios) < 1e-9
            assert abs(np.mean(ratios) - upsilon(u, c, K)) < 1e-9

    def test_residuals_single_layer(self, rng):
        spec = _spec([[2]], (2,), (0.3 - 0.1j,), tau=TorusParams(1j))
        grp = pi_group(spec.datum.matrix)
        configs = np.array([random_configuration(spec, rng) for _ in range(20)])
        for c in grp.elements:
            assert magnetic_action_residual(spec, c, "t1", configs) < 1e-9
            assert magnetic_action_residual(spec, c, "t2", configs) < 1e-9

    def test_residuals_two_layer(self, rng):
        spec = _spec([[2, 1], [1, 2]], (1, 1), (0.1 + 0.2j, -0.05 + 0.1j))
        grp = pi_group(spec.datum.matrix)
        configs = np.array([random_configuration(spec, rng) for _ in range(10)])
        for c in grp.elements:
            assert magnetic_action_residual(spec, c, "t1", configs) < 1e-9
            assert magnetic_action_residual(spec, c, "t2", configs) < 1e-9

    @pytest.mark.parametrize(
        "rows, n_vec, c",
        [
            # delta c = 3/7 is not an integer; truncating it would pick slot 0
            ([[3]], (1,), (Fraction(1, 7),)),
            # delta c = (1, 0) is an integer vector, but c is not in K^-1 Z^2
            ([[2, 0], [0, 2]], (1, 1), (Fraction(1, 4), Fraction(0))),
        ],
        ids=["k3", "diag2"],
    )
    def test_residual_rejects_c_outside_lattice(self, rng, rows, n_vec, c):
        spec = _spec(rows, n_vec, (0.1j,) * len(n_vec))
        with pytest.raises(ValueError, match="does not lie in"):
            magnetic_action_residual(spec, c, "t1", random_configuration(spec, rng)[None, :])

    def test_t1_fixes_invariant_vector(self, rng):
        # c = 0 pairs trivially with u, so T1 has eigenvalue 1 there
        spec = _spec([[3]], (1,), (0.2j,))
        zero = pi_group(spec.datum.matrix).elements[0]
        config = random_configuration(spec, rng)
        base = kvw_wavefunction(spec, zero, config)
        moved, factor = translate(spec, "t1", config[None, :])
        assert _residual(factor[0] * phi_values(spec, (zero,), moved)[0, 0], base) < 1e-10

    def test_t2_orbit_cycles(self, rng):
        # applying T2 delta times walks the u-orbit back to the start
        spec = _spec([[2, 1], [1, 2]], (1, 1), (0.1j, 0.2))
        K = spec.datum.matrix
        u = u_class(K)
        config = random_configuration(spec, rng)
        c = pi_group(K).elements[1]
        # T2^j Phi_c(z) is the product of the T2 factors along z, z + tau/d, ...
        # times Phi_c at z + j tau/d
        moved, factor = config[None, :], np.ones(1)

        # intermediate steps hit Phi_{c + j u}
        expect_c = c
        for j in range(1, K.delta + 1):
            expect_c = pi_add(expect_c, u)
            moved, step = translate(spec, "t2", moved)
            factor = factor * step
            got = factor[0] * phi_values(spec, (c,), moved)[0, 0]
            want = kvw_wavefunction(spec, expect_c, config)
            assert _residual(got, want) < 1e-9
        assert expect_c == c  # delta steps close the orbit


class TestBatchedEvaluation:
    def test_all_cosets_match_one_characteristic_sums(self, rng):
        spec = _spec([[3, 2], [2, 3]], (1, 1), (0.1 + 0.2j, -0.05j))
        cs = pi_group(spec.datum.matrix).elements
        w = rng.random((50, 2)) * 2 + spec.torus.tau * rng.random((50, 2)) * 2
        arg = w @ np.array([[3.0, 2.0], [2.0, 3.0]]).T + np.array(spec.xi)
        got = center_basis_values(spec, cs, w)
        for c, row in zip(cs, got):
            chars = ThetaCharacteristics(a=tuple(float(x) for x in c), b=(0.0, 0.0))
            want = riemann_theta_batch(chars, arg, spec.omega())
            assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_stacked_pairs_match_pair_loop(self, rng):
        spec = _spec([[3, 1], [1, 3]], (2, 2), (0j, 0j))
        layers = [rng.random((40, 2)) + spec.torus.tau * rng.random((40, 2)) for _ in range(2)]
        want = np.ones(40, dtype=complex)
        for k, l, e in ((0, 0, 3), (1, 1, 3), (0, 1, 1)):
            for p in range(layers[k].shape[1]):
                for q in range(layers[l].shape[1]):
                    if k != l or p < q:
                        want *= theta_odd_batch(layers[k][:, p] - layers[l][:, q], TAU) ** e
        got = jastrow_batch(spec.datum, TAU, layers)
        assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))


    @pytest.mark.parametrize(
        "kmat,nvec,xi,tau",
        [
            ([[3, 2], [2, 3]], (1, 1), (0.1 + 0.2j, 0j), TorusParams(1j)),
            ([[3]], (6,), (0.1 + 0.05j,), TorusParams(1j)),
        ],
        ids=["readme", "laughlin-third-6"],
    )
    def test_phi_values_match_scalar_wavefunction(self, kmat, nvec, xi, tau, rng):
        spec = _spec(kmat, nvec, xi, tau)
        cs = pi_group(spec.datum.matrix).elements
        configs = np.array([random_configuration(spec, rng) for _ in range(50)])
        got = phi_values(spec, cs, configs)
        assert got.shape == (len(cs), 50)
        for j, config in enumerate(configs):
            for i, c in enumerate(cs):
                want = kvw_wavefunction(spec, c, config)
                assert abs(got[i, j] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("check", ["kvw", "magnetic"])
    def test_check_theta_calls_independent_of_size(self, check, monkeypatch):
        # the many-body checks batch every configuration and coset, so the
        # number of lattice sums they start does not grow with samples or delta
        from torushall import theta, wavefunctions

        calls = []

        def counted(original):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)

            return wrapper

        for module in (theta, wavefunctions):
            monkeypatch.setattr(module, "_theta_sum", counted(module._theta_sum))
        run = {
            "kvw": checks.check_kvw_quasi_periodicity,
            "magnetic": checks.check_magnetic_action,
        }[check]
        counts = set()
        for kmat in ([[2, 1], [1, 2]], [[3, 2], [2, 3]]):  # delta = 3 and 5
            spec = _spec(kmat, (1, 1), (0.1 + 0.2j, -0.05j))
            for samples in (6, 20):
                calls.clear()
                records = run(spec, seed=1, samples=samples)
                assert [r["verdict"] for r in records] == ["PASS", "PASS"]
                counts.add(len(calls))
        # Phi(z) and the two moved Phi: one center sum and one odd-theta call each
        assert counts == {6}, counts


class TestUnitCellChecks:
    @pytest.mark.parametrize("seed", [606, 707])
    def test_laughlin_third_six_particles(self, seed):
        # unit-cell configurations shifted by tau reach heights where the
        # theta series of Phi_c overflows unless its argument is reduced
        spec = _spec([[3]], (6,), (0.1 + 0.05j,), tau=TorusParams(1j))
        records = checks.check_kvw_quasi_periodicity(spec, seed=seed)
        records += checks.check_magnetic_action(spec, seed=seed)
        assert [r["verdict"] for r in records] == ["PASS"] * 4, records

    def test_nan_wavefunction_fails_every_record(self, monkeypatch):
        # a NaN Phi must not read as a zero defect in either law family
        from torushall import wavefunctions

        monkeypatch.setattr(
            wavefunctions,
            "jastrow_batch",
            lambda datum, tau, layers, tol=1e-12: np.full(layers[0].shape[0], np.nan),
        )
        spec = _spec([[3, 2], [2, 3]], (1, 1), (0.1 + 0.2j, 0j), tau=TorusParams(1j))
        records = checks.check_kvw_quasi_periodicity(spec) + checks.check_magnetic_action(
            spec, samples=6
        )
        assert [r["name"] for r in records] == [
            "wavefn.shift_one",
            "wavefn.shift_tau",
            "magnetic.t1_eigenvalue",
            "magnetic.t2_shift",
        ]
        assert all(r["verdict"] == "FAIL" and np.isnan(r["measured"]) for r in records)

    @pytest.mark.parametrize(
        "mutant, failing",
        [
            ("t2-inverse", ["magnetic.t2_shift"]),
            ("t1-negated", ["magnetic.t1_eigenvalue"]),
            ("sign-flipped", ["wavefn.shift_one", "wavefn.shift_tau"]),
        ],
        ids=["t2-inverse", "t1-negated", "sign-flipped"],
    )
    def test_wrong_law_fails_its_records(self, mutant, failing, monkeypatch):
        # a wrong T2 permutation, T1 exponent or sector sign fails exactly its
        # own records on the README datum, by an O(1) defect
        from torushall import wavefunctions

        action = wavefunctions.translation_action
        sign = WaveFunctionSpec.sector_sign

        def t2_inverse(K, numerators):
            t1, t2 = action(K, numerators)
            return t1, tuple(int(i) for i in np.argsort(t2))

        def t1_negated(K, numerators):
            t1, t2 = action(K, numerators)
            return tuple(-e for e in t1), t2

        if mutant == "sign-flipped":
            monkeypatch.setattr(WaveFunctionSpec, "sector_sign", lambda spec: -sign(spec))
        else:
            patched = {"t2-inverse": t2_inverse, "t1-negated": t1_negated}[mutant]
            monkeypatch.setattr(wavefunctions, "translation_action", patched)
        spec = _spec([[3, 2], [2, 3]], (1, 1), (0.1 + 0.2j, 0j), tau=TorusParams(1j))
        records = checks.check_kvw_quasi_periodicity(spec) + checks.check_magnetic_action(
            spec, samples=6
        )
        assert [r["name"] for r in records if r["verdict"] == "FAIL"] == failing
        assert all(r["measured"] > 0.1 for r in records if r["name"] in failing), records
